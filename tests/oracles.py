"""Independent constructions that tests compare the package against.

Each oracle builds its answer another way than the package does, from
public functions only, so that a test comparing the two checks more
than one code path against itself.
"""

import numpy as np

from qdual import (Module, free_module, hom_module, linalg,
                   minimal_free_resolution, quotient_module, validate_ring)


def ring_text(name, p, dim, products):
    """Ring file for basis e_0 = 1, e_1, ..., e_{dim-1}; products[(i, j)]
    holds the coordinates of e_i e_j for 1 <= i <= j, missing ones are 0."""
    lines = ["[ring]", "name = %s" % name, "p = %d" % p, "dim = %d" % dim,
             "unit = " + " ".join(["1"] + ["0"] * (dim - 1))]
    for i in range(dim):
        for j in range(i, dim):
            if i == 0:
                coords = [int(t == j) for t in range(dim)]
            else:
                coords = products.get((i, j), [0] * dim)
            lines.append("mul %d %d = %s" % (i, j, " ".join(map(str, coords))))
    return "\n".join(lines) + "\n"


# F_4[x]/(x^2) as an F_2-algebra with basis 1, a, x, ax and a^2 = a + 1:
# residue field F_4, so generators are counted over a degree-2 extension.
F4X = ring_text("f4x", 2, 4, {(1, 1): [1, 1, 0, 0], (1, 2): [0, 0, 0, 1],
                              (1, 3): [0, 0, 1, 1]})


def rebased_ring(ring, seed):
    """The same algebra in a seeded random basis whose first vector is
    the unit, read back through `validate_ring`.  Every dimension it
    gives is the ring's, but no matrix need be aligned with m or soc:
    mN and soc N of its modules are spanned by vectors, not by unit
    vectors of the module's coordinates."""
    p, d = ring.p, ring.dim
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, p, size=(d, d), dtype=np.int64)
        g[:, 0] = ring.unit
        r, _, pivots = linalg.rref(np.concatenate([g, linalg.identity(d)],
                                                  axis=1), p)
        if pivots == list(range(d)):
            break
    # g[:, a] g[:, b] in the old basis, then in the new one
    products = np.einsum("ia,jb,ijk->abk", g, g, ring.struct) % p
    struct = products @ r[:, d:].T % p
    return validate_ring("%s@%d" % (ring.name, seed), p, d,
                         linalg.identity(d)[0], struct)


def reference_tensor_module(m, n):
    """(module, proj, sect) of M (x)_R N as the quotient of the
    vector-space tensor M (x)_k N, basis (a, b) -> a*dimN + b and R
    acting on the left factor, by the bilinearity relations
    (A_i m) (x) n - m (x) (B_i n), on the rref-pivot complement."""
    ring = m.ring
    p = ring.p
    nm, nn = m.dim, n.dim
    left = linalg.kron_eye(m.action, nn)
    full = Module(ring, nm * nn, left.reshape(ring.dim, nm * nn, nm * nn),
                  check=False)
    # column (i, c, e) of the relations is column (c, e) of
    # kron(A_i, I) - kron(I, B_i)
    rels = (left - linalg.eye_kron(nm, n.action)) % p
    relcols = rels.transpose(1, 2, 0, 3, 4).reshape(
        nm * nn, ring.dim * nm * nn)
    quot, projmap, sect = quotient_module(full, relcols)
    return quot, projmap.matrix, sect


def hom_cochain_ext_dims(m, n, bound):
    """dim Ext^i(M, N) for 0 <= i <= bound from the cochain complex
    Hom(F_i, N) = hom_module(R^{b_i}, N), whose map phi -> phi . d_{i+1}
    is written in the coordinates `HomData.coords` gives; it shares
    neither `_generator_ring_blocks` nor an einsum layout with
    `ext_dims`, only the resolution."""
    ring = m.ring
    p = ring.p
    res = minimal_free_resolution(m, bound + 1)
    homs = [hom_module(free_module(ring, b), n) for b in res.betti]
    ranks = [0]
    for source, target, d in zip(homs, homs[1:], res.diffs[1:]):
        h = source.module.dim
        # basis column j of Hom(F_i, N) is a dim N x dim F_i matrix phi_j
        phis = source.basis.T.reshape(h, n.dim, d.shape[0])
        images = (phis @ d % p).reshape(h, n.dim * d.shape[1]).T
        ranks.append(linalg.rank(target.coords(images), p))
    return tuple(hom.module.dim - ranks[i] - ranks[i + 1]
                 for i, hom in enumerate(homs[:bound + 1]))
