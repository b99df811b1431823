"""Independent constructions that tests compare the package against.

Each oracle builds its answer another way than the package does, from
public functions only, so that a test comparing the two checks more
than one code path against itself.
"""

import numpy as np

from qdual import (Module, free_module, linalg, minimal_free_resolution,
                   quotient_module, radical_submodule, regular_module,
                   ses_from_submodule, validate_ring)


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


def reference_residue_field(ring):
    """k = R/mR as `quotient_module` builds it: one canonical basis of
    the radical actions on R, the rref-pivot complement and the closure
    check, with none of what `validate_ring` recorded."""
    reg = regular_module(ring)
    return quotient_module(reg, radical_submodule(reg))[0]


def reordered_ring(ring, order):
    """The same algebra with basis e'_a = e_{order[a]}, read back through
    `validate_ring`: the unit is e'_a for the a with order[a] = 0."""
    idx = np.asarray(order)
    struct = ring.struct[np.ix_(idx, idx, idx)]
    return validate_ring("%s:%s" % (ring.name, "".join(map(str, order))),
                         ring.p, ring.dim, ring.unit[idx], struct)


def reference_hom(m, n):
    """(module, basis, support) of Hom_R(M, N) as the kernel of the
    commutation constraints vec(X A_i) - vec(B_i X) over the whole ring
    basis, with the action B_i X read on the kernel's support."""
    ring = m.ring
    p = ring.p
    nm, nn = m.dim, n.dim
    # vec(X A_i) - vec(B_i X) = 0, row-major vec: entry (i, a, b, c, e)
    # is delta_ac A_i[e, b] - B_i[a, c] delta_be
    constraint = (linalg.eye_kron(nn, m.action.transpose(0, 2, 1))
                  - linalg.kron_eye(n.action, nm)) % p
    constraint = constraint.reshape(ring.dim * nn * nm, nn * nm)
    basis, support = linalg.kernel_with_support(constraint, p)
    h = basis.shape[1]
    # B_i X for every basis column X, read as an nn x nm matrix
    action = (n.action @ basis.reshape(nn, nm * h) % p).reshape(
        ring.dim, nn * nm, h)[:, support, :]
    return Module(ring, h, action, check=False), basis, tuple(support)


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
    Hom(F_i, N) = N^{b_i}, phi -> (phi(e_c))_c on the free generators.
    If d_{i+1}(e_k) = sum_c a_ck e_c, then phi . d_{i+1} sends e_k to
    sum_c a_ck phi(e_c), so block (k, c) of the cochain map is N's
    action of the ring element a_ck: sum_t kron(A_t, N_t), with A_t[k, c]
    the e_t coordinate of a_ck.  It shares neither
    `_generator_ring_blocks` nor an einsum layout with `ext_dims`, only
    the resolution, whose ranks b_i it reads off the widths of the
    differentials, not off the Tor loop."""
    ring = m.ring
    p, d = ring.p, ring.dim
    diffs = minimal_free_resolution(m, bound + 1).diffs
    ranks = [0]
    for diff in diffs[1:]:
        # column k is d(e_k): the columns d(e_t e_k), t < d, weighted by
        # the unit's coordinates
        gens = sum(int(u) * diff[:, t::d] for t, u in enumerate(ring.unit)) % p
        cochain = sum(np.kron(gens[t::d].T, n.action[t]) for t in range(d))
        ranks.append(linalg.rank(cochain % p, p))
    return tuple(x.shape[1] // d * n.dim - ranks[i] - ranks[i + 1]
                 for i, x in enumerate(diffs[:bound + 1]))


def closure_loop_span(module, vectors):
    """The canonical basis of the span R V of the columns V as a
    fixpoint loop that re-closes the span under the action until it
    stops growing."""
    p = module.ring.p
    basis, pivots = linalg.canon_basis(linalg.as_fp(vectors, p), p)
    while True:
        if basis.shape[1] == 0:
            return basis, pivots
        images = [module.action[i] @ basis % p
                  for i in range(module.ring.dim)]
        stacked = np.concatenate([basis] + images, axis=1)
        new_basis, new_pivots = linalg.canon_basis(stacked, p)
        if new_basis.shape[1] == basis.shape[1]:
            return new_basis, new_pivots
        basis, pivots = new_basis, new_pivots


def closure_loop_generators(module):
    """Minimal generators as columns: each candidate of the canonical
    complement of mM is kept when it lies outside mM plus the span of
    those kept before, re-closed after every kept candidate."""
    p = module.ring.p
    basis, pivots = linalg.canon_basis(radical_submodule(module), p)
    _, sect, _ = linalg.complement(basis, pivots, module.dim, p)
    chosen = []
    span, span_piv = basis, pivots
    for j in range(sect.shape[1]):
        c = sect[:, j:j + 1]
        if linalg.in_span(span, span_piv, c, p):
            continue
        chosen.append(c)
        span, span_piv = closure_loop_span(
            module, np.concatenate([span, c], axis=1))
    if not chosen:
        return linalg.zeros(module.dim, 0)
    return np.concatenate(chosen, axis=1)


def _generator_columns(acts, vectors, p):
    """Field matrix of R^s -> X sending free generator j to column j of
    `vectors`: column j*d + t is acts[t] @ vectors[:, j]."""
    cols = [acts[t] @ vectors[:, j] % p
            for j in range(vectors.shape[1]) for t in range(len(acts))]
    return np.array(cols, dtype=np.int64).reshape(
        len(cols), vectors.shape[0]).T


def reference_resolution(m, length):
    """(betti, diffs) of a minimal free resolution of M to `length`,
    built the long way: Omega^i is the submodule of R^{b_{i-1}} that
    `ses_from_submodule` makes of the canonical kernel of d_{i-1}, its
    generators come from the closure loop, and the ring acts on R^b by
    the explicit kron(I_b, mult[t])."""
    ring = m.ring
    p, d = ring.p, ring.dim
    diffs = [_generator_columns(m.action, closure_loop_generators(m), p)]
    for _ in range(length):
        b = diffs[-1].shape[1] // d
        kernel = linalg.canon_kernel(diffs[-1], p)[0]
        incl = ses_from_submodule(free_module(ring, b), kernel).sub
        acts = [np.kron(linalg.identity(b), ring.mult[t]) for t in range(d)]
        gens = incl.matrix @ closure_loop_generators(incl.source) % p
        diffs.append(_generator_columns(acts, gens, p))
    return tuple(x.shape[1] // d for x in diffs), diffs
