"""Resolutions, Ext/Tor tables and cross-oracles."""

import hashlib
import itertools

import numpy as np
import pytest
from oracles import F4X, hom_cochain_ext_dims

from qdual import (builtin_module, clear_resolution_cache, corpus_ring,
                   ext_dims, ext_dims_via_injective, free_module, hom_module,
                   linalg, matlis_dual, minimal_free_resolution, parse_ring,
                   regular_module, sample_modules, socle, tor_dims,
                   zero_module)
from qdual.classes import _vanishing
from qdual.errors import RingMismatch
from qdual.homology import (_generator_ring_blocks, forces_vanishing,
                            tor_degrees)

RINGS = {name: corpus_ring(name) for name in ("r3", "r4", "r5", "r6")}


def test_resolution_of_k_over_r3_is_periodic():
    r3 = RINGS["r3"]
    k = builtin_module(r3, "k")
    res = minimal_free_resolution(k, 6)
    assert res.betti == (1,) * 7


def test_resolution_of_k_over_r5_doubles():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    res = minimal_free_resolution(k, 6)
    assert res.betti == (1, 2, 4, 8, 16, 32, 64)


def test_resolution_over_field_extension_is_minimal():
    # over F_4 the top of a module is a 2-dimensional F_2-space per
    # generator; the generator count must use the residue field
    r2 = corpus_ring("r2")
    k = builtin_module(r2, "k")
    assert minimal_free_resolution(k, 4).betti == (1, 0, 0, 0, 0)
    assert ext_dims(k, k, 3).dims == (2, 0, 0, 0)
    mods = sample_modules(r2, 3, 17)
    for m in mods:
        betti = minimal_free_resolution(m, 3).betti
        assert betti[1:] == (0, 0, 0)
        assert betti[0] * 2 == m.dim


def test_resolution_of_free_module_stops():
    r5 = RINGS["r5"]
    res = minimal_free_resolution(regular_module(r5), 3)
    assert res.betti == (1, 0, 0, 0)


def test_resolution_is_a_complex_and_minimal():
    for ring in RINGS.values():
        k = builtin_module(ring, "k")
        res = minimal_free_resolution(k, 4)
        p = ring.p
        # d . d = 0, including the augmentation
        assert not np.any(res.augmentation.matrix @ res.diffs[0] % p)
        for i in range(len(res.diffs) - 1):
            assert not np.any(res.diffs[i] @ res.diffs[i + 1] % p)
        # minimality: entries of each differential lie in the radical,
        # i.e. tensoring with k kills it; equivalently Ext^i(k,k) has
        # dimension betti_i * residue_degree
        dims = ext_dims(k, k, 4).dims
        assert dims == tuple(b * ring.residue_degree for b in res.betti[:5])


def test_ext_cross_oracle_on_corpus():
    for ring in RINGS.values():
        mods = sample_modules(ring, 6, 21) + [builtin_module(ring, "k")]
        for m in mods[:3]:
            for n in mods[3:]:
                a = ext_dims(m, n, 4).dims
                assert a == hom_cochain_ext_dims(m, n, 4)
                # the injective route is the Matlis swap
                b = ext_dims_via_injective(m, n, 4).dims
                assert b == ext_dims(matlis_dual(n), matlis_dual(m), 4).dims


def test_tor_symmetry():
    for ring in RINGS.values():
        mods = sample_modules(ring, 4, 22)
        for m in mods[:2]:
            for n in mods[2:]:
                assert tor_dims(m, n, 4).dims == tor_dims(n, m, 4).dims


def test_ext_tor_matlis_duality():
    # Ext^i(M, N^v) has the dimension of Tor_i(M, N)
    for ring in RINGS.values():
        mods = sample_modules(ring, 4, 23)
        for m in mods[:2]:
            for n in mods[2:]:
                assert (ext_dims(m, matlis_dual(n), 4).dims
                        == tor_dims(m, n, 4).dims)
                # Ext is computed through Tor, so Tor is also checked
                # against the Hom cochain complex, which shares no code
                # with it
                assert (tor_dims(m, n, 4).dims
                        == hom_cochain_ext_dims(m, matlis_dual(n), 4))


def test_ext_matlis_swap():
    # Ext^i(M, N) = Ext^i(N^v, M^v)
    for ring in RINGS.values():
        mods = sample_modules(ring, 4, 24)
        for m in mods[:2]:
            for n in mods[2:]:
                lhs = ext_dims(m, n, 4).dims
                rhs = ext_dims(matlis_dual(n), matlis_dual(m), 4).dims
                assert lhs == rhs


def test_ext_degree_zero_is_hom():
    from qdual import hom_module
    for ring in RINGS.values():
        mods = sample_modules(ring, 4, 25)
        for m in mods[:2]:
            for n in mods[2:]:
                assert ext_dims(m, n, 0).dims[0] == \
                    hom_module(m, n).module.dim


def test_ext_from_free_vanishes_positively():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    dims = ext_dims(regular_module(r5), k, 4).dims
    assert dims == (1, 0, 0, 0, 0)


def test_zero_module_tables():
    r5 = RINGS["r5"]
    z = zero_module(r5)
    k = builtin_module(r5, "k")
    assert ext_dims(z, k, 3).dims == (0, 0, 0, 0)
    assert ext_dims(k, z, 3).dims == (0, 0, 0, 0)
    assert tor_dims(z, k, 3).dims == (0, 0, 0, 0)


def test_resolution_cache_returns_consistent_prefixes():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    long = minimal_free_resolution(k, 5)
    short = minimal_free_resolution(k, 2)
    assert short.betti == long.betti[:3]
    for a, b in zip(short.diffs, long.diffs):
        assert np.array_equal(a, b)


def test_cached_resolution_arrays_are_read_only():
    k = builtin_module(RINGS["r5"], "k")
    minimal_free_resolution(k, 2)
    longer = minimal_free_resolution(k, 4)     # continues the cached one
    for res in (minimal_free_resolution(k, 2), longer):
        for matrix in res.diffs + (res.augmentation.matrix,):
            with pytest.raises(ValueError):
                matrix[0, 0] = matrix[0, 0]


def _resolution_parts(betti, augmentation, diffs):
    """Betti numbers plus the shape and bytes of every matrix."""
    parts = [repr(tuple(betti))]
    for matrix in (augmentation.matrix,) + tuple(diffs):
        parts += [repr(matrix.shape), np.ascontiguousarray(matrix).tobytes()]
    return parts


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)], ids=lambda r: r.name)
def test_growing_resolution_gives_the_same_bytes(ring):
    mods = [builtin_module(ring, name) for name in ("k", "R", "E")]
    for m in mods + sample_modules(ring, 2, 61, max_dim=8):
        clear_resolution_cache()
        direct = minimal_free_resolution(m, 5)
        clear_resolution_cache()
        grown = [minimal_free_resolution(m, n) for n in (2, 5, 3)]
        for res in grown:
            n = len(res.diffs)
            assert _resolution_parts(res.betti, res.augmentation,
                                     res.diffs) == _resolution_parts(
                direct.betti[:n + 1], direct.augmentation, direct.diffs[:n])
            for matrix in res.diffs + (res.augmentation.matrix,):
                with pytest.raises(ValueError):
                    matrix[...] = 0


def test_resolution_length_does_not_depend_on_the_cache():
    k = builtin_module(RINGS["r5"], "k")
    clear_resolution_cache()
    for cached in (None, 2, 6):
        if cached is not None:
            minimal_free_resolution(k, cached)
        for n in range(8):
            res = minimal_free_resolution(k, n)
            assert len(res.betti) == n + 1 and len(res.diffs) == n
            assert res.betti == (1, 2, 4, 8, 16, 32, 64, 128)[:n + 1]
    # the per-degree loop grows the same cached resolution; Ext^i(k, k)
    # is read as Tor_i(k, k^v)
    clear_resolution_cache()
    assert list(itertools.islice(tor_degrees(k, matlis_dual(k)), 3)) == [
        1, 2, 4]
    assert minimal_free_resolution(k, 1).betti == (1, 2)
    assert minimal_free_resolution(k, 4).betti == (1, 2, 4, 8, 16)


def reference_table_dims(m, n, bound, layout):
    """The whole table from one resolution of length bound+1, as Ext/Tor
    were computed before degrees were ranked one at a time."""
    ring = m.ring
    p = ring.p
    res = minimal_free_resolution(m, bound + 1)
    ranks = [0]
    for i in range(bound + 1):
        blocks = _generator_ring_blocks(res.diffs[i], res.betti[i],
                                        res.betti[i + 1], ring)
        mat = np.einsum(layout, blocks, n.action) % p
        shape = mat.shape
        ranks.append(linalg.rank(mat.reshape(shape[0] * shape[1],
                                             shape[2] * shape[3]), p))
    return tuple(b * n.dim - ranks[i] - ranks[i + 1]
                 for i, b in enumerate(res.betti[:bound + 1]))


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)], ids=lambda r: r.name)
def test_ext_matches_the_hom_cochain_oracle(ring):
    mods = [builtin_module(ring, name) for name in ("k", "R", "E")]
    mods += sample_modules(ring, 3, 41)
    for m in mods:
        for n in mods:
            assert ext_dims(m, n, 3).dims == hom_cochain_ext_dims(m, n, 3)


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)], ids=lambda r: r.name)
def test_per_degree_loop_matches_whole_tables(ring):
    bound = 4
    mods = sample_modules(ring, 3, 31, max_dim=8) + [
        builtin_module(ring, "k")]
    for m in mods:
        for n in mods:
            clear_resolution_cache()      # the loop extends from nothing
            ext = tuple(itertools.islice(tor_degrees(m, matlis_dual(n)),
                                         bound + 1))
            tor = tuple(itertools.islice(tor_degrees(m, n), bound + 1))
            clear_resolution_cache()      # the reference resolves at once
            want_ext = reference_table_dims(m, n, bound, "cjr,rab->jacb")
            want_tor = reference_table_dims(m, n, bound, "cjr,rab->cajb")
            assert ext == want_ext == ext_dims(m, n, bound).dims
            assert ext == ext_dims_via_injective(m, n, bound).dims
            assert tor == want_tor == tor_dims(m, n, bound).dims
            # every bound up to 4, so that the last degree is checked
            for (target, table, name), b in itertools.product(
                    ((matlis_dual(n), want_ext, "Ext^%d"),
                     (n, want_tor, "Tor_%d")), range(1, bound + 1)):
                first = next((i for i in range(1, b + 1) if table[i]), None)
                assert _vanishing("v", name, m, target, b) == (
                    ("v", "PASS", "") if first is None else
                    ("v", "FAIL", "%s has dim %d" % (name % first,
                                                     table[first])))


def test_per_degree_loop_checks_rings_before_iterating():
    k3 = builtin_module(RINGS["r3"], "k")
    k5 = builtin_module(RINGS["r5"], "k")
    for n in (k5, matlis_dual(k5)):        # Tor, and Ext read as Tor
        with pytest.raises(RingMismatch):
            tor_degrees(k3, n)
    with pytest.raises(RingMismatch):
        ext_dims(k3, k5, 0)



def _free(x):
    # Tor of X against itself is forced exactly when X is free
    return forces_vanishing(x, x)


def _injective(x):
    # Ext from X^v into X, read as Tor_i(X^v, X^v), is forced exactly
    # when X^v is free, that is, when X is injective
    return forces_vanishing(matlis_dual(x), matlis_dual(x))


@pytest.mark.parametrize("name", ["r1", "r2", "r3", "r4", "r5", "r6"])
def test_forced_vanishing_agrees_with_the_tables(name):
    ring = corpus_ring(name)
    bound = 6 if name == "r5" else 8
    # E (+) E is the Matlis dual of R^2
    mods = [builtin_module(ring, s) for s in ("0", "k", "R", "E")] + [
        free_module(ring, 2), matlis_dual(free_module(ring, 2)),
        *sample_modules(ring, 4, 7)]
    fired_beyond_free = 0
    for (m, n), (dual, dims) in itertools.product(
            itertools.product(mods, repeat=2),
            ((matlis_dual, ext_dims), (lambda x: x, tor_dims))):
        # Ext^i(M, N) is forced when Tor_i(M, N^v) is
        if forces_vanishing(m, dual(n)):
            assert dims(m, n, bound).dims[1:] == (0,) * bound
            fired_beyond_free += not _free(m)
    # over a field every module is free; elsewhere the certificate is
    # more than "M is free"
    assert fired_beyond_free > 0 or name in ("r1", "r2")


@pytest.mark.parametrize("name", ["r1", "r2", "r3", "r4", "r5", "r6"])
def test_free_and_injective_in_closed_form(name):
    ring = corpus_ring(name)
    k, r, e = (builtin_module(ring, s) for s in ("k", "R", "E"))
    assert all(_free(free_module(ring, b)) for b in range(4))
    # E (+) E is the Matlis dual of R^2
    assert _injective(e) and _injective(matlis_dual(free_module(ring, 2)))
    # R is self-injective exactly on the Gorenstein rings
    assert _injective(r) == (name != "r5")
    if name == "r5":
        assert socle(r).shape[1] == 2
    if name not in ("r1", "r2"):
        assert not _free(k) and not _injective(k)

# sha256 over the betti numbers, the augmentation matrix and every
# differential of minimal_free_resolution(m, 5) for k, R, E and eight
# samples per ring, recorded before minimal generators were read off a
# rank profile and the free-module action stopped building kron(I, mult):
# the verify digests see only verdict text, these see the matrices.
RESOLUTION_DIGESTS = {
    "r1": "c05641a37f903e1a08154d7218108d8d21cea2264c21283b8c8a97bd7cac281c",
    "r2": "ffb961e77634c53037954f18220d81483bf32839810ad22e15efd3afa10b3f0b",
    "r3": "131748af67c119645911bc936df0c6d193373cffefd5ce784e125d3f7e10a375",
    "r4": "486f4ce99c2f96709b8172c75d751ee5ad4bb22a89c789c29cf0bbc7691ed7b4",
    "r5": "45c5152ec67ce72462684e0c83b0e7ae52db02fa5bfe8e72205c7a5d3738ea88",
    "r6": "491a24ecd10330d5cecc3b4e805031006e0c02867a98864e1f5adc374dfe2f1f",
    "f4x": "2ade0d54dd5a7d5b716163d5b53ad12ffe301c1c1af8b3ad25f376af6f947326",
}


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)], ids=lambda r: r.name)
def test_resolution_bytes_are_pinned(ring):
    clear_resolution_cache()
    mods = [builtin_module(ring, name) for name in ("k", "R", "E")]
    digest = hashlib.sha256()
    for m in mods + sample_modules(ring, 8, 53, max_dim=8):
        res = minimal_free_resolution(m, 5)
        digest.update(repr(res.betti).encode())
        for matrix in (res.augmentation.matrix,) + res.diffs:
            digest.update(repr(matrix.shape).encode())
            digest.update(np.ascontiguousarray(matrix).tobytes())
    assert digest.hexdigest() == RESOLUTION_DIGESTS[ring.name]
