"""Resolutions, Ext/Tor tables, cross-oracles, complex homology."""

import numpy as np
import pytest

from qdual import (builtin_module, complex_homology, corpus_ring,
                   ext_dims, ext_dims_via_injective, injective_resolution,
                   matlis_dual, minimal_free_resolution, regular_module,
                   sample_modules, tor_dims, zero_module)
from qdual.errors import NotAComplex

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
                b = ext_dims_via_injective(m, n, 4).dims
                assert a == b


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


def test_injective_resolution_by_duality():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    betti, maps, coaug = injective_resolution(k, 3)
    assert betti == minimal_free_resolution(matlis_dual(k), 3).betti
    p = r5.p
    assert not np.any(maps[0] @ coaug % p)
    for i in range(len(maps) - 1):
        assert not np.any(maps[i + 1] @ maps[i] % p)


def test_zero_module_tables():
    r5 = RINGS["r5"]
    z = zero_module(r5)
    k = builtin_module(r5, "k")
    assert ext_dims(z, k, 3).dims == (0, 0, 0, 0)
    assert ext_dims(k, z, 3).dims == (0, 0, 0, 0)
    assert tor_dims(z, k, 3).dims == (0, 0, 0, 0)


def test_complex_homology_exact_couple():
    # 0 -> F_2 -> F_2^2 -> F_2 -> 0 split: homology vanishes
    d2 = np.array([[1], [0]], dtype=np.int64)
    d1 = np.array([[0, 1]], dtype=np.int64)
    assert complex_homology([d1, d2], 2) == [0, 0, 0]


def test_complex_homology_rejects_non_complex():
    d2 = np.array([[1], [0]], dtype=np.int64)
    d1 = np.array([[1, 0]], dtype=np.int64)
    with pytest.raises(NotAComplex) as info:
        complex_homology([d1, d2], 2)
    assert info.value.index == 0


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
