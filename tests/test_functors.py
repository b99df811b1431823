"""Hom, tensor, Matlis duality and the natural transformations."""

import itertools
import sys
import types

import numpy as np
import pytest
from oracles import (F4X, rebased_ring, reference_hom,
                     reference_tensor_module, reordered_ring, ring_text)

from qdual import (Module, ModuleMap, biduality_map, builtin_module,
                   clear_resolution_cache, corpus_ring, evaluation_map,
                   gamma_map, hom_module, homothety_map, injective_hull,
                   is_isomorphism, matlis_dual, parse_ring, regular_module,
                   sample_modules, tensor_module, zero_module)
from qdual import cli, functors, linalg, module
from qdual.errors import RingMismatch

RINGS = {name: corpus_ring(name) for name in ("r1", "r3", "r5", "r6")}


def test_hom_from_regular_is_identity_functor():
    for ring in RINGS.values():
        reg = regular_module(ring)
        for name in ("R", "E", "k"):
            m = builtin_module(ring, name)
            assert hom_module(reg, m).module.dim == m.dim


def test_hom_k_R_is_socle():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    assert hom_module(k, regular_module(r5)).module.dim == 2
    r6 = RINGS["r6"]
    k6 = builtin_module(r6, "k")
    assert hom_module(k6, regular_module(r6)).module.dim == 1


def test_hom_k_k_is_residue_degree():
    r2 = corpus_ring("r2")
    k = builtin_module(r2, "k")
    assert hom_module(k, k).module.dim == r2.residue_degree
    k5 = builtin_module(RINGS["r5"], "k")
    assert hom_module(k5, k5).module.dim == 1


def test_tensor_with_regular_is_identity():
    for ring in RINGS.values():
        reg = regular_module(ring)
        for name in ("E", "k"):
            m = builtin_module(ring, name)
            assert tensor_module(reg, m).module.dim == m.dim
            assert tensor_module(m, reg).module.dim == m.dim


def test_tensor_E_with_k_counts_generators_of_E():
    r5 = RINGS["r5"]
    e = injective_hull(r5)
    k = builtin_module(r5, "k")
    assert tensor_module(e, k).module.dim == 2


def test_matlis_dual_is_exact_contravariant_on_dims():
    for ring in RINGS.values():
        for m in sample_modules(ring, 5, 2):
            assert matlis_dual(m).dim == m.dim


def test_injective_hull_is_dual_of_regular():
    r5 = RINGS["r5"]
    e = injective_hull(r5)
    assert e.dim == r5.dim
    assert np.array_equal(e.action[1], regular_module(r5).action[1].T)


def test_homothety_iso_for_R_and_E():
    for ring in RINGS.values():
        for name in ("R", "E"):
            chi = homothety_map(builtin_module(ring, name))
            assert is_isomorphism(chi)[0]


def test_homothety_not_iso_for_k_on_fat_point():
    r3 = RINGS["r3"]
    chi = homothety_map(builtin_module(r3, "k"))
    iso, diag = is_isomorphism(chi)
    assert not iso
    assert not diag["injective"]


def test_biduality_with_E_is_always_iso():
    for ring in RINGS.values():
        e = injective_hull(ring)
        for m in sample_modules(ring, 5, 4) + [zero_module(ring)]:
            delta = biduality_map(m, e)
            assert is_isomorphism(delta)[0]


def test_biduality_with_R_fails_for_k_over_r3():
    r3 = RINGS["r3"]
    k = builtin_module(r3, "k")
    delta = biduality_map(k, regular_module(r3))
    # Hom(k,R) = soc = k, Hom(k,R) again k: delta is k -> k here and an
    # iso on dims, but the interesting part is it stays a module map.
    assert delta.matrix.shape == (1, 1)


def test_evaluation_map_with_regular_parameter():
    for ring in RINGS.values():
        reg = regular_module(ring)
        for m in sample_modules(ring, 4, 5):
            xi = evaluation_map(reg, m)
            assert is_isomorphism(xi)[0]


def test_gamma_map_with_regular_parameter():
    for ring in RINGS.values():
        reg = regular_module(ring)
        for m in sample_modules(ring, 4, 6):
            g = gamma_map(reg, m)
            assert is_isomorphism(g)[0]


def test_adjunction_dimension_law():
    # dim Hom(M (x) N, L) = dim Hom(M, Hom(N, L))
    r5 = RINGS["r5"]
    mods = sample_modules(r5, 4, 9)
    for m in mods[:2]:
        for n in mods[2:]:
            l = injective_hull(r5)
            lhs = hom_module(tensor_module(m, n).module, l).module.dim
            rhs = hom_module(m, hom_module(n, l).module).module.dim
            assert lhs == rhs


def test_dual_swaps_hom_and_tensor_dims():
    r6 = RINGS["r6"]
    for m in sample_modules(r6, 4, 12):
        n = builtin_module(r6, "k")
        lhs = matlis_dual(tensor_module(m, n).module).dim
        rhs = hom_module(m, matlis_dual(n)).module.dim
        assert lhs == rhs


def test_ring_mismatch_rejected():
    # every functor checks the rings through its first hom_module call
    a, b = regular_module(RINGS["r3"]), regular_module(RINGS["r5"])
    for build in (hom_module, tensor_module, biduality_map, evaluation_map,
                  gamma_map):
        for args in ((a, b), (b, a)):
            with pytest.raises(RingMismatch):
                build(*args)


def test_zero_module_edge_cases():
    r5 = RINGS["r5"]
    z = zero_module(r5)
    reg = regular_module(r5)
    assert hom_module(z, reg).module.dim == 0
    assert hom_module(reg, z).module.dim == 0
    assert tensor_module(z, reg).module.dim == 0
    assert matlis_dual(z).dim == 0
    assert is_isomorphism(biduality_map(z, injective_hull(r5)))[0]


# The natural maps build their matrices by reshape and einsum; these are
# the per-entry loops they replaced, kept verbatim as the reference.

def loop_biduality_map(l, m):
    p = l.ring.p
    h1 = hom_module(l, m)
    h2 = hom_module(h1.module, m)
    k1 = h1.basis.shape[1]
    cols = []
    for a in range(l.dim):
        # matrix of the evaluation-at-e_a functional on the hom basis
        d_a = np.zeros((m.dim, k1), dtype=np.int64)
        for j in range(k1):
            phi = h1.basis[:, j].reshape(m.dim, l.dim)
            d_a[:, j] = phi[:, a]
        cols.append(d_a.reshape(-1) % p)
    flat = np.stack(cols, axis=1) if cols else linalg.zeros(
        m.dim * k1, 0)
    coords = h2.coords(flat)
    return ModuleMap(l, h2.module, coords)


def loop_evaluation_map(lp, l):
    p = l.ring.p
    hom = hom_module(lp, l)
    tens = tensor_module(hom.module, lp)
    h = hom.basis.shape[1]
    full = np.zeros((l.dim, h * lp.dim), dtype=np.int64)
    for j in range(h):
        phi = hom.basis[:, j].reshape(l.dim, lp.dim)
        full[:, j * lp.dim:(j + 1) * lp.dim] = phi
    matrix = full @ tens.sect % p
    return ModuleMap(tens.module, l, matrix)


def loop_gamma_map(lp, l):
    tens = tensor_module(lp, l)
    hom = hom_module(lp, tens.module)
    t = tens.module.dim
    cols = []
    for a in range(l.dim):
        g_a = np.zeros((t, lp.dim), dtype=np.int64)
        for b in range(lp.dim):
            g_a[:, b] = tens.proj[:, b * l.dim + a]
        cols.append(g_a.reshape(-1))
    flat = np.stack(cols, axis=1) if cols else linalg.zeros(t * lp.dim, 0)
    coords = hom.coords(flat)
    return ModuleMap(l, hom.module, coords)


def _assert_same_map(got, want):
    assert got.source.key == want.source.key
    assert got.target.key == want.target.key
    assert got.matrix.shape == want.matrix.shape
    assert got.matrix.dtype == want.matrix.dtype
    assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_natural_maps_match_loop_reference(ring):
    mods = [builtin_module(ring, name) for name in ("0", "k", "R", "E")]
    mods += sample_modules(ring, 3, 41, max_dim=6)
    for a, b in itertools.product(mods, repeat=2):
        _assert_same_map(biduality_map(a, b), loop_biduality_map(a, b))
        _assert_same_map(evaluation_map(a, b), loop_evaluation_map(a, b))
        _assert_same_map(gamma_map(a, b), loop_gamma_map(a, b))


def loop_hom_action(m, n, basis, support):
    """hom_module's action, one ring basis element at a time, as it was
    before one batched product replaced the loop."""
    p = m.ring.p
    nm, nn = m.dim, n.dim
    h = basis.shape[1]
    action = np.zeros((m.ring.dim, h, h), dtype=np.int64)
    for i in range(m.ring.dim):
        image = (n.action[i] @ basis.reshape(nn, nm * h) % p).reshape(
            nn * nm, h)
        action[i] = image[support, :] if support else linalg.zeros(0, h)
    return action


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_hom_action_matches_loop_reference(ring):
    mods = [builtin_module(ring, name) for name in ("0", "k", "R", "E")]
    mods += sample_modules(ring, 3, 43, max_dim=6)
    for a, b in itertools.product(mods, repeat=2):
        hom = hom_module(a, b)
        want = loop_hom_action(a, b, hom.basis, hom.support)
        got = hom.module.action
        assert got.shape == want.shape == (ring.dim,) + (hom.module.dim,) * 2
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _tensor_subjects(ring):
    """0, k, R, E, four samples and two Hom modules."""
    mods = [builtin_module(ring, name) for name in ("0", "k", "R", "E")]
    samples = sample_modules(ring, 4, 5, max_dim=8)
    return mods + samples + [hom_module(mods[3], samples[0]).module,
                             hom_module(samples[1], mods[2]).module]


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)], ids=lambda r: r.name)
def test_tensor_matches_the_bilinearity_quotient(ring):
    # the dual of Hom(N, M^v) is the quotient of M (x)_k N by the
    # bilinearity relations, bit for bit
    for m, n in itertools.product(_tensor_subjects(ring), repeat=2):
        got = tensor_module(m, n)
        module, proj, sect = reference_tensor_module(m, n)
        assert got.module.key == module.key
        assert got.module.name == module.name
        for mine, theirs in ((got.proj, proj), (got.sect, sect)):
            assert mine.shape == theirs.shape
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()


def test_functor_data_is_read_only():
    ring = RINGS["r5"]
    k, e = builtin_module(ring, "k"), injective_hull(ring)
    hom = hom_module(e, k)
    tens = tensor_module(e, k)
    for array in (hom.basis, tens.proj, tens.sect):
        assert array.size
        with pytest.raises(ValueError):
            array[0, 0] = 1
    # the memo hands one HomData to every caller, support included
    assert isinstance(hom.support, tuple) and hom.support
    with pytest.raises(TypeError):
        hom.support[0] = 1


# Hom and tensor data live in the run-scoped memo.  Each run of the Hom
# body, that is each memo miss, ends in exactly one HomData, whichever
# case answers it, and a tensor builds one Hom; so counting the HomData
# that functors makes counts Hom constructions.

def _hom_builds(monkeypatch):
    builds = []
    real = functors.HomData

    def spy(module, basis, support):
        builds.append(basis.shape)
        return real(module, basis, support)

    monkeypatch.setattr(functors, "HomData", spy)
    return builds


# A Hom that no Matlis read-off answers solves its constraints with one
# kernel_with_support call; resolutions reach kernel_with_support through
# linalg.canon_kernel, so the spy sees only the solves made by functors.

def _constraint_solves(monkeypatch):
    solves = []

    def spy(a, p):
        solves.append(a.shape)
        return linalg.kernel_with_support(a, p)

    monkeypatch.setattr(functors, "linalg", types.SimpleNamespace(
        **{**vars(linalg), "kernel_with_support": spy}))
    return solves


def _renamed(m, name):
    return Module(m.ring, m.dim, m.action, name=name, check=False)


def test_memo_builds_each_functor_once_per_scope(monkeypatch):
    ring = RINGS["r5"]
    e, k = injective_hull(ring), builtin_module(ring, "k")
    builds = _hom_builds(monkeypatch)
    with module.memo_scope():
        # Hom(E, k) is read off its Matlis dual partner Hom(k^v, E^v) =
        # Hom(k, R), whose key pair is the smaller: two builds
        hom = hom_module(e, k)
        assert hom_module(_renamed(e, "E2"), _renamed(k, "k2")) is hom
        assert len(builds) == 2
        # the tensor's own Hom(k, E^v) is that Hom(k, R): E^v has R's bytes
        tens = tensor_module(e, k)
        assert tensor_module(_renamed(e, "E2"), _renamed(k, "k2")) is tens
        hom_module(k, regular_module(ring))
        assert len(builds) == 2
        biduality_map(e, k)                     # Hom(E, k) is cached
        # two more: Hom(Hom(E, k), k), read off Hom(k, Hom(E, k)^v)
        assert len(builds) == 4
    with module.memo_scope():                 # a new scope rebuilds
        assert hom_module(e, k) is not hom
        assert len(builds) == 6


def _assert_same_arrays(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_memo_hit_matches_a_fresh_construction(ring):
    mods = [builtin_module(ring, name) for name in ("R", "E", "k", "0")]
    mods += sample_modules(ring, 4, 7)
    pairs = list(itertools.product(mods, repeat=2))
    with module.memo_scope():
        for m, n in pairs:                      # fill the memo
            hom_module(m, n)
            tensor_module(m, n)
        hits = [(hom_module(m, n), tensor_module(m, n)) for m, n in pairs]
    for (m, n), (hom, tens) in zip(pairs, hits):
        with module.memo_scope():
            fresh_hom = hom_module(m, n)
        with module.memo_scope():
            fresh_tens = tensor_module(m, n)
        assert hom.module.key == fresh_hom.module.key
        assert tens.module.key == fresh_tens.module.key
        assert hom.module.name is tens.module.name is None
        assert hom.support == fresh_hom.support
        _assert_same_arrays(hom.basis, fresh_hom.basis)
        _assert_same_arrays(tens.proj, fresh_tens.proj)
        _assert_same_arrays(tens.sect, fresh_tens.sect)


def test_memo_keeps_rings_apart():
    # the zero modules over r2 and r3 have the same bytes
    z2, z3 = zero_module(corpus_ring("r2")), zero_module(corpus_ring("r3"))
    assert (z2.dim, z2.action.tobytes()) == (z3.dim, z3.action.tobytes())
    with module.memo_scope():
        for build in (hom_module, tensor_module):
            build(z2, z2)
            build(z3, z3)
            for args in ((z2, z3), (z3, z2)):
                with pytest.raises(RingMismatch):
                    build(*args)


def test_clear_resolution_cache_also_empties_functor_data(monkeypatch):
    ring = RINGS["r3"]
    e, k = injective_hull(ring), builtin_module(ring, "k")
    builds = _hom_builds(monkeypatch)
    with module.memo_scope():
        hom_module(e, k)
        tensor_module(e, k)
        assert len(builds) == 2
        clear_resolution_cache()
        assert module.memo.get() == {}
        hom_module(e, k)
        tensor_module(e, k)
        assert len(builds) == 4


def test_run_verify_builds_each_requested_hom_once(monkeypatch):
    # every hom_module binding in the package, as the module-level
    # imports in classes and cli hold their own reference
    requests = []
    real = functors.hom_module

    def spy(m, n):
        requests.append((m.key, n.key))
        return real(m, n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qdual") and getattr(mod, "hom_module",
                                                None) is real:
            monkeypatch.setattr(mod, "hom_module", spy)
    builds = _hom_builds(monkeypatch)
    cli.run_verify(corpus_ring("r3"), list(cli.SUITES), 4, 4, 7)
    assert len(builds) == len(set(requests)) < len(requests)


# r1..r6, F_4[x]/(x^2), r5 and r6 in seeded bases, F_3[x,y]/(x,y)^2,
# and F_2[x]/(x^2) in basis (x, 1) and F_5[x]/(x^3) in basis (x, x^2, 1),
# whose unit is not e_0
HOM_RINGS = [corpus_ring(n) for n in ("r1", "r2", "r3", "r4", "r5", "r6")]
HOM_RINGS += [parse_ring(F4X), rebased_ring(corpus_ring("r5"), 1),
              rebased_ring(corpus_ring("r6"), 2),
              parse_ring(ring_text("rsz", 3, 3, {})),
              reordered_ring(parse_ring(ring_text("f2x", 2, 2, {})), [1, 0]),
              reordered_ring(parse_ring(ring_text(
                  "f5x", 5, 3, {(1, 1): [0, 0, 1]})), [1, 2, 0])]


@pytest.mark.parametrize("ring", HOM_RINGS, ids=lambda r: r.name)
def test_hom_matches_the_constraint_kernel(monkeypatch, ring):
    # every case of hom_module gives the bytes of the kernel of the
    # constraints, built cold and with its Matlis dual partner built
    # first; a pair out of R or into E needs no solve cold, and none
    # does with its partner in the memo
    mods = [builtin_module(ring, name) for name in ("R", "E", "k", "0")]
    mods += sample_modules(ring, 3, 11, max_dim=6)
    solves = _constraint_solves(monkeypatch)
    for m, n in itertools.product(mods, repeat=2):
        want, basis, support = reference_hom(m, n)
        read_off = (np.array_equal(m.action, ring.mult)
                    or np.array_equal(n.action, ring.mult.transpose(0, 2, 1)))
        for partner in (False, True):
            with module.memo_scope():
                if partner:
                    hom_module(matlis_dual(n), matlis_dual(m))
                solves.clear()
                got = hom_module(m, n)
            assert len(solves) == (0 if partner or read_off else 1)
            assert got.module.key == want.key
            assert got.support == support
            for mine, theirs in ((got.basis, basis),
                                 (got.module.action, want.action)):
                _assert_same_arrays(mine, theirs)


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_each_matlis_dual_pair_of_homs_solves_once(monkeypatch, ring):
    # of Hom(M, N) and Hom(N^v, M^v) the one with the larger key pair is
    # always the one read off the other, so in either order the pair
    # makes one solve (none out of R or into E) and the kernel's bytes
    mods = [builtin_module(ring, name) for name in ("R", "E", "k", "0")]
    mods += sample_modules(ring, 3, 13, max_dim=6)
    solves = _constraint_solves(monkeypatch)
    for m, n in itertools.product(mods, repeat=2):
        pair = ((m, n), (matlis_dual(n), matlis_dual(m)))
        wants = [reference_hom(*args) for args in pair]
        read_off = (np.array_equal(m.action, ring.mult)
                    or np.array_equal(n.action, ring.mult.transpose(0, 2, 1)))
        for order in ((0, 1), (1, 0)):
            solves.clear()
            with module.memo_scope():
                gots = {j: hom_module(*pair[j]) for j in order}
            assert len(solves) == (0 if read_off else 1)
            for j, (want, basis, support) in enumerate(wants):
                assert gots[j].module.key == want.key
                assert gots[j].support == support
                _assert_same_arrays(gots[j].basis, basis)
                _assert_same_arrays(gots[j].module.action, want.action)


def test_run_verify_solves_constraints_for_few_homs(monkeypatch):
    # the other Homs of the run are read off R, E or a Matlis dual
    builds = _hom_builds(monkeypatch)
    solves = _constraint_solves(monkeypatch)
    cli.run_verify(corpus_ring("r5"), ["theorem-b", "class-equality"],
                   4, 5, 7)
    assert len(solves) == 14 < len(builds)
