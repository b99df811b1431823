"""Module constructions: submodules, quotients, socle, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (F4X, closure_loop_generators, closure_loop_span,
                     ring_text)

from qdual import (Module, ModuleMap, builtin_module, corpus_ring,
                   ext_dims, ext_dims_via_injective, free_module,
                   hom_module, minimal_free_resolution,
                   minimal_generator_count, parse_ring, quotient_module,
                   radical_submodule, random_module, random_ses,
                   regular_module, sample_modules, ses_from_submodule,
                   socle, zero_module)
from qdual import linalg
from qdual.module import (_as_columns, _radical_actions, closure_generators,
                          free_action, law_violation, minimal_generators)
from qdual.errors import (InvalidModuleMap, ModuleValidationError,
                          NotSubmodule)


@pytest.fixture(scope="module")
def r5():
    return corpus_ring("r5")


@pytest.fixture(scope="module")
def r6():
    return corpus_ring("r6")


def test_module_validation_catches_incompatible_action(r5):
    action = np.zeros((3, 2, 2), dtype=np.int64)
    action[0] = np.eye(2, dtype=np.int64)
    action[1] = [[0, 1], [1, 0]]  # x acts as a swap: x^2 should be 0
    action[2] = 0
    with pytest.raises(ModuleValidationError) as info:
        Module(r5, 2, action)
    assert info.value.witness is not None


def test_socle_dimensions(r5, r6):
    assert socle(regular_module(r5)).shape[1] == 2
    assert socle(regular_module(r6)).shape[1] == 1


def test_minimal_generator_counts(r5):
    reg = regular_module(r5)
    assert minimal_generator_count(reg) == 1
    assert minimal_generator_count(free_module(r5, 3)) == 3
    assert minimal_generator_count(zero_module(r5)) == 0


def test_radical_submodule_of_regular(r5):
    rad = radical_submodule(regular_module(r5))
    assert rad.shape[1] == 2


def test_submodule_and_quotient_roundtrip(r6):
    reg = regular_module(r6)
    soc = socle(reg)
    sub = ses_from_submodule(reg, soc).members[0]
    assert sub.dim == 1
    quot, proj, sect = quotient_module(reg, soc)
    assert quot.dim == reg.dim - 1
    assert np.array_equal(proj.matrix @ sect % r6.p,
                          np.eye(quot.dim, dtype=np.int64))


def test_not_submodule_rejected(r5):
    reg = regular_module(r5)
    # the line through 1 is not an ideal
    vec = np.zeros((reg.dim, 1), dtype=np.int64)
    vec[0, 0] = 1
    with pytest.raises(NotSubmodule, match="not closed under e1$"):
        quotient_module(reg, vec)


def test_ses_members_and_dim_count(r6):
    reg = regular_module(r6)
    ses = ses_from_submodule(reg, socle(reg))
    l1, l2, l3 = ses.members
    assert l1.dim + l3.dim == l2.dim


def test_module_map_commutation_enforced(r5):
    reg = regular_module(r5)
    k = builtin_module(r5, "k")
    bad = np.ones((reg.dim, k.dim), dtype=np.int64)
    with pytest.raises(InvalidModuleMap):
        ModuleMap(k, reg, bad)


def test_random_module_deterministic(r5):
    a = random_module(r5, 2, 11)
    b = random_module(r5, 2, 11)
    assert a.key == b.key
    assert a.dim > 0


def test_sample_modules_respects_dim_cap(r5):
    mods = sample_modules(r5, 10, 3, max_dim=6)
    assert len(mods) == 10
    assert all(m.dim <= 6 for m in mods)


def test_random_ses_is_exact(r5):
    for seed in range(5):
        ses = random_ses(r5, seed)
        l1, l2, l3 = ses.members
        assert l1.dim + l3.dim == l2.dim


def test_zero_module_is_first_class(r5):
    z = zero_module(r5)
    assert z.dim == 0
    assert minimal_generator_count(z) == 0
    assert socle(z).shape == (0, 0)


# Contractions over the ring basis are matmuls on the flattened
# (dim R, n * n) stack; these einsum references keep every axis, so
# they also hold at n = 0 and at r = 0 (the fields r1 and r2)

def einsum_radical_actions(module):
    ring = module.ring
    return np.einsum("lr,lab->rab", ring.radical, module.action) % ring.p


def einsum_law_violation(unit, struct, action, p):
    """The first law broken, in `law_violation`'s order: the unit, then
    (i, j, k) for the first pair (i, j) and the first column k where
    A_i A_j and sum_l struct[i, j, l] A_l differ."""
    n = action.shape[1]
    if not np.array_equal(np.einsum("l,lab->ab", unit, action) % p,
                          linalg.identity(n)):
        return "unit"
    lhs = np.einsum("iab,jbc->ijac", action, action) % p
    rhs = np.einsum("ijl,lac->ijac", struct, action) % p
    bad = np.argwhere((lhs != rhs).any(axis=2))
    return tuple(int(x) for x in bad[0]) if len(bad) else None


@pytest.mark.parametrize("name", ["r1", "r2", "r5"])
def test_contractions_match_einsum_at_the_edges(name):
    ring = corpus_ring(name)
    mods = [zero_module(ring)] + [builtin_module(ring, x)
                                  for x in ("k", "R", "E")]
    mods += sample_modules(ring, 2, 13, max_dim=6)
    for m in mods:
        acts = _radical_actions(m)
        assert acts.shape == (ring.radical.shape[1], m.dim, m.dim)
        assert np.array_equal(acts, einsum_radical_actions(m)), m
    # stacks that break a law, or none, with the unit acting as I
    rng = np.random.default_rng(5)
    stacks = [m.action for m in mods]
    for n in (0, 1, 2, 3):
        for _ in range(4):
            action = rng.integers(0, ring.p, size=(ring.dim, n, n))
            stacks.append(action)
            action = action.copy()
            action[0] = linalg.identity(n)
            stacks.append(action)
    stacks.append(ring.mult)
    for action in stacks:
        assert law_violation(ring.unit, ring.struct, action, ring.p) == \
            einsum_law_violation(ring.unit, ring.struct, action, ring.p)


# The span R V and minimal_generators without closure loops: compared
# with `oracles.closure_loop_span` and `oracles.closure_loop_generators`,
# which re-close the span under the action until it stops growing, and
# after every kept candidate.

def _rebased(module, seed):
    """The same module in a seeded random basis, so that the canonical
    complement of mM is not aligned with the residue-field action."""
    p, n = module.ring.p, module.dim
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, p, size=(n, n), dtype=np.int64)
        r, _, pivots = linalg.rref(np.concatenate([g, linalg.identity(n)],
                                                  axis=1), p)
        if pivots == list(range(n)):
            break
    g_inv = r[:, n:]
    return Module(module.ring, n, g_inv @ module.action @ g % p)


def _direct_sum(a, b):
    """A (+) B, acting block-diagonally."""
    n = a.dim + b.dim
    action = np.zeros((a.ring.dim, n, n), dtype=np.int64)
    action[:, :a.dim, :a.dim] = a.action
    action[:, a.dim:, a.dim:] = b.action
    return Module(a.ring, n, action)


def _generator_subjects(ring):
    """Modules of several shapes: builtins, samples, a sum, a Hom module,
    the first syzygies of two resolutions, and all of them rebased."""
    k, reg, inj = (builtin_module(ring, name) for name in ("k", "R", "E"))
    samples = sample_modules(ring, 6, 5, max_dim=12)
    mods = [zero_module(ring), k, reg, inj, *samples,
            _direct_sum(k, samples[-1]), hom_module(inj, samples[0]).module]
    for m in (k, samples[-1]):
        res = minimal_free_resolution(m, 3)
        maps = res.diffs[:-1]
        for rank, d in zip(res.betti, maps):
            kern = linalg.canon_kernel(d, ring.p)[0]
            if kern.shape[1]:
                mods.append(ses_from_submodule(free_module(ring, rank),
                                               kern).members[0])
    return mods + [_rebased(m, i) for i, m in enumerate(mods)]


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)], ids=lambda r: r.name)
def test_minimal_generators_match_closure_loop(ring):
    for module in _generator_subjects(ring):
        got = linalg.identity(module.dim)[:, minimal_generators(module)]
        want = closure_loop_generators(module)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), module


def test_reference_rejects_candidates_over_f4x():
    # over F_4 the top of each generator is 2-dimensional over F_2, so the
    # reference keeps one candidate in two and the comparison above
    # covers rejection, not only acceptance
    ring = parse_ring(F4X)
    tops = [(m.dim - radical_submodule(m).shape[1],
             closure_loop_generators(m).shape[1])
            for m in _generator_subjects(ring)]
    assert all(top == 2 * kept for top, kept in tops)
    assert any(top > kept for top, kept in tops)


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_generators_over_residue_degree_one_are_the_whole_complement(ring):
    # Nakayama: over residue field F_p, the canonical complement of mM
    # maps onto a basis of M/mM, so every candidate is kept
    assert ring.residue_degree == 1
    for module in _generator_subjects(ring):
        basis, pivots = linalg.canon_basis(radical_submodule(module), ring.p)
        assert minimal_generators(module) == linalg.complement(
            basis, pivots, module.dim, ring.p)[2]


SPAN_RINGS = [corpus_ring(n) for n in ("r1", "r2", "r3", "r4", "r5", "r6")] \
    + [parse_ring(F4X)]


@st.composite
def _span_inputs(draw):
    """(module, vectors): a builtin, sample, zero or free module over
    r1..r6 or F4X, and 0 to 4 columns that are zero, unit or random,
    possibly repeated."""
    ring = draw(st.sampled_from(SPAN_RINGS))
    kind = draw(st.sampled_from(["0", "k", "R", "E", "sample", "free"]))
    if kind == "sample":
        module = sample_modules(ring, 1, draw(st.integers(0, 50)),
                                max_dim=9)[0]
    elif kind == "free":
        module = free_module(ring, draw(st.integers(0, 2)))
    else:
        module = builtin_module(ring, kind)
    n = module.dim
    column = st.one_of(
        st.just([0] * n),
        st.integers(0, max(n - 1, 0)).map(
            lambda i: [int(j == i) for j in range(n)]),
        st.lists(st.integers(0, ring.p - 1), min_size=n, max_size=n))
    cols = draw(st.lists(column, max_size=4))
    if cols and draw(st.booleans()):
        cols.append(cols[0])
    return module, np.array(cols, dtype=np.int64).reshape(len(cols), n).T


@settings(max_examples=300, deadline=None)
@given(_span_inputs())
def test_span_closure_matches_fixpoint_loop(case):
    module, vectors = case
    # a canonical basis depends only on the span, so one elimination of
    # the unreduced generators of R V gives it
    basis, pivots = linalg.canon_basis(closure_generators(module, vectors),
                                       module.ring.p)
    want_basis, want_pivots = closure_loop_span(module, vectors)
    assert basis.shape == want_basis.shape
    assert basis.dtype == want_basis.dtype
    assert np.array_equal(basis, want_basis)
    assert pivots == want_pivots


@st.composite
def _stacks(draw):
    """(p, n, stack of k matrices r x c) with entries in [0, p), zero
    sizes included."""
    p = draw(st.sampled_from([2, 3, 65521]))
    n, k, r, c = (draw(st.integers(0, 4)) for _ in range(4))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=k * r * c,
                            max_size=k * r * c))
    return p, n, np.array(entries, dtype=np.int64).reshape(k, r, c)


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_broadcast_kron_products_match_np_kron(case):
    p, n, mats = case
    k, r, c = mats.shape
    eye = linalg.identity(n)
    left = linalg.eye_kron(n, mats).reshape(k, n * r, n * c)
    right = linalg.kron_eye(mats, n).reshape(k, r * n, c * n)
    for i in range(k):
        assert np.array_equal(left[i], np.kron(eye, mats[i]))
        assert np.array_equal(right[i], np.kron(mats[i], eye))
    # products of entries in [0, p) with 0 and 1 stay reduced mod p
    assert left.dtype == right.dtype == np.int64
    assert not np.any(left >= p) and not np.any(right >= p)


def test_residue_extension_with_nilpotents():
    ring = parse_ring(F4X)
    assert ring.residue_degree == 2
    k = builtin_module(ring, "k")
    assert minimal_free_resolution(k, 4).betti == (1, 1, 1, 1, 1)
    assert ext_dims(k, k, 3).dims == (2, 2, 2, 2)
    assert ext_dims_via_injective(k, k, 3).dims == (2, 2, 2, 2)


@pytest.mark.parametrize("p", [2, 3])
def test_betti_of_k_grow_as_embedding_dimension_powers(p):
    # F_p[x_1..x_e]/(x_1..x_e)^2 has m^2 = 0 and embedding dimension e,
    # so k has Poincare series 1/(1 - e t) (Avramov, "Infinite free
    # resolutions", 1998).  e = 3 stops at length 6: length 7 would
    # eliminate 2187 x 8748 matrices.
    for e, length in ((2, 7), (3, 6)):
        ring = parse_ring(ring_text("rsz", p, e + 1, {}))
        k = builtin_module(ring, "k")
        assert minimal_free_resolution(k, length).betti == tuple(
            e ** i for i in range(length + 1))


def test_truncated_polynomial_ring_has_periodic_k():
    # over F_3[x]/(x^4) the resolution of k is R <- R <- R ... with maps
    # alternating between x and x^3, so every Betti number and every
    # dim Ext^i(k, k) is 1
    ring = parse_ring(ring_text("f3x4", 3, 4, {
        (1, 1): [0, 0, 1, 0], (1, 2): [0, 0, 0, 1]}))
    k = builtin_module(ring, "k")
    assert minimal_free_resolution(k, 7).betti == (1,) * 8
    assert ext_dims(k, k, 6).dims == (1,) * 7
    assert ext_dims_via_injective(k, k, 6).dims == (1,) * 7


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_quotient_action_matches_loop_reference(ring):
    """quotient_module's one batched product against the per-element
    products it replaced, for the zero, radical, socle and whole
    submodules (zero-dimensional quotients included)."""
    p = ring.p
    mods = [builtin_module(ring, name) for name in ("0", "k", "R", "E")]
    mods += sample_modules(ring, 3, 47, max_dim=6)
    for m in mods:
        for sub in (linalg.zeros(m.dim, 0), radical_submodule(m),
                    socle(m), linalg.identity(m.dim)):
            quot, proj, sect = quotient_module(m, sub)
            want = np.stack([proj.matrix @ m.action[i] @ sect % p
                             for i in range(ring.dim)])
            assert quot.action.shape == want.shape
            assert quot.action.shape == (ring.dim, quot.dim, quot.dim)
            assert quot.action.dtype == want.dtype
            assert np.array_equal(quot.action, want)


# one quotient path: compared with the closure loop it replaced and with
# checked constructions of the quotient, the projection and the inclusion

def closed_subspace_loop(module, subspace):
    """The deleted `_closed_subspace`, kept verbatim as the reference."""
    p = module.ring.p
    basis, pivots = linalg.canon_basis(
        _as_columns(subspace, module.dim, p), p)
    for i, image in enumerate(module.action @ basis % p):
        if not linalg.in_span(basis, pivots, image, p):
            raise NotSubmodule("subspace not closed under e%d" % i)
    return basis, pivots


def reference_quotient(module, basis, pivots):
    """(S, inclusion, M/S, projection, section) with every map checked."""
    p = module.ring.p
    sub = Module(module.ring, basis.shape[1],
                 np.stack([a @ basis % p for a in module.action])[:, pivots],
                 name="S")
    proj, sect, _ = linalg.complement(basis, pivots, module.dim, p)
    quot = Module(module.ring, proj.shape[0],
                  np.stack([proj @ a @ sect % p for a in module.action]))
    return (sub, ModuleMap(sub, module, basis), quot,
            ModuleMap(module, quot, proj), sect)


def _quotient_subjects(ring, seed):
    """(module, subspace) pairs: the zero, radical, socle and whole
    subspaces of several modules, and seeded random subspaces, most of
    them not closed under the action."""
    rng = np.random.default_rng(seed)
    mods = [builtin_module(ring, name) for name in ("0", "k", "R", "E")]
    mods += [free_module(ring, 2)] + sample_modules(ring, 3, seed, max_dim=8)
    for m in mods:
        for sub in (linalg.zeros(m.dim, 0), radical_submodule(m), socle(m),
                    linalg.identity(m.dim)):
            yield m, sub
        for count in (1, 1, 2, 3):
            yield m, rng.integers(0, ring.p, size=(m.dim, count),
                                  dtype=np.int64)


@pytest.mark.parametrize("ring", SPAN_RINGS[:6], ids=lambda r: r.name)
def test_quotient_and_ses_match_closure_loop_reference(ring):
    rejected = accepted = 0
    for module, subspace in _quotient_subjects(ring, 13):
        try:
            basis, pivots = closed_subspace_loop(module, subspace)
        except NotSubmodule as exc:
            rejected += 1
            for build in (quotient_module, ses_from_submodule):
                with pytest.raises(NotSubmodule) as info:
                    build(module, subspace)
                assert str(info.value) == str(exc)
            continue
        accepted += 1
        sub, incl, quot, proj, sect = reference_quotient(module, basis,
                                                         pivots)
        got_quot, got_proj, got_sect = quotient_module(module, subspace)
        ses = ses_from_submodule(module, subspace)
        assert ses.sub.target is ses.quot.source is module
        for got, want in ((got_quot, quot), (ses.quot.target, quot),
                          (ses.sub.source, sub)):
            assert got.key == want.key
        for got, want in ((got_proj, proj), (ses.quot, proj),
                          (ses.sub, incl)):
            assert got.matrix.dtype == want.matrix.dtype
            assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got_sect, sect)
    # every subspace is closed over a field (r1); elsewhere both occur
    assert accepted and (rejected or ring.dim == 1)


@st.composite
def _free_columns(draw):
    """(ring, x, cols): columns x in R^b over r1..r6 or F4X, b <= 3, and
    a list of their indices, possibly empty, repeated or unordered."""
    ring = draw(st.sampled_from(SPAN_RINGS))
    rows = draw(st.integers(0, 3)) * ring.dim
    width = draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(0, ring.p - 1),
                            min_size=rows * width, max_size=rows * width))
    x = np.array(entries, dtype=np.int64).reshape(rows, width)
    cols = draw(st.lists(st.integers(0, width - 1), max_size=6)
                if width else st.just([]))
    return ring, x, cols


@settings(max_examples=200, deadline=None)
@given(_free_columns())
def test_free_action_acts_column_by_column(case):
    # a resolution degree reads d_i off columns of its one free_action
    ring, x, cols = case
    got = free_action(ring, x)[:, :, cols]
    want = free_action(ring, x[:, cols])
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ring", SPAN_RINGS, ids=lambda r: r.name)
def test_free_module_action_is_kron_with_identity(ring):
    for rank in range(4):
        action = free_module(ring, rank).action
        assert action.dtype == np.int64
        for i in range(ring.dim):
            want = np.kron(np.eye(rank, dtype=np.int64), ring.mult[i])
            assert np.array_equal(action[i], want)


def test_key_is_stored_once(r5):
    # the memo key is the module's bytes over its ring, built at
    # construction: every read returns the one tuple
    mods = [builtin_module(r5, name) for name in ("0", "k", "R", "E")]
    mods += sample_modules(r5, 1, 3)
    mods.append(hom_module(mods[3], mods[4]).module)
    for m in mods:
        assert m.key is m.key
        assert m.key == (r5.key, m.dim, m.action.tobytes())
