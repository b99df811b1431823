"""Resolutions, Ext/Tor tables and cross-oracles."""

import hashlib
import itertools

import numpy as np
import pytest
from oracles import (F4X, hom_cochain_ext_dims, rebased_ring,
                     reference_resolution, ring_text)

from qdual import (Module, builtin_module, clear_resolution_cache, cli,
                   corpus_ring, ext_dims, ext_dims_via_injective,
                   free_module, homology, linalg, matlis_dual,
                   minimal_free_resolution, minimal_generator_count,
                   module, parse_ring, radical_submodule, regular_module,
                   sample_modules, socle, tensor_module, tor_dims,
                   zero_module)
from qdual.classes import _vanishing
from qdual.errors import RingMismatch
from qdual.homology import _differential, tor_degrees
from qdual.module import _generator_ring_blocks, _radical_actions

RINGS = {name: corpus_ring(name) for name in ("r3", "r4", "r5", "r6")}
# r6 and, for odd p, r4 in a seeded random basis, where mN and soc N of
# most modules are not spanned by unit vectors
REBASED = [rebased_ring(corpus_ring(name), 4) for name in ("r4", "r6")]


def _copies(x, a):
    """X^a, acting block-diagonally."""
    n = a * x.dim
    return Module(x.ring, n, linalg.eye_kron(a, x.action).reshape(
        x.ring.dim, n, n))


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
        # d . d = 0, including the augmentation diffs[0]
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
        for matrix in res.diffs:
            with pytest.raises(ValueError):
                matrix[0, 0] = matrix[0, 0]


def _resolution_parts(betti, diffs):
    """Betti numbers plus the shape and bytes of every matrix."""
    parts = [repr(tuple(betti))]
    for matrix in diffs:
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
            assert _resolution_parts(res.betti, res.diffs) == (
                _resolution_parts(direct.betti[:n], direct.diffs[:n]))
            for matrix in res.diffs:
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
            assert len(res.betti) == len(res.diffs) == n + 1
            assert res.betti == (1, 2, 4, 8, 16, 32, 64, 128)[:n + 1]
    # the per-degree loop grows the same cached resolution; Ext^i(k, k)
    # is read as Tor_i(k, k^v)
    clear_resolution_cache()
    assert list(itertools.islice(tor_degrees(k, matlis_dual(k)), 3)) == [
        1, 2, 4]
    assert minimal_free_resolution(k, 1).betti == (1, 2)
    assert minimal_free_resolution(k, 4).betti == (1, 2, 4, 8, 16)


# (degree 1, each degree >= 2).  Degree 1 is one canonical kernel; over
# m^2 = 0 with residue field F_p (r1, r3, r5) that is all, as every
# kernel vector is a minimal generator, and from degree 2 on d_i is
# copies of d_1(k), built with no elimination from the ring acting on
# its radical alone.  Otherwise each degree is the kernel, then the
# syzygy's radical, and over F_4 (r2) the elimination that picks its
# generators.  A zero kernel costs the same, on empty matrices
ELIMINATIONS_PER_DEGREE = {("r1", "k"): (1, 0), ("r3", "k"): (1, 0),
                           ("r5", "k"): (1, 0), ("r5", "R"): (1, 0),
                           ("r4", "k"): (2, 2), ("r6", "E"): (2, 2),
                           ("r2", "k"): (3, 3)}


@pytest.mark.parametrize("ring_name, module_name", ELIMINATIONS_PER_DEGREE)
def test_eliminations_per_resolution_degree(
        monkeypatch, ring_name, module_name):
    first, later = ELIMINATIONS_PER_DEGREE[ring_name, module_name]
    ring = corpus_ring(ring_name)
    m = builtin_module(ring, module_name)
    calls = []
    rref = linalg.rref

    def spy(a, p):
        calls.append(a.shape)
        return rref(a, p)

    # and the ring acts once per degree
    actions = []
    free_action = homology.free_action

    def action_spy(ring, x):
        actions.append(x.shape)
        return free_action(ring, x)

    monkeypatch.setattr(linalg, "rref", spy)
    monkeypatch.setattr(homology, "free_action", action_spy)
    with module.memo_scope():
        minimal_free_resolution(m, 0)
        for n in range(1, 6):
            calls.clear()
            actions.clear()
            res = minimal_free_resolution(m, n)
            assert len(calls) == (first if n == 1 else later), (
                n, res.betti, calls)
            assert len(actions) == 1, (n, res.betti, actions)
            if n > 1 and later == 0:
                assert actions == [ring.radical.shape], (n, actions)


@pytest.mark.parametrize("ring", [
    corpus_ring("r5"), parse_ring(ring_text("rsz", 3, 3, {}))],
    ids=lambda r: r.name)
def test_tor_against_copies_of_k_ranks_nothing(monkeypatch, ring):
    # m^2 = 0 and embedding dimension 2; mk = 0, so every tau_i of
    # F_* (x) k^a is zero and dim Tor_i(M, k^a) = a . beta_i(M)
    k = builtin_module(ring, "k")
    targets = [(k, 1), (_copies(k, 2), 2)]
    mods = [k, builtin_module(ring, "E")] + sample_modules(ring, 2, 3,
                                                           max_dim=6)
    calls = []
    rref = linalg.rref

    def spy(a, p):
        calls.append(a.shape)
        return rref(a, p)

    with module.memo_scope():
        bettis = [minimal_free_resolution(m, 7).betti for m in mods]
        for n, _ in targets:
            _differential(n, 0)     # b_0, which the loop's head reads
        monkeypatch.setattr(linalg, "rref", spy)
        for m, betti in zip(mods, bettis):
            for n, a in targets:
                assert tor_dims(m, n, 6).dims == tuple(
                    a * b for b in betti[:7])
    assert calls == []


def test_tor_block_is_read_only_at_a_ranked_degree(monkeypatch):
    # the loop reads N's block at the first degree it ranks: never for a
    # k-against-k table, which the m^2 = 0 closed form answers at once,
    # and once for a pair that ranks tau_1 before handing off
    calls = []
    radical_actions = homology._radical_actions

    def spy(x):
        calls.append(x.dim)
        return radical_actions(x)

    monkeypatch.setattr(homology, "_radical_actions", spy)
    r5 = corpus_ring("r5")
    with module.memo_scope():
        for ring in (r5, parse_ring(ring_text("rsz", 3, 3, {}))):
            k = builtin_module(ring, "k")
            assert tor_dims(k, k, 40).dims == tuple(2 ** i
                                                    for i in range(41))
            assert ext_dims(k, k, 40).dims == tor_dims(k, k, 40).dims
        assert calls == []
        # M not killed by m, and neither M nor M^v free
        m = next(x for x in sample_modules(r5, 4, 19, max_dim=6)
                 if radical_submodule(x).shape[1] and all(
                     minimal_generator_count(y) * r5.dim != y.dim
                     for y in (x, matlis_dual(x))))
        for table in (tor_dims, ext_dims):
            calls.clear()
            table(m, m, 10)
            assert len(calls) == 1, (table.__name__, calls)


def reference_table_dims(m, n, bound, layout):
    """The whole table from one resolution of length bound+1, as Ext/Tor
    were computed before degrees were ranked one at a time."""
    ring = m.ring
    p = ring.p
    res = minimal_free_resolution(m, bound + 1)
    ranks = [0]
    for i in range(bound + 1):
        blocks = _generator_ring_blocks(res.diffs[i + 1], ring)
        mat = np.einsum(layout, blocks, n.action) % p
        shape = mat.shape
        ranks.append(linalg.rank(mat.reshape(shape[0] * shape[1],
                                             shape[2] * shape[3]), p))
    return tuple(b * n.dim - ranks[i] - ranks[i + 1]
                 for i, b in enumerate(res.betti[:bound + 1]))


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)] + REBASED, ids=lambda r: r.name)
def test_ext_matches_the_hom_cochain_oracle(ring):
    mods = [builtin_module(ring, name) for name in ("k", "R", "E")]
    mods += sample_modules(ring, 3, 41)
    for m in mods:
        for n in mods:
            assert ext_dims(m, n, 3).dims == hom_cochain_ext_dims(m, n, 3)


def _loop_subjects(ring):
    """Samples, and modules at the extremes of the Tor block: N's action
    on the rows and columns that some radical action of N touches.
    k (+) k has the empty block; E and 0 are the other extremes of mN
    and soc N; R and R^2 take the loop's closed form as M and as N."""
    k = builtin_module(ring, "k")
    return sample_modules(ring, 3, 31, max_dim=8) + [
        k, _copies(k, 2), builtin_module(ring, "E"), zero_module(ring),
        regular_module(ring), free_module(ring, 2)]


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + [parse_ring(F4X)] + REBASED, ids=lambda r: r.name)
def test_per_degree_loop_matches_whole_tables(ring):
    bound = 4
    mods = _loop_subjects(ring)
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


@pytest.mark.parametrize("ring", REBASED, ids=lambda r: r.name)
def test_rebased_subjects_read_a_block_wider_than_mN_by_N_over_soc_N(ring):
    # the rows some radical action touches span at least mN, and the
    # columns at least a complement of soc N; over a rebased ring some
    # subjects take more, so the tables above rank blocks that no
    # canonical basis of mN or soc N would pick
    def wider(n):
        acts = _radical_actions(n)
        return (acts.any(axis=(0, 2)).sum()
                > radical_submodule(n).shape[1]
                or acts.any(axis=(0, 1)).sum() > n.dim - socle(n).shape[1])

    assert any(wider(n) for n in _loop_subjects(ring))


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")],
                         ids=lambda r: r.name)
def test_tor_tables_eliminate_nothing_on_n(monkeypatch, ring):
    # with M resolved to the bound and N's augmentation in the memo, a
    # Tor or Ext table takes no canonical basis or kernel, and ranks
    # each degree at most once
    bound = 4
    mods = [builtin_module(ring, name) for name in ("k", "R", "E")]
    mods += sample_modules(ring, 3, 23, max_dim=8)
    calls = []

    def spy(name):
        original = getattr(linalg, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(linalg, name, counted)

    with module.memo_scope():
        for x in mods:
            minimal_free_resolution(x, bound + 1)
            _differential(matlis_dual(x), 0)
        for name in ("canon_basis", "canon_kernel", "rank"):
            spy(name)
        for m, n in itertools.product(mods, mods):
            for table in (tor_dims, ext_dims):
                calls.clear()
                table(m, n, bound)
                assert calls.count("rank") == len(calls) <= bound + 1, (
                    table.__name__, m, n, calls)


def test_per_degree_loop_checks_rings_before_iterating():
    k3 = builtin_module(RINGS["r3"], "k")
    k5 = builtin_module(RINGS["r5"], "k")
    for n in (k5, matlis_dual(k5)):        # Tor, and Ext read as Tor
        with pytest.raises(RingMismatch):
            tor_degrees(k3, n)
    with pytest.raises(RingMismatch):
        ext_dims(k3, k5, 0)



def _free(x):
    # over a local ring X is free exactly when dim X = b_0 . dim R
    return x.dim == _differential(x, 0).shape[1]


def _injective(x):
    # X is injective exactly when X^v is free (X = E^s iff X^v = R^s)
    return _free(matlis_dual(x))


@pytest.mark.parametrize("name", ["r1", "r2", "r3", "r4", "r5", "r6"])
def test_forced_vanishing_agrees_with_the_tables(name):
    ring = corpus_ring(name)
    bound = 6 if name == "r5" else 8
    # E (+) E is the Matlis dual of R^2
    mods = [builtin_module(ring, s) for s in ("0", "k", "R", "E")] + [
        free_module(ring, 2), matlis_dual(free_module(ring, 2)),
        *sample_modules(ring, 4, 7)]
    fired_beyond_free = 0
    for (m, n), (forced, dims, layout) in itertools.product(
            itertools.product(mods, repeat=2),
            ((_injective, ext_dims, "cjr,rab->jacb"),
             (_free, tor_dims, "cjr,rab->cajb"))):
        # Ext^i(M, N) is forced when M is free or N is injective, Tor_i
        # when M or N is free; the reference table takes no forced path
        if _free(m) or forced(n):
            table = dims(m, n, bound).dims
            assert table == reference_table_dims(m, n, bound, layout)
            assert table[1:] == (0,) * bound
            fired_beyond_free += not _free(m)
    # over a field every module is free; elsewhere the certificate is
    # more than "M is free"
    assert fired_beyond_free > 0 or name in ("r1", "r2")


@pytest.mark.parametrize("name", ["r5", "r6"])
def test_forced_tables_resolve_nothing_past_degree_0(name):
    ring = corpus_ring(name)
    k, r, e = (builtin_module(ring, s) for s in ("k", "R", "E"))
    # N free, N injective (Ext read as Tor against R), and M free
    for dims, m, n in ((tor_dims, k, r), (ext_dims, k, e), (tor_dims, r, k)):
        with module.memo_scope():
            table = dims(m, n, 6).dims
            memo = module.memo.get()
        assert table == (m.dim * n.dim // ring.dim,) + (0,) * 6
        assert not [key for key in memo if key[0] is
                    _differential.__wrapped__ and key[2] >= 1]


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


# F_p[x_1..x_e]/m^2 in the basis (1, x_1, ..., x_e) and in a seeded one,
# and F_4[x]/(x^2), whose residue field has degree 2
_SQUARE_ZERO = [parse_ring(ring_text("sz%d_%d" % (p, e), p, e + 1, {}))
                for p, e in ((2, 1), (2, 3), (3, 2), (5, 2))]
SQUARE_ZERO = (_SQUARE_ZERO + [rebased_ring(r, 5) for r in _SQUARE_ZERO]
               + [parse_ring(F4X)])


@pytest.mark.parametrize("ring", SQUARE_ZERO, ids=lambda r: r.name)
def test_square_zero_tables_match_the_oracles(ring):
    # the loop answers past the first syzygy in closed form; the
    # reference resolves and ranks every degree, and the Hom cochain
    # oracle shares no einsum with either.  Betti numbers grow as e^i,
    # so e = 3 stops at degree 3
    assert ring.square_zero
    e = ring.dim // ring.residue_degree - 1
    bound = 3 if e == 3 else 5
    mods = [builtin_module(ring, s) for s in ("0", "k", "R", "E")]
    mods += sample_modules(ring, 3, 9, max_dim=8)
    with module.memo_scope():
        for m, n in itertools.product(mods, repeat=2):
            ext = ext_dims(m, n, bound).dims
            assert tor_dims(m, n, bound).dims == reference_table_dims(
                m, n, bound, "cjr,rab->cajb")
            assert ext == reference_table_dims(m, n, bound, "cjr,rab->jacb")
            assert ext[:4] == hom_cochain_ext_dims(m, n, 3)


def _square_zero_table(m, n, bound):
    """Tor_i(M, N) for 0 <= i <= bound over an m^2 = 0 ring, neither
    module free: m kills Omega^j M for j = 0 (mM = 0) or j = 1, and
    Tor_{j+t} = dim Omega^j . beta_1(N) . e^{t-1} for t >= 1.  The
    generator counts and M (x) N are read without a resolution."""
    ring = m.ring
    d, r = ring.dim, ring.residue_degree
    top_m, top_n = (minimal_generator_count(x) for x in (m, n))
    head = [tensor_module(m, n).module.dim]
    omega = m.dim
    if m.dim != top_m * r:
        # Tor_1 is the kernel of Omega^1 (x) N -> F_0 (x) N, whose image
        # is the kernel of F_0 (x) N -> M (x) N
        omega = top_m * d - m.dim
        head.append(omega * top_n - (top_m * n.dim - head[0]))
    beta = (top_n * d - n.dim) // r
    tail = [omega * beta * (d // r - 1) ** t for t in range(bound)]
    return tuple(head + tail)[:bound + 1]


@pytest.mark.parametrize("ring", [corpus_ring("r5"), SQUARE_ZERO[2]],
                         ids=lambda r: r.name)
def test_square_zero_tables_resolve_two_degrees_at_depth(
        monkeypatch, capsys, ring):
    # degree 40 reads d_0 and d_1 of M (d_0 alone when mM = 0), d_0 of
    # N and ranks at most tau_1; Ext(k, k) is Tor(k, k^v)
    r = ring.residue_degree
    k, e = builtin_module(ring, "k"), builtin_module(ring, "E")
    s = next(x for x in sample_modules(ring, 6, 9, max_dim=8)
             if x.dim != minimal_generator_count(x) * ring.dim)
    ranks = []
    rank = linalg.rank

    def spy(a, p):
        ranks.append(a.shape)
        return rank(a, p)

    monkeypatch.setattr(linalg, "rank", spy)
    for dims, m, n, target in ((tor_dims, e, k, k), (tor_dims, s, e, e),
                               (ext_dims, k, k, matlis_dual(k))):
        with module.memo_scope():
            ranks.clear()
            table = dims(m, n, 40).dims
            assert len(ranks) <= 1
            degrees = {(key[1], key[2]) for key in module.memo.get()
                       if key[0] is _differential.__wrapped__}
            assert table == _square_zero_table(m, target, 40)
        want = {(m.key, 0), (m.key, 1), (target.key, 0)}
        if m.dim == minimal_generator_count(m) * r:
            want.remove((m.key, 1))
        assert degrees == want
    with module.memo_scope():
        code = cli.main(["ext", "--ring", "corpus:r5", "-i", "40", "k", "k"])
    assert (code, capsys.readouterr().out) == (0, "dims %s\n" % " ".join(
        str(2 ** i) for i in range(41)))


@pytest.mark.parametrize("ring", SQUARE_ZERO + [RINGS["r4"], RINGS["r6"]],
                         ids=lambda r: r.name)
def test_resolution_matches_the_reference_bytes(ring):
    # RESOLUTION_DIGESTS pins the corpus bases; this reaches odd p,
    # rebased bases and F_4 over m^2 = 0, where d_i takes the whole
    # kernel as generators, against syzygies built as submodules with
    # closure-loop generators and the ring acting through np.kron
    e = ring.dim // ring.residue_degree - 1
    length = 3 if ring.square_zero and e == 3 else 4
    mods = [builtin_module(ring, s) for s in ("k", "R", "E")]
    with module.memo_scope():
        for m in mods + sample_modules(ring, 3, 9, max_dim=8):
            res = minimal_free_resolution(m, length)
            betti, diffs = reference_resolution(m, length)
            assert all(x.dtype == np.int64 for x in res.diffs + tuple(diffs))
            assert _resolution_parts(res.betti, res.diffs) == (
                _resolution_parts(betti, diffs))


@pytest.mark.parametrize(
    "ring", [r for r in SQUARE_ZERO if r.residue_degree == 1],
    ids=lambda r: r.name)
def test_square_zero_resolutions_are_exact_at_depth(ring):
    # exactness read off the explicit matrices by rank alone, with no
    # closed form of the Tor loop or of d_i: d_i d_{i+1} = 0 and
    # rank d_i + rank d_{i+1} = dim F_i; past the first syzygy, which
    # m kills, each Betti number is e times the one before
    p, e = ring.p, ring.dim - 1
    length = 4 if e == 3 else 6
    mods = [builtin_module(ring, s) for s in ("k", "E")]
    with module.memo_scope():
        for m in mods + sample_modules(ring, 2, 9, max_dim=8):
            res = minimal_free_resolution(m, length)
            d = res.diffs
            for i in range(length):
                assert not np.any(d[i] @ d[i + 1] % p), (m, i)
                assert (linalg.rank(d[i], p) + linalg.rank(d[i + 1], p)
                        == d[i].shape[1]), (m, i)
            assert all(res.betti[i + 1] == e * res.betti[i]
                       for i in range(1, length)), (m, res.betti)


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
        for matrix in res.diffs:
            digest.update(repr(matrix.shape).encode())
            digest.update(np.ascontiguousarray(matrix).tobytes())
    assert digest.hexdigest() == RESOLUTION_DIGESTS[ring.name]


@pytest.mark.parametrize("ring", [corpus_ring(n) for n in
                                  ("r1", "r2", "r3", "r4", "r5", "r6")]
                         + SQUARE_ZERO, ids=lambda r: r.name)
def test_certificates_do_not_depend_on_their_order(monkeypatch, ring):
    # each certificate is exact wherever it answers, so every order of
    # the tuple gives the reference tables; reversed, the m^2 = 0 closed
    # form answers pairs with a free argument that the free one answers
    # first otherwise.  Betti numbers grow as e^i, so e = 3 stops at 3
    e = ring.dim // ring.residue_degree - 1
    bound = 3 if ring.square_zero and e == 3 else 5
    r2 = free_module(ring, 2)
    mods = [builtin_module(ring, s) for s in ("0", "k", "R", "E")]
    mods += [r2, matlis_dual(r2)] + sample_modules(ring, 3, 5, max_dim=8)
    pairs = list(itertools.product(mods, repeat=2))
    with module.memo_scope():
        want = [tuple(reference_table_dims(m, n, bound, layout)
                      for layout in ("cjr,rab->cajb", "cjr,rab->jacb"))
                for m, n in pairs]
        for order in itertools.permutations(homology.CERTIFICATES):
            monkeypatch.setattr(homology, "CERTIFICATES", order)
            for (m, n), tables in zip(pairs, want):
                assert (tor_dims(m, n, bound).dims,
                        ext_dims(m, n, bound).dims) == tables, (order, m, n)
