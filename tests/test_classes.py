"""Bounded predicates and theorem checkers."""

import contextlib
import dataclasses
import sys

import pytest

from qdual import classes, cli, homology, module
from qdual import (builtin_module, check_artinian_collapse,
                   check_class_equality, check_duality_swap,
                   check_hom_faithful, check_theorem_B, check_two_of_three,
                   clear_resolution_cache, corpus_ring, in_auslander_class,
                   in_bass_class, injective_hull, is_derived_reflexive,
                   is_quasidualizing, is_semidualizing, matlis_dual,
                   minimal_free_resolution, probe_tensor_faithful,
                   random_ses, regular_module, sample_modules,
                   ses_from_submodule, socle, zero_module)
from qdual.errors import NotQuasidualizing
from qdual.module import memoized

RINGS = {name: corpus_ring(name) for name in ("r1", "r3", "r5", "r6")}


def test_R_semidualizing_E_quasidualizing_everywhere():
    for ring in RINGS.values():
        assert is_semidualizing(regular_module(ring), 4).passed
        assert is_quasidualizing(injective_hull(ring), 4).passed


def test_k_fails_both_on_fat_points():
    for name in ("r3", "r5", "r6"):
        k = builtin_module(RINGS[name], "k")
        assert not is_semidualizing(k, 4).passed
        assert not is_quasidualizing(k, 4).passed


def test_k_passes_over_a_field():
    k = builtin_module(RINGS["r1"], "k")
    assert is_semidualizing(k, 4).passed
    assert is_quasidualizing(k, 4).passed


def test_derived_reflexive_free_modules():
    for ring in RINGS.values():
        reg = regular_module(ring)
        assert is_derived_reflexive(reg, reg, 4).passed
        assert is_derived_reflexive(reg, injective_hull(ring), 4).passed


def test_k_not_reflexive_wrt_R_on_non_gorenstein():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    assert not is_derived_reflexive(k, regular_module(r5), 4).passed


def test_bass_and_auslander_with_regular_parameter():
    for ring in RINGS.values():
        reg = regular_module(ring)
        for m in sample_modules(ring, 3, 31):
            assert in_bass_class(m, reg, 4).passed
            assert in_auslander_class(m, reg, 4).passed


def test_duality_swap_verdicts():
    for ring in RINGS.values():
        assert check_duality_swap(regular_module(ring), 4).verdict == "PASS"
        assert check_duality_swap(injective_hull(ring), 4).verdict == "PASS"
    k = builtin_module(RINGS["r5"], "k")
    assert check_duality_swap(k, 4).verdict == "VACUOUS"


def test_theorem_B_requires_quasidualizing_parameter():
    r5 = RINGS["r5"]
    k = builtin_module(r5, "k")
    with pytest.raises(NotQuasidualizing):
        check_theorem_B(k, regular_module(r5), 4)


def test_theorem_B_biconditionals_hold():
    r5 = RINGS["r5"]
    for t in (regular_module(r5), injective_hull(r5)):
        for m in sample_modules(r5, 8, 33):
            assert check_theorem_B(t, m, 4).verdict == "PASS"


def test_class_equality_holds():
    r5 = RINGS["r5"]
    for t in (regular_module(r5), injective_hull(r5)):
        for m in sample_modules(r5, 8, 34):
            assert check_class_equality(t, m, 4).verdict == "PASS"


def test_two_of_three_non_vacuous_split_sequence():
    from qdual import free_module
    import numpy as np
    r5 = RINGS["r5"]
    reg = regular_module(r5)
    f2 = free_module(r5, 2)
    first = np.zeros((f2.dim, r5.dim), dtype=np.int64)
    first[:r5.dim] = np.eye(r5.dim, dtype=np.int64)
    ses = ses_from_submodule(f2, first)
    report = check_two_of_three(reg, ses, 4)
    assert report.verdict == "PASS"
    assert report.verdict != "VACUOUS"


def test_two_of_three_socle_sequence_of_E():
    r5 = RINGS["r5"]
    e = injective_hull(r5)
    ses = ses_from_submodule(e, socle(e))
    report = check_two_of_three(e, ses, 4)
    assert report.verdict in ("PASS", "VACUOUS")
    assert report.verdict == "PASS"  # E and its pieces are E-reflexive


def test_two_of_three_never_violated_on_random_sequences():
    r5 = RINGS["r5"]
    reg = regular_module(r5)
    for seed in range(10):
        ses = random_ses(r5, seed)
        report = check_two_of_three(reg, ses, 4)
        assert report.verdict != "FAIL"


def test_hom_faithfulness():
    for ring in RINGS.values():
        for t in (regular_module(ring), injective_hull(ring)):
            z = check_hom_faithful(zero_module(ring), t, 4)
            assert z.verdict == "PASS"
            for m in sample_modules(ring, 4, 35):
                assert check_hom_faithful(m, t, 4).verdict == "PASS"


def test_tensor_probe_never_fails():
    r5 = RINGS["r5"]
    e = injective_hull(r5)
    for m in sample_modules(r5, 6, 36) + [zero_module(r5)]:
        report = probe_tensor_faithful(m, e, 4)
        assert report.verdict == "PASS"


def test_artinian_collapse():
    for ring in RINGS.values():
        cands = [regular_module(ring), injective_hull(ring),
                 builtin_module(ring, "k")]
        report = check_artinian_collapse(ring, cands, 4)
        assert report.verdict == "PASS"


def test_swap_is_explicit_on_duals():
    # semidualizing X gives quasidualizing X^v and back
    r6 = RINGS["r6"]
    reg = regular_module(r6)
    assert is_quasidualizing(matlis_dual(reg), 4).passed
    e = injective_hull(r6)
    assert is_semidualizing(matlis_dual(e), 4).passed


def _counting(monkeypatch, name):
    """Record the calls of `classes.<name>`, a natural map that one
    predicate body calls exactly once, so each call is one body run."""
    calls = []
    original = getattr(classes, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classes, name, counted)
    return calls


@pytest.mark.parametrize("predicate, natural_map", [
    (is_semidualizing, "homothety_map"),
    (is_derived_reflexive, "biduality_map"),
    (in_bass_class, "evaluation_map"),
    (in_auslander_class, "gamma_map"),
])
def test_memo_hit_is_a_fresh_report(predicate, natural_map, monkeypatch):
    ring = RINGS["r5"]
    k, e = builtin_module(ring, "k"), injective_hull(ring)
    args = (k,) if predicate is is_semidualizing else (k, e)
    calls = _counting(monkeypatch, natural_map)
    with module.memo_scope():
        first = predicate(*args, 3)
        # a report cannot be changed, so no change can reach the memo
        for name, value in (("name", "x"), ("bound", 0), ("conditions", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(first, name, value)
        assert isinstance(first.conditions, tuple)
        second = predicate(*args, bound=3)
        assert second is not first
        assert second == first
        assert predicate(*args, 3) == first
        assert len(calls) == 1             # the hits computed nothing
        predicate(*args, 2)                # the bound is part of the key
        assert len(calls) == 2
    with module.memo_scope():            # a new scope recomputes
        predicate(*args, 3)
    assert len(calls) == 3


def test_memo_binds_every_call_form_to_one_key(monkeypatch):
    ring = RINGS["r5"]
    k, e = builtin_module(ring, "k"), injective_hull(ring)
    calls = _counting(monkeypatch, "biduality_map")
    with module.memo_scope():
        is_derived_reflexive(k, e)
        is_derived_reflexive(k, e, classes.DEFAULT_BOUND)
        is_derived_reflexive(k, m=e)
        is_derived_reflexive(bound=classes.DEFAULT_BOUND, m=e, l=k)
        assert len(calls) == 1
        # calls the body rejects raise inside the memo as well
        for args, kwargs in (((k, e, 3), {"bound": 3}), ((k,), {}),
                             ((k, e, 3, 3), {}), ((k, e), {"n": e})):
            with pytest.raises(TypeError):
                is_derived_reflexive(*args, **kwargs)
        assert len(calls) == 1


def test_memo_keys_modules_by_their_bytes(monkeypatch):
    ring = RINGS["r5"]
    calls = _counting(monkeypatch, "biduality_map")
    with module.memo_scope():
        # R^v and E are different objects with the same action bytes
        is_derived_reflexive(builtin_module(ring, "k"),
                             matlis_dual(regular_module(ring)), 4)
        is_derived_reflexive(builtin_module(ring, "k"),
                             injective_hull(ring), 4)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["r3", "r5", "r6"])
def test_report_depends_only_on_bytes_and_bound(name):
    k = builtin_module(RINGS[name], "k")
    copy = module.Module(k.ring, k.dim, k.action, name="other", check=False)
    reports = []
    for x in (k, copy):
        # each module in its own scope, so no report is a memo hit
        with module.memo_scope():
            reports.append([is_semidualizing(x, 3), is_quasidualizing(x, 3),
                            is_derived_reflexive(x, x, 3),
                            in_bass_class(x, x, 3),
                            in_auslander_class(x, x, 3),
                            check_duality_swap(x, 3)])
    assert reports[0] == reports[1]
    assert matlis_dual(k).name is None


def test_forced_vanishing_ranks_no_degree(monkeypatch):
    # over r5, E is injective, so both Ext conditions of G_E(k) are forced
    r5 = RINGS["r5"]
    k, e = builtin_module(r5, "k"), injective_hull(r5)
    ranked = []
    induced_ranks = homology._induced_ranks

    def counted(*args):
        ranked.append(args)
        return induced_ranks(*args)

    monkeypatch.setattr(homology, "_induced_ranks", counted)
    with module.memo_scope():
        forced = is_derived_reflexive(k, e, 4).conditions
    assert ranked == []
    # the degree loop alone gives the same conditions
    monkeypatch.setattr(classes, "forces_vanishing", lambda *args: False)
    with module.memo_scope():
        assert is_derived_reflexive(k, e, 4).conditions == forced
    assert ranked


def test_memo_is_shared_by_both_dualizing_predicates(monkeypatch):
    ring = RINGS["r5"]
    x, e = matlis_dual(regular_module(ring)), injective_hull(ring)
    calls = _counting(monkeypatch, "homothety_map")
    with module.memo_scope():
        reports = [is_semidualizing(x), is_quasidualizing(x),
                   is_quasidualizing(e)]
        memo = module.memo.get()
    assert len(calls) == 1
    # each report keeps its own finiteness note; the shared conditions
    # follow it
    assert [r.conditions[0][0] for r in reports] == [
        "finitely-generated", "artinian", "artinian"]
    assert x.name != e.name
    assert reports[0].conditions[1:] == reports[2].conditions[1:]
    # the scope also holds resolution records and Hom data; verdict
    # keys start with a body from classes
    verdicts = [v for k, v in memo.items()
                if k[0].__module__ == classes.__name__]
    assert len(verdicts) == 1
    for value in verdicts:
        assert isinstance(value, tuple)
        for triple in value:
            assert isinstance(triple, tuple) and len(triple) == 3
            assert all(isinstance(part, str) for part in triple)


def test_no_memo_outlives_run_verify(monkeypatch):
    ring = RINGS["r3"]
    calls = _counting(monkeypatch, "biduality_map")
    process = module.memo.get()
    runs = []
    for _ in range(2):
        cli.run_verify(ring, ["theorem-b", "class-equality"], 3, 2, 0)
        assert module.memo.get() is process
        runs.append(len(calls))
    # the second run recomputes every verdict it memoized in the first
    assert runs[0] > 0 and runs[1] == 2 * runs[0]

    def broken(t, m, bound):
        assert module.memo.get() is not process
        raise RuntimeError("checker failed")

    monkeypatch.setattr(classes, "check_theorem_B", broken)
    with pytest.raises(RuntimeError):
        cli.run_verify(ring, ["theorem-b"], 3, 1, 0)
    assert module.memo.get() is process


def test_run_verify_adds_nothing_to_the_process_memo(monkeypatch):
    ring = RINGS["r3"]
    k = builtin_module(ring, "k")
    clear_resolution_cache()
    minimal_free_resolution(k, 2)          # made outside any run
    process = module.memo.get()
    before = list(process)
    cli.run_verify(ring, ["two-of-three", "duality-swap"], 3, 2, 0)
    assert list(process) == before
    record = process[(homology._resolution_start.__wrapped__, k.key)]
    assert len(record[1]) == 2             # k's record was not extended

    def broken(t, m, bound):
        raise RuntimeError("checker failed")

    monkeypatch.setattr(classes, "check_theorem_B", broken)
    with pytest.raises(RuntimeError):
        # two-of-three resolves and memoizes verdicts before theorem-b
        cli.run_verify(ring, ["two-of-three", "theorem-b"], 3, 2, 0)
    assert list(process) == before


def test_every_memo_key_is_its_build_and_argument_bytes(monkeypatch):
    ring = RINGS["r5"]
    with module.memo_scope():
        # the run fills this scope's memo instead of a fresh one
        monkeypatch.setattr(cli, "memo_scope", contextlib.nullcontext)
        cli.run_verify(ring, ["theorem-b", "class-equality"], 4, 2, 7)
        keys = list(module.memo.get())
    for build, *args in keys:
        # the function that built the value, as memoized wraps it
        wrapper = getattr(sys.modules[build.__module__], build.__name__)
        assert wrapper.__wrapped__ is build
        assert wrapper.__code__ is memoized(len).__code__
        assert len(args) == build.__code__.co_argcount
        for arg in args:
            if isinstance(arg, tuple):         # a module, as its key
                ring_key, dim, action = arg
                assert ring_key == ring.key and type(dim) is int
                assert len(action) == ring.dim * dim * dim * 8
            else:                              # a bound
                assert type(arg) is int
    assert {key[0].__name__ for key in keys} == {
        "hom_module", "tensor_module", "_resolution_start", "_dualizing",
        "_derived_reflexive", "_bass", "_auslander"}


def test_clear_resolution_cache_also_empties_verdicts(monkeypatch):
    ring = RINGS["r5"]
    k = builtin_module(ring, "k")
    calls = _counting(monkeypatch, "homothety_map")
    clear_resolution_cache()
    is_semidualizing(k, 2)
    is_quasidualizing(k, 2)
    assert len(calls) == 1                 # memoized outside a run too
    clear_resolution_cache()
    is_semidualizing(k, 2)
    assert len(calls) == 2


# (ring, index of L, index of L') into k followed by sample_modules(ring,
# 3, 5): the conditions of in_bass_class(L, L') and in_auslander_class(L,
# L') at the default bound, recorded before Ext was read as Tor of the
# Matlis dual, so that Ext and Tor witnesses alike are pinned
CLASS_WITNESSES = {
    ("r3", 0, 0): (
        (("evaluation-iso", "PASS", "1x1, injective=True, surjective=True"),
         ("ext(L',L)-vanishing", "FAIL", "Ext^1 has dim 1"),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 1")),
        (("gamma-iso", "PASS", "1x1, injective=True, surjective=True"),
         ("tor(L',L)-vanishing", "FAIL", "Tor_1 has dim 1"),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 1"))),
    ("r3", 3, 0): (
        (("evaluation-iso", "FAIL", "4x2, injective=True, surjective=False"),
         ("ext(L',L)-vanishing", "PASS", ""),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 2")),
        (("gamma-iso", "FAIL", "2x4, injective=False, surjective=True"),
         ("tor(L',L)-vanishing", "PASS", ""),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 2"))),
    ("r5", 0, 0): (
        (("evaluation-iso", "PASS", "1x1, injective=True, surjective=True"),
         ("ext(L',L)-vanishing", "FAIL", "Ext^1 has dim 2"),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 2")),
        (("gamma-iso", "PASS", "1x1, injective=True, surjective=True"),
         ("tor(L',L)-vanishing", "FAIL", "Tor_1 has dim 2"),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 2"))),
    ("r5", 2, 0): (
        (("evaluation-iso", "FAIL", "2x1, injective=True, surjective=False"),
         ("ext(L',L)-vanishing", "FAIL", "Ext^1 has dim 1"),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 2")),
        (("gamma-iso", "FAIL", "1x2, injective=False, surjective=True"),
         ("tor(L',L)-vanishing", "FAIL", "Tor_1 has dim 1"),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 2"))),
    ("r5", 3, 0): (
        (("evaluation-iso", "FAIL", "6x4, injective=True, surjective=False"),
         ("ext(L',L)-vanishing", "FAIL", "Ext^1 has dim 6"),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 8")),
        (("gamma-iso", "FAIL", "2x6, injective=False, surjective=True"),
         ("tor(L',L)-vanishing", "PASS", ""),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 4"))),
    ("r5", 3, 2): (
        (("evaluation-iso", "FAIL", "6x4, injective=True, surjective=False"),
         ("ext(L',L)-vanishing", "FAIL", "Ext^1 has dim 2"),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 4")),
        (("gamma-iso", "FAIL", "4x6, injective=False, surjective=True"),
         ("tor(L',L)-vanishing", "PASS", ""),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 2"))),
    ("r6", 0, 0): (
        (("evaluation-iso", "PASS", "1x1, injective=True, surjective=True"),
         ("ext(L',L)-vanishing", "FAIL", "Ext^1 has dim 2"),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 2")),
        (("gamma-iso", "PASS", "1x1, injective=True, surjective=True"),
         ("tor(L',L)-vanishing", "FAIL", "Tor_1 has dim 2"),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 2"))),
    ("r6", 1, 0): (
        (("evaluation-iso", "FAIL", "4x1, injective=True, surjective=False"),
         ("ext(L',L)-vanishing", "PASS", ""),
         ("tor(L',Hom(L',L))-vanishing", "FAIL", "Tor_1 has dim 2")),
        (("gamma-iso", "FAIL", "1x4, injective=False, surjective=True"),
         ("tor(L',L)-vanishing", "PASS", ""),
         ("ext(L',L'(x)L)-vanishing", "FAIL", "Ext^1 has dim 2"))),
}


@pytest.mark.parametrize("case", sorted(CLASS_WITNESSES))
def test_bass_and_auslander_witnesses_are_pinned(case):
    name, i, j = case
    ring = corpus_ring(name)
    mods = [builtin_module(ring, "k")] + sample_modules(ring, 3, 5)
    l, lp = mods[i], mods[j]
    with module.memo_scope():
        got = (in_bass_class(l, lp).conditions,
               in_auslander_class(l, lp).conditions)
    assert got == CLASS_WITNESSES[case]
