"""Acceptance gate: one criterion per test, one printed line each.

All criteria are exact (dimension counts over finite fields and verdict
agreement), so there are no numeric tolerances anywhere.
"""

import numpy as np
from oracles import hom_cochain_ext_dims

from qdual import (builtin_module, check_class_equality, check_duality_swap,
                   check_theorem_B, check_two_of_three, cli, corpus_ring,
                   ext_dims, free_module, hom_module, injective_hull,
                   is_quasidualizing, is_semidualizing, matlis_dual,
                   minimal_free_resolution, minimal_generator_count,
                   parse_module, parse_ring, random_ses, regular_module,
                   sample_modules, ses_from_submodule, socle, tor_dims,
                   zero_module)
from qdual.corpus import corpus_source
from qdual.errors import (ModuleValidationError, NotLocal, NotPrime)

CORPUS = {name: corpus_ring(name) for name in
          ("r1", "r2", "r3", "r4", "r5", "r6")}


def report(number, name, ok):
    print("ACCEPTANCE %02d %s: %s" % (number, name,
                                      "pass" if ok else "FAIL"))
    assert ok


def sample_pairs(min_pairs=50):
    """Seeded (M, N) pairs with dim <= 6 over r3..r6."""
    pairs = []
    for name in ("r3", "r4", "r5", "r6"):
        ring = CORPUS[name]
        mods = sample_modules(ring, 8, 101, max_dim=6)
        for i in range(0, 8, 2):
            pairs.append((mods[i], mods[i + 1]))
        k = builtin_module(ring, "k")
        pairs.append((k, regular_module(ring)))
        pairs.append((injective_hull(ring), k))
        for i in range(7):
            more = sample_modules(ring, 2, 200 + i, max_dim=6)
            pairs.append((more[0], more[1]))
    assert len(pairs) >= min_pairs
    return pairs


PAIRS = sample_pairs()


def test_criterion_01_quasidualizing_examples():
    ok = True
    for ring in CORPUS.values():
        ok &= is_quasidualizing(injective_hull(ring), 4).passed
        ok &= is_semidualizing(regular_module(ring), 4).passed
    report(1, "quasidualizing-examples", ok)


def test_criterion_02_artinian_collapse():
    ok = True
    for ring in CORPUS.values():
        ok &= is_semidualizing(injective_hull(ring), 4).passed
        ok &= is_quasidualizing(regular_module(ring), 4).passed
        for name in ("R", "E", "k"):
            c = builtin_module(ring, name)
            ok &= (is_semidualizing(c, 4).verdict
                   == is_quasidualizing(c, 4).verdict)
    report(2, "artinian-collapse", ok)


def test_criterion_03_ext_matlis_swap():
    ok = True
    for m, n in PAIRS:
        md, nd = matlis_dual(m), matlis_dual(n)
        ok &= ext_dims(m, n, 4).dims == ext_dims(nd, md, 4).dims
        ok &= ext_dims(m, nd, 4).dims == ext_dims(n, md, 4).dims
    report(3, "ext-matlis-swap", ok)


def test_criterion_04_ext_cross_oracle():
    ok = True
    for m, n in PAIRS:
        ok &= ext_dims(m, n, 4).dims == hom_cochain_ext_dims(m, n, 4)
    report(4, "ext-cross-oracle", ok)


def test_criterion_05_ext_tor_duality():
    ok = True
    for m, n in PAIRS:
        ok &= (tor_dims(m, n, 4).dims
               == ext_dims(m, matlis_dual(n), 4).dims)
        # Ext is computed through Tor; the Hom cochain oracle is not
        ok &= (tor_dims(m, n, 4).dims
               == hom_cochain_ext_dims(m, matlis_dual(n), 4))
    report(5, "ext-tor-duality", ok)


def test_criterion_06_duality_swap():
    ok = True
    for ring in CORPUS.values():
        for name in ("R", "E"):
            rep = check_duality_swap(builtin_module(ring, name), 4)
            ok &= rep.verdict == "PASS"
            labels = [lbl for lbl, _, _ in rep.conditions]
            ok &= any("involutivity" in lbl for lbl in labels)
    report(6, "duality-swap", ok)


def test_criterion_07_theorem_b():
    r5 = CORPUS["r5"]
    mods = sample_modules(r5, 30, 7)
    ok = True
    negative_coverage = 0
    for t in (regular_module(r5), injective_hull(r5)):
        for m in mods:
            rep = check_theorem_B(t, m, 4)
            ok &= rep.verdict == "PASS"
            if any("lhs=False rhs=False" in w
                   for _, _, w in rep.conditions):
                negative_coverage += 1
    ok &= negative_coverage >= 5
    report(7, "theorem-b", ok)


def test_criterion_08_class_equalities():
    r5 = CORPUS["r5"]
    mods = sample_modules(r5, 30, 8)
    ok = True
    for t in (regular_module(r5), injective_hull(r5)):
        for m in mods:
            ok &= check_class_equality(t, m, 4).verdict == "PASS"
    report(8, "class-equalities", ok)


def test_criterion_09_two_of_three():
    r5 = CORPUS["r5"]
    reg = regular_module(r5)
    e = injective_hull(r5)
    ok = True
    non_vacuous = 0
    for seed in range(30):
        rep = check_two_of_three(reg, random_ses(r5, seed), 4)
        ok &= rep.verdict != "FAIL"
        non_vacuous += rep.verdict != "VACUOUS"
    # injected split sequences of free modules guarantee coverage
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3)):
        f = free_module(r5, a + b)
        first = np.zeros((f.dim, a * r5.dim), dtype=np.int64)
        first[:a * r5.dim] = np.eye(a * r5.dim, dtype=np.int64)
        rep = check_two_of_three(reg, ses_from_submodule(f, first), 4)
        ok &= rep.verdict == "PASS"
        non_vacuous += rep.verdict != "VACUOUS"
    rep = check_two_of_three(e, ses_from_submodule(e, socle(e)), 4)
    ok &= rep.verdict != "FAIL"
    non_vacuous += rep.verdict != "VACUOUS"
    ok &= non_vacuous >= 5
    report(9, "two-of-three", ok)


def test_criterion_10_hom_faithfulness():
    ok = True
    for name in ("r3", "r4", "r5", "r6"):
        ring = CORPUS[name]
        targets = (regular_module(ring), injective_hull(ring))
        for t in targets:
            ok &= hom_module(zero_module(ring), t).module.dim == 0
        for l in sample_modules(ring, 10, 10):
            if l.dim == 0:
                continue
            for t in targets:
                ok &= hom_module(l, t).module.dim > 0
    report(10, "hom-faithfulness", ok)


def test_criterion_11_structural_spot_values():
    r5 = CORPUS["r5"]
    r3 = CORPUS["r3"]
    k5 = builtin_module(r5, "k")
    k3 = builtin_module(r3, "k")
    ok = minimal_free_resolution(k5, 6).betti == (1, 2, 4, 8, 16, 32, 64)
    ok &= ext_dims(k3, k3, 6).dims == (1,) * 7
    ok &= minimal_generator_count(injective_hull(r5)) == 2
    ok &= minimal_generator_count(regular_module(r5)) == 1
    report(11, "structural-spot-values", ok)


def test_criterion_12_negative_paths():
    ok = True
    try:
        parse_ring(corpus_source("r7"))
        ok = False
    except NotLocal:
        pass
    try:
        parse_ring(corpus_source("r3").replace("p = 2", "p = 4"))
        ok = False
    except NotPrime:
        pass
    bad_module = ("[module]\nname = bad\nring = r3\ndim = 2\n"
                  "act 0 = 1 0 / 0 1\nact 1 = 0 1 / 1 0\n")
    try:
        parse_module(bad_module, {"r3": CORPUS["r3"]})
        ok = False
    except ModuleValidationError as exc:
        ok &= exc.witness is not None
    report(12, "negative-paths", ok)


def test_criterion_13_determinism(capsys):
    argv = ["verify", "--ring", "corpus:r5", "--suite", "all",
            "--samples", "10", "--seed", "7", "--bound", "4"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    report(13, "determinism", ok)
