"""Command line surface.

Exit codes: 0 = every check passed (VACUOUS does not fail), 1 = at
least one FAIL, 2 = usage or parse errors.  Output is deterministic for
fixed inputs and seed: report lines go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import classes, homology
from .corpus import VALID_NAMES, builtin_module, corpus_ring
from .errors import (ParseError, QdualError, RingValidationError,
                     UnknownRing)
from .fileformat import parse_module, parse_ring, serialize_module
from .functors import hom_module, injective_hull, matlis_dual, tensor_module
from .module import (free_module, regular_module, ses_from_submodule, socle)
from .sampling import random_ses, sample_modules

SUITES = ("duality-swap", "theorem-b", "class-equality", "two-of-three",
          "hom-faithful", "tensor-probe", "artinian-collapse")


def load_ring(spec):
    if spec.startswith("corpus:"):
        return corpus_ring(spec[len("corpus:"):])
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_ring(fh.read())


def load_module(spec, ring):
    if spec in ("R", "E", "k", "0"):
        return builtin_module(ring, spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_module(fh.read(), {ring.name: ring})


def _report_lines(suite, check_name, report):
    lines = []
    for label, verdict, witness in report.conditions:
        lines.append("CHECK %s/%s.%s %s %s"
                     % (suite, check_name, label, verdict, witness or "-"))
    return lines


def _sample_tag(i):
    return "s%02d" % i


def _suite_duality_swap(ring, bound, samples, seed):
    lines = []
    subjects = [("R", regular_module(ring)), ("E", injective_hull(ring)),
                ("k", builtin_module(ring, "k"))]
    subjects += [(_sample_tag(i), m)
                 for i, m in enumerate(sample_modules(ring, samples, seed))]
    for name, module in subjects:
        report = classes.check_duality_swap(module, bound)
        lines += _report_lines("duality-swap", "X=%s" % name, report)
    return lines


def _suite_theorem_b(ring, bound, samples, seed):
    lines = []
    mods = sample_modules(ring, samples, seed)
    for tname in ("R", "E"):
        t = builtin_module(ring, tname)
        for i, m in enumerate(mods):
            report = classes.check_theorem_B(t, m, bound)
            lines += _report_lines("theorem-b",
                                   "T=%s.%s" % (tname, _sample_tag(i)),
                                   report)
    return lines


def _suite_class_equality(ring, bound, samples, seed):
    lines = []
    mods = sample_modules(ring, samples, seed)
    for tname in ("R", "E"):
        t = builtin_module(ring, tname)
        for i, m in enumerate(mods):
            report = classes.check_class_equality(t, m, bound)
            lines += _report_lines("class-equality",
                                   "T=%s.%s" % (tname, _sample_tag(i)),
                                   report)
    return lines


def _suite_two_of_three(ring, bound, samples, seed):
    lines = []
    t_reg = regular_module(ring)
    t_inj = injective_hull(ring)

    # split sequence 0 -> R -> R^2 -> R -> 0 with T = R
    r2 = free_module(ring, 2)
    first_copy = np.zeros((r2.dim, ring.dim), dtype=np.int64)
    first_copy[:ring.dim, :] = np.eye(ring.dim, dtype=np.int64)
    ses = ses_from_submodule(r2, first_copy)
    lines += _report_lines(
        "two-of-three", "T=R.split-free",
        classes.check_two_of_three(t_reg, ses, bound))

    # 0 -> soc(E) -> E -> E/soc -> 0 with T = E
    ses = ses_from_submodule(t_inj, socle(t_inj))
    lines += _report_lines(
        "two-of-three", "T=E.socle-of-E",
        classes.check_two_of_three(t_inj, ses, bound))

    for i in range(samples):
        ses = random_ses(ring, (seed, 7, i))
        report = classes.check_two_of_three(t_reg, ses, bound)
        lines += _report_lines("two-of-three",
                               "T=R.%s" % _sample_tag(i), report)
    return lines


def _suite_hom_faithful(ring, bound, samples, seed):
    lines = []
    mods = [("zero", builtin_module(ring, "0")),
            ("k", builtin_module(ring, "k"))]
    mods += [(_sample_tag(i), m)
             for i, m in enumerate(sample_modules(ring, samples, seed))]
    for tname in ("R", "E"):
        t = builtin_module(ring, tname)
        for name, m in mods:
            report = classes.check_hom_faithful(m, t, bound)
            lines += _report_lines("hom-faithful",
                                   "T=%s.L=%s" % (tname, name), report)
    return lines


def _suite_tensor_probe(ring, bound, samples, seed):
    lines = []
    mods = [("zero", builtin_module(ring, "0")),
            ("k", builtin_module(ring, "k"))]
    mods += [(_sample_tag(i), m)
             for i, m in enumerate(sample_modules(ring, samples, seed))]
    for tname in ("R", "E"):
        t = builtin_module(ring, tname)
        for name, m in mods:
            report = classes.probe_tensor_faithful(m, t, bound)
            lines += _report_lines("tensor-probe",
                                   "T=%s.L=%s" % (tname, name), report)
    return lines


def _suite_artinian_collapse(ring, bound, samples, seed):
    candidates = [regular_module(ring), injective_hull(ring),
                  builtin_module(ring, "k")]
    candidates += sample_modules(ring, min(samples, 5), seed)
    report = classes.check_artinian_collapse(ring, candidates, bound)
    return _report_lines("artinian-collapse", ring.name, report)


_SUITE_RUNNERS = {
    "duality-swap": _suite_duality_swap,
    "theorem-b": _suite_theorem_b,
    "class-equality": _suite_class_equality,
    "two-of-three": _suite_two_of_three,
    "hom-faithful": _suite_hom_faithful,
    "tensor-probe": _suite_tensor_probe,
    "artinian-collapse": _suite_artinian_collapse,
}


def run_verify(ring, suites, bound, samples, seed):
    """Returns (report text, exit code)."""
    lines = []
    for suite in suites:
        lines += _SUITE_RUNNERS[suite](ring, bound, samples, seed)
    counts = {"PASS": 0, "FAIL": 0, "VACUOUS": 0}
    for line in lines:
        counts[line.split()[2]] += 1
    lines.append("SUMMARY pass=%d fail=%d vacuous=%d"
                 % (counts["PASS"], counts["FAIL"], counts["VACUOUS"]))
    return "\n".join(lines) + "\n", (1 if counts["FAIL"] else 0)


def _cmd_check_ring(args):
    ring = load_ring(args.ring)
    print("ring %s: p=%d dim=%d radical-dim=%d residue-degree=%d"
          % (ring.name, ring.p, ring.dim, ring.radical.shape[1],
             ring.residue_degree))
    print("OK")
    return 0


def _cmd_dual(args):
    ring = load_ring(args.ring)
    module = load_module(args.module, ring)
    dual = matlis_dual(module)
    print(serialize_module(dual, name=(module.name or "M") + "^v"), end="")
    return 0


def _cmd_hom(args):
    ring = load_ring(args.ring)
    m = load_module(args.source, ring)
    n = load_module(args.target, ring)
    hom = hom_module(m, n)
    print("dim %d" % hom.module.dim)
    print(serialize_module(hom.module, name="Hom"), end="")
    return 0


def _cmd_tensor(args):
    ring = load_ring(args.ring)
    m = load_module(args.source, ring)
    n = load_module(args.target, ring)
    tens = tensor_module(m, n)
    print("dim %d" % tens.module.dim)
    print(serialize_module(tens.module, name="Tensor"), end="")
    return 0


def _cmd_ext(args):
    ring = load_ring(args.ring)
    m = load_module(args.source, ring)
    n = load_module(args.target, ring)
    table = homology.ext_dims(m, n, args.degree)
    print("dims " + " ".join(str(d) for d in table.dims))
    return 0


def _cmd_tor(args):
    ring = load_ring(args.ring)
    m = load_module(args.source, ring)
    n = load_module(args.target, ring)
    table = homology.tor_dims(m, n, args.degree)
    print("dims " + " ".join(str(d) for d in table.dims))
    return 0


def _cmd_resolve(args):
    ring = load_ring(args.ring)
    m = load_module(args.module, ring)
    res = homology.minimal_free_resolution(m, args.length)
    print("betti " + " ".join(str(b) for b in res.betti))
    return 0


def _cmd_classify(args):
    ring = load_ring(args.ring)
    module = load_module(args.module, ring)
    if args.role == "semidualizing":
        report = classes.is_semidualizing(module, args.bound)
    else:
        report = classes.is_quasidualizing(module, args.bound)
    for line in _report_lines("classify", "%s-as-%s"
                              % (module.name or "M", args.role), report):
        print(line)
    print("VERDICT %s" % report.verdict)
    return 1 if report.verdict == "FAIL" else 0


def _cmd_verify(args):
    ring = load_ring(args.ring)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    text, code = run_verify(ring, suites, args.bound, args.samples, args.seed)
    sys.stdout.write(text)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdual",
        description="Verification toolkit for Matlis duality and "
                    "dualizing-module predicates over finite local algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def ring_arg(p):
        p.add_argument("--ring", required=True,
                       help="ring file path or corpus:<id> (%s)"
                            % ", ".join(VALID_NAMES))

    p = sub.add_parser("check-ring", help="validate a ring file")
    p.add_argument("ring", help="ring file path or corpus:<id>")
    p.set_defaults(func=_cmd_check_ring)

    p = sub.add_parser("dual", help="Matlis dual of a module")
    ring_arg(p)
    p.add_argument("module", help="R, E, k, 0 or a module file")
    p.set_defaults(func=_cmd_dual)

    for name, func in (("hom", _cmd_hom), ("tensor", _cmd_tensor)):
        p = sub.add_parser(name, help="%s of two modules" % name)
        ring_arg(p)
        p.add_argument("source")
        p.add_argument("target")
        p.set_defaults(func=func)

    for name, func in (("ext", _cmd_ext), ("tor", _cmd_tor)):
        p = sub.add_parser(name, help="%s dimensions" % name)
        ring_arg(p)
        p.add_argument("-i", "--degree", type=int, default=4)
        p.add_argument("source")
        p.add_argument("target")
        p.set_defaults(func=func)

    p = sub.add_parser("resolve", help="minimal free resolution prefix")
    ring_arg(p)
    p.add_argument("-l", "--length", type=int, default=4)
    p.add_argument("module")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("classify", help="test a dualizing-module predicate")
    ring_arg(p)
    p.add_argument("--module", required=True)
    p.add_argument("--as", dest="role", required=True,
                   choices=("semidualizing", "quasidualizing"))
    p.add_argument("--bound", type=int, default=classes.DEFAULT_BOUND)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run property suites")
    ring_arg(p)
    p.add_argument("--suite", default="all",
                   choices=("all",) + SUITES)
    p.add_argument("--bound", type=int, default=classes.DEFAULT_BOUND)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "bound", 1) < 1 or getattr(args, "samples", 1) < 1:
        parser.error("bound and samples must be at least 1")
    if getattr(args, "degree", 0) < 0 or getattr(args, "length", 0) < 0:
        parser.error("degree and length must be at least 0")
    if (args.command == "verify" and args.suite in ("all", "two-of-three")
            and args.bound < 2):
        parser.error("suite two-of-three needs bound >= 2")
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except RingValidationError as exc:
        print("invalid ring (%s): %s" % (exc.law, exc), file=sys.stderr)
        return 1
    except UnknownRing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except QdualError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
