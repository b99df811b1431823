"""Command line surface.

Exit codes: 0 = every check passed (VACUOUS does not fail); 1 = at
least one FAIL, or a `QdualError`: input that parses but breaks a ring
or module law, or a parameter module T that fails its quasidualizing
hypothesis; 2 = usage or parse errors, a resolution degree or a Hom
constraint over the cell budget `linalg.MAX_CELLS` (`TooLarge`), or a
Betti number, Ext or Tor dimension with more digits than
`sys.get_int_max_str_digits()` allows.  Output is deterministic for
fixed inputs and seed: report lines go to stdout, diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

import numpy as np

from . import classes, homology
from .corpus import VALID_NAMES, builtin_module, corpus_ring
from .errors import (ParseError, QdualError, RingValidationError,
                     TooLarge, UnknownRing)
from .fileformat import parse_module, parse_ring, serialize_module
from .functors import hom_module, injective_hull, matlis_dual, tensor_module
from .module import (free_module, memo_scope, regular_module,
                     ses_from_submodule, socle)
from .sampling import random_ses, sample_modules


def _read_text(path):
    """The file's text; a file that is not UTF-8 is an OSError naming
    the file, as an unreadable one is."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError("%s: not UTF-8 (%s)" % (path, exc)) from None


def load_ring(spec):
    if spec.startswith("corpus:"):
        return corpus_ring(spec[len("corpus:"):])
    return parse_ring(_read_text(spec))


def load_module(spec, ring):
    if spec in ("R", "E", "k", "0"):
        return builtin_module(ring, spec)
    return parse_module(_read_text(spec), {ring.name: ring})


def _report_lines(suite, check_name, report):
    lines = []
    for label, verdict, witness in report.conditions:
        lines.append("CHECK %s/%s.%s %s %s"
                     % (suite, check_name, label, verdict, witness or "-"))
    return lines


def _grid(tnames, builtins, label, check):
    """Cases `check(t, m, bound)` for each T named in `tnames` (None: no
    T) and each subject: the (tag, name) builtins, then the samples.
    The table's lambdas look checkers up on `classes` at call time."""
    def cases(ring, bound, mods, seed):
        subjects = [(tag, builtin_module(ring, name))
                    for tag, name in builtins] + mods
        for tname in tnames:
            t = None if tname is None else builtin_module(ring, tname)
            for tag, m in subjects:
                yield label.format(t=tname, m=tag), check(t, m, bound)
    return cases


def _two_of_three(ring, bound, mods, seed):
    t_reg = regular_module(ring)
    t_inj = injective_hull(ring)
    r2 = free_module(ring, 2)
    cases = [
        # split sequence 0 -> R -> R^2 -> R -> 0 with T = R
        ("R.split-free", t_reg, ses_from_submodule(
            r2, np.eye(r2.dim, ring.dim, dtype=np.int64))),
        # 0 -> soc(E) -> E -> E/soc -> 0 with T = E
        ("E.socle-of-E", t_inj, ses_from_submodule(t_inj, socle(t_inj))),
    ]
    cases += [("R." + tag, t_reg, random_ses(ring, (seed, 7, i)))
              for i, (tag, _) in enumerate(mods)]
    for tag, t, ses in cases:
        yield "T=" + tag, classes.check_two_of_three(t, ses, bound)


def _artinian_collapse(ring, bound, mods, seed):
    candidates = [regular_module(ring), injective_hull(ring),
                  builtin_module(ring, "k")]
    candidates += [m for _, m in mods[:5]]
    yield ring.name, classes.check_artinian_collapse(ring, candidates,
                                                     bound)


# suite name -> case function (ring, bound, mods, seed) yielding
# (check name, CheckReport), in `--suite all` order; mods holds the
# samples as (tag, module).  The grid suites share the quasidualizing
# modules T and the builtin subjects L
_TS = ("R", "E")
_PROBES = (("zero", "0"), ("k", "k"))
SUITES = {
    "duality-swap": _grid((None,), (("R", "R"), ("E", "E"), ("k", "k")),
                          "X={m}",
                          lambda t, m, b: classes.check_duality_swap(m, b)),
    "theorem-b": _grid(_TS, (), "T={t}.{m}",
                       lambda t, m, b: classes.check_theorem_B(t, m, b)),
    "class-equality": _grid(
        _TS, (), "T={t}.{m}",
        lambda t, m, b: classes.check_class_equality(t, m, b)),
    "two-of-three": _two_of_three,
    "hom-faithful": _grid(
        _TS, _PROBES, "T={t}.L={m}",
        lambda t, m, b: classes.check_hom_faithful(m, t, b)),
    "tensor-probe": _grid(
        _TS, _PROBES, "T={t}.L={m}",
        lambda t, m, b: classes.probe_tensor_faithful(m, t, b)),
    "artinian-collapse": _artinian_collapse,
}


def run_verify(ring, suites, bound, samples, seed):
    """Returns (report text, exit code).  The whole call, each suite's
    cases drained into `lines`, runs in a fresh `module.memo_scope`:
    each resolution, Hom, tensor and predicate verdict is computed once
    per call, and none outlives it."""
    with memo_scope():
        mods = [("s%02d" % i, m)
                for i, m in enumerate(sample_modules(ring, samples, seed))]
        lines = []
        for suite in suites:
            for check_name, report in SUITES[suite](ring, bound, mods, seed):
                lines += _report_lines(suite, check_name, report)
    counts = collections.Counter(line.split()[2] for line in lines)
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


def _load_pair(args):
    ring = load_ring(args.ring)
    return load_module(args.source, ring), load_module(args.target, ring)


def _cmd_hom_or_tensor(args):
    functor = hom_module if args.command == "hom" else tensor_module
    module = functor(*_load_pair(args)).module
    print("dim %d" % module.dim)
    print(serialize_module(module, name=args.command.capitalize()), end="")
    return 0


# command -> (word before the numbers, name of number i in the error)
_DIMS = {"resolve": ("betti", "b_"), "ext": ("dims", "dim Ext^"),
         "tor": ("dims", "dim Tor_")}


def _cmd_dims(args):
    """`resolve`, `ext` and `tor`, each number one degree of the Tor
    loop: b_i = dim Tor_i(M, k) / r for r the residue degree, and
    dim Ext^i(M, N) = dim Tor_i(M, N^v), as in `homology.ext_dims`."""
    m, n = _load_pair(args)
    if args.command == "ext":
        n = matlis_dual(n)
    scale = m.ring.residue_degree if args.command == "resolve" else 1
    word, name = _DIMS[args.command]
    words = []
    for i, dim in zip(range(args.degree + 1), homology.tor_degrees(m, n)):
        try:
            words.append(str(dim // scale))
        except ValueError:  # over sys.get_int_max_str_digits()
            print("error: %s%d has more than %d digits"
                  % (name, i, sys.get_int_max_str_digits()), file=sys.stderr)
            return 2
    print(word, *words)
    return 0


def _cmd_classify(args):
    ring = load_ring(args.ring)
    module = load_module(args.module, ring)
    check = (classes.is_semidualizing if args.role == "semidualizing"
             else classes.is_quasidualizing)
    report = check(module, args.bound)
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

    for name in ("hom", "tensor"):
        p = sub.add_parser(name, help="%s of two modules" % name)
        ring_arg(p)
        p.add_argument("source")
        p.add_argument("target")
        p.set_defaults(func=_cmd_hom_or_tensor)

    for name in ("ext", "tor"):
        p = sub.add_parser(name, help="%s dimensions" % name)
        ring_arg(p)
        p.add_argument("-i", "--degree", type=int, default=4)
        p.add_argument("source")
        p.add_argument("target")
        p.set_defaults(func=_cmd_dims)

    # Betti numbers are read off Tor against k, degree for degree
    p = sub.add_parser("resolve", help="minimal free resolution prefix")
    ring_arg(p)
    p.add_argument("-l", "--length", dest="degree", metavar="LENGTH",
                   type=int, default=4)
    p.add_argument("source", metavar="module")
    p.set_defaults(func=_cmd_dims, target="k")

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
                   choices=("all", *SUITES))
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
    if getattr(args, "degree", 0) < 0:   # resolve's -l included
        parser.error("degree and length must be at least 0")
    # islice and numpy take counts below sys.maxsize and seeds from 0
    counts = [getattr(args, name, 0)
              for name in ("bound", "samples", "degree")]
    if getattr(args, "seed", 0) < 0 or max(counts) >= sys.maxsize:
        parser.error("seed must be at least 0, and bound, samples, degree "
                     "and length below %d" % sys.maxsize)
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
    except (UnknownRing, TooLarge, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except QdualError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
