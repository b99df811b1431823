"""Fuzz the command line with mutated ring and module files and argv.

`main` must end with exit code 0, 1 or 2 on any input and raise nothing
else: argparse reports a usage error as SystemExit(2) (and `--help` as
SystemExit(0)), which counts as that exit code.
"""

import io
import os
import sys
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qdual import builtin_module, cli, corpus_ring, serialize_module
from qdual.corpus import corpus_source

COMMANDS = ("check-ring", "dual", "hom", "tensor", "ext", "tor", "resolve",
            "classify", "verify")

# the corpus rings with at most 3 basis elements keep each example fast
SMALL_RINGS = ("r1", "r2", "r3", "r4", "r5", "r7")

# integers a mutation may put in place of another: small values, edge
# values and primes near and far above the supported bound
INTEGERS = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([65521, 65537, 2 ** 31 - 1, 2 ** 61 - 1,
                     10 ** 18 + 3, 10 ** 30]))

JUNK_LINES = ("[ring]", "[module]", "=", "name =", "dim = 0", "dim = -1",
              "p = 3", "unit = 1", "mul 0 0 = 1", "mul 1 0 = 0 1",
              "act 0 = 1", "act 0 =", "ring = r1", "# comment", "x = 1")


def _module_text(name):
    ring = corpus_ring("r3" if name == "r7" else name)
    return serialize_module(builtin_module(ring, "k"))


@st.composite
def mutated(draw, text):
    """`text` after a few line and token mutations."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("token", "delete", "duplicate", "swap", "insert", "truncate")))
        if not lines and kind != "insert":
            continue
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "token":
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = str(draw(INTEGERS))
            lines[i] = " ".join(tokens)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(JUNK_LINES)))
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(argv, {file name: text}) for one call of `main`."""
    ring_name = draw(st.sampled_from(SMALL_RINGS))
    files = {"ring.txt": draw(mutated(corpus_source(ring_name))),
             "mod.txt": draw(mutated(_module_text(ring_name)))}
    ring = draw(st.sampled_from(
        ("ring.txt", "corpus:" + ring_name, "corpus:r9", "missing.txt")))
    module = st.sampled_from(("R", "E", "k", "0", "mod.txt", "missing.txt"))
    small = st.integers(-1, 3)
    command = draw(st.sampled_from(COMMANDS))
    if command == "check-ring":
        argv = [command, ring]
    elif command in ("dual", "resolve"):
        argv = [command, "--ring", ring, draw(module)]
        if command == "resolve":
            argv += ["-l", str(draw(small))]
    elif command in ("hom", "tensor", "ext", "tor"):
        argv = [command, "--ring", ring, draw(module), draw(module)]
        if command in ("ext", "tor"):
            argv += ["-i", str(draw(small))]
    elif command == "classify":
        argv = [command, "--ring", ring, "--module", draw(module), "--as",
                draw(st.sampled_from(("semidualizing", "quasidualizing",
                                      "dualizing"))),
                "--bound", str(draw(small))]
    else:
        argv = [command, "--ring", ring, "--suite",
                draw(st.sampled_from(("all", *cli.SUITES))),
                "--bound", str(draw(small)),
                "--samples", str(draw(st.integers(-1, 2))),
                "--seed", str(draw(st.integers(-1, 3)))]
    # a stray token sometimes, to reach argparse's own errors
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--bogus", "-i", "x", "--help"))))
    return argv, files


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdout, sys.stderr = old


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# a prime far above the supported bound: trial division used to run
# before the bound check and did not end
@example((["check-ring", "ring.txt"],
          {"ring.txt": corpus_source("r3").replace("p = 2",
                                                   "p = %d" % (2 ** 61 - 1))}))
# integers beyond int64 in a mul, unit or act line used to raise
# OverflowError when stored
@example((["check-ring", "ring.txt"],
          {"ring.txt": corpus_source("r3").replace(
              "mul 0 0 = 1 0", "mul 0 0 = %d 0" % 10 ** 30)}))
@example((["check-ring", "ring.txt"],
          {"ring.txt": corpus_source("r3").replace(
              "unit = 1 0", "unit = %d 0" % 10 ** 30)}))
@example((["dual", "--ring", "corpus:r3", "mod.txt"],
          {"mod.txt": _module_text("r3").replace(
              "act 0 = 1", "act 0 = %d" % 10 ** 30)}))
@example((["dual", "--ring", "corpus:r3", "mod.txt"],
          {"mod.txt": _module_text("r3").replace(
              "act 1 = 0", "act 1 = %d" % -10 ** 30)}))
# a module whose actions do not commute used to pass the module check
# and end classify in an ArithmeticError
@example((["classify", "--ring", "corpus:r5", "--module", "mod.txt", "--as",
           "quasidualizing"],
          {"mod.txt": "[module]\nname = bad\nring = r5\ndim = 3\n"
                      "act 0 = 1 0 0 / 0 1 0 / 0 0 1\n"
                      "act 1 = 0 0 0 / 1 0 0 / 0 0 0\n"
                      "act 2 = 0 0 0 / 0 0 0 / 0 1 0\n"}))
def test_main_exits_0_1_or_2_and_never_raises(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in files or a == "missing.txt"
                else a for a in argv]
        assert _exit_code(argv) in (0, 1, 2)

