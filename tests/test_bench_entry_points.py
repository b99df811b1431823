"""The names the benchmark reads from the package exist.

`bench/run.py` looks `clear_resolution_cache` up with a `getattr`
default and skips it when it is missing, so a rename would let the
memo survive between timed runs and read as a speed-up, and
`bench/tracer.py` skips a missing boundary, so its per-layer metrics
would read 0; these tests make such a rename fail here instead.
"""

import ast
import importlib
from pathlib import Path

import qdual
from qdual import builtin_module, corpus_ring, hom_module, module

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_reads():
    """(module name, attribute) for each `qdual.<name>` read, each
    `getattr(qdual, "<name>", ...)` and each `from qdual... import`."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "qdual"):
                yield "qdual", node.attr
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[0], ast.Name)
                  and node.args[0].id == "qdual"
                  and isinstance(node.args[1], ast.Constant)):
                yield "qdual", node.args[1].value
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "qdual"):
                for alias in node.names:
                    yield node.module, alias.name


def test_every_name_the_benchmark_reads_exists():
    reads = sorted(set(_bench_reads()))
    assert ("qdual", "clear_resolution_cache") in reads
    assert ("qdual.cli", "run_verify") in reads
    missing = ["%s.%s" % read for read in reads
               if not hasattr(importlib.import_module(read[0]), read[1])]
    assert not missing, "bench reads missing names: %s" % ", ".join(missing)


def test_clear_resolution_cache_empties_the_memo():
    ring = corpus_ring("r5")
    k = builtin_module(ring, "k")
    with module.memo_scope():
        hom_module(k, k)
        qdual.minimal_free_resolution(k, 2)
        assert module.memo.get()
        qdual.clear_resolution_cache()
        assert module.memo.get() == {}


def test_tracer_boundaries_missing_from_the_package_are_the_stale_two(
        monkeypatch):
    # `module.span_closure` and `functors.hom_evaluation_map` were
    # removed from the package while the tracer still names them, so
    # their metrics read 0; a boundary that goes missing after them
    # fails here
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    missing = {"%s.%s" % (mod, name) for mod, name, _ in tracer.BOUNDARIES
               if not hasattr(importlib.import_module("qdual." + mod), name)}
    assert missing == {"module.span_closure", "functors.hom_evaluation_map"}
