"""Span tracer for the benchmark's traced runs.

The tracer wraps qdual's public functions at the layer boundaries from
outside the package: every module attribute bound to a wrapped function
is rebound, so `from .homology import ext_dims` in `classes` and
`from .module import minimal_generators` in `homology` are traced as
well as the defining module.  Spans (group, start, end, parent, run id,
info) stay in memory; `write` stores them once, at the end.

A boundary missing from the package (a renamed or removed function)
is skipped, so its metrics read 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from workloads import SUITES

# rref shape buckets: small when both sides are below SMALL, large when
# either side reaches LARGE
SMALL = 16
LARGE = 64

PREDICATES = ("is_semidualizing", "is_quasidualizing", "is_derived_reflexive",
              "in_bass_class", "in_auslander_class")
CHECKERS = ("check_duality_swap", "check_theorem_B", "check_class_equality",
            "check_two_of_three", "check_hom_faithful",
            "probe_tensor_faithful", "check_artinian_collapse")
NATURAL_MAPS = ("homothety_map", "biduality_map", "evaluation_map",
                "gamma_map", "hom_evaluation_map", "is_isomorphism")

# (module, function, span group); the group's first part names the layer
BOUNDARIES = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "canon_basis", "linalg.basis"),
    ("linalg", "kernel_with_support", "linalg.basis"),
    ("module", "span_closure", "module.span_closure"),
    ("module", "minimal_generators", "module.minimal_generators"),
    ("module", "quotient_module", "module.quotient_module"),
    ("functors", "hom_module", "functors.hom_module"),
    ("functors", "tensor_module", "functors.tensor_module"),
    *(("functors", f, "functors.maps") for f in NATURAL_MAPS),
    ("homology", "minimal_free_resolution", "homology.resolution"),
    ("homology", "ext_dims", "homology.ext"),
    ("homology", "ext_dims_via_injective", "homology.ext"),
    ("homology", "tor_dims", "homology.tor"),
    *(("classes", f, "classes.predicate") for f in PREDICATES),
    *(("classes", f, "classes.checker") for f in CHECKERS),
    ("sampling", "sample_modules", "sampling"),
    ("sampling", "random_ses", "sampling"),
    ("fileformat", "parse_ring", "fileformat.parse_ring"),
)

LAYERS = ("linalg", "module", "functors", "homology", "classes", "sampling",
          "cli")

# metric name -> unit, in print order
METRICS = {
    "linalg.rref.calls": "count", "linalg.rref.self_s": "s",
    "linalg.rref.small.calls": "count", "linalg.rref.small.self_s": "s",
    "linalg.rref.large.calls": "count", "linalg.rref.large.self_s": "s",
    "linalg.rref.p2.self_s": "s", "linalg.rref.podd.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.rank.calls": "count", "linalg.rank.s": "s",
    "linalg.basis.calls": "count", "linalg.basis.s": "s",
    "module.span_closure.calls": "count", "module.span_closure.s": "s",
    "module.minimal_generators.calls": "count",
    "module.minimal_generators.s": "s",
    "module.quotient_module.calls": "count", "module.quotient_module.s": "s",
    "functors.hom_module.calls": "count", "functors.hom_module.s": "s",
    "functors.tensor_module.calls": "count", "functors.tensor_module.s": "s",
    "functors.maps.calls": "count", "functors.maps.s": "s",
    "homology.resolution.calls": "count",
    "homology.resolution.distinct": "count",
    "homology.resolution.misses": "count", "homology.resolution.s": "s",
    "homology.betti_max": "count",
    "homology.ext.calls": "count", "homology.ext.distinct": "count",
    "homology.ext.s": "s",
    "homology.tor.calls": "count", "homology.tor.distinct": "count",
    "homology.tor.s": "s",
    "classes.predicate.calls": "count", "classes.predicate.distinct": "count",
    "classes.predicate.s": "s",
    "classes.checker.calls": "count", "classes.checker.s": "s",
    "sampling.s": "s",
    **{"cli.suite.%s.s" % s: "s" for s in SUITES},
    **{"%s.self_s" % layer: "s" for layer in LAYERS},
    "fileformat.parse_ring.s": "s",
    "harness.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "frac",
}

# must repeat exactly between two traced runs of the same input
EXACT = tuple(name for name in METRICS
              if name.endswith((".calls", ".distinct", ".misses"))) + (
    "linalg.rref.cells", "homology.betti_max")


def module_key(m):
    key = getattr(m, "key", None)
    if key is None:
        return (m.dim, m.action.tobytes())
    return key


def _arg_key(a):
    return module_key(a) if hasattr(a, "action") else a


def _rref_info(fname, args, kwargs, out):
    rows, cols = args[0].shape
    return rows, cols, int(args[1]), int(out[1])


def _resolution_info(fname, args, kwargs, out):
    return module_key(args[0]), max(out.betti)


def _pair_info(fname, args, kwargs, out):
    return fname, module_key(args[0]), module_key(args[1])


def _predicate_info(fname, args, kwargs, out):
    return (fname, tuple(_arg_key(a) for a in args),
            tuple(sorted(kwargs.items())))


INFO = {
    "linalg.rref": _rref_info,
    "homology.resolution": _resolution_info,
    "homology.ext": _pair_info,
    "homology.tor": _pair_info,
    "classes.predicate": _predicate_info,
}


class Tracer:
    """In-memory spans around qdual's layer boundaries."""

    def __init__(self):
        self.spans = []   # [group, start, end, parent index, run id, info]
        self.stack = []
        self.run_id = 0

    def install(self):
        """Rebind every qdual module attribute that names a boundary."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qdual" or name.startswith("qdual.")]
        for modname, fname, group in BOUNDARIES:
            original = getattr(sys.modules.get("qdual." + modname), fname,
                               None)
            if original is None:
                continue
            traced = self._wrap(group, fname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def _wrap(self, group, fname, fn):
        spans, stack = self.spans, self.stack
        info = INFO.get(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [group, 0.0, 0.0, stack[-1] if stack else -1,
                   self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                try:
                    rec[5] = info(fname, args, kwargs, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass     # a changed signature loses only this detail
            return out

        return traced

    @contextmanager
    def span(self, group):
        """A span recorded by the harness itself (one per cli suite)."""
        rec = [group, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.run_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def write(self, path):
        """All spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun\n")
            for i, (group, start, end, parent, run, _) in enumerate(
                    self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (i, group, start, end, parent, run))

    def metrics(self, run_id, run_wall):
        """Per-layer metrics of one traced run (see METRICS)."""
        spans = self.spans
        ids = [i for i, s in enumerate(spans) if s[4] == run_id]
        dur = {i: spans[i][2] - spans[i][1] for i in ids}
        child = defaultdict(float)
        for i in ids:
            if spans[i][3] >= 0:
                child[spans[i][3]] += dur[i]
        out = {name: 0.0 if unit == "s" else 0
               for name, unit in METRICS.items()}
        missed = set()
        distinct = defaultdict(set)
        accounted = 0.0
        for i in ids:
            group, _, _, parent, _, info = spans[i]
            self_t = dur[i] - child[i]
            accounted += self_t
            layer = group.split(".")[0]
            if layer in LAYERS:
                out[layer + ".self_s"] += self_t
            # walk up once: nested spans of one group count once in the
            # inclusive time; elimination under a resolution makes it a miss
            outer = True
            j = parent
            while j >= 0:
                if spans[j][0] == group:
                    outer = False
                if layer == "linalg" and spans[j][0] == "homology.resolution":
                    missed.add(j)
                j = spans[j][3]
            calls = group + ".calls"
            if calls in out:
                out[calls] += 1
            if outer and group + ".s" in out:
                out[group + ".s"] += dur[i]
            if group == "linalg.rref":
                out["linalg.rref.self_s"] += self_t
                if info is not None:
                    rows, cols, p, rk = info
                    out["linalg.rref.cells"] += rows * cols * rk
                    if rows < SMALL and cols < SMALL:
                        out["linalg.rref.small.calls"] += 1
                        out["linalg.rref.small.self_s"] += self_t
                    elif rows >= LARGE or cols >= LARGE:
                        out["linalg.rref.large.calls"] += 1
                        out["linalg.rref.large.self_s"] += self_t
                    key = "p2" if p == 2 else "podd"
                    out["linalg.rref.%s.self_s" % key] += self_t
            elif info is not None and group + ".distinct" in out:
                distinct[group].add(info[0] if group ==
                                    "homology.resolution" else info)
            if group == "homology.resolution" and info is not None:
                out["homology.betti_max"] = max(out["homology.betti_max"],
                                                info[1])
        for group, keys in distinct.items():
            out[group + ".distinct"] = len(keys)
        out["homology.resolution.misses"] = len(missed)
        out["harness.self_s"] = run_wall - accounted
        out["trace.run_s"] = run_wall
        return out

    def parse_seconds(self):
        """fileformat.parse_ring.s over the spans of run 0 (set-up)."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[4] == 0 and s[0] == "fileformat.parse_ring")


def combine(per_run, untraced_run_s, parse_s):
    """Counts from the first traced run, times as medians over runs.

    Returns (metrics, mismatches) where mismatches lists every exact
    count that differed between traced runs.
    """
    first = per_run[0]
    mismatches = [name for name in EXACT
                  if any(run[name] != first[name] for run in per_run[1:])]
    out = {}
    for name, unit in METRICS.items():
        if name in EXACT:
            out[name] = first[name]
        else:
            out[name] = median(run[name] for run in per_run)
    out["fileformat.parse_ring.s"] = parse_s
    out["trace.overhead_frac"] = out["trace.run_s"] / untraced_run_s - 1.0
    return out, mismatches
