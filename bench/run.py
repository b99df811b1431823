"""qdual benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 bench/run.py --workload theorem-r5 --seed 7 --seconds 30 --trace 0

Workloads (see workloads.py): theorem-r5, sweep-small, resolve-deep.

One process, one thread, closed loop: the next workload run starts when
the previous one ends, as a user waits for one `qdual verify`.  Before
every run the resolution cache is emptied, so each run stands for a
fresh process.  Runs repeat until `--seconds` is used up (at least two,
whose outputs must agree).

--trace 0 prints the end-to-end metrics:
  setup_s      median over separate processes of importing qdual and
               parsing and validating the workload's rings
  run_s        median wall seconds of one workload run
  peak_rss_mb  peak resident memory of the measuring process
and the failed / attempted operations (fail_frac).  Both times are
scaled by the machine's speed during the run, measured with a fixed
kernel between runs (calibrate.py); the raw wall times are printed too.

--trace 1 runs the workload once untraced, then traced from outside
the package (tracer.py), and prints the per-layer metrics: counts from
the first traced run (checked to repeat exactly in the others), times
as medians.  The spans go to bench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without the qdual sources in src/ the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
KERNEL_PER_RUN = 4
MIN_RUNS = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def load_qdual():
    """Import qdual from this checkout's src/, never from elsewhere."""
    init = SRC / "qdual" / "__init__.py"
    if not init.is_file():
        raise SystemExit("error: qdual sources not found at %s" % init)
    sys.path.insert(0, str(SRC))
    import qdual
    if Path(qdual.__file__).resolve() != init.resolve():
        raise SystemExit("error: imported qdual from %s, not %s"
                         % (qdual.__file__, init))
    return qdual


def setup_probe(workload, seed):
    """Child process: seconds to import qdual and build the rings."""
    start = time.perf_counter()
    qdual = load_qdual()
    workload.setup(qdual, seed)
    print(repr(time.perf_counter() - start))


def measure_setup(name, seed, kernel, cal):
    """Set-up seconds of SETUP_PROBES fresh processes, each followed by
    one kernel timing appended to `cal`."""
    times = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise SystemExit("error: set-up probe failed:\n" + child.stderr)
        times.append(float(child.stdout.strip().splitlines()[-1]))
        cal.append(kernel.seconds())
    return times


def clear_state(qdual):
    # looked up, not imported: a later per-run context may replace the cache
    clear = getattr(qdual, "clear_resolution_cache", None)
    if clear is not None:
        clear()


class Loop:
    """Closed-loop runs of one workload with their correctness checks."""

    def __init__(self, qdual, workload, seed):
        self.qdual = qdual
        self.workload = workload
        self.state = workload.setup(qdual, seed)
        self.reference = None
        self.attempted = 0
        self.failed = []

    def once(self, state=None, span=None):
        """One timed run; returns its wall seconds."""
        state = state or self.state
        clear_state(self.qdual)
        start = time.perf_counter()
        results = self.workload.run(self.qdual, state, span)
        wall = time.perf_counter() - start
        if self.reference is None:
            self.reference = results
        self.attempted += len(self.workload.operations())
        self.failed += self.workload.check(state, results, self.reference)
        return wall


def run_untraced(qdual, workload, args):
    from calibrate import Kernel    # imports numpy: not in the probes

    shapes, reference_s = workload.kernel
    kernel = Kernel(shapes)
    cal = []
    setup_times = measure_setup(args.workload, args.seed, kernel, cal)
    loop = Loop(qdual, workload, args.seed)
    times = []
    start = time.perf_counter()
    while len(times) < MIN_RUNS or (
            time.perf_counter() - start + median(times) < args.seconds):
        times.append(loop.once())
        cal += [kernel.seconds() for _ in range(KERNEL_PER_RUN)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = reference_s / median(cal)
    metrics = {"setup_s": median(setup_times) * speed,
               "run_s": median(times) * speed,
               "peak_rss_mb": peak_mb}
    notes = ["wall seconds below are scaled by %.4f = reference kernel "
             "%.4f s / median of %d kernel timings %.4f s"
             % (speed, reference_s, len(cal), median(cal)),
             "set-up wall s of %d processes: %s" % (len(setup_times),
                                                   _fmt(setup_times)),
             "run wall s of %d runs: %s" % (len(times), _fmt(times))]
    return loop, metrics, END_TO_END_UNITS, notes, []


def run_traced(qdual, workload, args):
    import tracer

    loop = Loop(qdual, workload, args.seed)
    untraced_s = loop.once()
    spans = tracer.Tracer()
    spans.install()
    traced_state = workload.setup(qdual, args.seed)    # spans of run 0
    per_run = []
    start = time.perf_counter()
    while len(per_run) < MIN_RUNS or (
            time.perf_counter() - start
            + median(r["trace.run_s"] for r in per_run) < args.seconds):
        spans.run_id = len(per_run) + 1
        wall = loop.once(traced_state, spans.span)
        per_run.append(spans.metrics(spans.run_id, wall))
    metrics, mismatches = tracer.combine(per_run, untraced_s,
                                         spans.parse_seconds())
    mismatches = ["%s differs between traced runs: %s"
                  % (name, [r[name] for r in per_run]) for name in mismatches]
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-spans.tsv.gz" % (args.workload, args.seed))
    spans.write(path)
    notes = ["untraced run: %.4f s; %d traced runs: %s" % (
                 untraced_s, len(per_run),
                 _fmt([r["trace.run_s"] for r in per_run])),
             "%d spans written to %s" % (len(spans.spans),
                                         path.relative_to(ROOT))]
    return loop, metrics, tracer.METRICS, notes, mismatches


def _fmt(values):
    return " ".join("%.4f" % v for v in values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds the samples)")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0
    qdual = load_qdual()
    run = run_traced if args.trace else run_untraced
    loop, metrics, units, notes, mismatches = run(qdual, workload, args)

    import numpy
    print("workload %s, seed %d, trace %d; nproc %d, Python %s, numpy %s"
          % (args.workload, args.seed, args.trace, os.cpu_count(),
             platform.python_version(), numpy.__version__))
    for note in notes:
        print("  " + note)
    for name, unit in units.items():
        print("  %-34s %14.6g %s" % (name, metrics[name], unit))
    print("  %-34s %14.6g (%d/%d operations)"
          % ("fail_frac", len(loop.failed) / loop.attempted,
             len(loop.failed), loop.attempted))
    for op, why in loop.failed:
        print("  FAILED %s: %s" % ("/".join(map(str, op)), why))
    for line in mismatches:
        print("  COUNT MISMATCH " + line)
    print(json.dumps({
        "correct": not loop.failed and not mismatches,
        "attempted": loop.attempted,
        "failed": len(loop.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
