"""Reference kernel that measures how fast the machine is right now.

The benchmark shares its machine with other work, which slows the same
computation by up to half again for minutes at a time.  Timing a fixed
kernel between workload runs and scaling the run times by (the
kernel's seconds on the reference machine) / (its seconds now) removes
most of that drift, so two sets of runs of the same code agree.

The kernel is the benchmark's own code and never calls qdual, so no
change to qdual can move it.  It follows qdual's hot path: Gaussian
elimination mod p with a Python loop per pivot, plus dictionary work on
tuple keys.  Each workload picks matrix shapes like its own (see
workloads.py), because small and large eliminations slow down by
different amounts when the machine is shared.
"""

from __future__ import annotations

import time

import numpy as np


class Kernel:
    """Fixed work built from (rows, cols, p, copies) matrix shapes."""

    def __init__(self, shapes):
        rng = np.random.default_rng(2012)
        self.mats = [(rng.integers(0, p, size=(r, c), dtype=np.int64), p)
                     for r, c, p, n in shapes for _ in range(n)]

    def seconds(self):
        """Wall seconds of one pass over the fixed work."""
        start = time.perf_counter()
        ranks = [_rank(a, p) for a, p in self.mats]
        table = {}
        for i in range(24000):
            key = (i % 61, ranks[i % len(ranks)])
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - start


def _rank(a, p):
    r = a.copy()
    row = 0
    for col in range(r.shape[1]):
        if row == r.shape[0]:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        k = row + int(nz[0])
        if k != row:
            r[[row, k]] = r[[k, row]]
        r[row] = r[row] * pow(int(r[row, col]), p - 2, p) % p
        factors = r[:, col].copy()
        factors[row] = 0
        r = (r - np.outer(factors, r[row])) % p
        row += 1
    return row
