"""The three workloads of the qdual benchmark.

Each workload builds its inputs from the benchmark seed (`setup`), runs
them through qdual's public API (`run`) and checks the outputs
(`check`).  One operation is one (ring, suite) `run_verify` unit, or one
(input, length) resolution with its checks.

theorem-r5
    `run_verify` on corpus r5, suites theorem-b + class-equality,
    bound 4, samples 5, sample seed 7.  r5 = F_2[x,y]/(x,y)^2 is
    non-Gorenstein with m^2 = 0, so Betti numbers double each degree:
    mid-sized GF(2) eliminations dominate, and the same predicates and
    Ext tables are evaluated many times (caching and rank-only paths
    show here).  The sample seed is fixed for every benchmark seed: it
    decides which module types are sampled, and at samples 5 that moves
    the run time by a factor of five (1.3 s to 7.5 s over sample seeds
    0..7), which no bound could absorb.
sweep-small
    `run_verify --suite all` on corpus r1, r2, r3, r4 and r6, bound 4,
    samples 10, sample seed = benchmark seed.  Almost every matrix is
    below 16x16, so per-call overhead dominates; it covers the residue
    degree 2 ring, p = 3, all seven suites, tensor_module and
    quotient_module.  Large-matrix kernel wins should barely move it.
    Module types average out over 5 rings x 7 suites x 10 samples.
resolve-deep
    `minimal_free_resolution(k, 7)` over two radical-square-zero rings
    with embedding dimension 2: over F_2 (corpus r5) and over F_3, both
    generated as ring text and read by `parse_ring`.  At the default
    seed the rings are in the basis (1, x, y); any other seed presents
    them in a seeded random basis that keeps the unit first, which
    changes every matrix but not the Betti numbers or the matrix shapes.
    Each resolution is computed once (caching is bypassed); the time is
    basis-producing elimination under minimal_generators, and the
    p = 2 / p = 3 halves separate GF(2)-only changes.  Checks:
    Betti_i(k) = 2^i (Avramov, "Infinite free resolutions", 1998),
    Ext^i(k,k) from `ext_dims` equal to `ext_dims_via_injective` and to
    2^i, and dim Tor_i(k,k) = 2^i, for i <= 6.

At the default seed the `run_verify` texts must also match sha256
digests recorded from the code the benchmark was defined on (the
byte-identity contract of `qdual verify`); theorem-r5 checks them at
every seed, since its input does not change.

The benchmark was defined on 2 vCPUs of an Intel Xeon at 2.0 GHz
(nproc 2), Python 3.11.7 and numpy 2.4.6.
"""

from __future__ import annotations

import hashlib
import random

DEFAULT_SEED = 7
BOUND = 4
SUITES = ("duality-swap", "theorem-b", "class-equality", "two-of-three",
          "hom-faithful", "tensor-probe", "artinian-collapse")

# calibration kernels (calibrate.py): (rows, cols, p, copies) shapes like
# the workload's eliminations, and the kernel's seconds on the machine the
# benchmark was defined on (2 vCPUs of an Intel Xeon at 2.0 GHz, Python
# 3.11.7, numpy 2.4.6)
SMALL_KERNEL = (((6, 9, 2, 48), (12, 15, 3, 24), (20, 24, 2, 12),
                 (48, 52, 2, 4), (96, 100, 3, 2)), 0.065)
LARGE_KERNEL = (((192, 196, 2, 1), (192, 196, 3, 1)), 0.24)

# sha256 of run_verify texts at the default seed
THEOREM_R5_DIGEST = (
    "93e1a22b112921ef738544e9917c1eac5acd0959fdf5be0cf18f46dbd5f60e46")
SWEEP_DIGESTS = {
    "r1": "12d58474ad5f9171d91335145e2d5b34443ca1db79b304f366ef51424842e390",
    "r2": "5dedb109b8fe1503fe8d8a7e56d2c40e374356d59a038ffad0efe0c6476a8187",
    "r3": "634c0c639539ec1866c95176fb9437202a28a37a04e87fdb93b240b6944a2846",
    "r4": "5eeaec430076cdcf5a8feb1d1a4c310023aa49a0269161aa2f0410df8c98f5af",
    "r6": "b45cf7967d231f92d1554cdccc3482115955896e0bfd20a1bdf26c2abc70445e",
}


class VerifyWorkload:
    """`run_verify` over corpus rings; one call per ring."""

    kernel = SMALL_KERNEL

    def __init__(self, rings, suites, samples, sample_seed, digests):
        self.rings = rings
        self.suites = suites
        self.samples = samples
        self.sample_seed = sample_seed    # benchmark seed -> sample seed
        self.digests = digests            # seed -> {ring: sha256}

    def setup(self, qdual, seed):
        return {"seed": seed,
                "rings": [qdual.corpus_ring(n) for n in self.rings]}

    def operations(self):
        return [(r, s) for r in self.rings for s in self.suites]

    def run(self, qdual, state, span=None):
        """One result per ring: (check lines, SUMMARY line, exit code,
        sha256 of the text, error).  With `span`, run_verify is called
        once per suite inside a cli.suite span and the lines joined."""
        from qdual.cli import run_verify

        seed = self.sample_seed(state["seed"])
        results = []
        for ring in state["rings"]:
            try:
                if span is None:
                    text, code = run_verify(ring, list(self.suites), BOUND,
                                            self.samples, seed)
                    lines = text.splitlines()
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    results.append((tuple(lines[:-1]), lines[-1], code,
                                    digest, None))
                    continue
                checks, fails, code = [], 0, 0
                for suite in self.suites:
                    with span("cli.suite." + suite):
                        text, c = run_verify(ring, [suite], BOUND,
                                             self.samples, seed)
                    lines = text.splitlines()
                    checks += lines[:-1]
                    fails += _summary_fails(lines[-1])
                    code = max(code, c)
                results.append((tuple(checks), "SUMMARY fail=%d" % fails,
                                code, None, None))
            except Exception as exc:     # counted as a failed operation
                results.append(((), "", None, None, repr(exc)))
        return results

    def check(self, state, results, reference):
        """Failed operations and their reasons."""
        pins = self.digests(state["seed"])
        failed = []
        for name, (checks, summary, code, digest, error), ref in zip(
                self.rings, results, reference):
            if error is not None:
                why = "raised " + error
            elif code != 0 or _summary_fails(summary):
                why = "exit code %s, %s" % (code, summary)
            elif any(line.split()[2] == "FAIL" for line in checks):
                why = "a CHECK line reads FAIL"
            elif checks != ref[0]:
                why = "output differs from the first run in this process"
            elif digest is not None and pins and digest != pins[name]:
                why = "verify text differs from the pinned sha256"
            else:
                continue
            failed += [((name, s), why) for s in self.suites]
        return failed


def _summary_fails(line):
    for field in line.split():
        if field.startswith("fail="):
            return int(field[len("fail="):])
    return 1     # no SUMMARY line


class ResolveWorkload:
    """Deep resolutions of k over radical-square-zero rings."""

    kernel = LARGE_KERNEL
    LENGTH = 7
    INPUTS = (("r5", 2), ("f3xy", 3))    # (ring name, p), both with e = 2
    EMBEDDING_DIM = 2

    def setup(self, qdual, seed):
        rings = []
        for name, p in self.INPUTS:
            text = rsz_ring_text(name, p, self.EMBEDDING_DIM,
                                 None if seed == DEFAULT_SEED
                                 else (seed, name))
            rings.append(qdual.parse_ring(text))
        return {"seed": seed, "rings": rings}

    def operations(self):
        return [(name, self.LENGTH) for name, _ in self.INPUTS]

    def run(self, qdual, state, span=None):
        """One result per ring: (betti, Ext dims, oracle Ext dims,
        Tor dims, error)."""
        length = self.LENGTH
        results = []
        for ring in state["rings"]:
            try:
                k = qdual.builtin_module(ring, "k")
                res = qdual.minimal_free_resolution(k, length)
                ext = qdual.ext_dims(k, k, length - 1).dims
                oracle = qdual.ext_dims_via_injective(k, k, length - 1).dims
                tor = qdual.tor_dims(k, k, length - 1).dims
                results.append((tuple(res.betti), ext, oracle, tor, None))
            except Exception as exc:     # counted as a failed operation
                results.append(((), (), (), (), repr(exc)))
        return results

    def check(self, state, results, reference):
        e = self.EMBEDDING_DIM
        closed = tuple(e ** i for i in range(self.LENGTH + 1))
        failed = []
        for op, (betti, ext, oracle, tor, error), ref in zip(
                self.operations(), results, reference):
            if error is not None:
                why = "raised " + error
            elif betti != closed:
                why = "Betti numbers %s, closed form %s" % (betti, closed)
            elif ext != oracle:
                why = "ext_dims %s, injective oracle %s" % (ext, oracle)
            elif ext != closed[:-1] or tor != closed[:-1]:
                why = "Ext %s / Tor %s, closed form %s" % (ext, tor,
                                                            closed[:-1])
            elif (betti, ext, oracle, tor) != ref[:4]:
                why = "output differs from the first run in this process"
            else:
                continue
            failed.append((op, why))
        return failed


def rsz_ring_text(name, p, e, basis_seed):
    """Ring file for F_p[x_1..x_e]/(x_1..x_e)^2.

    The basis is (1, x_1, ..., x_e) when basis_seed is None, otherwise a
    random basis drawn from basis_seed whose first vector is the unit.
    """
    d = e + 1
    struct = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        struct[0][i][i] = struct[i][0][i] = 1
    g = [[int(r == c) for c in range(d)] for r in range(d)]
    if basis_seed is not None:
        rnd = random.Random(repr(basis_seed))
        while True:
            g = [[int(r == 0)] + [rnd.randrange(p) for _ in range(e)]
                 for r in range(d)]
            if _inverse_mod(g, p) is not None:
                break
    ginv = _inverse_mod(g, p)
    lines = ["[ring]", "name = %s" % name, "p = %d" % p, "dim = %d" % d,
             "unit = " + " ".join(["1"] + ["0"] * e)]
    for a in range(d):
        for b in range(a, d):
            # product of new basis vectors a and b in old coordinates
            old = [sum(g[r][a] * g[s][b] * struct[r][s][t]
                       for r in range(d) for s in range(d)) % p
                   for t in range(d)]
            new = [sum(ginv[t][u] * old[u] for u in range(d)) % p
                   for t in range(d)]
            lines.append("mul %d %d = %s" % (a, b, " ".join(map(str, new))))
    return "\n".join(lines) + "\n"


def _inverse_mod(m, p):
    """Inverse of a square matrix mod p, or None if singular."""
    n = len(m)
    a = [list(row) + [int(r == c) for c in range(n)]
         for r, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % p), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


WORKLOADS = {
    "theorem-r5": VerifyWorkload(
        ("r5",), ("theorem-b", "class-equality"), 5,
        sample_seed=lambda seed: 7,
        digests=lambda seed: {"r5": THEOREM_R5_DIGEST}),
    "sweep-small": VerifyWorkload(
        ("r1", "r2", "r3", "r4", "r6"), SUITES, 10,
        sample_seed=lambda seed: seed,
        digests=lambda seed: SWEEP_DIGESTS if seed == DEFAULT_SEED else {}),
    "resolve-deep": ResolveWorkload(),
}
