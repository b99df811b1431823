"""Seeded random modules and short exact sequences for property suites.

Everything is a pure function of (ring, parameters, seed); two calls
with the same arguments return structurally identical values.
"""

from __future__ import annotations

import numpy as np

from .module import (closure_generators, free_module, quotient_module,
                     ses_from_submodule)

RETRY_LIMIT = 16
MAX_DIM = 6


def _child_seed(seed, *extra):
    """Flat integer tuple usable as a numpy seed."""
    base = tuple(seed) if isinstance(seed, tuple) else (seed,)
    return base + extra


def random_module(ring, max_free_rank, seed):
    """Quotient of a random free module by a random submodule.

    Deterministic in the seed; retries (with the same generator stream)
    when the random submodule is everything, so the result is nonzero
    unless the retry budget runs out.
    """
    if max_free_rank < 1:
        raise ValueError("max_free_rank must be at least 1")
    rng = np.random.default_rng(seed)
    quot = None
    for _ in range(RETRY_LIMIT):
        rank = int(rng.integers(1, max_free_rank + 1))
        free = free_module(ring, rank)
        count = int(rng.integers(0, rank + 2))
        vectors = rng.integers(0, ring.p, size=(free.dim, count),
                               dtype=np.int64)
        quot = quotient_module(free, closure_generators(free, vectors))[0]
        if quot.dim > 0:
            return quot
    return quot


def sample_modules(ring, count, seed, max_dim=MAX_DIM):
    """`count` random modules of dimension <= max(max_dim, dim R)."""
    rank_cap = max(1, max_dim // ring.dim)
    return [random_module(ring, rank_cap, _child_seed(seed, i))
            for i in range(count)]


def random_ses(ring, seed):
    """Random short exact sequence: a random submodule of a random
    module of dimension <= max(MAX_DIM, dim R) and its quotient."""
    rng = np.random.default_rng(_child_seed(seed, 1))
    mid = random_module(ring, max(1, MAX_DIM // ring.dim),
                        _child_seed(seed, 0))
    count = int(rng.integers(0, 3))
    vectors = rng.integers(0, ring.p, size=(mid.dim, count), dtype=np.int64)
    return ses_from_submodule(mid, closure_generators(mid, vectors))
