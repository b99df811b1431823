"""Minimal free resolutions and Tor dimension tables; Ext is read as
Tor of the Matlis dual.

Free modules R^b keep the coordinates of `module.free_module`, and
`module.free_action` applies e_i to columns of R^b without building
kron(I_b, mult[i]).  Differentials are stored as field matrices
between those coordinates; the ring-coordinate block of column
(generator j) recovers the ring element acting on copy c as
v[c*d:(c+1)*d].  Each resolution degree is three `rref` calls and one
`free_action`: one canonical kernel (`linalg.canon_kernel`), the ring
acting on its basis, and `minimal_generators` on the syzygy, which is
one canonical basis of its radical and one elimination picking the
generators.  A zero kernel takes the same three, the last two on empty
matrices.

A resolution is one memo entry per degree, never changed after it is
stored: `_differential(M, i)`, which `module.memoized` wraps, returns
the read-only matrix of d_i, and d_0 is the augmentation onto M.  It
lives in the run-scoped memo (`module.memo`) beside Hom, tensor and
verdict data.  Outside a run the memo is one process-level dict,
emptied by `clear_resolution_cache`; `cli.run_verify` runs inside
`module.memo_scope`, which swaps in a fresh dict, so nothing a run
computes outlives it.  qdual is single-threaded, so the memo takes no
lock.

There is one derived-functor loop, `tor_degrees`, which yields one
degree of F_* (x) N at a time, resolving M only as far as asked.  A
minimal d_i has its entries in m, so tau_i = d_i (x) N is ranked on the
block of N's action whose rows and columns some radical action of N
touches, read off `module._radical_actions` with no elimination, and
Tor against k^a ranks nothing.  Ext comes from the loop through
Ext^i(M, N^v) = Tor_i(M, N)^v: as N = N^vv, dim Ext^i(M, N) =
dim Tor_i(M, N^v), and the Hom(F_*, N) matrix of each degree is the
transpose of the F_* (x) N^v one, so the ranks agree.

The loop's head answers a pair that structure forces: M or N is free,
which over a local ring is dim X = b_0 . dim R, read off the memoized
augmentation.  Then Tor_i(M, N) = 0 for i >= 1, degree 0 is a closed
form, and nothing past d_0 is resolved.  Read for Ext, with N^v in
place of N, the rule is that M is free or N is injective (N = E^s
exactly when N^v = R^s).  Suites, library calls and the CLI share it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RingMismatch
from .functors import matlis_dual
from .module import (Module, _generator_ring_blocks, _radical_actions,
                     free_action, generator_images, memoized,
                     minimal_generators)


@dataclass(frozen=True)
class FreeResolution:
    """Prefix of a minimal free resolution: one memo entry per degree,
    never changed after it is stored.

    betti and diffs have length B+1; diffs[0] is the augmentation
    R^{betti[0]} -> M, and diffs[i] for i >= 1 the field matrix of
    d_i: R^{betti[i]} -> R^{betti[i-1]}.
    """
    betti: tuple
    diffs: tuple


@dataclass(frozen=True)
class DimTable:
    """dims[i] is dim Ext^i or dim Tor_i, for 0 <= i <= bound."""
    dims: tuple


def minimal_free_resolution(module, length):
    """Minimal free resolution prefix of the given length."""
    diffs = tuple(_differential(module, i) for i in range(length + 1))
    return FreeResolution(
        tuple(d.shape[1] // module.ring.dim for d in diffs), diffs)


@memoized
def _differential(module, i):
    """The read-only field matrix of d_i, which sends the free
    generators onto minimal generators of the syzygy Omega^i, with
    Omega^0 = M: d_0 is the augmentation onto `module`.  Degree i reads degree i-1 through the
    memo; every caller asks for degrees in increasing order, so the
    recursion is never more than one level deep."""
    ring = module.ring
    images, syzygy = module.action, module
    if i > 0:
        basis, pivots = linalg.canon_kernel(_differential(module, i - 1),
                                            ring.p)
        # the ring acts on the kernel basis once: the syzygy module in
        # K-coordinates reads the pivot rows, and d_i the columns at the
        # coordinates of its minimal generators
        images = free_action(ring, basis)
        syzygy = Module(ring, basis.shape[1], images[:, pivots, :],
                        check=False)
    dmat = generator_images(images[:, :, minimal_generators(syzygy)])
    dmat.setflags(write=False)
    return dmat


def _tor_loop(m, n):
    """Yield dim Tor_i(M, N) = dim C_i - rank tau_i - rank tau_{i+1} for
    i = 0, 1, 2, ..., where C_* = F_* (x) N for F_* resolving M and
    tau_i: C_i -> C_{i-1}.  Degree i reads d_{i+1}, resolving M one
    degree further only when it is asked for.

    For i >= 1 the minimal d_i has its entries in m, so each entry of
    tau_i is zero on the rows where every radical action of N is zero
    (mN lies in the others) and on the columns where every one is zero
    (their unit vectors lie in soc N): tau_i has the rank of N's action
    on the remaining rows and columns, read off the stack with no
    elimination.  When mN = 0, that is N = k^a, the block is empty and
    nothing is ranked.  When M or N is free, nothing past d_0 is
    resolved or ranked."""
    if any(x.dim == _differential(x, 0).shape[1] for x in (m, n)):
        # M or N is free: M = R^a gives M (x) N = N^a, so in either
        # case dim Tor_0 = dim M . dim N / dim R
        yield m.dim * n.dim // m.ring.dim
        yield from itertools.repeat(0)
    p = m.ring.p
    acts = _radical_actions(n)
    block = n.action[:, acts.any(axis=(0, 2))][:, :, acts.any(axis=(0, 1))]
    before = 0
    for i in itertools.count(1):
        diff = _differential(m, i)
        rank = 0
        if block.size:
            blocks = _generator_ring_blocks(diff, m.ring)
            # block (c, j) of tau_i is sum_r blocks[c, j, r] A_r
            mat = np.einsum("cjr,rab->cajb", blocks, block) % p
            # einsum output is not C-ordered, so the reshape copies;
            # rebinding frees the 4-D array before the elimination
            shape = mat.shape
            mat = mat.reshape(shape[0] * shape[1], shape[2] * shape[3])
            rank = linalg.rank(mat, p)
        # dim C_{i-1} = b_{i-1} . dim N
        yield diff.shape[0] // m.ring.dim * n.dim - before - rank
        before = rank


def tor_degrees(m, n):
    """dim Tor_i(M, N) for i = 0, 1, 2, ..., one degree at a time, via
    F_* (x) N."""
    if m.ring.key != n.ring.key:
        raise RingMismatch("Ext/Tor arguments over different rings")
    return _tor_loop(m, n)


def tor_dims(m, n, bound):
    """dim Tor_i(M, N) for 0 <= i <= bound, via F_* (x) N."""
    return DimTable(tuple(itertools.islice(tor_degrees(m, n), bound + 1)))


def ext_dims(m, n, bound):
    """dim Ext^i(M, N) for 0 <= i <= bound, read as dim Tor_i(M, N^v)."""
    return tor_dims(m, matlis_dual(n), bound)


def ext_dims_via_injective(m, n, bound):
    """dim Ext^i(M, N) = dim Ext^i(N^v, M^v) for 0 <= i <= bound: the
    Matlis swap of `ext_dims`, sharing its resolution and Tor loop.
    It stays public because demo 02 and the benchmark call it."""
    return ext_dims(matlis_dual(n), matlis_dual(m), bound)
