"""Minimal free resolutions and Tor dimension tables; Ext is read as
Tor of the Matlis dual.

Free modules R^b keep the coordinates of `module.free_module`, and
`module.free_action` applies e_i to columns of R^b without building
kron(I_b, mult[i]).  Differentials are stored as field matrices
between those coordinates; the ring-coordinate block of column
(generator j) recovers the ring element acting on copy c as
v[c*d:(c+1)*d].  Each resolution degree is four `rref` calls: one
kernel, one canonical basis of it, and `minimal_generators` on the
syzygy, which is one canonical basis of its radical and one elimination
picking the generators.  A zero kernel (always, over a field) takes
only the first.

Each module's resolution record comes from `_resolution_start`, which
`module.memoized` wraps, so it lives in the run-scoped memo
(`module.memo`) beside Hom, tensor and verdict data.  Outside a run the
memo is one process-level dict, emptied by `clear_resolution_cache`;
`cli.run_verify` runs inside `module.memo_scope`, which swaps in a
fresh dict, so nothing a run computes outlives it.  A record is a Betti
list, a list of differentials and an augmentation, which `_resolution`
extends in place, never copying a degree; the Tor loop indexes it
directly.  qdual is single-threaded, so the memo takes no lock.  Cached
arrays are read-only, because every caller shares them.

There is one derived-functor loop, `tor_degrees`, which yields one
degree of F_* (x) N at a time, resolving M only as far as asked.  Ext
comes from it through Ext^i(M, N^v) = Tor_i(M, N)^v: as N = N^vv, dim
Ext^i(M, N) = dim Tor_i(M, N^v), and the Hom(F_*, N) matrix of each
degree is the transpose of the F_* (x) N^v one, so the ranks agree.

`forces_vanishing` certifies Tor_i(M, N) = 0 in every degree >= 1 from
structure alone: M or N is free.  Read for Ext, with N^v in place of
N, it says that M is free or N is injective.  It reads b_0 from degree
0 of the memoized resolution, so it adds no memo key.  `tor_dims`,
`ext_dims` and the degree loop use no certificate: they stay the
oracle it is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RingMismatch
from .functors import matlis_dual
from .module import (Module, ModuleMap, free_action, free_module,
                     generator_images, memoized, minimal_generators)


@dataclass(frozen=True)
class FreeResolution:
    """Prefix of a minimal free resolution.

    betti has length B+1 and diffs length B; diffs[i] is the field
    matrix of d_{i+1}: R^{betti[i+1]} -> R^{betti[i]}.  augmentation
    maps R^{betti[0]} onto the module.
    """
    betti: tuple
    diffs: tuple
    augmentation: ModuleMap


@dataclass(frozen=True)
class DimTable:
    """dims[i] is dim Ext^i or dim Tor_i, for 0 <= i <= bound."""
    dims: tuple


def minimal_free_resolution(module, length):
    """Minimal free resolution prefix of the given length, sliced from
    the module's cached resolution."""
    betti, diffs, augmentation = _resolution(module, length)
    return FreeResolution(tuple(betti[:length + 1]), tuple(diffs[:length]),
                          augmentation)


def _resolution(module, length):
    """The memoized (betti, diffs, augmentation) of `module`, its lists
    extended in place until diffs holds at least `length` differentials."""
    ring = module.ring
    p = ring.p
    record = _resolution_start(module)
    betti, diffs, augmentation = record
    while len(diffs) < length:
        prev = diffs[-1] if diffs else augmentation.matrix
        kern = linalg.kernel_basis(prev, p)
        if kern.shape[1] == 0:
            dmat = linalg.zeros(betti[-1] * ring.dim, 0)
        else:
            basis, pivots = linalg.canon_basis(kern, p)
            # the syzygy module in K-coordinates; its minimal generators
            # are unit columns, so they select columns of the basis
            syzygy = Module(ring, basis.shape[1],
                            free_action(ring, basis)[:, pivots, :],
                            check=False)
            gens = basis[:, minimal_generators(syzygy).argmax(axis=0)]
            dmat = generator_images(free_action(ring, gens))
        dmat.setflags(write=False)
        betti.append(dmat.shape[1] // ring.dim)
        diffs.append(dmat)
    return record


@memoized
def _resolution_start(module):
    """A new record: degree 0 only, the augmentation onto `module`."""
    p = module.ring.p
    gens = minimal_generators(module)
    augmentation = ModuleMap(free_module(module.ring, gens.shape[1]), module,
                             generator_images(module.action @ gens % p))
    augmentation.matrix.setflags(write=False)
    return [gens.shape[1]], [], augmentation


def _generator_ring_blocks(diff, prev_rank, cur_rank, ring):
    """Ring-element blocks of a differential as an array of shape
    (prev_rank, cur_rank, d): d(gen j) = sum_c blocks[c, j] . gen_c."""
    d = ring.dim
    w = diff.reshape(prev_rank * d, cur_rank, d) @ ring.unit % ring.p
    return w.reshape(prev_rank, d, cur_rank).transpose(0, 2, 1)


def _homology_dims(pairs):
    """Yield dim H_i = space_i - rank_{i-1} - rank_i from (space_i,
    rank_i) pairs, where rank_i is the rank of the map between degrees
    i and i+1; pairs are consumed only as far as the dims are."""
    before = 0
    for space, rank in pairs:
        yield space - before - rank
        before = rank


def _induced_ranks(m, n):
    """Yield (dim C_i, rank of C_{i+1} -> C_i) for i = 0, 1, 2, ..., where
    C_* = F_* (x) N for F_* resolving M.  Degree i extends the cached
    resolution of M to length i+1 only when it is asked for."""
    ring = m.ring
    p = ring.p
    for i in itertools.count():
        betti, diffs, _ = _resolution(m, i + 1)
        blocks = _generator_ring_blocks(diffs[i], betti[i], betti[i + 1], ring)
        # block (c, j) of tau_{i+1} is sum_r blocks[c, j, r] A_r
        mat = np.einsum("cjr,rab->cajb", blocks, n.action) % p
        # einsum output is not C-ordered, so the reshape copies; rebinding
        # frees the 4-D array before the elimination
        shape = mat.shape
        mat = mat.reshape(shape[0] * shape[1], shape[2] * shape[3])
        yield betti[i] * n.dim, linalg.rank(mat, p)


def forces_vanishing(m, n):
    """True when structure alone makes Tor_i(M, N) vanish in every degree
    >= 1: M or N is free.  Over a local ring X is free exactly when
    dim X = b_0 . dim R.  For Ext^i(M, N) pass N^v: N is injective
    exactly when N^v is free (N = E^s iff N^v = R^s)."""
    return any(x.dim == _resolution(x, 0)[0][0] * x.ring.dim for x in (m, n))


def tor_degrees(m, n):
    """dim Tor_i(M, N) for i = 0, 1, 2, ..., one degree at a time, via
    F_* (x) N."""
    if m.ring.key != n.ring.key:
        raise RingMismatch("Ext/Tor arguments over different rings")
    return _homology_dims(_induced_ranks(m, n))


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
