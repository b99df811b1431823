"""Minimal free resolutions and Tor dimension tables; Ext is read as
Tor of the Matlis dual.

Free modules R^b keep the coordinates of `module.free_module`, and
`module.free_action` applies e_i to columns of R^b without building
kron(I_b, mult[i]).  Differentials are stored as field matrices
between those coordinates; the ring-coordinate block of column
(generator j) recovers the ring element acting on copy c as
v[c*d:(c+1)*d].  Each resolution degree is one `free_action` and, but
for the copies of d_1(k) that `_differential` builds over m^2 = 0, one
canonical kernel (`linalg.canon_kernel`) with one to three `rref`
calls: the kernel; then, unless m^2 = 0 with residue field F_p, a
canonical basis of the syzygy's radical; and, over a residue field
larger than F_p, one elimination picking the generators.  A zero
kernel takes the same count, on empty matrices.

A resolution is one memo entry per degree, never changed after it is
stored: `_differential(M, i)`, which `module.memoized` wraps, returns
the read-only matrix of d_i, and d_0 is the augmentation onto M.  It
lives in the run-scoped memo (`module.memo`) beside Hom, tensor and
verdict data; qdual is single-threaded, so the memo takes no lock.

There is one derived-functor loop, `tor_degrees`, which yields one
degree of F_* (x) N at a time, resolving M only as far as asked and
ranking tau_i = d_i (x) N on a block of N's action (`_tor_loop`); Tor
against k^a ranks nothing, and `qdual resolve` prints it as
b_i = dim Tor_i(M, k) / r.  Ext comes from the loop through
Ext^i(M, N^v) = Tor_i(M, N)^v: as N = N^vv, dim Ext^i(M, N) =
dim Tor_i(M, N^v), and the Hom(F_*, N) matrix of each degree is the
transpose of the F_* (x) N^v one, so the ranks agree.

Before the loop resolves or ranks anything at a degree, it asks the
closed forms in `CERTIFICATES` (M or N free; m^2 = 0) for that degree
and every later one; each states its formula in its docstring.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import RingMismatch, TooLarge
from .functors import matlis_dual
from .module import (Module, _generator_ring_blocks, _radical_actions,
                     diagonal_copies, free_action, generator_images,
                     memoized, minimal_generators)


@dataclass(frozen=True)
class FreeResolution:
    """Prefix of a minimal free resolution.

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
    Omega^0 = M: d_0 is the augmentation onto `module`.  Degree i
    reads degree i-1 through the memo; every caller asks for degrees in
    increasing order, so the recursion is never more than one level
    deep.  Raises TooLarge, naming the degree and the shape of d_{i-1},
    when that shape puts degree i over `linalg.MAX_CELLS`: it acts on a
    kernel basis of d_{i-1}, at most dim R . cols^2 cells for cols = b d
    columns, the largest array the degree builds (copies of d_1(k) fill
    d^2 e b^2, with e < d).  Over m^2 = 0 with residue field F_p,
    Omega^i lies in m F_{i-1}, which m kills: for i >= 1 every kernel
    vector is a generator, and for i >= 2 the kernel of d_{i-1} (rank
    b_{i-1} = dim Omega^{i-1}) is m F_{i-1}, with canonical basis
    kron(I_b, radical), so d_i is b diagonal copies of d_1(k)."""
    ring = module.ring
    square_zero = ring.square_zero and ring.residue_degree == 1
    if i == 0:
        dmat = generator_images(
            module.action[:, :, minimal_generators(module)])
    else:
        prev = _differential(module, i - 1)
        rows, cols = prev.shape
        if ring.dim * cols * cols > linalg.MAX_CELLS:
            raise TooLarge(
                "resolution degree %d acts on the kernel of the %dx%d "
                "d_%d: %d cells, over the budget of %d"
                % (i, rows, cols, i - 1, ring.dim * cols * cols,
                   linalg.MAX_CELLS))
        if i >= 2 and square_zero:
            dmat = diagonal_copies(
                generator_images(free_action(ring, ring.radical)),
                cols // ring.dim)
        else:
            basis, pivots = linalg.canon_kernel(prev, ring.p)
            # the ring acts on the kernel basis once: the syzygy module
            # in K-coordinates reads the pivot rows, and d_i the columns
            # at the coordinates of its minimal generators
            images, gens = free_action(ring, basis), slice(None)
            if not square_zero:
                gens = minimal_generators(Module(
                    ring, basis.shape[1], images[:, pivots, :], check=False))
            dmat = generator_images(images[:, :, gens])
    dmat.setflags(write=False)
    return dmat


def _free_tail(m, n, j, b, rank):
    """Every degree from 0 when M or N is free, which over a local ring
    is dim X = b_0 . dim R, read off the memoized augmentation: M = R^a
    gives M (x) N = N^a, so in either case dim Tor_0 = dim M . dim N /
    dim R, and Tor_i = 0 for i >= 1.  Nothing past d_0 is resolved.
    Read for Ext, with N^v in place of N, the rule is that M is free or
    N is injective (N = E^s exactly when N^v = R^s)."""
    d = m.ring.dim
    if j or (m.dim != b * d and n.dim != _differential(n, 0).shape[1]):
        return None
    return itertools.chain((m.dim * n.dim // d,), itertools.repeat(0))


def _square_zero_tail(m, n, j, b, rank):
    """Every degree from j over an m^2 = 0 ring (`Ring.square_zero`)
    once m kills Omega^j M: at j = 0 when mM = 0, and at any j >= 1,
    since a minimal Omega^j lies in m F_{j-1}.  Then Omega^j = k^{b_j},
    so with r the residue degree, e = dim m / r and rho = rank tau_j,
    Tor_j = b_j . r . b_0(N) - rho and Tor_{j+t} = b_j . r . beta_t(N)
    for t >= 1, where beta_t(N) = beta_1(N) . e^{t-1} and beta_1(N) =
    (b_0(N) . dim R - dim N) / r (Omega^1 N = k^{beta_1}, and
    beta_s(k) = e^s: Poincare series 1/(1 - e t); Avramov, "Infinite
    free resolutions", 1998).  Nothing past d_1 of M and d_0 of N is
    resolved, and every dimension is a Python int, exact at any
    degree."""
    d, r = m.ring.dim, m.ring.residue_degree
    if not m.ring.square_zero or (j == 0 and m.dim != b * r):
        return None
    top = _differential(n, 0).shape[1] // d
    # b_j . r . beta_1(N) = b_j . dim Omega^1 N
    return itertools.chain((b * r * top - rank,), itertools.accumulate(
        itertools.repeat(d // r - 1), operator.mul,
        initial=b * (top * d - n.dim)))


# asked in order at each degree j of `_tor_loop` with (M, N, j, b_j,
# rank tau_j); each returns None or the iterator Tor_j, Tor_{j+1}, ...
CERTIFICATES = (_free_tail, _square_zero_tail)


def _tor_loop(m, n):
    """Yield dim Tor_i(M, N) = dim C_i - rank tau_i - rank tau_{i+1} for
    i = 0, 1, 2, ..., where C_* = F_* (x) N for F_* resolving M and
    tau_i: C_i -> C_{i-1}, until the first of `CERTIFICATES` that
    answers at degree i, asked before degree i resolves or ranks
    anything, yields the rest.  Degree i reads d_{i+1} only to rank
    tau_{i+1}, and b_{i+1} once it is yielded, so degrees 0..L of Tor
    against k^a read d_0..d_L alone.

    For i >= 1 the minimal d_i has its entries in m, so each entry of
    tau_i is zero on the rows where every radical action of N is zero
    (mN lies in the others) and on the columns where every one is zero
    (their unit vectors lie in soc N): tau_i has the rank of N's action
    on the remaining rows and columns, read off the stack with no
    elimination.  The block is read at the first degree that no
    certificate answers, so a pair answered at degree 0 never builds
    it.  When mN = 0, that is N = k^a, the block is empty and nothing
    is ranked."""
    ring = m.ring
    p, d = ring.p, ring.dim
    # b_i, the width of d_i over dim R, and rank tau_i
    width, before = _differential(m, 0).shape[1] // d, 0
    block = None
    for i in itertools.count():
        for certificate in CERTIFICATES:
            tail = certificate(m, n, i, width, before)
            if tail is not None:
                yield from tail
                return
        if block is None:
            acts = _radical_actions(n)
            rows, cols = acts.any(axis=(0, 2)), acts.any(axis=(0, 1))
            block = n.action[:, rows][:, :, cols]
        rank = 0
        if block.size:
            blocks = _generator_ring_blocks(_differential(m, i + 1), ring)
            # block (c, j) of tau_{i+1} is sum_r blocks[c, j, r] A_r
            mat = np.einsum("cjr,rab->cajb", blocks, block) % p
            # einsum output is not C-ordered, so the reshape copies;
            # rebinding frees the 4-D array before the elimination
            shape = mat.shape
            mat = mat.reshape(shape[0] * shape[1], shape[2] * shape[3])
            rank = linalg.rank(mat, p)
        # dim C_i = b_i . dim N
        yield width * n.dim - before - rank
        before = rank
        width = _differential(m, i + 1).shape[1] // d


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
