"""Finite-length modules over a validated local algebra.

A module is a vector space F_p^n together with one action matrix per
ring basis element.  Everything downstream (Hom, tensor, duals,
resolutions) is linear algebra on these matrices.  The zero module
(dim 0) is a first-class value, and a module is fixed once constructed.
`law_violation` is the one check of the module laws, for module files
and for rings over themselves; it, `_quotient` and `ModuleMap` name
the first failing basis element with `linalg.first_mismatch`.  Every
quotient and sequence comes from `_quotient`, and only `free_module`,
`free_action`, `diagonal_copies`, `generator_images` and its inverse
`_generator_ring_blocks`, which reads a differential back as ring
elements, know the coordinate layout of a free module R^b.

The run-scoped memo lives here, beside `Module.key`, which each module
stores once, at construction: the dict held by the `memo` context
variable, swapped fresh by `memo_scope` and emptied by
`clear_resolution_cache`.  Its one rule: a value is keyed by the
function that built it and its arguments' bytes.  The `memoized`
decorator is the one path that reads and writes it.
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager

import numpy as np

from . import linalg
from .errors import (InvalidModuleMap, ModuleValidationError, NotSubmodule,
                     RingMismatch)


def _as_columns(vectors, rows, p):
    """Column matrix with a fixed row count; tolerates empty input."""
    arr = linalg.as_fp(vectors, p)
    if arr.size == 0:
        return arr.reshape(rows, 0)
    return arr.reshape(rows, -1)


# the current memo; its default is the process-level dict
memo = contextvars.ContextVar("qdual_memo", default={})


@contextmanager
def memo_scope():
    """Memoize into a fresh dict until the block is left, returning or
    raising; the memo in force before is then restored."""
    token = memo.set({})
    try:
        yield
    finally:
        memo.reset(token)


def clear_resolution_cache():
    """Empty the current memo: resolutions, Hom and tensor data and
    verdicts alike."""
    memo.get().clear()


def memoized(build):
    """Wrap build(*args) so that it runs once per (build, args with each
    Module replaced by its key) in the current memo; every caller gets
    the one stored value."""

    @functools.wraps(build)
    def wrapper(*args):
        key = (build, *[a.key if isinstance(a, Module) else a for a in args])
        facts = memo.get()
        if key not in facts:
            facts[key] = build(*args)
        return facts[key]

    return wrapper


class Module:
    """Immutable module given by action matrices."""

    __slots__ = ("ring", "dim", "action", "name", "key")

    def __init__(self, ring, dim, action, name=None, check=True):
        self.ring = ring
        self.dim = int(dim)
        action = linalg.as_fp(action, ring.p).reshape(ring.dim, dim, dim)
        action.setflags(write=False)
        self.action = action
        self.name = name
        # its bytes over its ring: the memo key of all derived values
        self.key = (ring.key, self.dim, action.tobytes())
        if check:
            self.validate()

    def validate(self):
        """Unit law and compatibility A_i A_j = sum_k c[i][j][k] A_k for
        every pair (i, j), the first failing pair the witness."""
        bad = law_violation(self.ring.unit, self.ring.struct, self.action,
                            self.ring.p)
        if bad == "unit":
            raise ModuleValidationError(
                "unit does not act as the identity", witness="unit")
        if bad is not None:
            raise ModuleValidationError(
                "action incompatible with e%d*e%d" % bad[:2], witness=bad[:2])

    def __repr__(self):
        label = self.name or "module"
        return "Module(%s over %s, dim %d)" % (label, self.ring.name, self.dim)


def law_violation(unit, struct, action, p):
    """The first module law the stack `action` breaks over the algebra
    (unit, struct), or None: "unit" if the unit does not act as the
    identity, else (i, j, k) for the first pair (i, j) in row-major
    order with A_i A_j != sum_l struct[i, j, l] A_l, k the first column
    where they differ.  Batching over j alone keeps the temporaries at
    O(dim R * n^2).  Each sum over the ring basis is one matmul on the
    flattened (dim R, n * n) stack.
    """
    d, n = len(unit), action.shape[1]
    flat = action.reshape(d, n * n)
    unit_act = (unit @ flat % p).reshape(n, n)
    if linalg.first_mismatch(unit_act, linalg.identity(n)) is not None:
        return "unit"
    for i, a_i in enumerate(action):
        lhs = a_i @ action % p
        rhs = (struct[i] @ flat % p).reshape(d, n, n)
        j = linalg.first_mismatch(lhs, rhs)
        if j is not None:
            return i, j, linalg.first_mismatch(lhs[j].T, rhs[j].T)
    return None


class ModuleMap:
    """A linear map commuting with the ring action."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, check=True):
        if source.ring.key != target.ring.key:
            raise RingMismatch("map between modules over different rings")
        self.source = source
        self.target = target
        self.matrix = linalg.as_fp(matrix, source.ring.p).reshape(
            target.dim, source.dim)
        if check:
            p = source.ring.p
            i = linalg.first_mismatch(self.matrix @ source.action % p,
                                      target.action @ self.matrix % p)
            if i is not None:
                raise InvalidModuleMap("matrix does not commute with e%d" % i)

    def __repr__(self):
        return "ModuleMap(%d -> %d over %s)" % (
            self.source.dim, self.target.dim, self.source.ring.name)


class ShortExactSequence:
    """0 -> L1 -> L2 -> L3 -> 0 with exactness verified."""

    __slots__ = ("sub", "quot")

    def __init__(self, sub, quot):
        p = sub.source.ring.p
        if sub.target is not quot.source and sub.target.key != quot.source.key:
            raise InvalidModuleMap("middle modules of the sequence differ")
        if linalg.rank(sub.matrix, p) != sub.source.dim:
            raise InvalidModuleMap("first map is not injective")
        if linalg.rank(quot.matrix, p) != quot.target.dim:
            raise InvalidModuleMap("second map is not surjective")
        if np.any(quot.matrix @ sub.matrix % p):
            raise InvalidModuleMap("composition is nonzero")
        if sub.source.dim + quot.target.dim != sub.target.dim:
            raise InvalidModuleMap("image of the injection is smaller than "
                                   "the kernel of the surjection")
        self.sub = sub
        self.quot = quot

    @property
    def members(self):
        return self.sub.source, self.sub.target, self.quot.target


def zero_module(ring):
    return Module(ring, 0, np.zeros((ring.dim, 0, 0), dtype=np.int64),
                  name="0", check=False)


def regular_module(ring):
    """The ring as a module over itself."""
    return Module(ring, ring.dim, ring.mult, name="R", check=False)


def free_module(ring, rank):
    """R^rank with coordinate (copy i, ring coord j) -> i*dim + j."""
    n = rank * ring.dim
    return Module(ring, n, free_action(ring, linalg.identity(n)),
                  name="R^%d" % rank, check=False)


def free_action(ring, x):
    """The stack (e_i x) over the ring basis for columns x in R^b, i.e.
    kron(I_b, mult[i]) @ x without the kron: mult[i] on each copy."""
    rows, cols = x.shape
    images = ring.mult[:, None] @ x.reshape(rows // ring.dim, ring.dim, cols)
    return (images % ring.p).reshape(ring.dim, rows, cols)


def radical_submodule(module):
    """Canonical basis of mM (column span of radical actions)."""
    return _radical_canon(module)[0]


def _radical_actions(module):
    """The (r, n, n) stack of the actions of the radical basis elements:
    mM is the span of its columns and soc M the common kernel of its
    matrices.  One matmul on the flattened (dim R, n * n) stack, with
    every axis named, so r = 0 and n = 0 give empty stacks."""
    ring, n = module.ring, module.dim
    flat = module.action.reshape(ring.dim, n * n)
    return (ring.radical.T @ flat % ring.p).reshape(ring.radical.shape[1],
                                                    n, n)


def _radical_canon(module):
    """(canonical basis, pivots) of mM, spanned by the radical actions
    set side by side."""
    acts = _radical_actions(module)
    r, n = acts.shape[:2]
    return linalg.canon_basis(acts.transpose(1, 0, 2).reshape(n, r * n),
                              module.ring.p)


def socle(module):
    """Canonical basis of soc M = {v : mv = 0}, the kernel of the
    radical actions stacked as rows (the whole space if m = 0)."""
    acts = _radical_actions(module)
    r, n = acts.shape[:2]
    return linalg.canon_kernel(acts.reshape(r * n, n), module.ring.p)[0]


def minimal_generator_count(module):
    """Number of module generators = dim of M/mM over the residue
    field (not over the prime field)."""
    top = module.dim - radical_submodule(module).shape[1]
    return top // module.ring.residue_degree


def minimal_generators(module):
    """Coordinates of a deterministic minimal generating set: each
    generator is the unit vector at one of them.

    Candidates c_1, c_2, ... are the canonical complement of mM; c_j is
    kept when it lies outside S_j = mM + R c_1 + ... + R c_{j-1}, so the
    kept images form a residue-field basis of M/mM even when the residue
    field is larger than F_p.  (A rejected c_l lies in S_l, so S_j is
    also mM plus the R c_l of the kept candidates alone.)

    The greedy choice is one column rank profile: S_j is a submodule,
    so it contains c_j exactly when it contains R c_j, which the images
    e_i c_j under the ring basis span.  So in W = [mM basis | block 1 |
    block 2 | ...], block j holding the images of c_j, c_j is kept
    exactly when block j holds a pivot column of rref(W).  Over a
    residue field F_p no candidate is rejected (Nakayama), so W is
    built only for larger ones.
    """
    p = module.ring.p
    basis, pivots = _radical_canon(module)
    comp = linalg.complement(basis, pivots, module.dim, p)[2]
    if module.ring.residue_degree == 1:
        return comp
    # c_j is the unit vector at comp[j], so e_i c_j = A_i[:, comp[j]]
    w = np.concatenate(
        [basis, generator_images(module.action[:, :, comp])], axis=1)
    profile = linalg.rref(w, p)[2][len(pivots):]
    return [comp[j] for j in sorted({(col - len(pivots)) // module.ring.dim
                                     for col in profile})]


def generator_images(images):
    """Field matrix of R^s -> M sending the free generators to s columns
    V, from the stack images[i] = e_i V: column j*d + i is e_i V[:, j]."""
    d, n, s = images.shape
    return images.transpose(1, 2, 0).reshape(n, s * d)


def diagonal_copies(diff, b):
    """Field matrix of b copies of a differential R^s -> R^t, copy c
    from generators c s .. c s + s - 1 into copy c of R^t."""
    rows, cols = diff.shape
    out = np.zeros((b, rows, b, cols), dtype=np.int64)
    out[np.arange(b), :, np.arange(b)] = diff
    return out.reshape(b * rows, b * cols)


def _generator_ring_blocks(diff, ring):
    """Ring-element blocks of a differential R^s -> R^t as an array of
    shape (t, s, d): d(gen j) = sum_c blocks[c, j] . gen_c."""
    d = ring.dim
    rows, cols = diff.shape
    w = diff.reshape(rows, cols // d, d) @ ring.unit % ring.p
    return w.reshape(rows // d, d, cols // d).transpose(0, 2, 1)


def closure_generators(module, vectors):
    """[V | e_0 V | ... | e_{d-1} V], unreduced: columns spanning the
    submodule R V generated by the columns V."""
    p = module.ring.p
    vectors = _as_columns(vectors, module.dim, p)
    return np.concatenate([vectors, *(module.action @ vectors % p)], axis=1)


def _submodule(module, basis, pivots):
    """The submodule with canonical basis `basis`, in its coordinates."""
    return Module(module.ring, basis.shape[1],
                  (module.action @ basis % module.ring.p)[:, pivots, :],
                  check=False)


def _quotient(module, subspace):
    """(basis, pivots, quotient, projection, section) of M/S, with
    (basis, pivots) the canonical basis of S.

    M/S acts by A'_i = proj A_i sect, and proj A_i - A'_i proj = proj
    A_i (I - sect proj), where I - sect proj projects onto S along the
    complement.  So proj A_i = A'_i proj exactly when A_i S lies in S:
    one batched comparison checks closure and the projection."""
    p = module.ring.p
    basis, pivots = linalg.canon_basis(
        _as_columns(subspace, module.dim, p), p)
    proj, sect, _ = linalg.complement(basis, pivots, module.dim, p)
    left = proj @ module.action % p
    action = left @ sect % p
    i = linalg.first_mismatch(left, action @ proj % p)
    if i is not None:
        raise NotSubmodule("subspace not closed under e%d" % i)
    quot = Module(module.ring, proj.shape[0], action, check=False)
    projmap = ModuleMap(module, quot, proj, check=False)
    return basis, pivots, quot, projmap, sect


def quotient_module(module, subspace):
    """(quotient Module, projection ModuleMap, section matrix) of M by
    an action-closed subspace, on the deterministic rref-pivot
    complement; proj @ sect = I splits the projection as linear maps
    (not as module maps)."""
    return _quotient(module, subspace)[2:]


def ses_from_submodule(module, subspace):
    """Short exact sequence 0 -> S -> M -> M/S -> 0."""
    basis, pivots, _, proj, _ = _quotient(module, subspace)
    # the quotient has just checked that S is closed
    incl = ModuleMap(_submodule(module, basis, pivots), module, basis,
                     check=False)
    return ShortExactSequence(incl, proj)
