"""Finite-dimensional commutative local algebras over a prime field.

A ring is given by structure constants: struct[i, j] is the coordinate
column of e_i * e_j in the chosen basis.  Validation checks every ring
law and computes the nilradical (= the maximal ideal, once locality is
established) via the Frobenius map, which is linear over a prime field.
The unit and associativity laws are the module laws of R over itself,
so `module.law_violation` checks them, as it checks module files.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import BadUnit, NotAssociative, NotCommutative, NotLocal, NotPrime
from .module import law_violation


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Ring:
    """Immutable validated algebra.  Construct via `validate_ring`."""

    __slots__ = (
        "name", "p", "dim", "unit", "struct", "mult",
        "radical", "residue_degree", "key",
    )

    def __init__(self, name, p, dim, unit, struct, mult, radical,
                 residue_degree):
        self.name = name
        self.p = p
        self.dim = dim
        self.unit = unit
        self.struct = struct
        self.mult = mult                 # mult[i] = left multiplication by e_i
        self.radical = radical           # canonical basis of the maximal ideal
        self.residue_degree = residue_degree
        self.key = (p, dim, unit.tobytes(), struct.tobytes())

    def __repr__(self):
        return "Ring(%s: F_%d, dim %d)" % (self.name, self.p, self.dim)


def validate_ring(name, p, dim, unit, struct):
    """Check every ring law and return a validated Ring.

    struct has shape (dim, dim, dim) with struct[i, j] the coordinates
    of e_i e_j.  Raises NotPrime / NotCommutative / NotAssociative /
    BadUnit / NotLocal, each naming the first violating witness.
    """
    p = int(p)
    # the bound comes first: trial division of a huge p would not end
    if p >= linalg.MAX_PRIME:
        raise NotPrime("p = %d exceeds the supported prime bound" % p, witness=p)
    if not is_prime(p):
        raise NotPrime("p = %d is not prime" % p, witness=p)
    if dim < 1:
        raise BadUnit("ring dimension must be at least 1", witness=dim)
    unit = linalg.as_fp(unit, p).reshape(dim)
    struct = linalg.as_fp(struct, p).reshape(dim, dim, dim)

    # the first asymmetric pair in row-major order has i < j
    i = linalg.first_mismatch(struct, struct.swapaxes(0, 1))
    if i is not None:
        j = linalg.first_mismatch(struct[i], struct[:, i])
        raise NotCommutative(
            "e%d*e%d != e%d*e%d" % (i, j, j, i), witness=(i, j))

    # mult[i][:, j] = coordinates of e_i e_j
    mult = np.transpose(struct, (0, 2, 1)).copy()

    # R is a module over itself: the unit acts as the identity, and
    # L_i L_j = M(e_i e_j) says (e_i e_j) e_k = e_i (e_j e_k) for all k
    bad = law_violation(unit, struct, mult, p)
    if bad == "unit":
        raise BadUnit("multiplication by the unit is not the identity",
                      witness=unit.tolist())
    if bad is not None:
        raise NotAssociative("(e%d*e%d)*e%d != e%d*(e%d*e%d)" % (bad + bad),
                             witness=bad)

    # x -> x^p is linear because the base field is prime; column i of
    # its matrix is e_i^p
    frob = np.stack([linalg.mat_pow(m, p, p) @ unit % p for m in mult],
                    axis=1)
    # the nilradical of a commutative ring is an ideal, so it needs no
    # closure check
    radical, radical_pivots = _nilradical(p, dim, frob)
    residue_degree = _check_local(p, dim, frob, radical, radical_pivots)
    return Ring(name, p, dim, unit, struct, mult, radical, residue_degree)


def _nilradical(p, dim, frob):
    """Kernel of a Frobenius power high enough to kill every nilpotent."""
    m = 0
    pm = 1
    while pm < dim:
        pm *= p
        m += 1
    kern = linalg.kernel_basis(linalg.mat_pow(frob, m, p), p)
    return linalg.canon_basis(kern, p)


def _check_local(p, dim, frob, radical, radical_pivots):
    """Local iff the Frobenius-fixed subspace of R/N is one-dimensional
    (one simple factor of the semisimple quotient)."""
    proj, sect, _ = linalg.complement(radical, radical_pivots, dim, p)
    q = proj.shape[0]
    # R -> R/N is a ring map, so Frobenius on R/N is the projected one
    frob_q = proj @ (frob @ sect % p) % p
    fixed = linalg.kernel_basis((frob_q - linalg.identity(q)) % p, p)
    factors = fixed.shape[1]
    if factors != 1:
        raise NotLocal(
            "semisimple quotient has %d simple factors" % factors,
            witness=factors)
    return q
