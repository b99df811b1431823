"""Exact dense linear algebra over the prime field F_p.

Matrices are plain numpy int64 arrays with entries reduced into [0, p).
Zero-row and zero-column shapes are legal everywhere; the zero module
upstream depends on that.  All pivoting is deterministic (leftmost pivot
column, topmost nonzero row), so every derived basis is reproducible
bit-for-bit.

Elimination updates, at each pivot, only the rows with a nonzero entry
in the pivot column; every other row would subtract zero, so the result
is the same as rewriting the whole matrix, at a fraction of the cost on
the sparse matrices resolutions produce.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 16


def as_fp(a, p):
    """Coerce to an int64 array reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def identity(n):
    return np.eye(n, dtype=np.int64)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def inv_mod(x, p):
    return pow(int(x) % p, p - 2, p)


def rref(a, p):
    """Reduced row echelon form of `a` mod p.

    Returns (R, rank, pivots).
    """
    r = np.array(a, dtype=np.int64) % p
    rows, cols = r.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        k = row + int(nz[0])
        if k != row:
            r[[row, k]] = r[[k, row]]
        if r[row, col] != 1:
            r[row] = r[row] * inv_mod(r[row, col], p) % p
        factors = r[:, col].copy()
        factors[row] = 0
        hits = np.flatnonzero(factors)
        if hits.size:
            r[hits] = (r[hits] - np.outer(factors[hits], r[row])) % p
        pivots.append(col)
        row += 1
    return r, len(pivots), pivots


def rank(a, p):
    return rref(a, p)[1]


def kernel_basis(a, p):
    """Columns form a basis of the null space of `a`."""
    return kernel_with_support(a, p)[0]


def kernel_with_support(a, p):
    """Kernel basis plus the free-column indices that support it.

    The basis K satisfies K[free, :] = I, so the coordinates of any
    vector v in the span are simply v[free].
    """
    r, rk, pivots = rref(a, p)
    cols = a.shape[1]
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    k = zeros(cols, len(free))
    k[free, range(len(free))] = 1
    k[pivots, :] = -r[:rk, free] % p
    return k, free


def mat_pow(a, n, p):
    """a ** n mod p by repeated squaring."""
    result = identity(a.shape[0])
    base = as_fp(a, p)
    while n:
        if n & 1:
            result = result @ base % p
        base = base @ base % p
        n >>= 1
    return result


def eye_kron(n, mats):
    """kron(I_n, M_i) for the stack mats (k, r, c), unflattened to shape
    (k, n, r, n, c): entry (i, a, b, c, e) is delta_ac M_i[b, e]."""
    return identity(n)[:, None, :, None] * mats[:, None, :, None, :]


def kron_eye(mats, n):
    """kron(M_i, I_n) for the stack mats (k, r, c), unflattened to shape
    (k, r, n, c, n): entry (i, a, b, c, e) is M_i[a, c] delta_be."""
    return mats[:, :, None, :, None] * identity(n)[:, None, :]


def canon_basis(vectors, p):
    """Canonical column basis of the span of the given columns.

    Returns (S, pivots) where S[pivots, :] = I, so coordinates of any
    v in the span are v[pivots].  Depends only on the span, not on the
    generating set.
    """
    r, rk, pivots = rref(vectors.T, p)
    return r[:rk].T.copy(), pivots


def in_span(basis, pivots, vectors, p):
    """Whether every column of `vectors` lies in the canonical span."""
    coords = vectors[pivots, :] if len(pivots) else zeros(0, vectors.shape[1])
    return bool(np.array_equal(basis @ coords % p, as_fp(vectors, p)))


def complement(basis, pivots, n, p):
    """Deterministic complement of a canonical subspace of F^n.

    Returns (proj, sect, comp): proj maps F^n onto the complement
    coordinates, sect embeds them back, proj @ sect = I and
    proj @ basis = 0.
    """
    pivset = set(pivots)
    comp = [j for j in range(n) if j not in pivset]
    sect = identity(n)[:, comp]
    proj = sect.T.copy()
    # x = S c + (complement part); c = x[pivots], so the complement
    # coordinates are x[comp] - S[comp, :] x[pivots].
    proj[:, pivots] = -basis[comp, :] % p
    return proj, sect, comp


def intersect_kernels(mats, n, p):
    """Kernel basis of the stacked maps (whole space if none given)."""
    if not mats:
        return identity(n)
    return kernel_basis(np.concatenate([as_fp(m, p) for m in mats], axis=0), p)
