"""Exact dense linear algebra over the prime field F_p.

Matrices are plain numpy int64 arrays with entries reduced into [0, p).
Zero-row and zero-column shapes are legal everywhere; the zero module
upstream depends on that.  Every ring, module and map law upstream is
checked by `first_mismatch` on two stacks of matrices.

Every basis derives from `rref`, and the reduced row echelon form of a
matrix is unique: it depends on the row space alone, not on how the
elimination reached it.  So `rref` may pick its algorithm by p and every
caller, basis-producing or rank-only, still gets the same bits.  It
also lets `canon_kernel` read the canonical basis of a kernel from one
elimination: with the columns reversed, each kernel column is nonzero
only at its free row and at pivot rows above it, so the basis flipped
back is already in reduced echelon form, the one `canon_basis` gives.
Read the other way, `span_with_support` gives the `kernel_with_support`
basis of a null space from any spanning set of it, with no matrix.

- p = 2: each row is packed into one Python int, column 0 the top bit,
  and rows are added one at a time with XOR updates: the bit-packed
  rows of M4RI (Albrecht, Bard & Hart, "Algorithm 898", ACM TOMS 2010)
  without its Four Russians tables.
- odd p: numpy elimination with the leftmost pivot column and the
  topmost nonzero row.  Each pivot updates only the rows with a nonzero
  entry in the pivot column; every other row would subtract zero, so
  the result is the same as rewriting the whole matrix, at a fraction
  of the cost on the sparse matrices resolutions produce.
"""

from __future__ import annotations

import numpy as np

MAX_PRIME = 1 << 16
# the most cells a resolution degree or a Hom constraint may build
MAX_CELLS = 1 << 24


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

    Returns (R, rank, pivots): R is a new writable int64 array of the
    shape of `a` whose rows below the rank are zero, and pivots lists
    the pivot columns in increasing order.  R is the unique reduced row
    echelon form of `a` mod p, whichever path computes it.
    """
    r = np.asarray(a, dtype=np.int64) % p
    if p == 2:
        return _rref_gf2(r)
    rows, cols = r.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        k = row + int(nz[0])
        if k != row:
            r[[row, k]] = r[[k, row]]
        if r[row, col] != 1:
            r[row] = r[row] * inv_mod(r[row, col], p) % p
        factors = r[:, col].copy()
        factors[row] = 0
        hits = factors.nonzero()[0]
        if hits.size:
            r[hits] = (r[hits] - np.outer(factors[hits], r[row])) % p
        pivots.append(col)
        row += 1
    return r, len(pivots), pivots


def _rref_gf2(r):
    """`rref` of a 0/1 matrix over F_2, on rows packed into Python ints.

    Row i becomes the int whose bits, top first, are the row followed
    by zero padding to whole bytes, so column c is bit `width - 1 - c`.
    Each pivot row is kept fully reduced: its top bit is its pivot and
    it is zero in every other pivot column.  A new row is cleared of
    the pivot bits it holds; if anything is left, its top bit is a new
    pivot, and the row is XORed into the earlier pivot rows holding it.
    """
    rows, cols = r.shape
    nbytes = -(-cols // 8)
    width = 8 * nbytes
    packed = np.packbits(r.astype(np.uint8), axis=1).tobytes()
    reduced = {}  # pivot bit -> pivot row
    held_mask = 0  # the pivot bits, as one int
    for i in range(rows):
        x = int.from_bytes(packed[i * nbytes:(i + 1) * nbytes], "big")
        held = x & held_mask
        while held:
            bit = held.bit_length() - 1
            x ^= reduced[bit]
            held ^= 1 << bit
        if not x:
            continue
        bit = x.bit_length() - 1
        top = 1 << bit
        for b, v in reduced.items():
            if v & top:
                reduced[b] = v ^ x
        reduced[bit] = x
        held_mask |= top
    bits = sorted(reduced, reverse=True)
    buf = b"".join(reduced[b].to_bytes(nbytes, "big") for b in bits)
    out = np.zeros((rows, cols), dtype=np.int64)
    out[:len(bits)] = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nbytes),
        axis=1, count=cols)
    return out, len(bits), [width - 1 - b for b in bits]


def rank(a, p):
    return rref(a, p)[1]


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


def first_mismatch(a, b):
    """Index of the first entry along axis 0 at which the stacks a and b
    differ, or None when they are equal (as for empty matrices)."""
    differs = np.any(a != b, axis=tuple(range(1, np.ndim(a))))
    return int(differs.argmax()) if differs.any() else None


def canon_basis(vectors, p):
    """Canonical column basis of the span of the given columns.

    Returns (S, pivots) where S[pivots, :] = I, so coordinates of any
    v in the span are v[pivots].  Depends only on the span, not on the
    generating set.
    """
    r, rk, pivots = rref(vectors.T, p)
    return r[:rk].T.copy(), pivots


def canon_kernel(a, p):
    """`canon_basis` of the null space of `a`, from one elimination of
    `a` with its columns reversed: (S, pivots) with S[pivots, :] = I."""
    n = a.shape[1]
    k, free = kernel_with_support(a[:, ::-1], p)
    return k[::-1, ::-1].copy(), [n - 1 - c for c in reversed(free)]


def span_with_support(vectors, p):
    """(basis, support) of the span of the columns, as
    `kernel_with_support` gives it for every matrix with that null
    space: `canon_basis` with the rows reversed, flipped back."""
    n = vectors.shape[0]
    s, pivots = canon_basis(vectors[::-1], p)
    return s[::-1, ::-1].copy(), [n - 1 - c for c in reversed(pivots)]


def in_span(basis, pivots, vectors, p):
    """Whether every column of `vectors` lies in the canonical span."""
    return bool(np.array_equal(basis @ vectors[pivots, :] % p,
                               as_fp(vectors, p)))


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

