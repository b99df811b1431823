"""Exact linear algebra over F_p: deterministic cases plus properties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdual import linalg

PRIMES = (2, 3, 5)


@st.composite
def matrices(draw, max_side=5):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                            max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


def test_rref_known_case():
    a = np.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]], dtype=np.int64)
    r, rank, pivots = linalg.rref(a, 5)
    assert rank == 2
    assert pivots == [0, 1]
    assert np.array_equal(r[2], [0, 0, 0])


def test_inv_mod():
    for p in PRIMES:
        for x in range(1, p):
            assert x * linalg.inv_mod(x, p) % p == 1


def test_canon_basis_is_generating_set_independent():
    p = 3
    base = np.array([[1, 0], [0, 1], [1, 2]], dtype=np.int64)
    shuffled = np.array([[1, 1], [2, 1], [2, 0]], dtype=np.int64) % p
    # both generate the same plane
    s1, piv1 = linalg.canon_basis(base, p)
    s2, piv2 = linalg.canon_basis(shuffled, p)
    if not np.array_equal(s1, s2):
        # sanity: only compare when the spans really agree
        assert linalg.in_span(s1, piv1, shuffled, p) is False
    else:
        assert piv1 == piv2


def test_complement_projection_identities():
    p = 2
    vectors = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.int64)
    basis, pivots = linalg.canon_basis(vectors, p)
    proj, sect, comp = linalg.complement(basis, pivots, 4, p)
    assert np.array_equal(proj @ sect % p, np.eye(len(comp), dtype=np.int64))
    assert not np.any(proj @ basis % p)


def test_zero_shapes_are_legal():
    empty = linalg.zeros(0, 3)
    _, rank, _ = linalg.rref(empty, 2)
    assert rank == 0
    k, free = linalg.kernel_with_support(empty, 2)
    assert k.shape == (3, 3)
    assert free == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_is_idempotent(mp):
    a, p = mp
    r1, rank1, piv1 = linalg.rref(a, p)
    r2, rank2, piv2 = linalg.rref(r1, p)
    assert np.array_equal(r1, r2)
    assert rank1 == rank2 and piv1 == piv2


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(mp):
    a, p = mp
    k = linalg.canon_kernel(a, p)[0]
    assert linalg.rank(a, p) + k.shape[1] == a.shape[1]
    if k.size:
        assert not np.any(a @ k % p)


# canon_kernel reads the canonical kernel from one elimination of the
# column-reversed matrix; the oracle is canon_basis of the kernel,
# which costs a second elimination.

KERNEL_PRIMES = (2, 3, 65521)


def _assert_canon_kernel_is_canon_basis(a, p):
    basis, pivots = linalg.canon_kernel(a, p)
    want, want_pivots = linalg.canon_basis(
        linalg.kernel_with_support(a, p)[0], p)
    assert basis.dtype == want.dtype and basis.shape == want.shape
    assert basis.tobytes() == want.tobytes()
    assert pivots == want_pivots
    assert np.array_equal(basis[pivots, :], linalg.identity(len(pivots)))


@settings(max_examples=200, deadline=None)
@given(matrices(max_side=7), st.sampled_from(KERNEL_PRIMES))
def test_canon_kernel_matches_canon_basis_of_kernel(mp, p):
    _assert_canon_kernel_is_canon_basis(mp[0] % p, p)


def test_canon_kernel_on_edge_shapes():
    for p in KERNEL_PRIMES:
        for shape in ((0, 0), (0, 4), (4, 0), (3, 5), (5, 3)):
            _assert_canon_kernel_is_canon_basis(linalg.zeros(*shape), p)
        for n in (1, 4):
            # full column rank (a zero kernel) and full row rank
            _assert_canon_kernel_is_canon_basis(linalg.identity(n), p)
            _assert_canon_kernel_is_canon_basis(
                np.triu(np.ones((n, n + 2), dtype=np.int64)), p)


# Differential test: the elimination as first written, kept verbatim as
# the reference.  It rewrites every row at every pivot; `linalg.rref`
# touches only the rows that are nonzero in the pivot column and must
# return the same arrays, ranks and pivots.

def reference_rref(a, p, limit=None):
    r = np.array(a, dtype=np.int64) % p
    rows, cols = r.shape
    stop = cols if limit is None else limit
    pivots = []
    row = 0
    for col in range(stop):
        if row == rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        k = row + int(nz[0])
        if k != row:
            r[[row, k]] = r[[k, row]]
        r[row] = (r[row] * linalg.inv_mod(r[row, col], p)) % p
        factors = r[:, col].copy()
        factors[row] = 0
        r = (r - np.outer(factors, r[row])) % p
        pivots.append(col)
        row += 1
    return r, len(pivots), pivots


def reference_kernel_with_support(a, p):
    r, _, pivots = reference_rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in set(pivots)]
    k = linalg.zeros(a.shape[1], len(free))
    for j, f in enumerate(free):
        k[f, j] = 1
        for i, pc in enumerate(pivots):
            k[pc, j] = (-r[i, f]) % p
    return k, free


def reference_complement(basis, pivots, n, p):
    """complement with per-index loops, as it was before it selected
    columns of the identity."""
    pivset = set(pivots)
    comp = [j for j in range(n) if j not in pivset]
    proj = linalg.zeros(len(comp), n)
    for i, j in enumerate(comp):
        proj[i, j] = 1
    if len(pivots):
        proj[:, pivots] = (proj[:, pivots] - basis[comp, :]) % p
    sect = linalg.zeros(n, len(comp))
    for i, j in enumerate(comp):
        sect[j, i] = 1
    return proj, sect, comp


DIFF_PRIMES = (2, 3, 5, 65521)


@st.composite
def elimination_inputs(draw, max_side=7):
    """A matrix mod p, possibly with 0 rows or columns, and often rank
    deficient: repeated and scaled copies of drawn rows are mixed in."""
    p = draw(st.sampled_from(DIFF_PRIMES))
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    entry = st.one_of(st.just(0), st.integers(0, p - 1),
                      st.integers(-2 * p, 2 * p))
    a = np.array(draw(st.lists(entry, min_size=rows * cols,
                               max_size=rows * cols)),
                 dtype=np.int64).reshape(rows, cols)
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                         st.integers(0, p - 1)),
                               max_size=4))
        extra = [a[i] * s for i, s in copies]
        a = np.concatenate([a, np.array(extra, dtype=np.int64)
                            .reshape(len(extra), cols)])
        a = a[draw(st.permutations(range(a.shape[0])))]
    return a, p


def _assert_same_rref(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype
    assert got[1] == want[1]
    assert got[2] == want[2]


def test_rref_matches_reference_on_edge_shapes():
    for p in DIFF_PRIMES:
        for shape in ((0, 0), (0, 4), (4, 0), (1, 1), (3, 3)):
            a = np.ones(shape, dtype=np.int64) * (p - 1)
            _assert_same_rref(linalg.rref(a, p), reference_rref(a, p))


def _assert_matches_reference(a, p):
    """rref, rank, kernel_with_support, canon_basis and complement on `a`
    against the references; `a` itself must come back unchanged."""
    before = np.array(a)
    want = reference_rref(a, p)
    got = linalg.rref(a, p)
    _assert_same_rref(got, want)
    assert got[0].flags.writeable and not np.shares_memory(got[0], a)
    assert linalg.rank(a, p) == want[1]

    k, free = linalg.kernel_with_support(a, p)
    k_ref, free_ref = reference_kernel_with_support(a, p)
    assert np.array_equal(k, k_ref) and free == free_ref

    # canon_basis spans the columns, so feed it the transpose as well
    for vectors in (a, a.T):
        basis, pivots = linalg.canon_basis(vectors % p, p)
        r, rk, piv_ref = reference_rref((vectors % p).T, p)
        assert np.array_equal(basis, r[:rk].T)
        assert pivots == piv_ref
        n = vectors.shape[0]
        got_c = linalg.complement(basis, pivots, n, p)
        want_c = reference_complement(r[:rk].T, piv_ref, n, p)
        for g, w in zip(got_c[:2], want_c[:2]):
            assert np.array_equal(g, w)
        assert got_c[2] == want_c[2]
    assert np.array_equal(a, before)


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
def test_elimination_matches_reference(inp):
    _assert_matches_reference(*inp)


# Over F_2, rref packs each row into an int, padded with zero bits to
# whole bytes.  These widths sit on both sides of the byte and 64-bit
# word boundaries, and the inputs come in the layouts callers pass:
# read-only (cached resolution matrices), transposed and sliced.

PACKING_WIDTHS = (1, 7, 8, 9, 63, 64, 65, 130)


def _layouts(a):
    """`a` as a C-contiguous, read-only, transposed and sliced array."""
    readonly = a.copy()
    readonly.setflags(write=False)
    transposed = np.ascontiguousarray(a.T).T
    padded = np.zeros((2 * a.shape[0], 2 * a.shape[1] + 1), dtype=a.dtype)
    padded[::2, 1::2] = a
    return a, readonly, transposed, padded[::2, 1::2]


def test_gf2_packing_boundaries():
    for w in PACKING_WIDTHS:
        last = linalg.zeros(3, w)
        last[1:, -1] = 1
        for a in (np.ones((3, w), dtype=np.int64), last,
                  np.triu(np.ones((w + 2, w), dtype=np.int64)),
                  np.eye(w, dtype=np.int64)[::-1] * -1,
                  np.tril(np.ones((2, w), dtype=np.int64), w - 2)):
            for layout in _layouts(a):
                _assert_matches_reference(layout, 2)


@st.composite
def gf2_inputs(draw):
    """A tall or wide matrix at a packing width, of drawn rank and
    density, with entries in [-4, 3] (only their parity counts)."""
    cols = draw(st.sampled_from(PACKING_WIDTHS))
    if draw(st.booleans()):
        rows = cols + draw(st.integers(1, 12))
    else:
        rows = draw(st.integers(0, max(cols - 1, 0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = draw(st.integers(1, max(rows, cols, 1)))
    density = draw(st.sampled_from((0.05, 0.3, 0.5)))
    left = rng.random((rows, inner)) < density
    right = rng.random((inner, cols)) < density
    bits = (left.astype(np.int64) @ right.astype(np.int64)) % 2
    a = bits + 2 * rng.integers(-2, 2, size=bits.shape)
    return _layouts(a)[draw(st.integers(0, 3))]


@settings(max_examples=150, deadline=None)
@given(gf2_inputs())
def test_gf2_elimination_matches_reference(a):
    _assert_matches_reference(a, 2)


@settings(max_examples=300, deadline=None)
@given(elimination_inputs())
def test_complement_matches_reference(inp):
    a, p = inp
    basis, pivots = linalg.canon_basis(a % p, p)
    got = linalg.complement(basis, pivots, a.shape[0], p)
    want = reference_complement(basis, pivots, a.shape[0], p)
    for g, w in zip(got[:2], want[:2]):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert got[2] == want[2]
    proj, sect, _ = got
    assert np.array_equal(proj @ sect % p, linalg.identity(sect.shape[1]))
    assert not np.any(proj @ basis % p)
