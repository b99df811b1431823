"""Ring validation: corpus structure, law violations, locality."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from oracles import F4X, rebased_ring, reference_residue_field, ring_text

from qdual import (builtin_module, corpus_ring, linalg, parse_ring,
                   validate_ring)
from qdual.errors import (NotAssociative, NotCommutative, NotLocal,
                          NotPrime)


def test_corpus_r1_is_the_prime_field():
    r = corpus_ring("r1")
    assert r.p == 2 and r.dim == 1
    assert r.radical.shape[1] == 0
    assert r.residue_degree == 1


def test_corpus_r2_is_a_field_extension():
    r = corpus_ring("r2")
    assert r.radical.shape[1] == 0
    assert r.residue_degree == 2


def test_corpus_radical_dimensions():
    expected = {"r3": 1, "r4": 2, "r5": 2, "r6": 3}
    for name, rad in expected.items():
        r = corpus_ring(name)
        assert r.radical.shape[1] == rad
        assert r.residue_degree == 1


def test_r7_rejected_not_local():
    with pytest.raises(NotLocal):
        corpus_ring("r7")


def test_truncated_polynomial_radical():
    # F_2[x]/(x^4): radical (x, x^2, x^3) has dimension 3
    text = """
[ring]
name = t4
p = 2
dim = 4
unit = 1 0 0 0
mul 0 0 = 1 0 0 0
mul 0 1 = 0 1 0 0
mul 0 2 = 0 0 1 0
mul 0 3 = 0 0 0 1
mul 1 1 = 0 0 1 0
mul 1 2 = 0 0 0 1
mul 1 3 = 0 0 0 0
mul 2 2 = 0 0 0 0
mul 2 3 = 0 0 0 0
mul 3 3 = 0 0 0 0
"""
    r = parse_ring(text)
    assert r.radical.shape[1] == 3


def test_not_prime_rejected():
    struct = np.zeros((1, 1, 1), dtype=np.int64)
    struct[0, 0, 0] = 1
    with pytest.raises(NotPrime):
        validate_ring("bad", 4, 1, [1], struct)
    with pytest.raises(NotPrime):
        validate_ring("huge", 1 << 17, 1, [1], struct)


def test_not_associative_rejected_with_witness():
    # e1*e1 = e2, e1*e2 = 1, e2*e2 = 0: (e1 e1) e2 = 0 but e1 (e1 e2) = e1
    struct = np.zeros((3, 3, 3), dtype=np.int64)
    struct[0, 0] = [1, 0, 0]
    struct[0, 1] = struct[1, 0] = [0, 1, 0]
    struct[0, 2] = struct[2, 0] = [0, 0, 1]
    struct[1, 1] = [0, 0, 1]
    struct[1, 2] = struct[2, 1] = [1, 0, 0]
    struct[2, 2] = [0, 0, 0]
    with pytest.raises(NotAssociative) as info:
        validate_ring("nonassoc", 2, 3, [1, 0, 0], struct)
    assert info.value.witness is not None


def test_idempotent_pair_rejected():
    # F_2[x]/(x^2 - x) has a nontrivial idempotent, hence is not local
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0] = [1, 0]
    struct[0, 1] = struct[1, 0] = [0, 1]
    struct[1, 1] = [0, 1]
    with pytest.raises(NotLocal):
        validate_ring("idem", 2, 2, [1, 0], struct)


def test_not_commutative_rejected():
    struct = np.zeros((2, 2, 2), dtype=np.int64)
    struct[0, 0] = [1, 0]
    struct[0, 1] = [0, 1]
    struct[1, 0] = [1, 0]  # e1*e0 != e0*e1
    struct[1, 1] = [0, 0]
    with pytest.raises(NotCommutative):
        validate_ring("noncomm", 2, 2, [1, 0], struct)


def test_multiplication_matrices_match_struct():
    r = corpus_ring("r6")
    for i in range(r.dim):
        for j in range(r.dim):
            e_j = np.zeros(r.dim, dtype=np.int64)
            e_j[j] = 1
            assert np.array_equal(r.mult[i] @ e_j % r.p, r.struct[i, j])


# p = 65521, the largest prime below the supported bound: the Frobenius
# matrices are built from products of entries near 2^16

BIG_P = 65521


def _struct(dim, products):
    """Structure constants for the basis e_0 = 1, e_1, ..., e_{dim-1};
    products[(i, j)] holds e_i e_j for 1 <= i <= j, missing ones are 0."""
    struct = np.zeros((dim, dim, dim), dtype=np.int64)
    for j in range(dim):
        struct[0, j, j] = struct[j, 0, j] = 1
    for (i, j), coords in products.items():
        struct[i, j] = struct[j, i] = coords
    return struct


def _truncated_cubic():
    """F_p[x]/(x^3) at p = BIG_P, basis 1, x, x^2."""
    return validate_ring("t3", BIG_P, 3, [1, 0, 0],
                         _struct(3, {(1, 1): [0, 0, 1]}))


def test_truncated_polynomial_at_large_prime():
    r = _truncated_cubic()
    assert r.radical.shape[1] == 2
    assert r.residue_degree == 1


def test_split_product_at_large_prime_not_local():
    # F_p x F_p with basis 1 = (1, 1) and the idempotent (1, 0)
    with pytest.raises(NotLocal) as info:
        validate_ring("split", BIG_P, 2, [1, 0],
                      _struct(2, {(1, 1): [0, 1]}))
    assert info.value.witness == 2


def test_residue_extension_at_large_prime():
    # F_{p^2}[x]/(x^2) with basis 1, a, x, ax and a^2 = n for the least
    # non-residue n, so F_p(a) = F_{p^2}
    n = next(n for n in range(2, BIG_P)
             if pow(n, (BIG_P - 1) // 2, BIG_P) == BIG_P - 1)
    r = validate_ring("f2x", BIG_P, 4, [1, 0, 0, 0],
                      _struct(4, {(1, 1): [n, 0, 0, 0],
                                  (1, 2): [0, 0, 0, 1],
                                  (1, 3): [0, 0, n, 0]}))
    assert r.residue_degree == 2
    assert r.radical.shape[1] == 2


def _resolve_deep_rings():
    """The benchmark's resolve-deep rings, F_2 and F_3 [x, y]/(x, y)^2, in
    the basis (1, x, y) and in two seeded bases."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_ring(workloads.rsz_ring_text(name, p, 2, seed))
            for name, p in (("r5", 2), ("f3xy", 3))
            for seed in (None, 3, (7, name))]


def test_square_zero_flag():
    # m^2 = 0 on the fields, the dual numbers, r5, F_4[x]/(x^2) and the
    # resolve-deep rings in any basis; not on F_3[x]/(x^3) or r6
    flags = {name: corpus_ring(name).square_zero
             for name in ("r1", "r2", "r3", "r4", "r5", "r6")}
    assert flags == {"r1": True, "r2": True, "r3": True, "r4": False,
                     "r5": True, "r6": False}
    assert parse_ring(F4X).square_zero
    assert all(r.square_zero for r in _resolve_deep_rings())
    # a flag, not part of the ring's bytes
    r5 = corpus_ring("r5")
    assert r5.key == (r5.p, r5.dim, r5.unit.tobytes(), r5.struct.tobytes())


# sha256 of "p dim " + unit bytes + struct bytes, as Ring.key holds them
KEY_DIGESTS = {
    "r1": "d38f8abd0a231e5c", "r2": "826a6da20dbab091",
    "r3": "1a751aa4516e06e2", "r4": "2f33f32b30771d50",
    "r5": "30ff87f664c9b8c0", "r6": "38afa4a3d5a020fb",
}


def test_ring_key_bytes_are_pinned():
    for name, digest in KEY_DIGESTS.items():
        p, dim, unit, struct = corpus_ring(name).key
        assert hashlib.sha256(b"%d %d " % (p, dim) + unit + struct
                              ).hexdigest()[:16] == digest, name


def test_ring_arrays_are_read_only():
    # Ring.key is the bytes of unit and struct, so a write would
    # desynchronise every memo key; each one raises instead
    r = corpus_ring("r5")
    key = r.key
    for name in ("unit", "struct", "mult", "radical", "residue_action"):
        arr = getattr(r, name)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1
        with pytest.raises(ValueError):
            arr += 1
    assert r.key == key


def _residue_subjects():
    """r1..r6 (r2 has residue degree 2), F_4[x]/(x^2), the m^2 = 0
    family F_p[x, y]/(x, y)^2 in seeded bases at p = 2, 3, 5, and two
    rings at p = BIG_P."""
    rings = [corpus_ring(name) for name in ("r1", "r2", "r3", "r4", "r5",
                                            "r6")]
    rings.append(parse_ring(F4X))
    for p in (2, 3, 5):
        square_zero = parse_ring(ring_text("sz%d" % p, p, 3, {}))
        rings += [rebased_ring(square_zero, seed) for seed in (1, 2)]
    rings.append(_truncated_cubic())
    return rings


def test_residue_field_has_the_quotient_bytes(monkeypatch):
    rings = _residue_subjects()
    calls = []
    rref = linalg.rref

    def spy(a, p):
        calls.append(a.shape)
        return rref(a, p)

    monkeypatch.setattr(linalg, "rref", spy)
    ks = [builtin_module(ring, "k") for ring in rings]
    assert calls == []
    for ring, k in zip(rings, ks):
        want = reference_residue_field(ring)
        assert k.key == want.key, ring.name
        assert k.dim == ring.residue_degree and k.name == "k"
