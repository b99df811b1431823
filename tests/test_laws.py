"""One check per law: module, ring and map laws against the per-pair
loops they replaced.

Each reference below is the loop the package used before every law
became one `linalg.first_mismatch` per ring basis element, kept
verbatim except that the module loop runs over all pairs (i, j) in
row-major order, as the ring loop always did.  The batched checks must
accept, reject and name witnesses exactly as these loops do.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdual import (Module, ModuleMap, builtin_module, corpus_ring,
                   hom_module, sample_modules, validate_ring, zero_module)
from qdual import linalg
from qdual.corpus import VALID_NAMES
from qdual.errors import (BadUnit, InvalidModuleMap, ModuleValidationError,
                          NotAssociative, NotCommutative, NotLocal,
                          RingValidationError)
from qdual.ring import _nilradical

RINGS = {name: corpus_ring(name) for name in VALID_NAMES}


def act_loop(ring, action, x):
    """Action matrix of the ring element with coordinates x."""
    return np.tensordot(np.asarray(x, dtype=np.int64) % ring.p,
                        action, axes=(0, 0)) % ring.p


def module_laws_loop(ring, dim, action):
    """Unit law and compatibility A_i A_j = sum_k c[i][j][k] A_k."""
    p = ring.p
    if not np.array_equal(act_loop(ring, action, ring.unit),
                          linalg.identity(dim)):
        raise ModuleValidationError(
            "unit does not act as the identity", witness="unit")
    for i in range(ring.dim):
        for j in range(ring.dim):
            lhs = action[i] @ action[j] % p
            rhs = act_loop(ring, action, ring.struct[i, j])
            if not np.array_equal(lhs, rhs):
                raise ModuleValidationError(
                    "action incompatible with e%d*e%d" % (i, j),
                    witness=(i, j))


def ring_laws_loop(p, dim, unit, struct):
    """Commutativity, unit and associativity, as `validate_ring` checked
    them; unit and struct reduced mod p."""
    for i in range(dim):
        for j in range(i + 1, dim):
            if not np.array_equal(struct[i, j], struct[j, i]):
                raise NotCommutative(
                    "e%d*e%d != e%d*e%d" % (i, j, j, i), witness=(i, j))

    # mult[i][:, j] = coordinates of e_i e_j
    mult = np.transpose(struct, (0, 2, 1)).copy()

    unit_mat = np.tensordot(unit, mult, axes=(0, 0)) % p
    if not np.array_equal(unit_mat, linalg.identity(dim)):
        raise BadUnit("multiplication by the unit is not the identity",
                      witness=unit.tolist())

    # (e_i e_j) e_k = e_i (e_j e_k) for all k  <=>  M(e_i e_j) = L_i L_j
    for i in range(dim):
        for j in range(dim):
            lhs = np.tensordot(struct[i, j], mult, axes=(0, 0)) % p
            rhs = mult[i] @ mult[j] % p
            if not np.array_equal(lhs, rhs):
                k = int(np.nonzero(np.any(lhs != rhs, axis=0))[0][0])
                raise NotAssociative(
                    "(e%d*e%d)*e%d != e%d*(e%d*e%d)" % (i, j, k, i, j, k),
                    witness=(i, j, k))


def map_check_loop(source, target, matrix):
    """The ModuleMap commutation check, one ring basis element at a time."""
    p = source.ring.p
    for i in range(source.ring.dim):
        lhs = matrix @ source.action[i] % p
        rhs = target.action[i] @ matrix % p
        if not np.array_equal(lhs, rhs):
            raise InvalidModuleMap(
                "matrix does not commute with e%d" % i)


def _outcome(build, *args):
    """(error class, message, witness) raised by build(*args), or None."""
    try:
        build(*args)
    except (ModuleValidationError, RingValidationError,
            InvalidModuleMap) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


# the non-commuting module of the regression tests: over r5 = F_2[x, y]
# / (x, y)^2, x acts as E_10 and y as E_21, so y x acts as E_20 != 0
NON_COMMUTING = np.array([np.eye(3, dtype=np.int64),
                          [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
                          [[0, 0, 0], [0, 0, 0], [0, 1, 0]]])


def test_non_commuting_actions_are_rejected():
    with pytest.raises(ModuleValidationError,
                       match="^action incompatible with e2\\*e1$") as info:
        Module(RINGS["r5"], 3, NON_COMMUTING)
    assert info.value.witness == (2, 1)


@st.composite
def action_stacks(draw):
    """(ring, dim, action): a valid module with a few entries changed,
    or a random stack, dense or sparse, with or without the unit acting
    as the identity; dims 0..4."""
    ring = RINGS[draw(st.sampled_from(VALID_NAMES))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("mutated", "unit-fixed", "sparse",
                                 "random")))
    if kind == "mutated":
        module = draw(st.sampled_from(
            [zero_module(ring), builtin_module(ring, "k"),
             builtin_module(ring, "E")]
            + sample_modules(ring, 2, draw(st.integers(0, 3)), max_dim=4)))
        dim, action = module.dim, module.action.copy()
        for _ in range(draw(st.integers(0, 2)) if dim else 0):
            i, a, b = (int(rng.integers(0, n))
                       for n in (ring.dim, dim, dim))
            action[i, a, b] = (action[i, a, b] + rng.integers(1, ring.p)) \
                % ring.p
        return ring, dim, action
    dim = draw(st.integers(0, 4))
    action = rng.integers(0, ring.p, size=(ring.dim, dim, dim),
                          dtype=np.int64)
    if kind != "random":
        # e_0 is the unit of every corpus ring; nilpotent radical actions
        # reach the later pairs, and single entries E_ab off the diagonal
        # often commute on one side only: E_ab E_cd != E_cd E_ab = 0
        action[0] = linalg.identity(dim)
        action[1:] = np.triu(action[1:], 1)
        if kind == "sparse":
            action[1:] *= rng.random(action[1:].shape) < 1 / max(dim, 1)
        if draw(st.booleans()):
            action[1:] = action[1:].transpose(0, 2, 1)
    return ring, dim, action


@settings(max_examples=400, deadline=None)
@given(action_stacks())
def test_module_check_matches_pair_loop(case):
    ring, dim, action = case
    want = _outcome(module_laws_loop, ring, dim, action)
    assert _outcome(Module, ring, dim, action) == want


def _ring_cases(name):
    """(unit, struct) of the corpus ring with one entry of the structure
    constants changed (with or without its mirror) or one unit entry
    changed, then a few seeded changes of several entries."""
    ring = RINGS[name]
    p, dim = ring.p, ring.dim
    for (i, j, k) in np.ndindex(dim, dim, dim):
        for delta in range(1, p):
            for mirror in (False, True):
                struct = ring.struct.copy()
                struct[i, j, k] += delta
                if mirror and i != j:
                    struct[j, i, k] += delta
                yield ring.unit.copy(), struct % p
    for k in range(dim):
        unit = ring.unit.copy()
        unit[k] = (unit[k] + 1) % p
        yield unit, ring.struct.copy()
    rng = np.random.default_rng(len(name))
    for _ in range(40):
        unit, struct = ring.unit.copy(), ring.struct.copy()
        for _ in range(3):
            i, j, k = rng.integers(0, dim, size=3)
            struct[i, j, k] = struct[j, i, k] = rng.integers(0, p)
        yield unit, struct


@pytest.mark.parametrize("name", VALID_NAMES)
def test_ring_check_matches_law_loops(name):
    p, dim = RINGS[name].p, RINGS[name].dim
    laws = set()
    for unit, struct in _ring_cases(name):
        want = _outcome(ring_laws_loop, p, dim, unit, struct)
        got = _outcome(validate_ring, name, p, dim, unit, struct)
        if want is None:
            # every law holds; only locality may still fail
            assert got is None or got[0] is NotLocal
        else:
            assert got == want
            laws.add(want[0])
    assert {NotCommutative, BadUnit} <= laws or dim == 1
    # a commutative algebra of dim <= 2 with unit e_0 is associative
    assert NotAssociative in laws or dim < 3


def _radical_is_an_ideal(p, dim, unit, struct):
    """Whether every e_i maps the nilradical into itself: mult @ radical
    lies in the span of the nilradical's canonical basis."""
    mult = np.transpose(struct, (0, 2, 1))
    frob = np.stack([linalg.mat_pow(m, p, p) @ unit % p for m in mult],
                    axis=1)
    radical, pivots = _nilradical(p, dim, frob)
    images = mult @ radical % p
    return linalg.first_mismatch(images,
                                 radical @ images[:, pivots] % p) is None


@pytest.mark.parametrize("name", VALID_NAMES)
def test_nilradical_of_a_commutative_ring_is_an_ideal(name):
    # why validate_ring checks no closure: every (unit, struct) the law
    # loops accept is commutative, so its nilradical is an ideal
    ring = RINGS[name]
    p, dim = ring.p, ring.dim
    assert _radical_is_an_ideal(p, dim, ring.unit, ring.struct)
    accepted = 0
    for unit, struct in _ring_cases(name):
        if _outcome(ring_laws_loop, p, dim, unit, struct) is None:
            assert _radical_is_an_ideal(p, dim, unit, struct)
            accepted += 1
    assert accepted


def _map_cases(ring, seed):
    """(source, target, matrix) between small modules: random matrices,
    hom basis maps, and hom basis maps with one entry changed."""
    rng = np.random.default_rng(seed)
    mods = [zero_module(ring)] + [builtin_module(ring, n)
                                  for n in ("k", "R", "E")]
    mods += sample_modules(ring, 2, seed, max_dim=4)
    for source in mods:
        for target in mods:
            shape = (target.dim, source.dim)
            yield source, target, rng.integers(0, ring.p, size=shape)
            basis = hom_module(source, target).basis
            for col in range(min(basis.shape[1], 3)):
                matrix = basis[:, col].reshape(shape)
                yield source, target, matrix
                if matrix.size:
                    bent = matrix.copy()
                    bent.flat[rng.integers(0, matrix.size)] += 1
                    yield source, target, bent % ring.p


@pytest.mark.parametrize("name", VALID_NAMES)
def test_map_check_names_the_loops_first_element(name):
    ring = RINGS[name]
    outcomes = set()
    for source, target, matrix in _map_cases(ring, 5):
        want = _outcome(map_check_loop, source, target, matrix)
        assert _outcome(ModuleMap, source, target, matrix) == want
        outcomes.add(want)
    assert None in outcomes and (len(outcomes) > 1 or ring.dim == 1)


def test_first_mismatch_on_empty_and_equal_stacks():
    assert linalg.first_mismatch(linalg.zeros(0, 3), linalg.zeros(0, 3)) \
        is None
    empty = np.zeros((3, 0, 0), dtype=np.int64)
    assert linalg.first_mismatch(empty, empty) is None
    a = np.zeros((4, 2, 2), dtype=np.int64)
    b = a.copy()
    assert linalg.first_mismatch(a, b) is None
    b[3, 1, 0] = b[2, 0, 1] = 1
    assert linalg.first_mismatch(a, b) == 2
