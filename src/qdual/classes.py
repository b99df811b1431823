"""Bounded membership predicates (semidualizing, quasidualizing,
derived reflexive, Bass, Auslander) and one checker per theorem.

Unbounded Ext/Tor vanishing is replaced by vanishing in degrees
1..B; every theorem checker compares both sides of an equivalence at
the same bound, so the bounded biconditionals are exact.  A report is
immutable and holds its conditions alone, one (label, verdict, witness)
triple each; its verdict is read from them.  The CLI names each
condition's line from its own suite table.

Every vanishing is one of Tor_i(M, N): an Ext^i(M, N) condition is
checked as Tor_i(M, N^v), which has the same dimension.  Each
vanishing is checked one degree at a time (`homology.tor_degrees`), so
each degree is ranked once and the first nonzero degree ends the check,
and a closed form in `homology.CERTIFICATES` (M or N free, or an
m^2 = 0 ring) answers the degrees it covers.  Each predicate's
conditions come from a body (`_dualizing`, `_derived_reflexive`,
`_bass`, `_auslander`) that returns them as an immutable tuple of
(label, verdict, witness) string triples and is wrapped by
`module.memoized`, so the semidualizing and quasidualizing predicates
and same-bytes modules under other names share one entry.
Names play no part: each predicate wraps the tuple in a fresh
CheckReport, so a predicate's report depends only on module bytes and
the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotQuasidualizing
from .functors import (biduality_map, evaluation_map, gamma_map, hom_module,
                       homothety_map, injective_hull, is_isomorphism,
                       matlis_dual, tensor_module)
from .homology import tor_degrees
from .module import memoized, regular_module

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"

DEFAULT_BOUND = 4


@dataclass(frozen=True)
class CheckReport:
    """A tuple of (label, verdict, witness) conditions: VACUOUS if any
    condition is, else FAIL if any condition is, else PASS."""
    conditions: tuple

    @property
    def verdict(self):
        verdicts = {v for _, v, _ in self.conditions}
        if VACUOUS in verdicts:
            return VACUOUS
        return FAIL if FAIL in verdicts else PASS

    @property
    def passed(self):
        return self.verdict == PASS


def _check(label, ok, witness=""):
    """One condition: PASS when ok, else FAIL."""
    return (label, PASS if ok else FAIL, witness)


def _iso(label, f):
    """One condition: the natural map f is an isomorphism."""
    iso, diag = is_isomorphism(f)
    return _check(label, iso, "%dx%d, injective=%s, surjective=%s" % (
        f.matrix.shape[0], f.matrix.shape[1],
        diag["injective"], diag["surjective"]))


def _vanishing(label, name, m, n, bound):
    """One condition: Tor_i(M, N) = 0 for 1 <= i <= B; `name` formats
    the failing degree, as "Tor_%d", or "Ext^%d" when N is the dual of
    the Ext target.  Each degree is ranked once, the first nonzero one
    ends the loop, and a pair that a certificate answers at degree 0
    ranks none (`homology.CERTIFICATES`)."""
    for i, d in enumerate(itertools.islice(tor_degrees(m, n), 1, bound + 1),
                          start=1):
        if d:
            return (label, FAIL, "%s has dim %d" % (name % i, d))
    return (label, PASS, "")


@memoized
def _dualizing(c, bound):
    """The conditions both dualizing predicates share."""
    return (_iso("homothety-iso", homothety_map(c)),
            _vanishing("self-ext-vanishing", "Ext^%d", c, matlis_dual(c),
                       bound))


def is_semidualizing(c, bound=DEFAULT_BOUND):
    """Homothety iso plus Ext^i(C, C) = 0 for 1 <= i <= B."""
    return CheckReport((
        ("finitely-generated", PASS, "automatic: finite length"),
        *_dualizing(c, bound)))


def is_quasidualizing(t, bound=DEFAULT_BOUND):
    """Same conditions; the homothety target ring is its own completion
    since every ring here is artinian."""
    return CheckReport((
        ("artinian", PASS, "automatic: finite length"),
        *_dualizing(t, bound)))


@memoized
def _derived_reflexive(l, m, bound):
    return (_iso("biduality-iso", biduality_map(l, m)),
            _vanishing("ext(L,M)-vanishing", "Ext^%d", l, matlis_dual(m),
                       bound),
            _vanishing("ext(Hom(L,M),M)-vanishing", "Ext^%d",
                       hom_module(l, m).module, matlis_dual(m), bound))


def is_derived_reflexive(l, m, bound=DEFAULT_BOUND):
    """Biduality into Hom(Hom(L,M),M) iso and two Ext vanishings."""
    return CheckReport(_derived_reflexive(l, m, bound))


@memoized
def _bass(l, lp, bound):
    return (_iso("evaluation-iso", evaluation_map(lp, l)),
            _vanishing("ext(L',L)-vanishing", "Ext^%d", lp, matlis_dual(l),
                       bound),
            _vanishing("tor(L',Hom(L',L))-vanishing", "Tor_%d", lp,
                       hom_module(lp, l).module, bound))


def in_bass_class(l, lp, bound=DEFAULT_BOUND):
    """Evaluation iso, Ext^i(L',L) = 0 and Tor_i(L',Hom(L',L)) = 0."""
    return CheckReport(_bass(l, lp, bound))


@memoized
def _auslander(l, lp, bound):
    return (_iso("gamma-iso", gamma_map(lp, l)),
            _vanishing("tor(L',L)-vanishing", "Tor_%d", lp, l, bound),
            _vanishing("ext(L',L'(x)L)-vanishing", "Ext^%d", lp,
                       matlis_dual(tensor_module(lp, l).module), bound))


def in_auslander_class(l, lp, bound=DEFAULT_BOUND):
    """Gamma iso, Tor_i(L',L) = 0 and Ext^i(L',L' (x) L) = 0."""
    return CheckReport(_auslander(l, lp, bound))


def check_duality_swap(x, bound=DEFAULT_BOUND):
    """Matlis duality swaps the two dualizing predicates; biduality
    certifies involutivity.  VACUOUS when X is neither."""
    # the two predicates share one body (the artinian collapse), so X and
    # its dual are each tested once
    if not is_semidualizing(x, bound).passed:
        return CheckReport((
            ("hypothesis", VACUOUS, "X is neither semi- nor quasidualizing"),))
    dual = is_quasidualizing(matlis_dual(x), bound).passed
    return CheckReport((
        _check("semidualizing->dual-quasidualizing", dual),
        _check("quasidualizing->dual-semidualizing", dual),
        _iso("involutivity-biduality-iso",
             biduality_map(x, injective_hull(x.ring)))))


def _require_quasidualizing(t, bound):
    if not is_quasidualizing(t, bound).passed:
        raise NotQuasidualizing(
            "parameter module %r fails the quasidualizing conditions at "
            "bound %d" % (t.name or "T", bound))


def _biconditionals(pairs):
    """One condition per (label, lhs, rhs): the two verdicts agree."""
    return CheckReport(tuple(
        _check(label, lhs == rhs, "lhs=%s rhs=%s" % (lhs, rhs))
        for label, lhs, rhs in pairs))


def check_theorem_B(t, m, bound=DEFAULT_BOUND):
    """Four Matlis-duality biconditionals between Bass membership and
    derived reflexivity, all evaluated at one bound."""
    _require_quasidualizing(t, bound)
    td = matlis_dual(t)
    md = matlis_dual(m)
    return _biconditionals([
        ("B[Tv](M)<=>G[T](Mv)",
         in_bass_class(m, td, bound).passed,
         is_derived_reflexive(md, t, bound).passed),
        ("G[T](M)<=>B[Tv](Mv)",
         is_derived_reflexive(m, t, bound).passed,
         in_bass_class(md, td, bound).passed),
        ("B[T](M)<=>G[Tv](Mv)",
         in_bass_class(m, t, bound).passed,
         is_derived_reflexive(md, td, bound).passed),
        ("G[Tv](M)<=>B[T](Mv)",
         is_derived_reflexive(m, td, bound).passed,
         in_bass_class(md, t, bound).passed),
    ])


def check_class_equality(t, m, bound=DEFAULT_BOUND):
    """G_{T^v} = A_T and G_T = A_{T^v}, verdictwise on M."""
    _require_quasidualizing(t, bound)
    td = matlis_dual(t)
    return _biconditionals([
        ("G[Tv](M)<=>A[T](M)",
         is_derived_reflexive(m, td, bound).passed,
         in_auslander_class(m, t, bound).passed),
        ("G[T](M)<=>A[Tv](M)",
         is_derived_reflexive(m, t, bound).passed,
         in_auslander_class(m, td, bound).passed),
    ])


def check_two_of_three(t, ses, bound=DEFAULT_BOUND):
    """If two members of a short exact sequence are derived T-reflexive
    at bound B, the third must be at bound B-1 (the long exact sequence
    shifts degrees by one)."""
    if bound < 2:
        raise ValueError("two-of-three needs bound >= 2")
    _require_quasidualizing(t, bound)
    members = ses.members
    passes = [is_derived_reflexive(l, t, bound).passed for l in members]
    memberships = "L1=%s L2=%s L3=%s" % tuple(passes)
    if sum(passes) < 2:
        return CheckReport((
            ("memberships-at-bound", VACUOUS, memberships),))
    return CheckReport((
        ("memberships-at-bound", PASS, memberships),
        *(_check("third-member-L%d-at-bound-%d" % (idx + 1, bound - 1),
                 is_derived_reflexive(l, t, bound - 1).passed)
          for idx, (l, ok) in enumerate(zip(members, passes))
          if not ok or sum(passes) == 3)))


def check_hom_faithful(l, t, bound=DEFAULT_BOUND):
    """Hom(L, T) = 0 forces L = 0 when T is quasidualizing."""
    _require_quasidualizing(t, bound)
    h = hom_module(l, t).module.dim
    if l.dim == 0:
        condition = _check("hom-from-zero-is-zero", h == 0, "dim Hom = %d" % h)
    else:
        condition = _check("hom-nonzero", h > 0,
                           "dim L = %d, dim Hom(L,T) = %d" % (l.dim, h))
    return CheckReport((condition,))


def probe_tensor_faithful(l, t, bound=DEFAULT_BOUND):
    """Evidence gathering for the tensor analogue of faithfulness.

    A zero tensor against a nonzero L is recorded as a finding, not a
    failure; callers aggregate these reports without asserting them.
    """
    _require_quasidualizing(t, bound)
    d = tensor_module(t, l).module.dim
    if l.dim == 0:
        label, witness = "tensor-with-zero", "dim T(x)L = %d" % d
    elif d > 0:
        label, witness = ("tensor-nonzero",
                          "dim L = %d, dim T(x)L = %d" % (l.dim, d))
    else:
        label, witness = ("finding-tensor-kills-nonzero-module",
                          "dim L = %d, dim T(x)L = 0" % l.dim)
    return CheckReport(((label, PASS, witness),))


def check_artinian_collapse(ring, candidates, bound=DEFAULT_BOUND):
    """Over an artinian ring the two dualizing predicates coincide and
    both R and E satisfy both."""
    conditions = [
        _check("E-semidualizing",
               is_semidualizing(injective_hull(ring), bound).passed),
        _check("R-quasidualizing",
               is_quasidualizing(regular_module(ring), bound).passed)]
    for idx, c in enumerate(candidates):
        semi = is_semidualizing(c, bound).verdict
        quasi = is_quasidualizing(c, bound).verdict
        label = c.name or ("candidate-%d" % idx)
        conditions.append(_check(
            "verdicts-agree(%s)" % label, semi == quasi,
            "semidualizing=%s quasidualizing=%s" % (semi, quasi)))
    return CheckReport(tuple(conditions))
