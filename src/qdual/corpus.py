"""Built-in ring corpus.

Chosen to cover the dichotomies the checkers care about: a field, a
residue-field extension, Gorenstein and non-Gorenstein fat points, an
odd characteristic, and one deliberately invalid (non-local) entry for
negative tests.  Entries are stored as ring-file sources so loading
them also exercises the parser.
"""

from __future__ import annotations

from .errors import UnknownRing
from .fileformat import parse_ring
from .functors import injective_hull
from .module import Module, regular_module, zero_module

SOURCES = {
    # the prime field F_2
    "r1": """
[ring]
name = r1
p = 2
dim = 1
unit = 1
mul 0 0 = 1
""",
    # F_4 as a 2-dimensional F_2-algebra, basis (1, a) with a^2 = 1 + a
    "r2": """
[ring]
name = r2
p = 2
dim = 2
unit = 1 0
mul 0 0 = 1 0
mul 0 1 = 0 1
mul 1 1 = 1 1
""",
    # F_2[x]/(x^2), basis (1, x)
    "r3": """
[ring]
name = r3
p = 2
dim = 2
unit = 1 0
mul 0 0 = 1 0
mul 0 1 = 0 1
mul 1 1 = 0 0
""",
    # F_3[x]/(x^3), basis (1, x, x^2)
    "r4": """
[ring]
name = r4
p = 3
dim = 3
unit = 1 0 0
mul 0 0 = 1 0 0
mul 0 1 = 0 1 0
mul 0 2 = 0 0 1
mul 1 1 = 0 0 1
mul 1 2 = 0 0 0
mul 2 2 = 0 0 0
""",
    # F_2[x,y]/(x^2, xy, y^2), basis (1, x, y): non-Gorenstein
    "r5": """
[ring]
name = r5
p = 2
dim = 3
unit = 1 0 0
mul 0 0 = 1 0 0
mul 0 1 = 0 1 0
mul 0 2 = 0 0 1
mul 1 1 = 0 0 0
mul 1 2 = 0 0 0
mul 2 2 = 0 0 0
""",
    # F_2[x,y]/(x^2, y^2), basis (1, x, y, xy): Gorenstein, socle (xy)
    "r6": """
[ring]
name = r6
p = 2
dim = 4
unit = 1 0 0 0
mul 0 0 = 1 0 0 0
mul 0 1 = 0 1 0 0
mul 0 2 = 0 0 1 0
mul 0 3 = 0 0 0 1
mul 1 1 = 0 0 0 0
mul 1 2 = 0 0 0 1
mul 1 3 = 0 0 0 0
mul 2 2 = 0 0 0 0
mul 2 3 = 0 0 0 0
mul 3 3 = 0 0 0 0
""",
    # F_2 x F_2 on orthogonal idempotents: rejected as NotLocal
    "r7": """
[ring]
name = r7
p = 2
dim = 2
unit = 1 1
mul 0 0 = 1 0
mul 0 1 = 0 0
mul 1 1 = 0 1
""",
}

VALID_NAMES = ("r1", "r2", "r3", "r4", "r5", "r6")


def corpus_source(name):
    if name not in SOURCES:
        raise UnknownRing("no corpus ring named %r" % name)
    return SOURCES[name].strip() + "\n"


def corpus_ring(name):
    """Parse and validate one corpus ring (raises for r7)."""
    return parse_ring(corpus_source(name))


def builtin_module(ring, name):
    """The named standard module over a ring: R, E, k or 0.  k = R/m
    wraps the action `validate_ring` recorded, with no elimination: it
    has the bytes of `quotient_module(R, radical_submodule(R))`."""
    if name == "R":
        return regular_module(ring)
    if name == "E":
        return injective_hull(ring)
    if name == "k":
        return Module(ring, ring.residue_degree, ring.residue_action,
                      name="k", check=False)
    if name == "0":
        return zero_module(ring)
    raise UnknownRing("no builtin module named %r" % name)
