"""Exception hierarchy for qdual.

Every validation error names the first violated law and carries a witness
(the indices or values that break it), so failures are reproducible.
"""


class QdualError(Exception):
    """Base class for all qdual errors."""


class RingValidationError(QdualError):
    """A proposed ring presentation violates one of the ring laws."""

    law = "ring"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotPrime(RingValidationError):
    law = "prime-modulus"


class NotCommutative(RingValidationError):
    law = "commutativity"


class NotAssociative(RingValidationError):
    law = "associativity"


class BadUnit(RingValidationError):
    law = "unit"


class NotLocal(RingValidationError):
    law = "locality"


class ModuleValidationError(QdualError):
    """An action table is not a module structure over its ring."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidModuleMap(QdualError):
    """A matrix does not commute with the ring action."""


class RingMismatch(QdualError):
    """Two modules handed to a functor live over different rings."""


class NotSubmodule(QdualError):
    """A subspace is not closed under the ring action."""


class NotQuasidualizing(QdualError):
    """A theorem checker was handed a parameter module that fails its
    quasidualizing hypothesis."""


class TooLarge(QdualError):
    """A resolution degree or a Hom constraint would have more cells
    than `linalg.MAX_CELLS`; the message names the degree and the shape
    of the differential it would be built from, or the dims of both
    modules."""


class ParseError(QdualError):
    """Malformed ring or module file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnknownRing(QdualError):
    """A module file references a ring name that was never loaded."""
