"""Exception types raised across the library."""


class WittzetaError(Exception):
    """Base class for all library errors."""


class NonUnitConstantTerm(WittzetaError):
    """Series inversion requires an invertible constant term."""


class ZeroPolynomial(WittzetaError):
    """Resultants are undefined for the zero polynomial."""


class NotPrime(WittzetaError, ValueError):
    """Field characteristic must be prime."""


class DegreeZero(WittzetaError, ValueError):
    """Extension degree must be at least 1."""


class PrecisionMismatch(WittzetaError):
    """Operands carry different truncation precisions."""


class RingMismatch(WittzetaError):
    """Operands live over different coefficient rings."""


class TorsionUnsupported(WittzetaError):
    """Witt multiplication needs a torsion-free coefficient ring."""


class NonIntegral(WittzetaError):
    """An exact division has no quotient in the ring.

    Raised by `exact_div` of every ring (division by zero included), by
    `RatFuncRing.make` on a zero denominator, by `Poly1Ring.divmod` on a
    non-invertible leading coefficient, and by `from_ghost` when a ghost
    vector has no preimage over the base ring.
    """


class PrecisionTooLow(WittzetaError):
    """Rational reconstruction needs 2*dmax < precision."""


class BudgetExceeded(WittzetaError):
    """An input passes a documented limit: a cost past a row of the
    `budgets` table, or a primality test asked of a number at or past
    `finitefield.PRIME_TEST_BOUND`, below which `is_prime` is exact."""


class CensusInconsistent(WittzetaError):
    """Moebius inversion produced a negative or fractional closed-point count."""


class UnvaluedAtom(WittzetaError):
    """A measure was applied to an atom it has no value for."""


class UnsupportedClass(WittzetaError):
    """A class has no value where one is asked for.

    Census-backed zeta functions take single variety atoms only; products
    mixing symbolic atoms with varieties, or measure values of different
    kinds, are not defined.
    """


class CrossCheckFailed(WittzetaError):
    """A computed result disagrees with the independent check that guards it."""


class NotRationalAtBound(WittzetaError):
    """No rational form with the requested degree bound was found."""


class ParseError(WittzetaError, ValueError):
    """Malformed polynomial text."""
