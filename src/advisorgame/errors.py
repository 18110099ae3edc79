"""Exception hierarchy for the advisor-customer game library."""


class AdvisorGameError(Exception):
    """Base class for all library-specific errors."""


class InvalidParameter(AdvisorGameError, ValueError):
    """A model parameter violates its admissible range."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DegenerateDenominator(AdvisorGameError, ZeroDivisionError):
    """A denominator is zero: the customer utility at s = d_i, or a closed
    form whose weights underflow to 0; the point was rejected."""


class EqualReturns(AdvisorGameError, ValueError):
    """Region-formula admissibility requires r_s != r_d."""


class UnsupportedN(AdvisorGameError, ValueError):
    """A closed form is only available for a single customer (n = 1)."""


class DegenerateLeadingCoefficient(AdvisorGameError, ValueError):
    """The quartic's leading coefficient is numerically zero."""


class GridTooLarge(AdvisorGameError, ValueError):
    """The requested brute-force grid exceeds the point budget."""


class NumericalContractError(AdvisorGameError, ArithmeticError):
    """An internal residual or cross-check exceeded its tolerance."""
