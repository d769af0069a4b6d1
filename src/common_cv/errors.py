"""Exception hierarchy shared across the package.

Validation problems (bad inputs, malformed files) and numerical problems
(non-convergence, degenerate randomness) are kept on separate branches so
callers, in particular the command line tool, can map them to distinct
exit codes.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class TooFewObservationsError(ValidationError):
    """Fewer than two observations in a group."""


class TooFewGroupsError(ValidationError):
    """A study needs at least two groups."""


class ZeroVarianceError(ValidationError):
    """All observations equal, or a nonpositive standard deviation."""


class ZeroMeanError(ValidationError):
    """Group mean is zero (or indistinguishable from zero), so the
    coefficient of variation is undefined."""


class InvalidCountError(ValidationError):
    """Group size is not an integer >= 2."""


class NonPositiveSigmaError(ValidationError):
    """A scale parameter that must be positive is not."""


class InvalidDfError(ValidationError):
    """Chi-square degrees of freedom must be an integer >= 1."""


class MalformedHeaderError(ValidationError):
    """CSV header does not match the documented format."""


class NonNumericValueError(ValidationError):
    """CSV field failed to parse as a finite number."""


class NumericalError(RuntimeError):
    """Computation failed for numerical reasons on valid input."""


class DegenerateDenominatorError(NumericalError):
    """A pivotal denominator came out exactly zero; the draw must be
    regenerated."""


class NoConvergenceError(NumericalError):
    """An estimate could not be located, e.g. the likelihood has no
    maximum inside the searched domain."""


class DegenerateRateError(NumericalError):
    """More than 1% of pivotal draws were degenerate, which signals
    pathological data rather than bad luck."""
