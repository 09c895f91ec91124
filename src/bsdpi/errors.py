"""Exception types shared by all modules."""


class NumericsError(Exception):
    """Base class for every error raised by this package.

    ``trial_seed`` is the seed of the campaign trial that raised the error,
    when a campaign was running; ``campaigns.evaluate`` sets it.
    """

    trial_seed: int | None = None


class NotHermitian(NumericsError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(NumericsError):
    """An iterative routine exceeded its work budget."""


class DomainViolation(NumericsError):
    """An eigenvalue lies outside the admissible domain of a scalar function."""


class DimMismatch(NumericsError):
    """Operands have incompatible dimensions."""


class BadRank(NumericsError):
    """Requested rank is outside [1, dim]."""


class BadBeta(NumericsError):
    """Power-function exponent must lie in (0, 1)."""


class SupportMismatch(NumericsError):
    """State supports do not satisfy the required inclusion/equality."""


class SingularState(NumericsError):
    """A full-rank state was required but a rank-deficient one was supplied."""


class InvalidChannel(NumericsError):
    """Kraus family is not trace preserving / completely positive."""


class MissingMeasureParams(NumericsError):
    """The divergence family carries no measure constants (C, alpha)."""


class Diverging(NumericsError):
    """Regularized evaluations fail to converge as epsilon decreases."""


class ParseError(NumericsError):
    """Malformed JSON input."""


class InputError(NumericsError):
    """An input file is missing or cannot be read."""


class ConfigError(NumericsError):
    """Malformed campaign configuration."""
