"""Exception types shared across the package.

Exit-code mapping used by the CLI: ValidationError and its subclasses are
input problems (exit 2), NumericError and its subclasses are estimation or
solver failures (exit 3).
"""


class OlmsimError(Exception):
    """Base class for all package errors."""


class ValidationError(OlmsimError):
    """Invalid configuration, spec, or data (CLI exit code 2)."""


class BoundaryConditionError(ValidationError):
    """Market potential slope does not bracket the marginal cost on [0, 1],
    so no interior inflection point exists."""


class SchemaError(ValidationError):
    """A CSV or JSON document does not match the expected schema."""


class NumericError(OlmsimError):
    """Numerical failure during estimation (CLI exit code 3)."""


class ConvergenceError(NumericError):
    """An iterative routine hit its iteration cap before converging."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


class RankDeficiencyError(NumericError):
    """Design matrix is rank deficient after absorption."""

    def __init__(self, message: str, column: str):
        super().__init__(message)
        self.column = column


class SeparationError(NumericError):
    """Logistic likelihood is diverging (perfect or quasi separation)."""


class SingleClusterError(NumericError):
    """Cluster-robust covariance needs at least two clusters."""


class EmptySideError(NumericError):
    """Matching has no treated or no control units on common support."""


class PipelineError(OlmsimError):
    """A pipeline stage failed; the message names the stage, and the market
    pair when a pair's match or fit failed, and ``__cause__`` holds the
    error raised there."""
