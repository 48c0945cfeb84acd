"""Exception types raised by gwquant.

Every domain failure derives from :class:`GwquantError` so the CLI can map
any of them to a single-line message and exit code 1.
"""


class GwquantError(Exception):
    """Base class for all gwquant domain errors.

    The message starts with the file, when given, then the line.

    Attributes:
        line: 1-based line number of the offending content, when known.
    """

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class InvalidArgumentError(GwquantError, ValueError):
    """An argument violates an operation's precondition."""


class DimensionMismatchError(InvalidArgumentError):
    """Array shapes or input dimensions do not agree."""


class DegenerateSignalError(GwquantError, ValueError):
    """A signal has zero energy where a normalization requires it nonzero."""


class NotPositiveDefiniteError(GwquantError):
    """A matrix could not be Cholesky-factorized even at maximum jitter."""


class OptimizerFailureError(GwquantError):
    """No optimizer restart produced a finite objective value."""


class MissingBaselineError(GwquantError, LookupError):
    """A reference policy requires a baseline state that is absent."""


class SignalParseError(GwquantError, ValueError):
    """A signal CSV file is malformed."""


class SchemaMismatchError(GwquantError, ValueError):
    """A persisted artifact carries an unsupported schema id."""


class CovariateMismatchError(GwquantError, ValueError):
    """Query covariates cannot be assembled for the trained model."""
