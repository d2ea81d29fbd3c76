"""Exception types shared across the package."""

__all__ = [
    "WhlabError",
    "DomainError",
    "SizeLimitError",
    "DataInconsistencyError",
    "ClassNotDetected",
    "ConditioningError",
    "InsufficientSamplesError",
    "ConfigError",
]


class WhlabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WhlabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeLimitError(DomainError):
    """A lattice window would exceed the configured maximum length."""


class DataInconsistencyError(WhlabError):
    """Input data violates an invariant it promised (mass, support, shape)."""


class ClassNotDetected(WhlabError):
    """A recovery route's precondition failed; the class does not apply."""


class ConditioningError(WhlabError):
    """A linear fit was too ill-conditioned to trust.

    Carries the offending condition number.
    """

    def __init__(self, message: str, condition_number: float):
        super().__init__(f"{message} (condition number {condition_number:.3e})")
        self.condition_number = condition_number


class InsufficientSamplesError(WhlabError):
    """Not enough Monte Carlo mass in any cell to run a comparison."""


class ConfigError(WhlabError):
    """A CLI configuration document failed parsing or validation.

    Carries the 1-based line number within the document when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
