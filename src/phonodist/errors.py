"""Shared exception types, mapped onto CLI exit codes in phonodist.cli."""

__all__ = [
    "CoverageError",
    "DomainError",
    "InfeasibleError",
    "IngestError",
    "NumericalError",
    "PhonodistError",
]


class PhonodistError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PhonodistError, ValueError):
    """An argument fell outside the mathematical domain of an operation."""


class InfeasibleError(PhonodistError, ValueError):
    """A target value cannot be attained by any admissible solution."""


class NumericalError(PhonodistError, RuntimeError):
    """An iterative numerical routine failed to reach its tolerance."""


class IngestError(PhonodistError, ValueError):
    """An input file is malformed or unreadable."""


class CoverageError(PhonodistError, ValueError):
    """Incidence-table coverage of the inventory fell below the floor."""
