"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "OrliczLabError",
    "DomainError",
    "HorizonError",
    "ConditionFailure",
    "ConfigError",
    "NonConvergenceError",
]


class OrliczLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(OrliczLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class HorizonError(OrliczLabError, ValueError):
    """A query fell beyond a tabulated horizon.

    The message says what sets the horizon (``t_max``, the last table row,
    or a conjugate's base) and so whether it can be extended.
    """


class ConditionFailure(OrliczLabError, RuntimeError):
    """A structural growth condition failed an empirical check.

    ``condition`` carries the short name of the failed condition so callers
    can branch on it without parsing the message.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


class ConfigError(OrliczLabError, ValueError):
    """A run configuration is malformed or contains unknown keys."""


class NonConvergenceError(OrliczLabError, RuntimeError):
    """An iterative solver exhausted its budget.

    Carries the last iterate, with its residual history, for diagnosis.
    """

    def __init__(self, message: str, last=None):
        super().__init__(message)
        self.last = last
