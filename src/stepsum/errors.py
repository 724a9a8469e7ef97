"""Exception types shared across the package.

The distinction that matters downstream: DomainError and RangeError are
argument problems (the CLI maps them to distinct exit codes), ResourceError
is a refusal to start a computation that would exceed a configured budget,
and PanelBudgetError comes only from the tests' reference quadrature.
"""

__all__ = [
    "StepSumError",
    "DomainError",
    "RangeError",
    "ResourceError",
    "PanelBudgetError",
    "ConfigurationError",
]


class StepSumError(Exception):
    """Base class for errors raised by this package."""


class DomainError(StepSumError, ValueError):
    """An argument violates a mathematical precondition (bad location,
    kernel undefined on the requested interval, unsupported exponent)."""


class RangeError(StepSumError, ValueError):
    """A query point lies outside the range covered by a prepared table."""


class ResourceError(StepSumError, RuntimeError):
    """A request would exceed a configured memory budget."""


class PanelBudgetError(StepSumError, RuntimeError):
    """The reference quadrature, which no route calls, ran out of panels."""


class ConfigurationError(StepSumError, ValueError):
    """A sweep or command was assembled with inconsistent options."""
