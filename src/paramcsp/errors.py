"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ParamCSPError(Exception):
    """Base class for every error raised by paramcsp."""


class ValidationError(ParamCSPError):
    """Malformed data: bad documents, inconsistent fields, broken invariants."""


class DomainError(ParamCSPError):
    """An argument lies outside the declared domain of an operation."""


class UsageError(ParamCSPError):
    """An operation was invoked in a mode it does not support."""


class NotApplicableError(UsageError):
    """A solving or reduction method does not apply to the given instance.

    Subclasses :class:`UsageError` because it is a kind of misuse, but callers
    (the CLI in particular) distinguish the two: not-applicable means "pick a
    different method", plain usage errors mean "fix the call".
    """


class CapacityError(ParamCSPError):
    """An exhaustive computation would exceed its configured capacity."""


class BudgetExceededError(ParamCSPError):
    """A simulated machine branch used more steps than its budget.

    Budgets are materialized from instance parameters at build time, so this
    indicates a bug in the budget arithmetic or the checker, never user error.
    """


def require_int(
    value: object,
    what: str,
    error: type[ParamCSPError],
    low: int = 0,
    high: int | None = None,
) -> int:
    """Return ``value`` if it is an integer (never a ``bool``) in ``low..high``.

    Anything else raises ``error`` naming ``what``; ``high=None`` leaves the
    range open above.
    """
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and low <= value
        and (high is None or value <= high)
    ):
        return value
    if high is not None:
        expected = f"an integer in {low}..{high}"
    elif low == 0:
        expected = "a nonnegative integer"
    elif low == 1:
        expected = "a positive integer"
    else:
        expected = f"an integer >= {low}"
    raise error(f"{what} must be {expected}, got {value!r}")
