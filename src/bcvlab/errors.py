"""Shared exception types."""

import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SizeCapError(ValueError):
    """A size parameter exceeds a hard resource cap (never silently truncated)."""


def integer_arg(value, name: str) -> int:
    """``value`` as a Python int: an int or a numpy integer, else :class:`DomainError`."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
