"""Shared exception types and the argument contract of the public API.

Every public function returns a result, or raises :class:`DomainError` for an
argument outside its domain or of the wrong kind, or :class:`SizeCapError`
for a size past a resource cap, before any work.  File I/O may also raise
:class:`OSError`; another kind of object where a point set, spacing set, CDF
model, sweep configuration or callable is expected is left to Python.  Plain
arguments go through :func:`integer_arg`, :func:`real_arg` and
:func:`interval_arg`.
"""

import math
import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SizeCapError(ValueError):
    """A size parameter exceeds a hard resource cap (never silently truncated)."""


def integer_arg(value, name: str, lo=None, hi=None, error=DomainError) -> int:
    """``value`` as a Python int, from an int or a numpy integer (else
    :class:`DomainError`); ``error`` when it lies outside ``lo..hi``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and value < lo:
        raise error(f"{name} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise error(f"{name} must be at most {hi}, got {value}")
    return value


def real_arg(value, name: str, lo: float, hi: float) -> float:
    """``float(value)`` strictly inside ``(lo, hi)``, else :class:`DomainError`."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not lo < x < hi:  # NaN fails too
        raise DomainError(f"{name} must lie in ({lo:g}, {hi:g}), got {x}")
    return x


def interval_arg(interval, name: str) -> tuple[float, float]:
    """``interval`` as two finite floats, else :class:`DomainError`; callers bound them."""
    try:
        a, b = interval
    except (TypeError, ValueError):
        raise DomainError(f"{name} needs exactly two endpoints, got {interval!r}") from None
    return real_arg(a, name, -math.inf, math.inf), real_arg(b, name, -math.inf, math.inf)
