"""Finite Bernoulli convolution point sets.

``generate`` builds the 2**N partial-sum values for a parameter lambda from
the iterated affine map x -> lambda*x (+1): each level writes both images of
the sorted values into one buffer and stable-sorts it, keeping repeated values
(multiplicity matters: repeats are exactly the coincidences between digit
strings).  ``generate_exact`` tallies the same 2**N digit strings as residues
modulo a defining integer polynomial, in integer arithmetic on the scale
``lead**N``, so coincidence structure at an algebraic parameter is certified
exactly instead of read off floats.  Each level of that tally is one int64
matrix of distinct residue vectors, deduplicated by a lexsort; a level
whose entries could leave int64 is refused with ``SizeCapError`` before it
is computed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .algebraic import defining_poly
from .errors import DomainError, SizeCapError

__all__ = [
    "Form",
    "PointSet",
    "ExactPointSet",
    "generate",
    "generate_exact",
    "distinct_count",
    "distinct_count_profile",
    "write_binary",
    "read_binary",
    "write_csv",
    "MAX_FLOAT_LEVELS",
    "MAX_EXACT_LEVELS",
    "DISTINCT_REL_TOL",
]

MAX_FLOAT_LEVELS = 28  # 2**28 doubles; beyond this is an error, not a truncation
MAX_EXACT_LEVELS = 24
# Doubles accumulate O(N) ulp through the iterated map, so values closer than
# this (relative to the support width) are treated as one point.
DISTINCT_REL_TOL = 2.0**-44

_RANGE_NOTE = "lambda outside the interesting range (1/2, 1)"


class Form(Enum):
    """Scaling convention: STANDARD is supported on [0, 1-lambda^N]; PRIMED
    is the same set divided by (1 - lambda)."""

    STANDARD = "standard"
    PRIMED = "primed"


@dataclass(frozen=True)
class PointSet:
    lam: float
    levels: int
    form: Form
    values: np.ndarray  # sorted ascending, length 2**levels, repeats kept
    range_note: str | None = None

    @property
    def point_count(self) -> int:
        return self.values.size

    def distinct_tolerance(self) -> float:
        """Default absolute tolerance below which two values count as equal."""
        return DISTINCT_REL_TOL * float(self.values[-1])


@dataclass(frozen=True)
class ExactPointSet:
    """Residues of the 2**N digit polynomials modulo ``minpoly``.

    ``minpoly`` is stored trimmed with a positive leading coefficient
    ``lead``.  Row ``i`` of ``keys`` (shape ``(distinct, deg minpoly)``,
    int64, lex-sorted, no repeats) is an integer vector ``R`` standing for
    the residue ``R / lead**levels`` (``R`` is the residue itself when
    ``minpoly`` is monic), and ``multiplicities[i]`` counts the digit strings
    that reduce to it.  Distinct rows are distinct residues, and the
    multiplicities sum to 2**N.  Both arrays are read-only; ``residues``
    is derived from them on first access.
    """

    minpoly: tuple[int, ...]
    levels: int
    keys: np.ndarray
    multiplicities: np.ndarray

    @cached_property
    def residues(self) -> Mapping[tuple, int]:
        """The same tally as a read-only mapping from key tuples to multiplicities."""
        # Zipping the column lists builds the key tuples without per-row lists.
        return MappingProxyType(dict(zip(zip(*self.keys.T.tolist()),
                                         self.multiplicities.tolist())))


def generate(lam: float, levels: int, form: Form = Form.STANDARD) -> PointSet:
    """All 2**levels values ``sum a_n lam^n`` (a_n in {0,1}), sorted, repeats kept.

    Built by iterating ``A -> sort(lam*A, lam*A + 1)`` from {0}: each level
    writes the two images into one buffer, two sorted runs that numpy's
    stable sort merges in O(2**levels).  Every digit string is evaluated by
    the same Horner scheme a direct evaluation would use.  STANDARD form
    scales the result in place by ``(1 - lam)`` so the support is inside
    [0, 1].
    """
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    if not 1 <= levels <= MAX_FLOAT_LEVELS:
        raise SizeCapError(
            f"levels must lie in 1..{MAX_FLOAT_LEVELS} (2**{MAX_FLOAT_LEVELS} floats), got {levels}")
    values = np.zeros(1, dtype=np.float64)
    for _ in range(levels):
        out = np.empty(2 * values.size, dtype=np.float64)
        low, high = out[:values.size], out[values.size:]
        np.multiply(lam, values, out=low)
        np.add(low, 1.0, out=high)
        values = out
        values.sort(kind="stable")
    if form is Form.STANDARD:
        values *= 1.0 - lam
    values.flags.writeable = False
    note = _RANGE_NOTE if lam <= 0.5 else None
    return PointSet(lam, levels, form, values, note)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _exact_levels(minpoly, levels: int):
    """Yield ``(p, cols, multiplicities)`` for every level 1..levels.

    ``cols`` holds the residue vectors column-major, shape
    ``(deg p, distinct)``, in lexicographic order.  Level t+1 is ``x*R``
    (``lead*(0, R[:-1]) - R[-1]*p[:-1]``) and that block plus ``lead**(t+1)``
    in the constant slot, written side by side into one buffer; a lexsort
    of the vectors and a run-start mask merge equal ones, and
    ``np.add.reduceat`` sums their multiplicities.  Every entry of the next
    level is at most ``(lead + max|c_i|) * max|R| + lead**(t+1)`` in absolute
    value, checked in Python integers before the level is computed.
    """
    if not 1 <= levels <= MAX_EXACT_LEVELS:
        raise SizeCapError(
            f"levels must lie in 1..{MAX_EXACT_LEVELS} for the exact backend, got {levels}")
    p = defining_poly(minpoly)
    lead, deg = p[-1], len(p) - 1
    growth = lead + max(abs(c) for c in p[:-1])
    if growth > _INT64_MAX:
        raise SizeCapError("defining polynomial coefficients exceed the int64 exact backend")
    low = np.array(p[:-1], dtype=np.int64)[:, None]
    cols = np.zeros((deg, 1), dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    bound = 0  # max |entry| of cols
    bump = 1
    for t in range(levels):
        bump *= lead  # the "+1" on the scale lead**(t+1)
        bound = growth * bound + bump
        if bound > _INT64_MAX:
            raise SizeCapError(
                f"level {t + 1} residues may exceed int64 (bound {bound}); "
                f"at most {t} levels fit for this polynomial")
        n = cols.shape[1]
        nxt = np.empty((deg, 2 * n), dtype=np.int64)
        shifted = nxt[:, :n]
        shifted[0] = 0
        np.multiply(cols[:-1], lead, out=shifted[1:])
        shifted -= low * cols[-1]
        nxt[:, n:] = shifted
        nxt[0, n:] += bump
        order = np.lexsort(nxt[::-1])
        nxt = nxt[:, order]
        mult = np.concatenate((mult, mult))[order]
        first = np.empty(2 * n, dtype=bool)  # vector starts a run of equal ones
        first[0] = True
        np.not_equal(nxt[0, 1:], nxt[0, :-1], out=first[1:])
        for col in nxt[1:]:
            first[1:] |= col[1:] != col[:-1]
        starts = np.flatnonzero(first)
        if starts.size < 2 * n:
            nxt = nxt[:, starts]
            mult = np.add.reduceat(mult, starts)
        cols = nxt
        yield p, cols, mult


def generate_exact(minpoly, levels: int) -> ExactPointSet:
    """Exact residue tally of all 2**levels digit strings modulo ``minpoly``.

    Reduction is exact integer arithmetic: level t holds each residue as an
    integer vector over the common denominator ``lead**t``, so non-monic
    defining polynomials (e.g. 2x^2 - 1 for lambda = 2**-0.5) need no
    rationals.  When ``minpoly`` is the minimal polynomial of lambda, equal
    residues are exactly the digit strings evaluating to the same point.
    Raises ``SizeCapError`` when the entries could leave int64.
    """
    for p, cols, mult in _exact_levels(minpoly, levels):
        pass
    cols.flags.writeable = False
    mult.flags.writeable = False
    return ExactPointSet(p, levels, cols.T, mult)


def distinct_count(eps: ExactPointSet) -> int:
    """Number of distinct values, i.e. the point-set size without multiplicities."""
    return int(eps.multiplicities.size)


def distinct_count_profile(minpoly, levels: int) -> list[int]:
    """Distinct-value counts for every level 1..levels in one pass."""
    return [int(mult.size) for _, _, mult in _exact_levels(minpoly, levels)]


# ---------------------------------------------------------------------------
# serialization

_MAGIC = b"BCV1"
_FORM_CODE = {Form.STANDARD: 0, Form.PRIMED: 1}
_CODE_FORM = {v: k for k, v in _FORM_CODE.items()}


def _check_sorted_finite(values: np.ndarray) -> None:
    """Raise :class:`DomainError` unless a 1-D array is finite and ascending.

    NaN fails every comparison, so ascending values with finite ends are all
    finite."""
    if values.size and not (np.all(values[1:] >= values[:-1])
                            and np.all(np.isfinite(values[[0, -1]]))):
        raise DomainError("values must be finite and ascending")


def write_binary(ps: PointSet, path) -> None:
    """Little-endian dump: magic "BCV1", lambda f64, levels u32, form u8, values."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<dIB", ps.lam, ps.levels, _FORM_CODE[ps.form]))
        ps.values.astype("<f8").tofile(f)


def read_binary(path) -> PointSet:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise DomainError(f"bad magic {magic!r}; expected {_MAGIC!r}")
        header = f.read(13)
        if len(header) != 13:
            raise DomainError("truncated point-set header")
        lam, levels, code = struct.unpack("<dIB", header)
        if not 0.0 < lam < 1.0:
            raise DomainError(f"lambda must lie in (0, 1), got {lam}")
        if code not in _CODE_FORM:
            raise DomainError(f"unknown form byte {code}")
        if not 1 <= levels <= MAX_FLOAT_LEVELS:
            raise DomainError(f"levels must lie in 1..{MAX_FLOAT_LEVELS}, got {levels}")
        values = np.fromfile(f, dtype="<f8", count=1 << levels)
        if values.size != 1 << levels:
            raise DomainError("truncated point-set dump")
        if f.read(1):
            raise DomainError("trailing bytes after the point-set values")
    _check_sorted_finite(values)
    values = values.astype(np.float64, copy=False)
    values.flags.writeable = False
    note = _RANGE_NOTE if lam <= 0.5 else None
    return PointSet(lam, levels, _CODE_FORM[code], values, note)


def write_csv(ps: PointSet, path) -> None:
    """One value per line, 17 significant digits (lossless for doubles)."""
    with open(path, "w") as f:
        for v in ps.values:
            f.write(format(v, ".17g"))
            f.write("\n")
