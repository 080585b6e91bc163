"""Finite Bernoulli convolution point sets.

``generate`` builds the 2**N partial-sum values for a parameter lambda from
the iterated affine map x -> lambda*x (+1): each level writes both images of
the sorted values into the front of one 2**N buffer and stable-sorts that
prefix, keeping repeated values
(multiplicity matters: repeats are exactly the coincidences between digit
strings).  ``generate_exact`` tallies the same 2**N digit strings as residues
modulo a defining integer polynomial, in integer arithmetic on the scale
``lead**N``, so coincidence structure at an algebraic parameter is certified
exactly instead of read off floats.  Each level of that tally is one int64
matrix of distinct residue vectors.  Each vector and its multiplicity are
packed into a mixed-radix uint64 word whose numeric order is the
lexicographic order of the vectors, so one value sort of the words
deduplicates the level.  A level whose entries could leave int64 is
refused with ``SizeCapError`` before it is computed.  ``exact_levels`` walks
the tally, yielding each level 1..N in turn as a read-only
``ExactPointSet`` built from the one before; ``generate_exact`` keeps the
last level and ``distinct_count_profile`` the size of each, so a caller
that needs several levels tallies every level once.
"""

from __future__ import annotations

import math
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
    "exact_levels",
    "distinct_count",
    "distinct_count_profile",
    "write_binary",
    "read_binary",
    "MAX_FLOAT_LEVELS",
    "MAX_EXACT_LEVELS",
    "DISTINCT_REL_TOL",
]

MAX_FLOAT_LEVELS = 28  # 2**28 doubles; beyond this is an error, not a truncation
MAX_EXACT_LEVELS = 24
# Doubles accumulate O(N) ulp through the iterated map, so values closer than
# this (relative to the support width) are treated as one point.
DISTINCT_REL_TOL = 2.0**-44


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
    int64, in lexicographic order, no repeats) is an integer vector ``R`` standing for
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
        """The same tally as a read-only mapping from key tuples to multiplicities.

        Only ``bench/tracing.py`` reads it; it stays until the benchmark changes."""
        # Zipping the column lists builds the key tuples without per-row lists.
        return MappingProxyType(dict(zip(zip(*self.keys.T.tolist()),
                                         self.multiplicities.tolist())))


def generate(lam: float, levels: int, form: Form = Form.STANDARD) -> PointSet:
    """All 2**levels values ``sum a_n lam^n`` (a_n in {0,1}), sorted, repeats kept.

    Built by iterating ``A -> sort(lam*A, lam*A + 1)`` from {0} inside one
    2**levels buffer: at level t the first 2**t values are scaled in place,
    their images plus 1 fill the next 2**t, and numpy's stable sort merges
    the two sorted runs of that prefix in O(2**(t+1)).  No level allocates
    a new buffer.  Every digit string is evaluated by
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
    values = np.zeros(1 << levels, dtype=np.float64)
    for t in range(levels):
        m = 1 << t
        low = values[:m]
        low *= lam
        np.add(low, 1.0, out=values[m:2 * m])
        values[:2 * m].sort(kind="stable")
    if form is Form.STANDARD:
        values *= 1.0 - lam
    values.flags.writeable = False
    return PointSet(lam, levels, form, values)


_INT64_MAX = int(np.iinfo(np.int64).max)
_WORD_CAPACITY = 1 << 64  # radix product one uint64 word can hold


def _pack(radices) -> list[list[int]]:
    """Split digit indices, most significant first, greedily into words whose
    radix product stays within ``_WORD_CAPACITY``; a digit too wide to share
    a word gets one of its own."""
    words, size = [[]], 1
    for i, radix in enumerate(radices):
        if words[-1] and size * radix > _WORD_CAPACITY:
            words.append([])
            size = 1
        words[-1].append(i)
        size *= radix
    return words


def _split_low_digit(word: np.ndarray, radix: np.uint64, out: np.ndarray) -> None:
    """Write ``word % radix`` to ``out`` and leave ``word // radix`` in ``word``.

    numpy's uint64 floor division by a scalar is several times faster than
    its modulo, and this order needs no temporary."""
    np.floor_divide(word, radix, out=out)
    out *= radix
    np.subtract(word, out, out=out)
    word //= radix


def _encode(digits, lows, radices, packing, bump_step: int) -> np.ndarray:
    """Mixed-radix words of ``n`` digit vectors, then of their bumped copies.

    ``digits`` holds the uint64 views of the ``n`` vectors' entries, row by
    row, then of their multiplicities.  The bumped copy of a vector differs
    in digit 0 alone, which sits in word 0, so its word 0 is larger by
    ``bump_step``.  Rows are reduced modulo 2**64, which is exact because
    every radix is at most 2**64 - 1.
    """
    n = digits[0].size
    words = np.empty((len(packing), 2 * n), dtype=np.uint64)
    for word, group in zip(words, packing):
        head = word[:n]
        np.subtract(digits[group[0]], lows[group[0]], out=head)
        for i in group[1:]:
            head *= radices[i]
            head += digits[i]
            head -= lows[i]
        word[n:] = head
    words[0, n:] += np.uint64(bump_step)
    return words


def _decode(words, lows, radices, packing) -> np.ndarray:
    """The int64 vectors, one per column, held by ``words`` once their
    multiplicity digit is split off; ``words`` is consumed."""
    deg = len(lows) - 1
    cols = np.empty((deg, words.shape[1]), dtype=np.uint64)
    for word, group in zip(words, packing):
        group = [i for i in group if i < deg]
        for i in reversed(group[1:]):
            _split_low_digit(word, radices[i], out=cols[i])
        if group:
            cols[group[0]] = word
    cols += lows[:deg, None]
    return cols.view(np.int64)


def _merge_level(shifted: np.ndarray, mult: np.ndarray, bump: int):
    """Tally one level: return ``(cols, multiplicities)``.

    The level holds the int64 vectors ``shifted`` (shape ``(deg, n)``, one
    per column) and the same vectors with ``bump > 0`` added to entry 0,
    both carrying the multiplicities ``mult``; no entry of either may leave
    int64.  ``cols`` (shape ``(deg, distinct)``) holds its distinct vectors
    in lexicographic order and the multiplicities are summed over equal
    ones.  Each vector and its multiplicity are one mixed-radix integer:
    entry 0 is the most significant digit, the multiplicity the least, and
    each digit's radix is its span on the level (``max(mult) + 1`` for the
    multiplicity), so the numeric order of the words is the lexicographic
    order of the vectors.  One value sort of the uint64 words (a lexsort of
    several words when the radix product exceeds 2**64) brings equal vectors
    together, a comparison of neighbouring words without the multiplicity
    digit marks the runs, ``np.add.reduceat`` sums their multiplicities, and
    a division chain decodes the distinct vectors.
    """
    n = shifted.shape[1]
    offsets = shifted.min(axis=1).tolist() + [0]
    tops = shifted.max(axis=1).tolist() + [int(mult.max())]
    tops[0] += bump
    spans = [hi - lo + 1 for lo, hi in zip(offsets, tops)]
    packing = _pack(spans)
    lows = np.array(offsets, dtype=np.int64).view(np.uint64)
    radices = np.array(spans, dtype=np.uint64)
    words = _encode([*shifted.view(np.uint64), mult.view(np.uint64)], lows, radices,
                    packing, bump * math.prod(spans[i] for i in packing[0][1:]))
    del shifted  # callers pass a temporary, so this frees it before the sort
    if len(packing) == 1:
        words[0].sort()
    else:
        words = words[:, np.lexsort(words[::-1])]
    mult = np.empty(2 * n, dtype=np.uint64)
    _split_low_digit(words[-1], radices[-1], out=mult)
    first = np.empty(2 * n, dtype=bool)  # vector starts a run of equal ones
    first[0] = True
    np.not_equal(words[0, 1:], words[0, :-1], out=first[1:])
    for word in words[1:]:
        first[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(first)
    del first
    if starts.size < 2 * n:
        words = words[:, starts]
        mult = np.add.reduceat(mult, starts)
    del starts
    return _decode(words, lows, radices, packing), mult.view(np.int64)


def _times_x(cols: np.ndarray, lead: int, low: np.ndarray) -> np.ndarray:
    """``x*R = lead*(0, R[:-1]) - R[-1]*p[:-1]`` for every column ``R``."""
    shifted = np.empty_like(cols)
    shifted[0] = 0
    np.multiply(cols[:-1], lead, out=shifted[1:])
    shifted -= low * cols[-1]
    return shifted


def exact_levels(minpoly, levels: int):
    """Yield the exact residue tally of every level 1..levels, in order.

    Each level is a read-only :class:`ExactPointSet` (see
    :func:`generate_exact`), built from the one before: level t+1 holds
    ``x*R`` and that vector plus ``lead**(t+1)`` in the constant slot for
    every residue ``R`` of level t, merged by :func:`_merge_level`.  Every
    entry of ``x*R`` is at most ``growth * max|R|`` in absolute value, with
    ``growth = lead + max|c_i|``, and the bump adds to entry 0 alone, so
    the next level is checked in Python integers against the largest entry
    of the current one before it is computed; every entry stays in int64
    and every span is below 2**64.  Raises ``SizeCapError`` at the first
    level that could leave int64.
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
    bump = 1
    for t in range(1, levels + 1):
        bump *= lead  # the "+1" on the scale lead**t
        # No entry is -2**63, so max(max, -min) is the largest |entry|.
        bound = growth * max(int(cols.max()), -int(cols.min())) + bump
        if bound > _INT64_MAX:
            raise SizeCapError(
                f"level {t} residues may exceed int64 (bound {bound}); "
                f"at most {t - 1} levels fit for this polynomial")
        cols, mult = _merge_level(_times_x(cols, lead, low), mult, bump)
        cols.flags.writeable = False
        mult.flags.writeable = False
        yield ExactPointSet(p, t, cols.T, mult)


def generate_exact(minpoly, levels: int) -> ExactPointSet:
    """Exact residue tally of all 2**levels digit strings modulo ``minpoly``.

    Reduction is exact integer arithmetic: level t holds each residue as an
    integer vector over the common denominator ``lead**t``, so non-monic
    defining polynomials (e.g. 2x^2 - 1 for lambda = 2**-0.5) need no
    rationals.  When ``minpoly`` is the minimal polynomial of lambda, equal
    residues are exactly the digit strings evaluating to the same point.
    Raises ``SizeCapError`` when the entries could leave int64.
    """
    for eps in exact_levels(minpoly, levels):
        pass
    return eps


def distinct_count(eps: ExactPointSet) -> int:
    """Number of distinct values, i.e. the point-set size without multiplicities."""
    return int(eps.multiplicities.size)


def distinct_count_profile(minpoly, levels: int) -> list[int]:
    """Distinct-value counts for every level 1..levels in one pass."""
    return [distinct_count(eps) for eps in exact_levels(minpoly, levels)]


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
    return PointSet(lam, levels, _CODE_FORM[code], values)
