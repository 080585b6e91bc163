"""Finite Bernoulli convolution point sets.

``generate`` builds the 2**N partial-sum values for a parameter lambda from
the iterated affine map x -> lambda*x (+1), keeping repeated values
(multiplicity matters: repeats are exactly the coincidences between digit
strings).  Each level merges both images of the sorted values into the
front of one 2**N buffer: a small level by one stable sort of that prefix,
a large one in place, block by block from the top down, each block
locating its share of the two images by bisection and scaling it by lambda
(at the last level of a STANDARD set also by 1 - lambda) as it copies it,
so a large level makes no pass of its own to scale.  The sorts run on the
int64 view of the values, whose order is the values' own.  The blocks are
shared between the calling thread and one helper thread (``_map_blocks``,
also used by the blocked passes of ``stats``) where the process may use
more than one CPU.  ``generate_exact``
tallies the same 2**N digit strings as residues
modulo a defining integer polynomial, in integer arithmetic on the scale
``lead**N``, so coincidence structure at an algebraic parameter is certified
exactly instead of read off floats.  Each level of that tally is kept
packed: each distinct residue vector is a string of bit fields, one per
entry and each about as wide as the entry's range on the level, in a uint64
word (several when the fields exceed 64 bits) whose numeric order is the
lexicographic order of the vectors, beside an int64 array of
multiplicities.  One layout, ``_layout``, maps fields to bits for the writer
and the reader of a level alike; the reader's is the writer's less the
multiplicity field.  The next level is encoded from the current one in one
pass over cache-sized blocks of columns, and one value sort of its words
deduplicates it.  A level that an exact integer test proves to have no
ties, as at Garsia parameters, where all 2**N strings stay apart, is
neither sorted nor deduplicated: its words carry no multiplicity field and
stay in the order they were made.  A level whose entries could leave int64
is refused with ``SizeCapError`` before it is computed.  ``exact_levels``
walks the tally, yielding each level 1..N in turn as a read-only
``ExactPointSet`` built from the one before; its int64 ``keys`` are sorted
and decoded only when first read.
``generate_exact`` keeps the last level and ``distinct_count_profile`` the
size of each, so a caller that needs several levels tallies every level
once.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .algebraic import defining_poly
from .errors import DomainError, SizeCapError, integer_arg, real_arg

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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ExactPointSet:
    """Residues of the 2**N digit polynomials modulo ``minpoly``.

    ``minpoly`` is stored trimmed with a positive leading coefficient
    ``lead``.  Row ``i`` of ``keys`` (shape ``(distinct, deg minpoly)``,
    int64, in lexicographic order, no repeats) is an integer vector ``R`` standing for
    the residue ``R / lead**levels`` (``R`` is the residue itself when
    ``minpoly`` is monic), and ``multiplicities[i]`` counts the digit strings
    that reduce to it.  Distinct rows are distinct residues, and the
    multiplicities sum to 2**N.  Both arrays are read-only.

    The level is held as it was tallied: each distinct vector is a string of
    bit fields in the uint64 words ``_words`` (one column per vector),
    decoded by ``_layout``: the layout of the entries' fields, which is the
    writer's less the multiplicity field.  ``_ranges[i]`` is entry i's exact
    (min, max).  The words are sorted, except on a level proved to have no
    ties, whose words stay in the order they were made and whose
    multiplicities are a broadcast 1.  ``keys`` sorts the words and decodes
    them on first access, and is cached, so a caller that reads only the
    multiplicities never sorts or decodes.
    """

    minpoly: tuple[int, ...]
    levels: int
    multiplicities: np.ndarray
    _words: np.ndarray = field(repr=False)
    _layout: tuple = field(repr=False)
    _ranges: tuple[tuple[int, int], ...] = field(repr=False)

    @cached_property
    def keys(self) -> np.ndarray:
        cols = np.empty((len(self._ranges), self.multiplicities.size), dtype=np.int64)
        _unpack(_sorted_words(self._words.copy()), self._layout, cols)
        cols.flags.writeable = False
        return cols.T


# ---------------------------------------------------------------------------
# blocked passes on two threads

# The one helper thread of every blocked pass.  Its thread starts on the
# first submit, which happens only where more than one CPU is usable.
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bcvlab-blocks")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or ``os.cpu_count()``
    on a platform without one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_blocks(fn, items) -> list:
    """``[fn(item) for item in items]``, worked through by the calling thread
    and, when the process may use more than one CPU, the helper thread.

    Both threads claim items from one counter, in order, so an item is
    claimed only after every earlier one.  The helper runs ``fn`` in a copy
    of the caller's context, so ``np.errstate`` carries over.  This returns
    only after the helper has finished, or its task was cancelled before it
    started.  The caller works through every item the helper has not
    claimed, so it never waits on a helper that has not started: caller
    threads that call this at once share the one helper without deadlock.
    An exception from either thread stops further claims and is raised here
    once both have stopped.  Once interpreter shutdown has begun, the
    helper takes no work and the caller does every item.
    """
    if len(items) < 2 or _usable_cpus() < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    claims = itertools.count()
    lock = threading.Lock()
    errors = []

    def drain():
        while not errors:
            with lock:
                i = next(claims)
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised by the caller below
                errors.append(exc)

    try:
        helper = _HELPER.submit(contextvars.copy_context().run, drain)
    except RuntimeError:  # interpreter shutdown has begun
        return [fn(item) for item in items]
    drain()
    if not helper.cancel():
        helper.result()
    if errors:
        raise errors[0]
    return results


_MERGE_BLOCK = 1 << 16  # values per output block of a large level's merge


def generate(lam: float, levels: int, form: Form = Form.STANDARD) -> PointSet:
    """All 2**levels values ``sum a_n lam^n`` (a_n in {0,1}), sorted, repeats kept.

    Built by iterating ``A -> merge(lam*A, lam*A + 1)`` from {0} inside one
    2**levels buffer: level t merges the low run ``L = lam*A`` with ``L + 1``
    into the first 2**(t+1) values.  A level of at most ``_MERGE_BLOCK``
    values scales ``A`` in place to ``L``, writes ``L + 1`` behind it and
    stable-sorts that prefix; a larger one is merged by ``_merge_blocks``,
    which reads the unscaled ``A`` and scales it inside its blocks, on two
    threads where the process may use more than one CPU, so no level
    allocates more than one block per thread or makes a pass of its own to
    scale.  Every digit string is evaluated by the same Horner scheme a
    direct evaluation would use.  STANDARD form scales the result by ``(1 -
    lam)`` so the support is inside [0, 1]: inside the blocks of a large last
    level, in place after a small one.

    Every value is a nonnegative finite double built from +0.0 by
    multiplying by ``lam`` and adding 1.0, so no -0.0 or NaN arises: the
    int64 order of the bits is the order of the values, and equal values are
    equal bits.  So the sorts run on the int64 view, and the bytes are those
    of a stable sort of the doubles.
    """
    lam = real_arg(lam, "lambda", 0.0, 1.0)
    levels = integer_arg(levels, "levels", 1, MAX_FLOAT_LEVELS, SizeCapError)
    values = np.zeros(1 << levels, dtype=np.float64)
    standard = form is Form.STANDARD
    for t in range(levels):
        m = 1 << t
        if 2 * m <= _MERGE_BLOCK:
            low = values[:m]
            low *= lam
            np.add(low, 1.0, out=values[m:2 * m])
            values[:2 * m].view(np.int64).sort(kind="stable")
        else:
            last = 2 * m == values.size
            _merge_blocks(values[:2 * m], lam, 1.0 - lam if standard and last else 1.0)
    if standard and values.size <= _MERGE_BLOCK:
        values *= 1.0 - lam
    values.flags.writeable = False
    return PointSet(lam, levels, form, values)


def _merge_blocks(out: np.ndarray, lam: float, scale: float) -> None:
    """Overwrite ``out`` with ``scale`` times the sorted merge of ``L = lam*A``
    and ``L + 1``, where ``A`` is the low half of ``out``.

    The output is cut into blocks of ``_MERGE_BLOCK`` values.  Block ``[p0,
    p1)`` takes ``L[x0:x1]`` and ``(L + 1)[y0:y1]``, where ``x(p)`` is the
    co-rank of ``p`` (see ``_co_rank``) and ``y(p) = p - x(p)``.  Every
    co-rank is computed first, from the still-intact ``A``.  Since ``x1, y1
    <= p1``, a block reads nothing that a block above it writes, but it may
    read what the blocks beneath it write.  So ``_map_blocks`` works the
    blocks from the top down, each block writing only once the block above
    it is *read*.  A block writes ``lam*A[x0:x1]`` and ``lam*A[y0:y1] + 1``
    into its thread's own block buffer, is then read, stable-sorts the
    buffer's int64 view in cache (see ``generate``) if it holds both parts,
    waits, and writes it back times ``scale``, which is exact when ``scale``
    is 1.  The buffers are allocated here, so a set with no large level
    allocates none.

    Waiting on the block just above is enough: every block writes only after
    all blocks above it are read.  Blocks are claimed in order by two
    threads, so when block k is claimed, every block above it is done except
    at most one, j, that the other thread holds.  If j is block k-1, block
    k waits for it.  Otherwise block k-1 was done by this thread, and it
    wrote only after all blocks above it, j among them, were read.  Each
    value is formed by the same operations as in a pass over the whole
    level, and equal values are equal bits, so the bytes are those of one
    stable sort of ``L, L + 1`` scaled in place.
    """
    size = _MERGE_BLOCK
    low = out[:out.size // 2]
    ranks = [_co_rank(low, p, lam) for p in range(out.size, -1, -size)]  # x(p), top down
    read = [threading.Event() for _ in ranks[1:]]
    local = threading.local()

    def merge(k):
        p1 = out.size - k * size
        p0 = p1 - size
        x0, x1 = ranks[k + 1], ranks[k]
        y0, y1 = p0 - x0, p1 - x1
        try:
            block = getattr(local, "block", None)
            if block is None:
                block = local.block = np.empty(size, dtype=np.float64)
            np.multiply(low[x0:x1], lam, out=block[:x1 - x0])
            np.multiply(low[y0:y1], lam, out=block[x1 - x0:])
            block[x1 - x0:] += 1.0
            read[k].set()
            if x0 != x1 and y0 != y1:  # a block of one part is sorted already
                block.view(np.int64).sort(kind="stable")
            if k:
                read[k - 1].wait()
            np.multiply(block, scale, out=out[p0:p1])
        finally:
            read[k].set()  # also on failure, so that no block waits forever

    _map_blocks(merge, range(len(read)))


def _co_rank(low: np.ndarray, p: int, lam: float) -> int:
    """How many of ``lam*low``'s values are among the ``p`` smallest of the
    merge of ``lam*low`` and ``lam*low + 1`` (ties go to ``lam*low + 1``), by
    bisection.  It reads ``low`` below index ``p`` only."""
    lo, hi = max(0, p - low.size), min(p, low.size)
    while lo < hi:
        mid = (lo + hi) // 2
        if lam * float(low[mid]) < lam * float(low[p - mid - 1]) + 1.0:
            lo = mid + 1
        else:
            hi = mid
    return lo


_INT64_MAX = int(np.iinfo(np.int64).max)
_WORD_BITS = 64  # bits of fields one uint64 word holds
_TALLY_BLOCK = 1 << 20  # bytes of int64 entries per column block of a level's pass


def _layout(widths, lows) -> tuple:
    """The bit-field layout of packed vectors, for their writer and their reader.

    Field i is ``widths[i]`` bits wide, field 0 the most significant, and
    holds its value less ``lows[i]``.  The fields are split greedily into
    uint64 words whose widths sum to at most ``_WORD_BITS`` (a field too wide
    to share a word gets one of its own), so the split of a prefix of the
    fields is a prefix of the split.  Returns, per word, its first field and
    uint64 columns of its fields' shifts, masks and lows modulo 2**64."""
    groups, size = [[]], 0
    for i, width in enumerate(widths):
        if groups[-1] and size + width > _WORD_BITS:
            groups.append([])
            size = 0
        groups[-1].append(i)
        size += width
    layout = []
    for group in groups:
        fields, shift = [], 0
        for i in reversed(group):
            fields.append((shift, (1 << widths[i]) - 1, lows[i] % (1 << 64)))
            shift += widths[i]
        layout.append((group[0], *np.array(fields[::-1], dtype=np.uint64).T[:, :, None]))
    return tuple(layout)


def _unpack(words, layout, out) -> None:
    """Decode the vectors packed in ``words``, one per column, into the int64
    rows of ``out``, one per entry.  All fields of a word are shifted to its
    low end, masked, and their lows added back at once."""
    for word, (first, shifts, masks, lows) in zip(words, layout):
        rows = out[first:first + shifts.shape[0]].view(np.uint64)
        np.right_shift(word, shifts, out=rows)
        rows &= masks
        rows += lows


def _times_x(words, layout, p, buf) -> np.ndarray:
    """``x*R = lead*(0, R[:-1]) - R[-1]*p[:-1]`` for the vectors ``R`` packed
    in ``words``, one per column, in the first ``deg`` of the ``deg + 1``
    rows of ``buf``.  ``R`` is decoded into rows 1..deg, where entry i
    already sits in its row of ``x*R``, so a zero coefficient costs nothing."""
    deg = len(p) - 1
    _unpack(words, layout, buf[1:])
    last = buf[deg]
    if p[-1] != 1:
        buf[1:deg] *= p[-1]
    for i in range(1, deg):
        if p[i]:
            buf[i] -= p[i] * last
    np.multiply(last, -p[0], out=buf[0])
    return buf[:deg]


def _encode(words, start, rows, layout, bump_word) -> None:
    """Write the bit-field words of the vectors ``rows`` (one per column, one
    field per row; overwritten) to ``words[:, start:]``, and those of the
    same vectors bumped in field 0 to ``words[:, n + start:]``, where
    ``words`` has ``2 * n`` columns and ``layout`` is the fields' ``_layout``.

    The fields of each word are shifted into place and added modulo 2**64,
    and their lows come off as one sum taken from the same columns; this is
    exact because every word's fields fit in 64 bits.  The bumped copy
    differs in field 0 alone, which sits in word 0, so its word 0 is larger
    by ``bump_word``.
    """
    n = words.shape[1] // 2
    stop = start + rows.shape[1]
    bits = rows.view(np.uint64)
    for row, (first, shifts, _, lows) in zip(words, layout):
        head = row[start:stop]
        fields = bits[first:first + shifts.shape[0]]
        np.left_shift(fields, shifts, out=fields)
        np.add.reduce(fields, axis=0, out=head)
        head -= (lows << shifts).sum()
        row[n + start:n + stop] = head
    words[0, n + start:n + stop] += bump_word


def _tie_shift(p, bump):
    """The difference ``D = R - R'`` of any two vectors of a level whose images
    ``x*R`` and ``x*R' + bump*e0`` are equal, ``D_j = -bump * p[j+1] /
    (p[0] * lead)`` (derived in ``exact_levels``), or None when it is not an
    integer vector, so that no two images are equal.  Needs ``p[0] != 0``.
    """
    den = p[0] * p[-1]
    shift = []
    for c in p[1:]:
        d, r = divmod(-bump * c, den)
        if r:
            return None
        shift.append(d)
    return shift


def _tie_free(p, ranges, bump) -> bool:
    """Whether the level after one with entry ranges ``ranges`` provably has no
    two equal vectors, for a level of distinct vectors.

    Within each half the images are distinct: ``x*R`` determines ``R[-1]``
    from entry 0 when ``p[0] != 0``, and then ``R[:-1]`` from the rest.  A
    vector of one half equals one of the other only if the level holds two
    vectors ``R - R' = D`` (see ``_tie_shift``), which it cannot when ``D``
    is not an integer vector or some ``|D_j|`` exceeds entry j's span.  When
    ``p[0] == 0``, ``x*R`` forgets ``R[-1]`` and nothing is proved.
    """
    if not p[0]:
        return False
    shift = _tie_shift(p, bump)
    return shift is None or any(abs(d) > hi - lo for d, (lo, hi) in zip(shift, ranges))


def _sorted_words(words) -> np.ndarray:
    """``words`` (one column per vector) in the numeric order of the vectors:
    one word is value-sorted in place, several are lexsorted into a new
    array."""
    if len(words) == 1:
        words[0].sort()
        return words
    return words[:, np.lexsort(words[::-1])]


def _next_level(eps: ExactPointSet, bump: int) -> ExactPointSet:
    """Tally the level after ``eps``: ``x*R`` and ``x*R`` plus ``bump`` in
    entry 0, for every vector ``R`` of ``eps``, both carrying R's
    multiplicity.

    Each new vector is one string of bit fields, entry 0 the most
    significant.  Entry i's field holds it less the low of a range
    ``[lo, hi]`` bounded in one step from the exact ranges of ``eps``'s
    entries, and is ``(hi - lo).bit_length()`` bits wide.  So the numeric
    order of the words is the lexicographic order of the vectors.  One pass
    over blocks of about ``_TALLY_BLOCK`` bytes of entries decodes ``R``,
    forms ``x*R``, folds it into the exact ranges of the new entries, and
    encodes it and its bumped copy into the new words.

    Two images are equal only if ``R - R' = D`` with
    ``D_j = -bump * p[j+1] / (p[0] * lead)`` (see ``_tie_free``).  When every
    multiplicity of ``eps`` is 1 (it holds all ``2**levels`` strings apart)
    and no two of its vectors differ by ``D``, every new multiplicity is 1
    too: the words carry no multiplicity field and stay unsorted, in the
    order they were made, and the multiplicities are a read-only broadcast
    1.  Otherwise the least significant field is the multiplicity, as wide
    as ``max(mult)`` needs, read from the row of ``buf`` that ``_times_x``
    leaves free.  One value sort of the uint64 words (a lexsort of several
    words when the fields exceed 64 bits) brings equal vectors together, a
    comparison of neighbouring words with the multiplicity field shifted off
    marks the runs, and ``np.add.reduceat`` sums their multiplicities.  The
    words are written by ``_layout`` of all fields; as the greedy split of
    the entries' fields is a prefix of the split, shifting the multiplicity
    off leaves the words that ``_layout`` of the entries' fields reads.
    """
    p, mult = eps.minpoly, eps.multiplicities
    lead, deg, n = p[-1], len(p) - 1, mult.size
    ranges = eps._ranges
    tie_free = n == 1 << eps.levels and _tie_free(p, ranges, bump)
    lows, tops = [], []
    for i, c in enumerate(p[:-1]):
        lo, hi = sorted((-c * ranges[-1][0], -c * ranges[-1][1]))
        if i:
            lo += lead * ranges[i - 1][0]
            hi += lead * ranges[i - 1][1]
        lows.append(lo)
        tops.append(hi)
    tops[0] += bump
    widths = [(hi - lo).bit_length() for lo, hi in zip(lows, tops)]
    if not tie_free:
        widths.append(int(mult.max()).bit_length())
        lows.append(0)
    layout = _layout(widths, lows)
    bump_word = np.uint64(bump << int(layout[0][1][0, 0]))

    words = np.empty((len(layout), 2 * n), dtype=np.uint64)
    step = max(1, _TALLY_BLOCK // (8 * (deg + 1)))
    buf = np.empty((deg + 1, min(step, n)), dtype=np.int64)
    mins = np.full(deg, _INT64_MAX, dtype=np.int64)
    maxs = np.full(deg, -_INT64_MAX - 1, dtype=np.int64)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = buf[:, :stop - start]
        cols = _times_x(eps._words[:, start:stop], eps._layout, p, rows)
        np.minimum(mins, cols.min(axis=1), out=mins)
        np.maximum(maxs, cols.max(axis=1), out=maxs)
        rows[deg] = mult[start:stop]  # the multiplicity field's row
        _encode(words, start, rows, layout, bump_word)
    del buf, rows, cols
    ranges = list(zip(mins.tolist(), maxs.tolist()))
    ranges[0] = (ranges[0][0], ranges[0][1] + bump)

    if tie_free:
        mult = np.broadcast_to(np.int64(1), (2 * n,))
    else:
        words = _sorted_words(words)
        mult = words[-1] & layout[-1][2][-1]
        words[-1] >>= widths[-1]
        if layout[-1][0] == deg:  # the multiplicity had a word of its own
            words = words[:-1]
        first = np.empty(2 * n, dtype=bool)  # vector starts a run of equal ones
        first[0] = True
        np.not_equal(words[0, 1:], words[0, :-1], out=first[1:])
        for word in words[1:]:
            first[1:] |= word[1:] != word[:-1]
        if not first.all():
            starts = np.flatnonzero(first)
            del first
            words = words[:, starts]
            mult = np.add.reduceat(mult, starts)
        mult = mult.view(np.int64)
    words.flags.writeable = False
    mult.flags.writeable = False
    return ExactPointSet(p, eps.levels + 1, mult, words,
                         _layout(widths[:deg], lows[:deg]), tuple(ranges))


def exact_levels(minpoly, levels: int):
    """Yield the exact residue tally of every level 1..levels, in order.

    Each level is a read-only :class:`ExactPointSet` (see
    :func:`generate_exact`), built from the one before: level t+1 holds
    ``x*R`` and that vector plus ``lead**(t+1)`` in the constant slot for
    every residue ``R`` of level t, tallied by :func:`_next_level`.  When
    ``p[0] != 0`` two of these are equal only as ``x*R = x*R' + lead**(t+1) * e0``, which
    forces ``R - R' = D`` with ``D_j = -lead**(t+1) * p[j+1] / (p[0] *
    lead)``: entry 0 gives ``p[0] * (R'[-1] - R[-1]) = lead**(t+1)`` and
    entry j+1 gives ``lead * (R[j] - R'[j]) = p[j+1] * (R[-1] - R'[-1])``.
    So when every string of level t is its own residue and ``D`` is not an
    integer vector, or some ``|D_j|`` exceeds the span of entry j on level
    t, level t+1 has no ties and is left unsorted.  Every
    entry of ``x*R`` is at most ``growth * max|R|`` in absolute value, with
    ``growth = lead + max|c_i|``, and the bump adds to entry 0 alone, so
    the next level is checked in Python integers against the largest entry
    of the current one before it is computed; every entry stays in int64
    and every span is below 2**64.  Raises ``SizeCapError`` at the first
    level that could leave int64.
    """
    levels = integer_arg(levels, "levels", 1, MAX_EXACT_LEVELS, SizeCapError)
    p = defining_poly(minpoly)
    lead, deg = p[-1], len(p) - 1
    growth = lead + max(abs(c) for c in p[:-1])
    integer_arg(growth, "lead + max|c_i|", hi=_INT64_MAX, error=SizeCapError)
    # Level 0: the zero vector once, in one word of 0-bit fields.
    eps = ExactPointSet(p, 0, np.ones(1, dtype=np.int64), np.zeros((1, 1), dtype=np.uint64),
                        _layout([0] * deg, [0] * deg), ((0, 0),) * deg)
    bump = 1
    for t in range(1, levels + 1):
        bump *= lead  # the "+1" on the scale lead**t
        # No entry is -2**63, so max(max, -min) is the largest |entry|.
        largest = max(max(hi for _, hi in eps._ranges), -min(lo for lo, _ in eps._ranges))
        bound = growth * largest + bump
        if bound > _INT64_MAX:
            raise SizeCapError(
                f"level {t} residues may exceed int64 (bound {bound}); "
                f"at most {t - 1} levels fit for this polynomial")
        eps = _next_level(eps, bump)
        yield eps


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


def _float_array(values, name: str = "values") -> np.ndarray:
    """``values`` as a float64 array, or :class:`DomainError` if not numbers."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must hold numbers") from None


def _sorted_finite(values, name: str = "values") -> np.ndarray:
    """``values`` as a contiguous 1-D float64 array that is finite and ascending
    (a :class:`PointSet`'s values, which are built so, as they are).

    Raises :class:`DomainError` otherwise; a scalar is one value.  NaN fails
    every comparison, so ascending values with finite ends are all finite."""
    if isinstance(values, PointSet):
        return values.values
    values = np.ascontiguousarray(_float_array(values, name))
    if values.ndim != 1:
        raise DomainError(f"{name} must be a 1-D sequence")
    if values.size and not (np.all(values[1:] >= values[:-1])
                            and np.all(np.isfinite(values[[0, -1]]))):
        raise DomainError(f"{name} must be finite and ascending")
    return values


def write_binary(ps: PointSet, path) -> None:
    """Little-endian dump: magic "BCV1", lambda f64, levels u32, form u8, values."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<dIB", ps.lam, ps.levels, _FORM_CODE[ps.form]))
        np.asarray(ps.values, dtype="<f8").tofile(f)


def read_binary(path) -> PointSet:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise DomainError(f"bad magic {magic!r}; expected {_MAGIC!r}")
        header = f.read(13)
        if len(header) != 13:
            raise DomainError("truncated point-set header")
        lam, levels, code = struct.unpack("<dIB", header)
        lam = real_arg(lam, "lambda", 0.0, 1.0)
        if code not in _CODE_FORM:
            raise DomainError(f"unknown form byte {code}")
        levels = integer_arg(levels, "levels", 1, MAX_FLOAT_LEVELS)
        values = np.fromfile(f, dtype="<f8", count=1 << levels)
        if values.size != 1 << levels:
            raise DomainError("truncated point-set dump")
        if f.read(1):
            raise DomainError("trailing bytes after the point-set values")
    values = _sorted_finite(values)
    values.flags.writeable = False
    return PointSet(lam, levels, _CODE_FORM[code], values)
