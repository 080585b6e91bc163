"""Spacing and correlation statistics over sorted point sets.

Conventions fixed across the module:

* Spacings are normalized by the point count: ``delta_n = n_points *
  (x[n+ell] - x[n])`` over the sorted sequence.
* Pair correlations count *ordered* index pairs (n, m), n != m, within
  distance ``s / n_points``; for i.i.d. uniform points this tends to ``2 s``.
  Coincident values at distinct indices count, so R2(0) measures exact
  coincidences.
* Histograms use 50 left-closed bins on [0, 5*ell]; out-of-range samples land
  in an explicit overflow counter, never silently dropped.
* The histogram and the KS statistic share one blocked count of the
  spacings into ``_BUCKETS_PER_BIN`` (512) fine buckets per bin, and no
  full-size array is sorted.  Bin counts are sums of bucket counts.  The
  cumulative counts and the CDF at the bucket edges bound each bucket's KS
  deviation, and only the buckets that can hold the maximum are gathered,
  sorted and evaluated at the ends of their runs of tied values.
* Passes over a whole set stream it in blocks of ``_BLOCK`` (2**15) values
  (the pair counter, the CDF evaluation of :func:`rescale`, the spacings,
  the bucket count, the KS gather, the variance pass and the gap scan), so
  no temporary grows with the set.  A CDF model is evaluated only by
  :func:`_cdf_block`, which writes one sorted slice's CDF into a buffer the
  caller gives it and checks it.  :func:`rescale` is the one public way to
  evaluate a model, and :func:`spacings` calls the same routine inside its
  own blocks, so the figure pipeline reads only the point set and makes no
  rescaled copy.  The variance adds its per-block partial sums along
  numpy's own pairwise-summation split, so it equals ``np.var(ddof=1)`` bit
  for bit.
  The Erdos-Joo-Komornik check of :func:`gaps` reads only a search window
  around the predicted gap.
* The CDF evaluation, the spacings, the bucket count, the KS gather and the
  gap scan share their blocks between the calling thread and one helper
  thread (``pointset._map_blocks``) where the process may use more than one
  CPU.  Each block writes its own slice or returns its own summary, and the
  summaries are combined in block order (bucket counts are integer sums),
  so the results do not depend on the thread that did a block.  The pair
  counter stays on the calling thread: its blocks on two threads gave the
  same counts but took longer at lambda = 0.7 (30 -> 38 ms at N = 20,
  122 -> 138 ms at N = 22, 2-CPU host).
* The pair counter counts the whole s grid in one pass: each block compares
  the differences at index offsets 1 .. ``_DEPTH`` (16) with every threshold,
  and only rows whose window reaches past that depth are searched.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SizeCapError, integer_arg, interval_arg, real_arg
from .pointset import ExactPointSet, Form, PointSet
from . import pointset as _pointset

__all__ = [
    "SpacingSet",
    "CdfModel",
    "Histogram",
    "CorrelationCurve",
    "GapReport",
    "GofReport",
    "spacings",
    "cdf_sqrt_half",
    "cdf_empirical",
    "rescale",
    "histogram",
    "poisson_reference",
    "poisson_cdf",
    "gof_statistics",
    "pair_correlation",
    "pair_correlation_interval",
    "coincidence_rate",
    "gaps",
    "write_histogram_csv",
    "write_curve_csv",
    "GOLDEN_RATIO",
]

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0

HIST_BIN_COUNT = 50
_MAX_POISSON_ORDER = 171  # (ell-1)! must fit a double
_MAX_HIST_ORDER = 113  # past it the Poisson overlay overflows a double

_BLOCK = 1 << 15  # values per block of every streamed pass; bounds the temporaries
# Fine buckets per histogram bin in the one count of the spacings.  A power
# of two, so the bin of a bucket is exact (see _bucket_index).  512 keeps the
# KS candidates of an N=22 figure set to some 10**4 values while the
# per-bucket arrays stay at 200 KB each.
_BUCKETS_PER_BIN = 1 << 9
# Widening of the Poisson CDF bounds at a bucket's edges in the KS pass.  For
# ell <= 113 the computed CDF is within (2*ell + 3) * 2**-52 < 6e-14 of the
# true one (ell rounded terms of a sum times exp(-s), their product at most
# 1), and a bucket's spacings lie within a few ulps of 5*ell (< 1e-12) of its
# nominal edges, where the density is at most 1; the bound arithmetic rounds
# by about 1e-16.  All of it is far below 1e-9.
_KS_SLACK = 1e-9
_DEPTH = 16  # index offsets the pair counter scans before it searches


# ---------------------------------------------------------------------------
# whole-grid pair counter


def _grid_counts(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Index pairs i < j of a sorted finite array with ``values[j] - values[i]
    <= t``, for each t of the ascending, nonnegative ``thresholds``.

    Each ``_BLOCK`` of rows compares the contiguous slice ``values[i + d] -
    values[i]`` with every live threshold, for d = 1 .. ``_DEPTH``.  The
    predicate is exact and monotone in d (float subtraction is), so offset d
    counts the rows whose last partner j(i) is at least i + d, and the
    offsets add up to ``min(j(i) - i, _DEPTH)``.  A threshold that counts no
    row at some offset counts none further out, nor does any smaller one, so
    it stops.  Rows still within a threshold at offset ``_DEPTH`` add ``j(i)
    - i - _DEPTH``, with j(i) from :func:`_window_ends`.
    """
    n = values.size
    counts = np.zeros(thresholds.size, dtype=np.int64)
    # Every offset's differences, in one buffer: a new temporary per offset
    # cost a sweep on the main thread 3584 page faults per 16 samples at N=16.
    buf = np.empty(min(n, _BLOCK), dtype=values.dtype)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        live = 0  # thresholds[live:] still count rows of this block
        for d in range(1, _DEPTH + 1):
            hi = max(min(stop, n - d), start)  # rows with a value d further on
            diff = np.subtract(values[start + d:hi + d], values[start:hi],
                               out=buf[:hi - start])
            for k in range(live, thresholds.size):
                c = np.count_nonzero(diff <= thresholds[k])
                counts[k] += c
                if not c:
                    live = k + 1
            if live == thresholds.size:
                break
        else:
            for k in range(live, thresholds.size):
                rows = start + np.flatnonzero(diff <= thresholds[k])
                ends = _window_ends(values, rows, thresholds[k])
                counts[k] += int((ends - rows).sum()) - _DEPTH * rows.size
    return counts


def _window_ends(values: np.ndarray, rows: np.ndarray, thr: float) -> np.ndarray:
    """The last j with ``values[j] - values[i] <= thr``, for each i in the
    non-empty, ascending ``rows``.

    ``searchsorted`` finds the last j with ``values[j] <= values[i] + thr``.
    The ascending ``rows`` and their sums bound every such j, so only that
    window of ``values`` is searched.  Rounding of the sum can leave j one
    value, or one run of tied values, off the exact predicate, so j is then
    stepped back and forward until the predicate holds for j and fails for
    j + 1.  The predicate is monotone in j because float subtraction is, and
    it holds at j = i since ``thr >= 0``.
    """
    n = values.size
    v = values[rows]
    lo, hi = rows[0], np.searchsorted(values, v[-1] + thr, side="right")
    j = np.searchsorted(values[lo:hi], v + thr, side="right")
    j += lo - 1
    k = np.flatnonzero(values[j] - v > thr)
    while k.size:
        j[k] -= 1
        k = k[values[j[k]] - v[k] > thr]
    k = np.flatnonzero((j < n - 1) & (values.take(j + 1, mode="clip") - v <= thr))
    while k.size:
        j[k] += 1
        k = k[(j[k] < n - 1) & (values.take(j[k] + 1, mode="clip") - v[k] <= thr)]
    return j


# ---------------------------------------------------------------------------
# spacings


@dataclass(frozen=True, eq=False)
class SpacingSet:
    """Point-count-normalized order-ell spacings of a sorted sequence.

    :func:`histogram` and :func:`gof_statistics` share one count of the
    spacings into fine buckets, built on first use and kept; ``values`` must
    not change after that.  :func:`spacings` returns read-only values.
    """

    ell: int
    values: np.ndarray  # length point_count - ell, all >= 0
    point_count: int

    @cached_property
    def _bucket_counts(self) -> np.ndarray:
        """Spacings per bucket of :func:`_bucket_index`, from one blocked pass
        (read-only), for an ``ell`` already checked by
        :func:`histogram` or :func:`gof_statistics`.  Non-finite spacings raise
        :class:`DomainError`."""
        counts = np.zeros(HIST_BIN_COUNT * _BUCKETS_PER_BIN + 2, dtype=np.int64)
        lock = threading.Lock()

        def count(start):
            block = self.values[start:start + _BLOCK]
            if not (math.isfinite(block.min()) and math.isfinite(block.max())):
                raise DomainError("spacings must be finite")
            part = np.bincount(_bucket_index(block, self.ell), minlength=counts.size)
            with lock:
                np.add(counts, part, out=counts)

        _pointset._map_blocks(count, range(0, self.values.size, _BLOCK))
        counts.flags.writeable = False
        return counts


def spacings(source, ell: int, model: CdfModel | None = None) -> SpacingSet:
    """Order-ell spacings ``n_points * (x[n+ell] - x[n])`` of a sorted sequence.

    ``source`` is a :class:`PointSet` or any sorted finite 1-D array of at
    least two values.  With a ``model``, ``x`` is the model's CDF ``F`` of
    the source, as :func:`rescale` gives it, with the same checks and
    warning, but no rescaled copy is made.  Each block of the one pass
    evaluates ``F`` over its values and the ``ell`` values past them (as two
    slices, its own and the ``ell``-th ones on, when ``ell`` exceeds the
    block) and writes the spacings; without a model each slice is read as it
    is.  ``F`` is elementwise and :func:`_cdf_block` checks each slice, the
    pair across the block's far edge included, so the bytes are those of
    ``spacings(rescale(source, model)[0], ell)``.
    """
    values = _pointset._sorted_finite(source) if model is None else _cdf_source(source, model)
    n = integer_arg(values.size, "point count of spacings", lo=2)
    ell = integer_arg(ell, "ell", 1, n - 1)
    sp = np.empty(n - ell, dtype=np.float64)

    def cdf(v):
        if model is None:
            return v
        y = np.empty_like(v)
        _cdf_block(model, v, y)
        return y

    def fill(start):
        stop = min(start + _BLOCK, n)
        part = sp[start:stop]  # empty once start passes n - ell
        if ell <= _BLOCK:  # one slice: the block's values and the ell past them
            near = cdf(values[start:stop + ell])
            far = near[ell:]
        else:  # two: the block's values and one more, and the ell-th ones on
            near = cdf(values[start:stop + 1])
            far = cdf(values[start + ell:start + ell + part.size])
        np.subtract(far[:part.size], near[:part.size], out=part)
        part *= float(n)

    with np.errstate(over="ignore"):  # spacings past a double are inf
        _pointset._map_blocks(fill, range(0, n, _BLOCK))
    sp.flags.writeable = False
    return SpacingSet(ell, sp, n)


# ---------------------------------------------------------------------------
# rescaling CDFs

_SQRT2 = math.sqrt(2.0)
_CDF_A = 1.5 * _SQRT2 + 2.0
_CDF_B = _SQRT2 - 1.0
EMPIRICAL_KNOTS = 4096  # equally spaced knots of every empirical CDF
_CDF_OUTPUT = "the CDF model's output must be finite and ascending"


@dataclass(frozen=True, eq=False)
class CdfModel:
    """Nondecreasing CDF used to push a point set toward the uniform lattice.

    With knots it linearly interpolates an empirical CDF through ``(knots_x,
    knots_y)`` (:func:`cdf_empirical` builds ``EMPIRICAL_KNOTS`` = 4096 of
    them); without knots it is the closed form of :func:`cdf_sqrt_half` on
    [0, 1].  ``lam`` and ``level`` name the point set it was built from.
    The knots are both given or both omitted, two 1-D sequences of one
    length of at least 2, with ``knots_x`` finite and strictly ascending, or
    :class:`DomainError` is raised; they are kept as float64 arrays.  The
    ``knots_y`` values are left to the check of the model's output.
    A model is applied only through :func:`rescale` and :func:`spacings`,
    which evaluate it block by block in :func:`_cdf_block`.  Outside the
    support it clamps to its end values, and :func:`rescale` counts the
    clamped inputs.
    """

    lam: float | None = None
    level: int | None = None
    knots_x: np.ndarray | None = None
    knots_y: np.ndarray | None = None

    def __post_init__(self):
        if self.knots_x is None and self.knots_y is None:
            return
        if self.knots_x is None or self.knots_y is None:
            raise DomainError("a CDF model needs both knots_x and knots_y, or neither")
        xs = _pointset._float_array(self.knots_x, "knots_x")
        ys = _pointset._float_array(self.knots_y, "knots_y")
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise DomainError("knots_x and knots_y must be 1-D, of one length of at least 2")
        if not (np.all(xs[1:] > xs[:-1]) and math.isfinite(xs[0]) and math.isfinite(xs[-1])):
            raise DomainError("knots_x must be finite and strictly ascending")
        object.__setattr__(self, "knots_x", xs)
        object.__setattr__(self, "knots_y", ys)

    @property
    def support(self) -> tuple[float, float]:
        if self.knots_x is None:
            return (0.0, 1.0)
        return (float(self.knots_x[0]), float(self.knots_x[-1]))


def cdf_sqrt_half() -> CdfModel:
    """Closed-form CDF of the infinite Bernoulli convolution at lambda = 2**-0.5.

    Three pieces with a = 1.5*sqrt(2) + 2 and b = sqrt(2) - 1:
    ``a x^2/2`` on [0, b], linear ``a b^2/2 + a b (x - b)`` on [b, 1-b], and
    ``1 - a (1-x)^2/2`` on [1-b, 1]; continuous at both joins since
    ``a b (1 - b) = 1`` exactly.  Inputs must be finite and ascending.
    """
    return CdfModel(lam=1.0 / _SQRT2)


def cdf_empirical(lam: float, level: int) -> CdfModel:
    """Empirical CDF of the level-``level`` point set, resampled onto
    ``EMPIRICAL_KNOTS`` (4096) equally spaced positions with monotone linear
    interpolation.  Inputs to the model must be finite and ascending.

    The model must not be used to rescale the very point set it was built
    from (same lambda and level): that degenerates to the uniform lattice and
    :func:`rescale` warns about it.
    """
    level = integer_arg(level, "level", 1, _pointset.MAX_EXACT_LEVELS, SizeCapError)
    values = _pointset.generate(lam, level, Form.STANDARD).values
    xs = np.linspace(0.0, float(values[-1]), EMPIRICAL_KNOTS)
    counts = np.searchsorted(values, xs, side="right")
    # Rank-based normalization pins F(min)=0 and F(max)=1 exactly; counts is
    # nondecreasing, so the knot values are monotone as interp requires.
    ys = (counts - 1) / float(values.size - 1)
    return CdfModel(lam=float(lam), level=level, knots_x=xs, knots_y=ys)


def rescale(source, model: CdfModel) -> tuple[np.ndarray, int]:
    """``(F(x), count of x outside the model's support)``: the CDF applied
    elementwise to the sorted values ``x`` of ``source``.

    ``source`` is a STANDARD-form :class:`PointSet`, whose values are
    ascending by construction and are not checked again, or any sorted
    finite 1-D array (a scalar is one value), else :class:`DomainError`.
    The output is filled one ``_BLOCK`` slice at a time by
    :func:`_cdf_block`; it stays sorted because the model is nondecreasing,
    and this is checked rather than re-sorted, within each block and across
    the block edges, so output that is not finite and ascending raises
    :class:`DomainError`.  :func:`spacings` takes the model itself and makes
    no rescaled copy.
    """
    values = _cdf_source(source, model)
    y = np.empty_like(values)
    clamped = _pointset._map_blocks(
        lambda start: _cdf_block(model, values[start:start + _BLOCK], y[start:start + _BLOCK]),
        range(0, values.size, _BLOCK))
    if not np.all(y[_BLOCK::_BLOCK] >= y[_BLOCK - 1:-1:_BLOCK]):
        raise DomainError(_CDF_OUTPUT)
    return y, sum(clamped)


def _cdf_source(source, model: CdfModel) -> np.ndarray:
    """The values that ``model`` is to rescale: those of a STANDARD-form
    point set (a warning when the model is the set's own empirical CDF), or
    those of a sorted finite 1-D array."""
    if not isinstance(source, PointSet):
        return _pointset._sorted_finite(source)
    if source.form is not Form.STANDARD:
        raise DomainError("rescaling needs a point set in STANDARD form (support in "
                          "[0, 1]); regenerate with Form.STANDARD")
    if (model.lam, model.level) == (source.lam, source.levels):
        warnings.warn(
            "rescaling a point set by its own empirical CDF degenerates to the "
            "uniform lattice; build the CDF at a different level",
            UserWarning, stacklevel=3)
    return source.values


def _cdf_block(model: CdfModel, v: np.ndarray, y: np.ndarray) -> int:
    """Write ``F(v)`` for a sorted slice ``v`` into ``y``, check it finite and
    ascending (else :class:`DomainError`), and return the count of ``v``
    outside the support.

    The support ends and the closed form's two joins split ``v`` into one
    slice per piece, and each piece is computed in its slice of ``y`` in the
    order of the formula's operations.  An empirical model interpolates its
    knots.
    """
    lo, hi = model.support
    below = int(np.searchsorted(v, lo, side="left"))
    inside = int(np.searchsorted(v, hi, side="right"))
    if model.knots_x is not None:
        y[:] = np.interp(v, model.knots_x, model.knots_y)
    else:
        left = int(np.searchsorted(v, _CDF_B, side="right"))
        right = int(np.searchsorted(v, 1.0 - _CDF_B, side="left"))
        y[:below] = 0.0
        part = y[below:left]  # a t^2 / 2
        np.multiply(v[below:left], _CDF_A, out=part)
        part *= v[below:left]
        part /= 2.0
        part = y[left:right]  # a b^2 / 2 + a b (t - b)
        np.subtract(v[left:right], _CDF_B, out=part)
        part *= _CDF_A * _CDF_B
        part += _CDF_A * _CDF_B * _CDF_B / 2.0
        part = y[right:inside]  # 1 - a (1 - t)^2 / 2
        np.subtract(1.0, v[right:inside], out=part)
        part *= part
        part *= _CDF_A
        part /= 2.0
        np.subtract(1.0, part, out=part)
        y[inside:] = 1.0
    if y.size and not (np.all(y[1:] >= y[:-1])
                       and math.isfinite(y[0]) and math.isfinite(y[-1])):
        raise DomainError(_CDF_OUTPUT)
    return below + v.size - inside


# ---------------------------------------------------------------------------
# histogram and Poisson reference


@dataclass(frozen=True, eq=False)
class Histogram:
    """50-bin spacing histogram on [0, 5*ell] with a Poisson overlay."""

    bin_edges: np.ndarray  # length 51
    counts: np.ndarray  # int64, length 50
    overlay: np.ndarray  # expected Poisson count per bin, length 50
    overflow: int


def poisson_reference(ell: int, s):
    """Poisson order-ell spacing density ``s**(ell-1) * exp(-s) / (ell-1)!``.

    The density is at most 1, so a non-finite result (a factor overflowed)
    raises :class:`DomainError`, as does an ``ell`` outside 1..171."""
    ell = integer_arg(ell, "ell", 1, _MAX_POISSON_ORDER)
    s = _pointset._float_array(s, "s")
    if np.any(s < 0):
        raise DomainError("s must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        out = s ** (ell - 1) * np.exp(-s) / math.factorial(ell - 1)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"order-{ell} Poisson density overflows a double")
    return float(out) if out.ndim == 0 else out


def poisson_cdf(ell: int, s):
    """CDF of the order-ell Poisson spacing law (a Gamma(ell, 1) variable).

    0.0 for ``s <= 0``; 1.0 where ``exp(-s)`` underflows and ``s >= 2*ell``
    (the upper tail is below 1e-50).  Other non-finite results, and an
    ``ell`` outside 1..171, raise :class:`DomainError`."""
    ell = integer_arg(ell, "ell", 1, _MAX_POISSON_ORDER)
    s = _pointset._float_array(s, "s")
    partial = np.zeros_like(s)
    term = np.ones_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(ell):
            if j > 0:
                term = term * s / j
            partial += term
        out = np.where(s < 0.0, 0.0, 1.0 - np.exp(-s) * partial)
        if not np.all(np.isfinite(out)):
            out = np.where((np.exp(-s) == 0.0) & (s >= 2 * ell), 1.0, out)
            if not np.all(np.isfinite(out)):
                raise DomainError(f"order-{ell} Poisson CDF is not finite at these s")
    return float(out) if out.ndim == 0 else out


def _bucket_index(values: np.ndarray, ell: int) -> np.ndarray:
    """Bucket of each spacing ``v``, with ``q = v * 50 / (5*ell)`` its
    histogram bin quotient and B = 50 * ``_BUCKETS_PER_BIN``: 0 for q < 0,
    ``1 + floor(q * _BUCKETS_PER_BIN)`` for 0 <= q < 50, and B + 1 past that.

    Scaling a double by a power of two is exact, so the fine index shifted
    right by log2(``_BUCKETS_PER_BIN``) is exactly the bin ``floor(q)``.
    Buckets ascend with ``v``, since every rounded step is monotone.
    """
    t = values * float(HIST_BIN_COUNT)
    t /= 5.0 * ell
    t *= float(_BUCKETS_PER_BIN)
    np.floor(t, out=t)
    np.clip(t, -1.0, float(HIST_BIN_COUNT * _BUCKETS_PER_BIN), out=t)
    index = t.astype(np.intp)
    index += 1
    return index


def histogram(sp: SpacingSet) -> Histogram:
    """Bin the spacings into 50 left-closed bins of width 0.1*ell on [0, 5*ell].

    A spacing ``v`` goes in bin ``floor(v * 50 / (5*ell))`` (scaled first, so
    exact bin-edge values such as a lattice spacing of 1.0 land in the bin
    they start).  Each bin count is the sum of its ``_BUCKETS_PER_BIN`` fine
    buckets from the spacing set's one counting pass; spacings whose index
    falls outside 0..49 (negative ones, and those at or past ``5*ell``) are
    the overflow.  Non-finite spacings, and an ``ell`` outside 1..113 (past
    113 the overlay overflows a double), raise :class:`DomainError`.

    The overlay is the expected Poisson count per bin,
    ``0.1 * ell * point_count * P_ell(bin center)`` (bin width times sample
    size times density).
    """
    ell = integer_arg(sp.ell, "ell", 1, _MAX_HIST_ORDER)
    fine = sp._bucket_counts
    counts = fine[1:-1].reshape(HIST_BIN_COUNT, _BUCKETS_PER_BIN).sum(axis=1)
    overflow = int(fine[0] + fine[-1])
    edges = np.linspace(0.0, 5.0 * ell, HIST_BIN_COUNT + 1)
    centers = (np.arange(HIST_BIN_COUNT) + 0.5) * (0.1 * ell)
    overlay = 0.1 * ell * sp.point_count * poisson_reference(ell, centers)
    return Histogram(edges, counts, overlay, overflow)


@dataclass(frozen=True)
class GofReport:
    ks: float
    chi2: float
    mean: float
    variance: float
    sample_count: int


def gof_statistics(sp: SpacingSet) -> GofReport:
    """Goodness of fit of the spacings against the order-ell Poisson law.

    ``ks`` is the maximum over sample points of |ECDF - Poisson CDF| (the
    ECDF evaluated right-continuously at the samples), read off the sorted
    spacings of the few buckets that can hold it (:func:`_ks_distance`).
    ``chi2`` is Pearson's statistic of the 50 histogram bins against the
    overlay; ``mean`` and ``variance`` are taken over ``sp.values`` in their
    own order and equal ``np.mean`` and ``np.var(ddof=1)``.  Non-finite
    spacings and an ``ell`` outside 1..113 raise :class:`DomainError`, as in
    :func:`histogram`, and so does a mean or variance that overflows a double.
    """
    values = sp.values
    n = integer_arg(values.size, "spacing count of fit statistics", lo=100)
    ks = _ks_distance(sp, integer_arg(sp.ell, "ell", 1, _MAX_HIST_ORDER))
    hist = histogram(sp)
    live = hist.overlay > 0
    chi2 = float(np.sum((hist.counts[live] - hist.overlay[live]) ** 2
                        / hist.overlay[live]))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.add.reduce(values) / n)
        variance = float(_pairwise_sum(values, mean) / (n - 1))
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise DomainError("the mean or variance of the spacings overflows a double")
    return GofReport(ks, chi2, mean, variance, n)


def _ks_distance(sp: SpacingSet, ell: int) -> float:
    """max |ECDF - Poisson CDF| over the spacings, with the right-continuous
    ECDF evaluated at the ends of runs of tied values.

    A bucket's values have ECDF ranks between one past the count of all
    earlier buckets and its own cumulative count, which its last value
    attains; their CDF lies between the CDF at the bucket's two edges (1 at
    the far edge of the bucket past ``5*ell``), each widened by
    ``_KS_SLACK``.  That bounds each bucket's largest deviation from above,
    and at its last value from below.  Only the buckets whose upper bound
    reaches the largest lower bound, and the one below 0 (no CDF bound holds
    there), are gathered in a second blocked pass, sorted and evaluated
    exactly, so ``ks`` is the same double a full sort would give.  That pass
    compares each spacing with the range of the picked buckets and indexes
    only those inside it.
    """
    values = sp.values
    n = values.size
    counts = sp._bucket_counts
    fine = HIST_BIN_COUNT * _BUCKETS_PER_BIN
    cdf = poisson_cdf(ell, np.arange(fine + 1) * (5.0 * ell / fine))
    low = cdf - _KS_SLACK  # over buckets 1 .. fine + 1
    high = np.append(cdf[1:], 1.0) + _KS_SLACK
    ranks = np.cumsum(counts)  # rank + 1 of each bucket's last value
    last = ranks[1:] / n
    upper = np.maximum(last - low, high - (ranks[:-1] + 1) / n)
    lower = np.maximum(last - high, low - last)
    filled = counts[1:] > 0
    picked = np.concatenate(([counts[0] > 0],
                             filled & (upper >= np.max(lower, where=filled, initial=0.0))))
    # The picked buckets' spacings lie in [lo, hi): their nominal edges
    # widened by one bucket, far more than the edges' rounding.  Only those
    # spacings are indexed exactly.
    first, final = np.flatnonzero(picked)[[0, -1]]
    width = 5.0 * ell / fine
    lo = (first - 2) * width if first > 0 else -np.inf
    hi = (final + 1) * width if final <= fine else np.inf

    def gather(start):
        block = values[start:start + _BLOCK]
        near = np.compress((block >= lo) & (block < hi), block)
        return np.compress(picked[_bucket_index(near, ell)], near)

    sample = np.sort(np.concatenate(_pointset._map_blocks(gather, range(0, n, _BLOCK))))
    # Ranks skipped before a picked bucket: the counts of unpicked ones.
    skipped = np.cumsum(np.where(picked, 0, counts))
    ends = np.append(np.flatnonzero(sample[1:] != sample[:-1]), sample.size - 1)
    ecdf = (ends + 1 + skipped[_bucket_index(sample[ends], ell)]) / n
    return float(np.max(np.abs(ecdf - poisson_cdf(ell, sample[ends]))))


def _pairwise_sum(values: np.ndarray, center: float, lo: int = 0, hi: int | None = None):
    """Sum of the squared deviations of ``values[lo:hi]`` from ``center``,
    added in the order ``np.add.reduce`` adds them.

    numpy halves a run of more than 128 values at its midpoint rounded down
    to a multiple of 8 and adds the two halves' sums.  This follows that
    halving down to segments of at most ``_BLOCK`` values and sums each with
    numpy, so the total is numpy's bit for bit.
    """
    hi = values.size if hi is None else hi
    if hi - lo > max(_BLOCK, 128):
        half = (hi - lo) // 2
        half -= half % 8
        return (_pairwise_sum(values, center, lo, lo + half)
                + _pairwise_sum(values, center, lo + half, hi))
    part = values[lo:hi] - center
    part *= part
    return np.add.reduce(part)


# ---------------------------------------------------------------------------
# pair correlations


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    s_grid: np.ndarray
    r_values: np.ndarray
    point_count: int


def _validate_grid(s_grid) -> np.ndarray:
    """``s_grid`` as a nonempty, nonnegative ``pointset._sorted_finite`` array."""
    grid = _pointset._sorted_finite(s_grid, "s grid")
    integer_arg(grid.size, "s grid size", lo=1)
    if grid[0] < 0:
        raise DomainError("s values must be nonnegative")
    return grid


def _r2(window: np.ndarray, grid: np.ndarray, width: float) -> np.ndarray:
    """R2 over ``grid``: ordered pairs within ``s * width / m`` per point."""
    m = window.size
    with np.errstate(over="ignore"):  # a difference past a double is past every threshold
        return 2.0 * _grid_counts(window, grid * width / m) / m


def pair_correlation(source, s_grid) -> CorrelationCurve:
    """R2(s): ordered pairs within ``s / n_points``, divided by ``n_points``.

    One blocked pass over the sorted values counts every grid point at once:
    it compares the differences of values up to 16 indices apart with each
    threshold, and searches only for the rows whose window reaches further.
    A pair counts when its float difference is at most ``s / n_points``.
    At s = 0 only exact float coincidences count; certified coincidence
    analysis for algebraic parameters belongs to :func:`coincidence_rate` on
    the exact backend.
    """
    values = _pointset._sorted_finite(source)
    grid = _validate_grid(s_grid)
    n = integer_arg(values.size, "point count", lo=1)
    return CorrelationCurve(grid, _r2(values, grid, 1.0), n)


def pair_correlation_interval(source, interval, s_grid) -> CorrelationCurve:
    """Interval-restricted pair correlation over the points in J = [a, b).

    Threshold ``s * |J| / count(J)`` and normalization by ``count(J)``, so a
    uniform occupancy again gives the Poisson slope 2s.  J is half-open on
    the right (immaterial for b = 1: STANDARD support stays below 1).
    """
    values = _pointset._sorted_finite(source)
    if isinstance(source, PointSet) and source.form is not Form.STANDARD:
        raise DomainError("interval restriction expects STANDARD form (support in [0,1])")
    a, b = interval_arg(interval, "interval")
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    grid = _validate_grid(s_grid)
    lo, hi = np.searchsorted(values, (a, b))
    window = values[lo:hi]
    m = integer_arg(window.size, f"point count in [{a}, {b}]", lo=1)
    return CorrelationCurve(grid, _r2(window, grid, b - a), m)


def coincidence_rate(eps: ExactPointSet) -> float:
    """Exact R2(0): ordered coincident pairs per point, ``sum m(m-1) / 2**N``."""
    m = eps.multiplicities
    # sum m = 2**N, so sum m(m-1) = m.m - 2**N; m.m <= (2**N)**2 stays exact in
    # int64, and no m - 1 is built over a level of all-distinct vectors.
    return (int(np.dot(m, m)) - 2 ** eps.levels) / float(2 ** eps.levels)


# ---------------------------------------------------------------------------
# gap statistics


@dataclass(frozen=True)
class GapReport:
    """Smallest/largest consecutive gaps of a point set.

    ``min_gap`` ignores gaps at or below ``distinct_tol`` (float shadows of
    exact coincidences).  ``ejk_prediction_match`` records whether the largest
    interior gap sits at the Erdos-Joo-Komornik location ``1 + lam^2 + ... +
    lam^(N-3)`` with size ``lam^(N-1)`` (meaningful for odd N and lambda below
    the golden ratio).  The point set's lambda, level and form are not
    repeated here; the caller has them.
    """

    distinct_tol: float
    min_gap: float
    max_gap: float
    max_gap_index: int
    max_gap_left: float
    interior_max_gap: float | None
    interior_max_left: float | None
    ejk_prediction_match: bool


def gaps(ps: PointSet, distinct_tol: float | None = None) -> GapReport:
    """Gap statistics of consecutive sorted values.

    PRIMED form is the natural scale: there the largest gap equals
    ``lam**(N-1)`` (the set starts 0, lam^(N-1)).  For STANDARD form the
    reference quantities are scaled by ``(1 - lam)``.  ``distinct_tol``
    defaults to :meth:`PointSet.distinct_tolerance`; a negative or
    non-finite one raises :class:`DomainError`, as does a set of fewer than
    two points.  Maximal gaps are located at their first occurrence; the
    interior ones exclude the first and last gap.
    """
    values = ps.values
    integer_arg(values.size, "point count of gaps", lo=2)
    distinct_tol = real_arg(ps.distinct_tolerance() if distinct_tol is None else distinct_tol,
                            "distinct_tol", -math.inf, math.inf)
    if distinct_tol < 0:
        raise DomainError(f"distinct_tol must be >= 0, got {distinct_tol}")
    last = values.size - 2  # index of the last gap

    def scan(start):
        """The block's smallest gap above ``distinct_tol``, its first largest
        gap with that gap's index, and its first largest interior gap with
        that gap's left end (None if it has no interior gap)."""
        block = values[start:start + _BLOCK + 1]  # one value of look-ahead
        diffs = np.diff(block)
        low = float(np.min(diffs, where=diffs > distinct_tol, initial=np.inf))
        k = int(np.argmax(diffs))
        first = int(start == 0)  # the first and last gaps are not interior
        inner = diffs[first:last - start]
        if not inner.size:
            return low, float(diffs[k]), start + k, None
        j = int(np.argmax(inner))
        return low, float(diffs[k]), start + k, (float(inner[j]), float(block[first + j]))

    min_gap, max_gap = math.inf, -math.inf
    max_idx = 0
    interior_max = interior_left = None
    # In block order, a later block's maximum replaces only a smaller one.
    for low, top, index, interior in _pointset._map_blocks(
            scan, range(0, values.size - 1, _BLOCK)):
        min_gap = min(min_gap, low)
        if top > max_gap:
            max_gap, max_idx = top, index
        if interior is not None and (interior_max is None or interior[0] > interior_max):
            interior_max, interior_left = interior
    if min_gap == math.inf:
        min_gap = 0.0
    ejk = interior_max is not None and _ejk_match(ps, interior_max)
    return GapReport(distinct_tol, min_gap, max_gap, max_idx,
                     float(values[max_idx]), interior_max, interior_left, ejk)


def _ejk_match(ps: PointSet, interior_max: float) -> bool:
    lam, n = ps.lam, ps.levels
    if n < 3 or n % 2 == 0 or not lam < GOLDEN_RATIO:
        return False
    expected_left = 1.0
    power = 1.0
    for _ in range((n - 3) // 2):
        power *= lam * lam
        expected_left += power
    expected_gap = lam ** (n - 1)
    scale = (1.0 - lam) if ps.form is Form.STANDARD else 1.0
    expected_left *= scale
    expected_gap *= scale
    # Gaps are differences of values up to the support maximum, so their
    # rounding error scales with the ulp of the values, not of the gap.
    tol_gap = 8.0 * n * np.spacing(float(ps.values[-1]))
    if abs(interior_max - expected_gap) > tol_gap:
        return False
    # The mirror gap ties the maximum (the set is symmetric), so accept any
    # maximal interior gap whose left endpoint sits at the predicted spot.
    # Only left endpoints within 2*tol_gap of it can qualify; tol_gap is far
    # wider than the rounding of the window ends.
    values = ps.values
    lo, hi = np.searchsorted(values, [expected_left - 2.0 * tol_gap,
                                      expected_left + 2.0 * tol_gap])
    lo, hi = max(int(lo), 1), min(int(hi), values.size - 2)  # interior gaps only
    lefts = values[lo:hi]
    maximal = values[lo + 1:hi + 1] - lefts >= interior_max - tol_gap
    return bool(np.any(maximal & (np.abs(lefts - expected_left) <= tol_gap)))


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits, lossless for doubles)


def write_histogram_csv(hist: Histogram, path) -> None:
    with open(path, "w") as f:
        f.write("bin_left,bin_right,count,overlay\n")
        for i in range(HIST_BIN_COUNT):
            f.write(f"{format(hist.bin_edges[i], '.17g')},"
                    f"{format(hist.bin_edges[i + 1], '.17g')},"
                    f"{hist.counts[i]},"
                    f"{format(hist.overlay[i], '.17g')}\n")


def write_curve_csv(curve: CorrelationCurve, path) -> None:
    with open(path, "w") as f:
        f.write("s,r2\n")
        for s, r in zip(curve.s_grid, curve.r_values):
            f.write(f"{format(s, '.17g')},{format(r, '.17g')}\n")
