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
* The histogram and the KS statistic both read one sorted copy of the
  spacings (``SpacingSet.ordered``): bin counts come from searching the 51
  bin starts in it, and the ECDF is read at the ends of its runs of tied
  values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SizeCapError
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


# ---------------------------------------------------------------------------
# sliding-window pair counter

_COUNT_BLOCK = 1 << 15  # values per searchsorted call; bounds the temporaries


def _window_count(values: np.ndarray, thr: float) -> int:
    """Index pairs i < j of a sorted finite array with ``values[j] - values[i] <= thr``.

    For each i, ``searchsorted`` finds the last j with ``values[j] <=
    values[i] + thr``.  Rounding of that sum can leave j one value, or one run
    of tied values, off the exact predicate, so j is then stepped back and
    forward until the predicate holds for j and fails for j + 1.  The
    predicate is monotone in j because float subtraction is, and it holds at
    j = i since ``thr >= 0``.
    """
    n = values.size
    total = 0
    for start in range(0, n, _COUNT_BLOCK):
        v = values[start:start + _COUNT_BLOCK]
        j = np.searchsorted(values, v + thr, side="right") - 1
        k = np.arange(v.size)
        while True:
            k = k[values[j[k]] - v[k] > thr]
            if not k.size:
                break
            j[k] -= 1
        k = np.arange(v.size)
        while True:
            k = k[j[k] < n - 1]
            k = k[values[j[k] + 1] - v[k] <= thr]
            if not k.size:
                break
            j[k] += 1
        total += int((j - np.arange(start, start + v.size)).sum())
    return total


def _as_sorted_values(source) -> np.ndarray:
    if isinstance(source, PointSet):
        return source.values
    values = np.ascontiguousarray(source, dtype=np.float64)
    if values.ndim != 1:
        raise DomainError("expected a 1-D sequence of values")
    _pointset._check_sorted_finite(values)
    return values


# ---------------------------------------------------------------------------
# spacings


@dataclass(frozen=True)
class SpacingSet:
    """Point-count-normalized order-ell spacings of a sorted sequence.

    ``ordered`` is a read-only sorted copy of ``values``, built on first
    access and kept; ``values`` must not change after that.  :func:`spacings`
    returns read-only values.
    """

    ell: int
    values: np.ndarray  # length point_count - ell, all >= 0
    point_count: int

    @cached_property
    def ordered(self) -> np.ndarray:
        """``values`` sorted ascending (read-only)."""
        ordered = np.sort(self.values)
        ordered.flags.writeable = False
        return ordered


def spacings(source, ell: int) -> SpacingSet:
    """Order-ell spacings ``n_points * (x[n+ell] - x[n])`` of a sorted sequence.

    ``source`` is a :class:`PointSet` or any sorted finite 1-D array, such as
    the output of :func:`rescale`.
    """
    values = _as_sorted_values(source)
    n = values.size
    if not 1 <= ell < n:
        raise DomainError(f"ell must lie in 1..{n - 1}, got {ell}")
    sp = (values[ell:] - values[:-ell]) * float(n)
    sp.flags.writeable = False
    return SpacingSet(ell, sp, n)


# ---------------------------------------------------------------------------
# rescaling CDFs

_SQRT2 = math.sqrt(2.0)
_CDF_A = 1.5 * _SQRT2 + 2.0
_CDF_B = _SQRT2 - 1.0
EMPIRICAL_KNOTS = 4096  # equally spaced knots of every empirical CDF


@dataclass(frozen=True, eq=False)
class CdfModel:
    """Nondecreasing CDF used to push a point set toward the uniform lattice.

    With knots it linearly interpolates an empirical CDF through ``(knots_x,
    knots_y)`` (:func:`cdf_empirical` builds ``EMPIRICAL_KNOTS`` = 4096 of
    them); without knots it is the closed form of :func:`cdf_sqrt_half` on
    [0, 1].  ``lam`` and ``level`` name the point set it was built from.
    Inputs must be finite and ascending (a 0-d input is one value), or
    :class:`DomainError` is raised.  Outside the support the model clamps to
    its end values; :meth:`evaluate` also counts the clamped inputs.
    """

    lam: float | None = None
    level: int | None = None
    knots_x: np.ndarray | None = None
    knots_y: np.ndarray | None = None

    @property
    def support(self) -> tuple[float, float]:
        if self.knots_x is None:
            return (0.0, 1.0)
        return (float(self.knots_x[0]), float(self.knots_x[-1]))

    def __call__(self, x):
        return self.evaluate(x)[0]

    def evaluate(self, x):
        """``(F(x), count of x outside the support)``; the support ends and the
        closed form's two joins split the sorted ``x`` into one slice per piece."""
        x = np.asarray(x, dtype=np.float64)
        v = _as_sorted_values(np.atleast_1d(x))
        lo, hi = self.support
        below = int(np.searchsorted(v, lo, side="left"))
        inside = int(np.searchsorted(v, hi, side="right"))
        if self.knots_x is not None:
            y = np.interp(v, self.knots_x, self.knots_y)
        else:
            left = int(np.searchsorted(v, _CDF_B, side="right"))
            right = int(np.searchsorted(v, 1.0 - _CDF_B, side="left"))
            y = np.empty_like(v)
            y[:below] = 0.0
            t = v[below:left]
            y[below:left] = _CDF_A * t * t / 2.0
            t = v[left:right]
            y[left:right] = _CDF_A * _CDF_B * _CDF_B / 2.0 + _CDF_A * _CDF_B * (t - _CDF_B)
            t = v[right:inside]
            y[right:inside] = 1.0 - _CDF_A * (1.0 - t) ** 2 / 2.0
            y[inside:] = 1.0
        return y.reshape(x.shape), below + v.size - inside


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
    if level > _pointset.MAX_EXACT_LEVELS:
        raise SizeCapError(f"empirical CDF level capped at {_pointset.MAX_EXACT_LEVELS}")
    values = _pointset.generate(lam, level, Form.STANDARD).values
    xs = np.linspace(0.0, float(values[-1]), EMPIRICAL_KNOTS)
    counts = np.searchsorted(values, xs, side="right")
    # Rank-based normalization pins F(min)=0 and F(max)=1 exactly; counts is
    # nondecreasing, so the knot values are monotone as interp requires.
    ys = (counts - 1) / float(values.size - 1)
    return CdfModel(lam=float(lam), level=level, knots_x=xs, knots_y=ys)


def rescale(ps: PointSet, model: CdfModel) -> np.ndarray:
    """Apply the CDF elementwise to a STANDARD-form point set.

    The point set's values are ascending, as the model requires; an
    empirical model interpolates its 4096 knots.  The output
    stays sorted because the model is nondecreasing; this is checked rather
    than re-sorted, and output that is not finite and ascending raises
    :class:`DomainError`.
    """
    if ps.form is Form.PRIMED:
        raise DomainError("rescale needs STANDARD form (support in [0, 1]); "
                          "regenerate with Form.STANDARD")
    if (model.lam, model.level) == (ps.lam, ps.levels):
        warnings.warn(
            "rescaling a point set by its own empirical CDF degenerates to the "
            "uniform lattice; build the CDF at a different level",
            UserWarning, stacklevel=2)
    out = model(ps.values)
    _pointset._check_sorted_finite(out)
    return out


# ---------------------------------------------------------------------------
# histogram and Poisson reference


@dataclass(frozen=True)
class Histogram:
    """50-bin spacing histogram on [0, 5*ell] with a Poisson overlay."""

    ell: int
    bin_edges: np.ndarray  # length 51
    counts: np.ndarray  # int64, length 50
    overlay: np.ndarray  # expected Poisson count per bin, length 50
    overflow: int


def poisson_reference(ell: int, s):
    """Poisson order-ell spacing density ``s**(ell-1) * exp(-s) / (ell-1)!``.

    The density is at most 1, so a non-finite result (a factor overflowed)
    raises :class:`DomainError`."""
    if not 1 <= ell <= 171:  # (ell-1)! must fit a double
        raise DomainError(f"ell must lie in 1..171, got {ell}")
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise DomainError("s must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        out = s ** (ell - 1) * np.exp(-s) / math.factorial(ell - 1)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"order-{ell} Poisson density overflows a double")
    return float(out) if out.ndim == 0 else out


def poisson_cdf(ell: int, s):
    """CDF of the order-ell Poisson spacing law (a Gamma(ell, 1) variable).

    Exactly 1.0 where ``exp(-s)`` underflows and ``s >= 2*ell``, since the
    upper tail there is below 1e-50; other non-finite results raise
    :class:`DomainError`."""
    s = np.asarray(s, dtype=np.float64)
    partial = np.zeros_like(s)
    term = np.ones_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(ell):
            if j > 0:
                term = term * s / j
            partial += term
        out = 1.0 - np.exp(-s) * partial
        if not np.all(np.isfinite(out)):
            out = np.where((np.exp(-s) == 0.0) & (s >= 2 * ell), 1.0, out)
            if not np.all(np.isfinite(out)):
                raise DomainError(f"order-{ell} Poisson CDF is not finite at these s")
    return float(out) if out.ndim == 0 else out


def _finite_ordered(sp: SpacingSet) -> np.ndarray:
    """``sp.ordered``, after checking that the spacings are finite.

    Sorting puts -inf first and +inf and NaN last, so the two ends decide.
    """
    ordered = sp.ordered
    if ordered.size and not np.all(np.isfinite(ordered[[0, -1]])):
        raise DomainError("spacings must be finite")
    return ordered


def _bin_start(k: int, width_units: float) -> float:
    """Least double ``v`` with ``floor(v * HIST_BIN_COUNT / width_units) >= k``.

    The bin index is monotone in ``v``, so this is where bin k starts.  The
    rounded ``k * width_units / HIST_BIN_COUNT`` can sit an ulp or two off
    that boundary, so it is stepped until the index changes exactly there.
    """
    def index(v):
        return math.floor(v * float(HIST_BIN_COUNT) / width_units)

    v = k * width_units / HIST_BIN_COUNT
    while index(v) < k:
        v = math.nextafter(v, math.inf)
    while index(math.nextafter(v, -math.inf)) >= k:
        v = math.nextafter(v, -math.inf)
    return v


def histogram(sp: SpacingSet) -> Histogram:
    """Bin the spacings into 50 left-closed bins of width 0.1*ell on [0, 5*ell].

    A spacing ``v`` goes in bin ``floor(v * 50 / (5*ell))`` (scaled first, so
    exact bin-edge values such as a lattice spacing of 1.0 land in the bin
    they start).  The counts come from one ``searchsorted`` of the 51 exact
    bin starts in the sorted spacings; spacings whose index falls outside
    0..49 (negative ones, and those at or past ``5*ell``) are the overflow.
    Non-finite spacings, and ``ell >= 114`` (where the overlay overflows a
    double), raise :class:`DomainError`.

    The overlay is the expected Poisson count per bin,
    ``0.1 * ell * point_count * P_ell(bin center)`` (bin width times sample
    size times density).
    """
    ell = sp.ell
    width_units = 5.0 * ell
    ordered = _finite_ordered(sp)
    starts = [_bin_start(k, width_units) for k in range(HIST_BIN_COUNT + 1)]
    counts = np.diff(np.searchsorted(ordered, starts, side="left")).astype(np.int64)
    overflow = int(ordered.size - counts.sum())
    edges = np.linspace(0.0, width_units, HIST_BIN_COUNT + 1)
    centers = (np.arange(HIST_BIN_COUNT) + 0.5) * (0.1 * ell)
    overlay = 0.1 * ell * sp.point_count * poisson_reference(ell, centers)
    return Histogram(ell, edges, counts, overlay, overflow)


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
    ECDF evaluated right-continuously at the samples).  Tied samples share
    the ECDF value at the end of their run in ``sp.ordered``, so only run
    ends are evaluated.  ``chi2`` is Pearson's statistic of the 50 histogram
    bins against the overlay; ``mean`` and ``variance`` are taken over
    ``sp.values`` in their own order.  Non-finite spacings and
    ``ell >= 114`` raise :class:`DomainError`, as in :func:`histogram`.
    """
    n = sp.values.size
    if n < 100:
        raise DomainError(f"need at least 100 spacings for fit statistics, got {n}")
    ordered = _finite_ordered(sp)
    ends = np.append(np.flatnonzero(ordered[1:] != ordered[:-1]), n - 1)
    ecdf = (ends + 1) / n
    ks = float(np.max(np.abs(ecdf - poisson_cdf(sp.ell, ordered[ends]))))
    hist = histogram(sp)
    live = hist.overlay > 0
    chi2 = float(np.sum((hist.counts[live] - hist.overlay[live]) ** 2
                        / hist.overlay[live]))
    return GofReport(ks, chi2, float(np.mean(sp.values)),
                     float(np.var(sp.values, ddof=1)), n)


# ---------------------------------------------------------------------------
# pair correlations


@dataclass(frozen=True)
class CorrelationCurve:
    s_grid: np.ndarray
    r_values: np.ndarray
    point_count: int


def _validate_grid(s_grid) -> np.ndarray:
    grid = np.asarray(s_grid, dtype=np.float64)
    if grid.ndim == 0:
        grid = grid.reshape(1)
    if grid.size == 0:
        raise DomainError("empty s grid")
    if not np.all(np.isfinite(grid)):
        raise DomainError("s values must be finite")
    if np.any(grid < 0):
        raise DomainError("s values must be nonnegative")
    if np.any(np.diff(grid) < 0):
        raise DomainError("s grid must be ascending")
    return grid


def _r2(window: np.ndarray, grid: np.ndarray, width: float) -> np.ndarray:
    """R2 over ``grid``: ordered pairs within ``s * width / m`` per point."""
    m = window.size
    return np.array([2.0 * _window_count(window, s * width / m) / m for s in grid])


def pair_correlation(source, s_grid) -> CorrelationCurve:
    """R2(s): ordered pairs within ``s / n_points``, divided by ``n_points``.

    One blocked ``searchsorted`` pass over the sorted values per grid point.
    At s = 0 only exact float coincidences count; certified coincidence
    analysis for algebraic parameters belongs to :func:`coincidence_rate` on
    the exact backend.
    """
    values = _as_sorted_values(source)
    grid = _validate_grid(s_grid)
    n = values.size
    if n == 0:
        raise DomainError("no points to correlate")
    return CorrelationCurve(grid, _r2(values, grid, 1.0), n)


def pair_correlation_interval(source, interval, s_grid) -> CorrelationCurve:
    """Interval-restricted pair correlation over the points in J = [a, b).

    Threshold ``s * |J| / count(J)`` and normalization by ``count(J)``, so a
    uniform occupancy again gives the Poisson slope 2s.  J is half-open on
    the right (immaterial for b = 1: STANDARD support stays below 1).
    """
    values = _as_sorted_values(source)
    if isinstance(source, PointSet) and source.form is not Form.STANDARD:
        raise DomainError("interval restriction expects STANDARD form (support in [0,1])")
    a, b = float(interval[0]), float(interval[1])
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    grid = _validate_grid(s_grid)
    lo = int(np.searchsorted(values, a, side="left"))
    hi = int(np.searchsorted(values, b, side="left"))
    window = values[lo:hi]
    m = window.size
    if m == 0:
        raise DomainError(f"no points of the set fall in [{a}, {b}]")
    return CorrelationCurve(grid, _r2(window, grid, b - a), m)


def coincidence_rate(eps: ExactPointSet) -> float:
    """Exact R2(0): ordered coincident pairs per point, ``sum m(m-1) / 2**N``."""
    m = eps.multiplicities
    # m <= 2**MAX_EXACT_LEVELS, so the int64 dot product is exact.
    return int(np.dot(m, m - 1)) / float(2 ** eps.levels)


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
    non-finite one raises :class:`DomainError`.
    """
    if distinct_tol is None:
        distinct_tol = ps.distinct_tolerance()
    if not 0 <= distinct_tol < math.inf:
        raise DomainError(f"distinct_tol must be finite and >= 0, got {distinct_tol}")
    diffs = np.diff(ps.values)
    min_gap = float(np.min(diffs, where=diffs > distinct_tol, initial=np.inf))
    if min_gap == np.inf:
        min_gap = 0.0
    max_idx = int(np.argmax(diffs))
    max_gap = float(diffs[max_idx])

    interior_max = interior_left = None
    ejk = False
    if diffs.size >= 3:
        interior = diffs[1:-1]
        k = int(np.argmax(interior))
        interior_max = float(interior[k])
        interior_left = float(ps.values[1 + k])
        ejk = _ejk_match(ps, diffs, interior_max)
    return GapReport(float(distinct_tol), min_gap, max_gap, max_idx,
                     float(ps.values[max_idx]), interior_max, interior_left, ejk)


def _ejk_match(ps: PointSet, diffs: np.ndarray, interior_max: float) -> bool:
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
    tol_left = tol_gap
    if abs(interior_max - expected_gap) > tol_gap:
        return False
    # The mirror gap ties the maximum (the set is symmetric), so accept any
    # maximal interior gap whose left endpoint sits at the predicted spot.
    candidates = np.nonzero(diffs[1:-1] >= interior_max - tol_gap)[0] + 1
    lefts = ps.values[candidates]
    return bool(np.any(np.abs(lefts - expected_left) <= tol_left))


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
