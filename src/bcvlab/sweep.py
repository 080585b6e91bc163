"""Parameter sweeps over lambda.

Averaged pair-correlation integrals, min-gap exceedance scans, empirical
transversality constants for random {0,±1} polynomials, and a finite-depth
truncation of the nested-interval construction of parameters with abnormally
strong pair correlation.

All sweeps are deterministic given their configuration: Monte Carlo sampling
records its 64-bit seed, and samples are worked through and reduced in
sample order on the calling thread.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .algebraic import defining_poly, nearest_zero_above, poly_eval
from .errors import DomainError, SizeCapError, integer_arg, interval_arg, real_arg
from .pointset import MAX_FLOAT_LEVELS, Form, _float_array, exact_levels, generate
# Looked up here by name by the benchmark tracer (bench/tracing.py).
from .pointset import generate_exact  # noqa: F401
from .stats import _validate_grid, coincidence_rate, gaps, pair_correlation

__all__ = [
    "SweepConfig",
    "SweepReport",
    "MinGapScan",
    "TransversalityReport",
    "AttractingParameter",
    "averaged_pair_correlation",
    "min_gap_scan",
    "sublevel_ratio",
    "transversality_check",
    "construct_attracting_parameter",
]


# Most float64 values a sweep allocates before its loop (grid points, random
# coefficients, sampled lambdas times levels, samples times s values).  A
# degree-30 sublevel_ratio on 2**22 and 2**24 points peaked at 126 and 414 MB
# VmHWM, in 0.95 and 3.2 s; an averaged sweep of 2**20 samples at N = 1 and
# one s value at 54 MB, in 91 s (2-CPU host).
_MAX_POINTS = 1 << 24


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of an averaged pair-correlation sweep.

    ``quadrature`` is "midpoint" (deterministic, CI-friendly) or "montecarlo"
    (uniform samples from a recorded seed).  A degenerate interval with
    ``sample_count = 1`` is allowed and reduces to a single pair-correlation
    evaluation.  ``levels`` lies in 1..``MAX_FLOAT_LEVELS``, as for
    ``generate``.  The integers are kept as Python ints and ``s_grid`` as a
    tuple of Python floats.
    """

    interval: tuple[float, float]
    levels: int
    s_grid: tuple[float, ...]
    sample_count: int
    quadrature: str = "midpoint"
    seed: int | None = None

    def __post_init__(self):
        a, b = interval_arg(self.interval, "interval")
        if not (0.5 <= a <= b < 1.0):
            raise DomainError(f"interval must satisfy 0.5 <= a <= b < 1, got [{a}, {b}]")
        levels = integer_arg(self.levels, "levels", 1, MAX_FLOAT_LEVELS, SizeCapError)
        count = integer_arg(self.sample_count, "sample_count", lo=1)
        # Past 2**53, i + 0.5 is not exact in a double.
        integer_arg(count, "sample_count", hi=2**53, error=SizeCapError)
        if self.quadrature not in ("midpoint", "montecarlo"):
            raise DomainError(f"unknown quadrature {self.quadrature!r}")
        grid = tuple(_validate_grid(self.s_grid).tolist())
        # Keep what was checked, as the Python numbers that JSON writes.
        for name, value in (("interval", (a, b)), ("levels", levels), ("s_grid", grid),
                            ("sample_count", count)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Per-s averages of R2 over the sampled parameters.

    ``mean`` approximates the interval *mean* ``(1/|I|) \\int_I R2 ds`` (the raw
    integral is mean times the interval width).  ``c_hat``/``C_hat`` are the
    extreme slopes ``mean(s)/s`` over the positive grid points, or None when
    the grid has none.
    """

    config: SweepConfig
    seed: int | None
    lambdas: np.ndarray
    s_grid: np.ndarray
    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    c_hat: float | None
    C_hat: float | None
    curves: np.ndarray  # one R2 row per sample, samples x grid

    def to_json_dict(self) -> dict:
        per_s = [
            {"s": float(s), "mean": float(m), "min": float(lo), "max": float(hi)}
            for s, m, lo, hi in zip(self.s_grid, self.mean, self.min, self.max)
        ]
        return {
            "config": {
                "interval": [self.config.interval[0], self.config.interval[1]],
                "levels": self.config.levels,
                "s_grid": list(self.config.s_grid),
                "sample_count": self.config.sample_count,
                "quadrature": self.config.quadrature,
                "form": Form.STANDARD.value,
            },
            "seed": self.seed,
            "per_s": per_s,
            "c_hat": self.c_hat,
            "C_hat": self.C_hat,
        }


def _seeded_uniform(a: float, b: float, n: int, seed: int | None):
    """``n`` uniform samples from [a, b) and their seed (a fresh 64-bit one if
    None); a negative or non-integer seed raises :class:`DomainError`."""
    seed = (int.from_bytes(os.urandom(8), "little") if seed is None
            else integer_arg(seed, "seed", lo=0))
    return a + (b - a) * np.random.default_rng(seed).random(n), seed


def averaged_pair_correlation(cfg: SweepConfig, progress: bool = False) -> SweepReport:
    """Average R2(s, lambda, 2**levels) over sampled lambdas, per grid point.

    Samples run in order on the calling thread, each writing its row of one
    preallocated ``curves`` array, so at most one point set is alive at once.
    """
    a, b = cfg.interval
    n = cfg.sample_count
    grid = np.asarray(cfg.s_grid, dtype=np.float64)
    integer_arg(n * grid.size, "samples times s values", hi=_MAX_POINTS, error=SizeCapError)
    if cfg.quadrature == "midpoint":
        lambdas, seed = a + (np.arange(n) + 0.5) * (b - a) / n, None
    else:
        lambdas, seed = _seeded_uniform(a, b, n, cfg.seed)

    curves = np.empty((n, grid.size), dtype=np.float64)  # one R2 row per sample
    step = max(1, n // 10)
    t0 = time.perf_counter()
    for i, lam in enumerate(lambdas, 1):
        curves[i - 1] = pair_correlation(generate(lam, cfg.levels), grid).r_values
        if progress and i % step == 0:
            print(f"sweep: {i}/{n} samples "
                  f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    mean = curves.mean(axis=0)
    positive = grid > 0
    slopes = mean[positive] / grid[positive]
    c_hat = float(slopes.min()) if slopes.size else None
    C_hat = float(slopes.max()) if slopes.size else None
    return SweepReport(cfg, seed, lambdas, grid, mean,
                       curves.min(axis=0), curves.max(axis=0), c_hat, C_hat,
                       curves)


# ---------------------------------------------------------------------------
# min-gap exceedance scan


@dataclass(frozen=True, eq=False)
class MinGapScan:
    lambdas: np.ndarray
    min_gaps: np.ndarray  # shape (len(lambdas), len(levels))
    exceedances: tuple[tuple[int, ...], ...]  # per lambda: levels with g_N > alpha_N
    seed: int | None  # None for explicit lambdas


def min_gap_scan(interval, lambda_samples, level_range, alpha,
                 seed: int | None = 0) -> MinGapScan:
    """Scan which levels have smallest gap above a summable threshold alpha(N).

    ``lambda_samples`` is either a count of seeded uniform samples from
    ``interval`` (a fresh seed is drawn and recorded when ``seed`` is None)
    or an explicit sequence of lambdas.  Each smallest gap is taken over the
    PRIMED point set with the default tolerance of :func:`gaps`.  The caller
    chooses ``alpha`` so that ``sum 3**N * alpha(N)`` converges (e.g.
    ``alpha = lambda n: 3.0**-n * n**-1.1``); exceedance of every sampled
    lambda at some level is the finite surrogate of the almost-everywhere
    statement.  Sampling needs ``0 < a <= b < 1`` and at most ``_MAX_POINTS``
    values over all levels; all of it is checked before any work.
    """
    a, b = interval_arg(interval, "interval")
    if not np.iterable(level_range):
        raise DomainError(f"level_range must be a sequence, got {level_range!r}")
    levels = tuple(integer_arg(n, "levels", 1, MAX_FLOAT_LEVELS, SizeCapError) for n in level_range)
    integer_arg(len(levels), "level count", lo=1)
    if isinstance(lambda_samples, (int, np.integer)):
        if not 0.0 < a <= b < 1.0:
            raise DomainError(f"sampling needs 0 < a <= b < 1, got [{a}, {b}]")
        count = integer_arg(lambda_samples, "lambda_samples", lo=0)
        integer_arg(count * len(levels), "sampled values", hi=_MAX_POINTS, error=SizeCapError)
        lambdas, used_seed = _seeded_uniform(a, b, count, seed)
    else:
        lambdas, used_seed = _float_array(lambda_samples, "lambda_samples"), None
        if lambdas.ndim != 1:
            raise DomainError("lambda_samples must be a count or a 1-D sequence of lambdas")
    alphas = np.array([alpha(n) for n in levels], dtype=np.float64)
    table = np.empty((lambdas.size, len(levels)), dtype=np.float64)
    exceed = []
    for i, lam in enumerate(lambdas):
        hit = []
        for j, n in enumerate(levels):
            report = gaps(generate(lam, n, Form.PRIMED))
            table[i, j] = report.min_gap
            if report.min_gap > alphas[j]:
                hit.append(n)
        exceed.append(tuple(hit))
    return MinGapScan(lambdas, table, tuple(exceed), used_seed)


# ---------------------------------------------------------------------------
# transversality measurement


@dataclass(frozen=True, eq=False)
class TransversalityReport:
    """Measured ``Leb{lambda in I : |g(lambda)| <= rho} / rho`` ratios.

    ``ratios[i, j]`` is the ratio for polynomial i at ``rho_grid[j]``;
    ``empirical_C`` is the overall maximum (the measured analogue of the
    uniform sublevel-measure constant).
    """

    rho_grid: tuple[float, ...]
    coefficient_rows: np.ndarray  # c_1..c_D per sampled polynomial
    ratios: np.ndarray
    max_ratio_per_rho: np.ndarray
    empirical_C: float


_MIN_GRID = 100_000  # fewest grid points of a sublevel measurement


def _grid_size(rho: float, a: float, b: float) -> int:
    """Points of the grid on [a, b] with step ``min(rho/100, (b-a)/100000)``;
    :class:`SizeCapError` past ``_MAX_POINTS``."""
    if not a < b:
        raise DomainError("empty interval")
    points = (b - a) * 100.0 / rho
    if points > _MAX_POINTS - 1:
        raise SizeCapError(f"rho {rho} needs a sublevel grid of more than {_MAX_POINTS} points")
    return max(_MIN_GRID, int(math.ceil(points)) + 1)


def _sublevel_ratios(coefficient_rows, rho_grid, interval) -> np.ndarray:
    """:func:`sublevel_ratio` of each polynomial of ``coefficient_rows`` (one
    row each) at each positive, finite rho of ``rho_grid`` (one column
    each).  Each polynomial is evaluated once per distinct grid, and every
    rho that shares the grid is counted on those values."""
    a, b = interval_arg(interval, "interval")
    ratios = np.empty((len(coefficient_rows), len(rho_grid)), dtype=np.float64)
    by_grid: dict[int, list[int]] = {}  # grid size -> columns of its rho values
    for j, rho in enumerate(rho_grid):
        by_grid.setdefault(_grid_size(rho, a, b), []).append(j)
    with np.errstate(over="ignore", invalid="ignore"):  # a value past a double is past rho
        for n_pts, columns in by_grid.items():
            xs = np.linspace(a, b, n_pts)
            step = (b - a) / (n_pts - 1)
            for i, coeffs in enumerate(coefficient_rows):
                sizes = np.abs(poly_eval(coeffs, xs))
                for j in columns:
                    ratios[i, j] = np.count_nonzero(sizes <= rho_grid[j]) * step / rho_grid[j]
    return ratios


def sublevel_ratio(coeffs, rho: float, interval) -> float:
    """Measured ``Leb{lambda in I : |g(lambda)| <= rho} / rho`` for one polynomial.

    Dense-grid measurement with step ``min(rho/100, |I|/100000)``, the
    polynomial evaluated by :func:`~bcvlab.algebraic.poly_eval`; the {0,±1}
    polynomials are Lipschitz on the interval, so this resolves the sublevel
    set to ~1% of rho.
    """
    rho = real_arg(rho, "rho", 0.0, math.inf)
    return float(_sublevel_ratios([coeffs], [rho], interval)[0, 0])


def transversality_check(degree: int, poly_samples: int, rho_grid, interval,
                         seed: int = 0) -> TransversalityReport:
    """Measure sublevel-set sizes of random {0,±1} polynomials on an interval.

    Polynomials are ``1 + c_1 x + ... + c_D x^D`` with seeded uniform
    coefficients in {-1, 0, 1}; each ratio equals :func:`sublevel_ratio`.  A
    negative or non-integer ``seed`` raises :class:`DomainError`, and more
    than ``_MAX_POINTS`` coefficients :class:`SizeCapError`.
    """
    degree = integer_arg(degree, "degree", lo=0)
    poly_samples = integer_arg(poly_samples, "poly_samples", lo=1)
    integer_arg((degree + 1) * poly_samples, "coefficients", hi=_MAX_POINTS, error=SizeCapError)
    if not np.iterable(rho_grid):
        raise DomainError(f"rho_grid must be a sequence, got {rho_grid!r}")
    rho_grid = tuple(real_arg(r, "rho", 0.0, math.inf) for r in rho_grid)
    integer_arg(len(rho_grid), "rho grid size", lo=1)
    rng = np.random.default_rng(integer_arg(seed, "seed", lo=0))
    rows = rng.integers(-1, 2, size=(poly_samples, degree))
    ratios = _sublevel_ratios(np.hstack([np.ones((poly_samples, 1)), rows]), rho_grid, interval)
    max_per_rho = ratios.max(axis=0)
    return TransversalityReport(rho_grid, rows, ratios, max_per_rho,
                                float(max_per_rho.max()))


# ---------------------------------------------------------------------------
# nested-interval construction (finite depth)


@dataclass(frozen=True)
class Certificate:
    stage: int
    s: float
    levels: int
    r2_lower_bound: float  # exact ordered-coincidence count per point


@dataclass(frozen=True)
class AttractingParameter:
    lam: float
    certificates: tuple[Certificate, ...]
    interval: tuple[float, float]  # final interval of the construction
    depth_reached: int
    complete: bool


_LEVEL_CAP = 18  # deepest exact level a construction stage tries


def construct_attracting_parameter(interval, depth: int,
                                   epsilon: float) -> AttractingParameter:
    """Finite truncation of the nested-interval construction.

    At stage k the midpoint's greedy relation pins a nearby {0,±1} zero
    lambda_k; one walk of its exact levels then stops at the first level
    N_k > N_(k-1) whose certified coincidence count satisfies
    ``R2(0) >= 2**(N_k**(1-epsilon))`` (a lower bound for ``R2(2**-k)``),
    and the interval shrinks around lambda_k so the float pair correlation
    keeps the bound across it.  If no level up to ``_LEVEL_CAP`` (18)
    certifies, the result is returned partial with the depth actually
    reached flagged; a stage whose relation has degree ``_LEVEL_CAP`` or
    more (trailing zeros trimmed) is returned so without walking.
    """
    a, b = interval_arg(interval, "interval")
    if not 0.5 < a < b < 1.0:
        raise DomainError("interval must sit inside (1/2, 1)")
    depth = integer_arg(depth, "depth", 0, 4)  # cost grows fast
    epsilon = real_arg(epsilon, "epsilon", 0.0, 1.0)

    certificates: list[Certificate] = []
    prev_level = 0
    for stage in range(1, depth + 1):
        mid = 0.5 * (a + b)
        # Order of the greedy expansion: deep enough that the located zero
        # stays inside the current interval, and growing with the stage.
        k = stage + 2
        while mid + mid**k >= b:
            k += 1
        poly, lam_k = nearest_zero_above(mid, k)
        relation = defining_poly(poly)
        s_k = 2.0**-stage
        # Strings of level N are 0/1 polynomials of degree below N, and two
        # coincide only if the relation divides their difference, so a
        # relation of degree _LEVEL_CAP or more certifies at no level up to
        # the cap: such a stage is not walked.
        walk = exact_levels(relation, _LEVEL_CAP) if len(relation) <= _LEVEL_CAP else ()
        for eps_set in walk:
            n_k = eps_set.levels
            if n_k > prev_level:
                r0 = coincidence_rate(eps_set)
                if r0 >= 2.0 ** (n_k ** (1.0 - epsilon)):
                    break
        else:  # no level up to the cap certifies
            return AttractingParameter(0.5 * (a + b), tuple(certificates),
                                       (a, b), stage - 1, False)
        certificates.append(Certificate(stage, s_k, n_k, r0))
        prev_level = n_k
        # Pair differences move at most (1-b)^-2 per unit lambda, so within
        # delta the coincident pairs stay inside the s_k/2**n_k window.
        delta = 0.5 * s_k * 2.0**-n_k * (1.0 - b) ** 2
        a = max(a, lam_k - delta)
        b = min(b, lam_k + delta)
    return AttractingParameter(0.5 * (a + b), tuple(certificates), (a, b),
                               depth, True)
