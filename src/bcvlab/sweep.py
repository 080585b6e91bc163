"""Parameter sweeps over lambda.

Averaged pair-correlation integrals, min-gap exceedance scans, empirical
transversality constants for random {0,±1} polynomials, and a finite-depth
truncation of the nested-interval construction of parameters with abnormally
strong pair correlation.

All sweeps are deterministic given their configuration: Monte Carlo sampling
records its 64-bit seed, per-sample work is independent, and reductions run
in fixed sample order so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebraic import nearest_zero_above, poly_eval
from .errors import DomainError, SizeCapError, integer_arg
from .pointset import Form, exact_levels, generate
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


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of an averaged pair-correlation sweep.

    ``quadrature`` is "midpoint" (deterministic, CI-friendly) or "montecarlo"
    (uniform samples from a recorded seed).  A degenerate interval with
    ``sample_count = 1`` is allowed and reduces to a single pair-correlation
    evaluation.
    """

    interval: tuple[float, float]
    levels: int
    s_grid: tuple[float, ...]
    sample_count: int
    quadrature: str = "midpoint"
    seed: int | None = None
    worker_count: int = 1

    def __post_init__(self):
        if len(self.interval) != 2:
            raise DomainError(f"interval needs exactly two endpoints, got {self.interval!r}")
        a, b = self.interval
        if not (0.5 <= a <= b < 1.0):
            raise DomainError(f"interval must satisfy 0.5 <= a <= b < 1, got [{a}, {b}]")
        if self.sample_count < 1:
            raise DomainError("sample_count must be >= 1")
        if self.sample_count > 2**53:  # past it, i + 0.5 is not exact in a double
            raise SizeCapError(f"sample_count {self.sample_count} exceeds 2**53")
        if self.quadrature not in ("midpoint", "montecarlo"):
            raise DomainError(f"unknown quadrature {self.quadrature!r}")
        _validate_grid(self.s_grid)
        if self.worker_count < 1:
            raise DomainError("worker_count must be >= 1")


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
                "worker_count": self.config.worker_count,
            },
            "seed": self.seed,
            "per_s": per_s,
            "c_hat": self.c_hat,
            "C_hat": self.C_hat,
        }


def _seed_arg(seed) -> int:
    """``seed`` as a nonnegative Python int, else :class:`DomainError`."""
    seed = integer_arg(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def _seeded_uniform(a: float, b: float, n: int, seed: int | None):
    """``n`` uniform samples from [a, b) and their seed (a fresh 64-bit one if
    None); a negative or non-integer seed raises :class:`DomainError`."""
    seed = _seed_arg(seed) if seed is not None else int.from_bytes(os.urandom(8), "little")
    return a + (b - a) * np.random.default_rng(seed).random(n), seed


def averaged_pair_correlation(cfg: SweepConfig, progress: bool = False) -> SweepReport:
    """Average R2(s, lambda, 2**levels) over sampled lambdas, per grid point.

    Parameter samples are independent work items dispatched to a pool of
    ``worker_count`` threads (at most one per CPU), but gathered and reduced
    in sample order, so the report is identical for any worker count.
    """
    a, b = cfg.interval
    n = cfg.sample_count
    if cfg.quadrature == "midpoint":
        lambdas, seed = a + (np.arange(n) + 0.5) * (b - a) / n, None
    else:
        lambdas, seed = _seeded_uniform(a, b, n, cfg.seed)
    grid = np.asarray(cfg.s_grid, dtype=np.float64)

    def one(lam: float) -> np.ndarray:
        return pair_correlation(generate(lam, cfg.levels), grid).r_values

    rows = []
    step = max(1, len(lambdas) // 10)
    t0 = time.perf_counter()
    # pool.map submits every sample at once, so the pool size bounds the threads.
    with ThreadPoolExecutor(max_workers=min(cfg.worker_count, os.cpu_count() or 1)) as pool:
        for i, row in enumerate(pool.map(one, lambdas), 1):
            rows.append(row)
            if progress and i % step == 0:
                print(f"sweep: {i}/{len(lambdas)} samples "
                      f"({time.perf_counter() - t0:.1f}s)", file=sys.stderr)
    curves = np.vstack(rows)
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
    statement.
    """
    a, b = float(interval[0]), float(interval[1])
    levels = tuple(level_range)
    if not levels:
        raise DomainError("empty level range")
    if isinstance(lambda_samples, (int, np.integer)):
        lambdas, used_seed = _seeded_uniform(a, b, int(lambda_samples), seed)
    else:
        lambdas = np.asarray(lambda_samples, dtype=np.float64)
        used_seed = None
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
    """Points of the grid on [a, b] with step ``min(rho/100, (b-a)/100000)``."""
    if not a < b:
        raise DomainError("empty interval")
    if rho <= 0:
        raise DomainError("rho must be positive")
    return max(_MIN_GRID, int(math.ceil((b - a) * 100.0 / rho)) + 1)


def _sublevel_ratios(coefficient_rows, rho_grid, interval) -> np.ndarray:
    """:func:`sublevel_ratio` of each polynomial of ``coefficient_rows`` (one
    row each) at each rho of ``rho_grid`` (one column each).  Each polynomial
    is evaluated once per distinct grid, and every rho that shares the grid
    is counted on those values."""
    a, b = float(interval[0]), float(interval[1])
    ratios = np.empty((len(coefficient_rows), len(rho_grid)), dtype=np.float64)
    by_grid: dict[int, list[int]] = {}  # grid size -> columns of its rho values
    for j, rho in enumerate(rho_grid):
        by_grid.setdefault(_grid_size(rho, a, b), []).append(j)
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
    return float(_sublevel_ratios([coeffs], [rho], interval)[0, 0])


def transversality_check(degree: int, poly_samples: int, rho_grid, interval,
                         seed: int = 0) -> TransversalityReport:
    """Measure sublevel-set sizes of random {0,±1} polynomials on an interval.

    Polynomials are ``1 + c_1 x + ... + c_D x^D`` with seeded uniform
    coefficients in {-1, 0, 1}; each ratio equals :func:`sublevel_ratio`.  A
    negative or non-integer ``seed`` raises :class:`DomainError`.
    """
    rho_grid = tuple(float(r) for r in rho_grid)
    rng = np.random.default_rng(_seed_arg(seed))
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
    reached flagged.
    """
    a, b = float(interval[0]), float(interval[1])
    if not 0.5 < a < b < 1.0:
        raise DomainError("interval must sit inside (1/2, 1)")
    if depth < 0 or depth > 4:
        raise DomainError("depth must lie in 0..4 (cost grows fast)")
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")

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
        s_k = 2.0**-stage
        found = None
        for eps_set in exact_levels(poly.coeffs, _LEVEL_CAP):
            n = eps_set.levels
            if n <= prev_level:
                continue
            r0 = coincidence_rate(eps_set)
            if r0 >= 2.0 ** (n ** (1.0 - epsilon)):
                found = (n, r0)
                break
        if found is None:
            return AttractingParameter(0.5 * (a + b), tuple(certificates),
                                       (a, b), stage - 1, False)
        n_k, r0 = found
        certificates.append(Certificate(stage, s_k, n_k, r0))
        prev_level = n_k
        # Pair differences move at most (1-b)^-2 per unit lambda, so within
        # delta the coincident pairs stay inside the s_k/2**n_k window.
        delta = 0.5 * s_k * 2.0**-n_k * (1.0 - b) ** 2
        a = max(a, lam_k - delta)
        b = min(b, lam_k + delta)
    return AttractingParameter(0.5 * (a + b), tuple(certificates), (a, b),
                               depth, True)
