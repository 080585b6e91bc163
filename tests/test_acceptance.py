"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see criterion lines and
timings.  Expected values follow independent oracles (closed-form lattice
counts, exhaustive enumeration, quadratic all-pairs scans); runtime budgets
are asserted.
"""

import json
import math
import time

import numpy as np

from bcvlab import (Form, SweepConfig, averaged_pair_correlation, cdf_empirical,
                    cdf_sqrt_half, classify, coincidence_rate,
                    distinct_count_profile, gaps, generate, generate_exact,
                    min_gap_scan, pair_correlation, rescale, sft_growth_rate, spacings,
                    transversality_check, Verdict)
from bcvlab.cli import main
from oracles import horner_values, words_avoiding

GOLDEN_MINPOLY = (-1, 1, 1)
SQRT_HALF = 2.0**-0.5


class Criterion:
    def __init__(self, index, label, budget_s):
        self.index = index
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        within = elapsed < self.budget_s
        status = "PASS" if exc_type is None and within else "FAIL"
        print(f"[{status}] criterion {self.index}: {self.label} "
              f"({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert within, (
                f"criterion {self.index} exceeded runtime budget: "
                f"{elapsed:.2f}s >= {self.budget_s}s")
        return False


def test_criterion_1_lattice_exactness():
    with Criterion(1, "lattice pair correlation and spacings exact", 1.0):
        for n in range(4, 17):
            ps = generate(0.5, n)
            grid = [0.5, 1.0, 2.5, 7.0]
            curve = pair_correlation(ps, grid)
            for s, r in zip(grid, curve.r_values):
                k = math.floor(s)
                assert r == 2 * k - k * (k + 1) / (1 << n)
            assert np.all(spacings(ps, 1).values == 1.0)


def test_criterion_2_brute_force_equivalence():
    with Criterion(2, "merge vs Horner and window vs all-pairs", 30.0):
        rng = np.random.default_rng(20)
        lams = 0.52 + 0.38 * rng.random(20)
        grid = [0.0, 0.5, 1.0, 2.5, 7.0]
        n = 12
        for lam in lams:
            ps = generate(lam, n)
            brute = horner_values(lam, n, standard=True)
            tol = 8 * n * np.spacing(np.maximum(np.abs(ps.values), np.abs(brute)))
            assert np.all(np.abs(ps.values - brute) <= tol)
            curve = pair_correlation(ps, grid)
            # all-pairs oracle; one distance matrix per lambda, shared across s
            diff = np.abs(ps.values[:, None] - ps.values[None, :])
            for s, r in zip(grid, curve.r_values):
                want = int(np.count_nonzero(diff <= s / (1 << n))) - (1 << n)
                assert round(r * (1 << n)) == want


def test_criterion_3_golden_exact_pipeline():
    with Criterion(3, "golden-ratio coincidences vs subshift word counts", 10.0):
        profile = distinct_count_profile(GOLDEN_MINPOLY, 14)
        assert profile[:4] == [2, 4, 7, 12]
        growth = sft_growth_rate("100")
        assert profile == list(growth.word_counts[1:15])
        # independent enumeration for the first ten levels
        for n in range(1, 11):
            assert profile[n - 1] == words_avoiding("100", n)
        assert abs(growth.rho - (1 + math.sqrt(5)) / 2) < 1e-9
        assert coincidence_rate(generate_exact(GOLDEN_MINPOLY, 3)) == 0.25


def test_criterion_4_garsia_certificates():
    with Criterion(4, "Garsia classification and separation", 60.0):
        c = classify((-2, -2, 0, 1))  # x^3 - 2x - 2
        assert c.verdict is Verdict.GARSIA
        assert 0.5651 <= c.reciprocal <= 0.5653
        c = classify((-2, 0, -1, 1))  # x^3 - x^2 - 2
        assert c.verdict is Verdict.GARSIA
        assert 0.5897 <= c.reciprocal <= 0.5899
        for n in (4, 8, 12, 16):
            assert coincidence_rate(generate_exact((-2, 0, 1), n)) == 0.0
        scaled = []
        for n in range(10, 21):
            report = gaps(generate(SQRT_HALF, n, Form.PRIMED))
            scaled.append(report.min_gap * 2.0**n)
        assert min(scaled) > 0
        assert max(scaled) / min(scaled) < 4.0


def test_criterion_5_ejk_gap_law():
    with Criterion(5, "largest-gap law and interior location", 10.0):
        for lam in (0.55, 0.6, 0.615):
            for n in (5, 9, 13):
                ps = generate(lam, n, Form.PRIMED)
                report = gaps(ps)
                want = lam ** (n - 1)
                # gap error scales with the ulp of the values being differenced
                assert abs(report.max_gap - want) <= 8 * n * np.spacing(ps.values[-1])
                assert report.ejk_prediction_match


def test_criterion_6_explicit_cdf():
    with Criterion(6, "explicit CDF identities and empirical agreement", 30.0):
        F = cdf_sqrt_half()
        (at0, at_half, at1), _ = rescale([0.0, 0.5, 1.0], F)
        assert abs(at0 - 0.0) < 1e-15
        assert abs(at1 - 1.0) < 1e-15
        assert abs(at_half - 0.5) < 1e-15
        for knot in (math.sqrt(2.0) - 1.0, 2.0 - math.sqrt(2.0)):
            below, here, above = rescale([np.nextafter(knot, 0.0), knot,
                                          np.nextafter(knot, 1.0)], F)[0]
            assert abs(below - here) < 1e-15
            assert abs(above - here) < 1e-15
        F_emp = cdf_empirical(SQRT_HALF, 20)
        xs = np.linspace(0.0, 1.0, 20001)
        assert np.max(np.abs(rescale(xs, F_emp)[0] - rescale(xs, F)[0])) < 0.01


def test_criterion_7_averaged_correlation_linearity():
    with Criterion(7, "averaged R2 linear band over [0.51, 0.66]", 300.0):
        cfg = SweepConfig(interval=(0.51, 0.66), levels=14,
                          s_grid=(0.5, 1.0, 2.0, 4.0), sample_count=64)
        report = averaged_pair_correlation(cfg)
        assert np.all(report.mean > 0)
        slopes = report.mean / report.s_grid
        assert slopes.max() / slopes.min() < 10.0


def test_criterion_8_min_gap_scan():
    with Criterion(8, "min-gap exceedance for every sampled lambda", 300.0):
        scan = min_gap_scan((0.51, 0.66), 32, range(10, 19),
                            lambda n: 3.0**-n * n**-1.1, seed=8)
        assert len(scan.exceedances) == 32
        assert all(len(e) >= 1 for e in scan.exceedances)


def test_criterion_9_transversality():
    with Criterion(9, "sublevel measure ratios bounded as rho shrinks", 300.0):
        report = transversality_check(30, 100, (1e-2, 1e-3, 1e-4),
                                      (0.5, 0.668), seed=20240)
        c2, c3, c4 = report.max_ratio_per_rho
        assert c2 > 0
        assert c3 <= 1.1 * c2
        assert c4 <= 1.1 * c2


def test_criterion_10_figure_smoke_runs(tmp_path, capsys):
    with Criterion(10, "figure-scale spacing runs (N = 22)", 480.0):
        budget_each = 120.0
        settings = [("0.70880447", ell) for ell in (1, 2, 3)]
        settings.append(("0.6429", 1))
        for lam, ell in settings:
            out = tmp_path / f"run_{lam}_{ell}"
            t0 = time.perf_counter()
            rc = main(["spacings", "--lambda", lam, "--n", "22",
                       "--ell", str(ell), "--rescale", "sqrt-half",
                       "--out-dir", str(out)])
            elapsed = time.perf_counter() - t0
            assert rc == 0
            assert elapsed < budget_each
            rows = (out / "spacings_histogram.csv").read_text().splitlines()
            assert len(rows) == 51  # header + 50 bins
            assert all(float(r.split(",")[3]) >= 0 for r in rows[1:])
            gof = json.loads((out / "spacings_gof.json").read_text())
            # Poisson agreement is logged, not hard-failed (the underlying
            # conjecture is open); these settings land well under 0.1.
            print(f"criterion 10: lambda={lam} ell={ell} ks={gof['ks']:.4f} "
                  f"(expected < 0.1)")


def test_criterion_11_near_pisot_near_garsia_contrast():
    with Criterion(11, "attraction/repulsion contrast at N = 18", 120.0):
        def small_fraction(lam):
            sp = spacings(generate(lam, 18), 1)
            return float(np.mean(sp.values < 0.1))

        near_pisot, off_pisot = small_fraction(0.6518), small_fraction(0.652)
        near_garsia, off_garsia = (small_fraction(0.70710678),
                                   small_fraction(0.7071))
        print(f"criterion 11: near-Pisot {near_pisot:.4f} > {off_pisot:.4f}; "
              f"near-Garsia {near_garsia:.4f} < {off_garsia:.4f}")
        assert near_pisot > off_pisot
        assert near_garsia < off_garsia
