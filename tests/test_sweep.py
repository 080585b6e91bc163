import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bcvlab import (DomainError, SizeCapError, SweepConfig, algebraic,
                    averaged_pair_correlation, pointset, sweep,
                    construct_attracting_parameter, generate, generate_exact,
                    histogram, min_gap_scan, pair_correlation, spacings,
                    sublevel_ratio, transversality_check)
from bcvlab.sweep import AttractingParameter, Certificate

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# averaged pair correlation


def test_config_validation():
    ok = dict(interval=(0.51, 0.66), levels=8, s_grid=(1.0,), sample_count=4)
    SweepConfig(**ok)
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "interval": (0.4, 0.66)})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "interval": (0.7, 0.66)})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "interval": (0.55,)})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "sample_count": 0})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "s_grid": ()})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "s_grid": (2.0, 1.0)})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "s_grid": (float("nan"),)})
    with pytest.raises(DomainError):
        SweepConfig(**{**ok, "quadrature": "simpson"})


def test_sample_count_cap():
    # Past 2**53 the midpoints are not exact in a double; numpy returned an
    # empty arange at 2**63 and the sweep failed with a bare ValueError.
    ok = dict(interval=(0.51, 0.66), levels=8, s_grid=(1.0,))
    SweepConfig(**ok, sample_count=2**53)
    with pytest.raises(SizeCapError):
        SweepConfig(**ok, sample_count=2**53 + 1)
    with pytest.raises(SizeCapError):
        SweepConfig(**ok, sample_count=2**63)


def test_averaged_sweep_caps_samples_times_s_values():
    # The cap is on the samples times the s values, and it is checked before
    # the lambdas are built: 2**40 midpoints would take 8 TiB.
    for count, grid in [(2**40, (1.0,)), (2**23, (0.5, 1.0, 2.0))]:
        cfg = SweepConfig(interval=(0.6, 0.7), levels=1, s_grid=grid, sample_count=count)
        with pytest.raises(SizeCapError):
            averaged_pair_correlation(cfg)


def test_config_keeps_python_ints():
    # numpy integers are checked and kept as the Python ints JSON writes.
    plain = SweepConfig(interval=(0.6, 0.7), levels=6, s_grid=(1.0,), sample_count=2)
    numpy_ints = SweepConfig(interval=(0.6, 0.7), levels=np.int64(6), s_grid=(1.0,),
                             sample_count=np.int64(2))
    for name in ("levels", "sample_count"):
        assert type(getattr(numpy_ints, name)) is int
    want = averaged_pair_correlation(plain).to_json_dict()
    got = averaged_pair_correlation(numpy_ints).to_json_dict()
    assert got == want and json.dumps(got) == json.dumps(want)


def test_config_keeps_grid_as_python_floats():
    # A numpy integer or list grid is kept as the tuple of floats JSON writes.
    for grid in ((np.int64(1),), [1]):
        cfg = SweepConfig((0.6, 0.7), 4, grid, 2)
        assert cfg.s_grid == (1.0,) and type(cfg.s_grid[0]) is float
        report = json.loads(json.dumps(averaged_pair_correlation(cfg).to_json_dict()))
        assert report["config"]["s_grid"] == [1.0]
        assert report["per_s"][0]["s"] == 1.0


def test_midpoint_linearity_band():
    cfg = SweepConfig(interval=(0.51, 0.66), levels=12,
                      s_grid=(0.5, 1.0, 2.0, 4.0), sample_count=32)
    report = averaged_pair_correlation(cfg)
    slopes = report.mean / report.s_grid
    assert np.all(report.mean > 0)
    assert slopes.max() / slopes.min() < 3.0
    assert report.c_hat == pytest.approx(slopes.min())
    assert report.C_hat == pytest.approx(slopes.max())


def test_monte_carlo_zero_s_vanishes():
    cfg = SweepConfig(interval=(0.52, 0.64), levels=10, s_grid=(0.0, 1.0),
                      sample_count=12, quadrature="montecarlo", seed=77)
    report = averaged_pair_correlation(cfg)
    # Sampled lambdas generically miss every {0,±1}-polynomial zero.
    assert report.mean[0] == 0.0


def test_degenerate_single_sample_matches_direct():
    cfg = SweepConfig(interval=(0.6, 0.6), levels=9, s_grid=(0.5, 1.5),
                      sample_count=1)
    report = averaged_pair_correlation(cfg)
    direct = pair_correlation(generate(0.6, 9), [0.5, 1.5]).r_values
    assert np.array_equal(report.mean, direct)


@pytest.mark.parametrize("quadrature, seed", [("midpoint", None), ("montecarlo", 31)])
def test_sweep_rows_are_the_per_sample_curves(quadrature, seed):
    cfg = SweepConfig(interval=(0.55, 0.7), levels=11, s_grid=(0.0, 0.5, 1.0, 2.0),
                      sample_count=8, quadrature=quadrature, seed=seed)
    report = averaged_pair_correlation(cfg)
    assert report.curves.shape == (8, 4)
    for lam, row in zip(report.lambdas, report.curves):
        want = pair_correlation(generate(lam, 11), report.s_grid).r_values
        assert row.tobytes() == want.tobytes()
    assert report.mean.tobytes() == report.curves.mean(axis=0).tobytes()
    assert report.min.tobytes() == report.curves.min(axis=0).tobytes()
    assert report.max.tobytes() == report.curves.max(axis=0).tobytes()


def test_monte_carlo_seed_reproducible():
    cfg = SweepConfig(interval=(0.51, 0.66), levels=9, s_grid=(1.0,),
                      sample_count=8, quadrature="montecarlo", seed=2024)
    r1 = averaged_pair_correlation(cfg)
    r2 = averaged_pair_correlation(cfg)
    assert r1.seed == 2024
    assert np.array_equal(r1.lambdas, r2.lambdas)
    assert np.array_equal(r1.mean, r2.mean)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_monte_carlo_without_seed_records_one():
    cfg = SweepConfig(interval=(0.51, 0.66), levels=8, s_grid=(1.0,),
                      sample_count=4, quadrature="montecarlo")
    report = averaged_pair_correlation(cfg)
    assert isinstance(report.seed, int) and 0 <= report.seed < 2**64
    replay = averaged_pair_correlation(
        SweepConfig(interval=(0.51, 0.66), levels=8, s_grid=(1.0,),
                    sample_count=4, quadrature="montecarlo", seed=report.seed))
    assert np.array_equal(report.lambdas, replay.lambdas)
    assert np.array_equal(report.mean, replay.mean)


@pytest.mark.parametrize("seed", [-1, -5, 1.5, "3"])
def test_bad_seeds_are_refused(seed):
    cfg = SweepConfig(interval=(0.51, 0.66), levels=8, s_grid=(1.0,),
                      sample_count=2, quadrature="montecarlo", seed=seed)
    with pytest.raises(DomainError):
        averaged_pair_correlation(cfg)
    with pytest.raises(DomainError):
        min_gap_scan((0.51, 0.66), 2, range(4, 5), lambda n: 0.0, seed=seed)
    with pytest.raises(DomainError):
        transversality_check(4, 2, (1e-2,), (0.5, 0.668), seed=seed)


def test_cli_import_loads_no_hashing_modules():
    # A fresh seed is read from os.urandom; the secrets module would bring
    # hmac, hashlib and base64 into every CLI start.
    code = ("import sys, bcvlab.cli; print(sorted({'secrets', 'hmac', 'hashlib', "
            "'_hashlib', 'base64'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_keep_curves():
    cfg = SweepConfig(interval=(0.52, 0.6), levels=8, s_grid=(1.0, 2.0),
                      sample_count=5)
    report = averaged_pair_correlation(cfg)
    assert report.curves.shape == (5, 2)
    assert np.array_equal(report.curves.mean(axis=0), report.mean)


# ---------------------------------------------------------------------------
# min-gap scan


def test_min_gap_scan_exceedances():
    scan = min_gap_scan((0.51, 0.66), 8, range(10, 17),
                        lambda n: 3.0**-n * n**-1.1, seed=5)
    assert all(len(e) >= 1 for e in scan.exceedances)
    assert scan.min_gaps.shape == (8, 7)


def test_min_gap_scan_pinned():
    # Every sampled lambda exceeds at every level; the gaps are pinned bit for bit.
    scan = min_gap_scan((0.51, 0.66), 8, range(10, 17),
                        lambda n: 3.0**-n * n**-1.1, seed=5)
    assert scan.exceedances == (tuple(range(10, 17)),) * 8
    assert hashlib.sha256(scan.min_gaps.tobytes()).hexdigest() == (
        "21b5843ba91c471ea98dc8682b013ba28ba1505f2dba7896e48e19f6f663ef75")


def test_min_gap_scan_seeded_lambdas():
    scan = min_gap_scan((0.51, 0.66), 3, range(4, 6), lambda n: 0.0, seed=5)
    want = 0.51 + (0.66 - 0.51) * np.random.default_rng(5).random(3)
    assert np.array_equal(scan.lambdas, want) and scan.seed == 5
    fresh = min_gap_scan((0.51, 0.66), 3, range(4, 6), lambda n: 0.0, seed=None)
    replay = min_gap_scan((0.51, 0.66), 3, range(4, 6), lambda n: 0.0,
                          seed=fresh.seed)
    assert np.array_equal(fresh.lambdas, replay.lambdas)


def test_min_gap_scan_zero_threshold():
    # With alpha = 0 every level with distinct values exceeds.
    scan = min_gap_scan((0.51, 0.66), [0.5723], range(4, 9), lambda n: 0.0)
    assert scan.exceedances[0] == (4, 5, 6, 7, 8)
    assert scan.seed is None


def test_min_gap_scan_golden_pisot_bound():
    scan = min_gap_scan((0.51, 0.66), [GOLDEN], range(8, 15), lambda n: 0.0)
    for g, n in zip(scan.min_gaps[0], range(8, 15)):
        assert g >= 0.5 * GOLDEN**n


def test_min_gap_scan_validation():
    with pytest.raises(DomainError):
        min_gap_scan((0.51, 0.66), 4, [], lambda n: 0.0)


# ---------------------------------------------------------------------------
# transversality


def test_sublevel_ratio_one_minus_x_far_from_zero():
    # 1 - lambda >= 0.332 on the interval, so the 0.1-sublevel set is empty.
    assert sublevel_ratio((1, -1), 0.1, (0.5, 0.668)) == 0.0


def test_sublevel_ratio_golden_linearization():
    # Two-sided neighborhood of the simple root: measure ~ 2*rho/|g'(root)|.
    got = sublevel_ratio((1, -1, -1), 0.01, (0.5, 0.668))
    want = 2.0 / (1.0 + 2.0 * GOLDEN)
    assert got == pytest.approx(want, rel=2e-3)


def test_transversality_ratios_bounded_over_decades():
    report = transversality_check(30, 20, (1e-2, 1e-3, 1e-4), (0.5, 0.668),
                                  seed=2024)
    assert report.ratios.shape == (20, 3)
    c2, c3, c4 = report.max_ratio_per_rho
    assert c3 <= 1.1 * c2
    assert c4 <= 1.1 * c2
    assert report.empirical_C == report.ratios.max()


def test_transversality_empirical_c_seeded_regression():
    # One grid point more or less at rho = 1e-4 moves the value by 0.01.
    report = transversality_check(30, 20, (1e-2, 1e-3, 1e-4), (0.5, 0.668),
                                  seed=2024)
    assert report.empirical_C == pytest.approx(1.1699930357557398, rel=1e-12)


def test_transversality_ratios_pinned():
    # Every ratio is pinned bit for bit.
    report = transversality_check(30, 20, (1e-2, 1e-3, 1e-4), (0.5, 0.668),
                                  seed=2024)
    assert hashlib.sha256(report.ratios.tobytes()).hexdigest() == (
        "1998bba94d1f36aa17560c1d50d864cd03afeaa4984085e0d4b55a0027ca82c7")


def test_transversality_evaluates_each_polynomial_once_per_grid(monkeypatch):
    # rho 1e-2 and 1e-3 share the 100,000-point grid; 1e-4 needs 168,002 points.
    real = sweep.poly_eval
    sizes = []

    def counting(coeffs, xs):
        sizes.append(xs.size)
        return real(coeffs, xs)

    monkeypatch.setattr(sweep, "poly_eval", counting)
    report = transversality_check(30, 20, (1e-2, 1e-3, 1e-4), (0.5, 0.668),
                                  seed=2024)
    assert sorted(set(sizes)) == [100_000, 168_002]
    assert len(sizes) == 40 and sizes.count(100_000) == 20
    coeffs = np.concatenate(([1.0], report.coefficient_rows[3].astype(np.float64)))
    for j, rho in enumerate(report.rho_grid):
        assert report.ratios[3, j] == sublevel_ratio(coeffs, rho, (0.5, 0.668))


def test_sublevel_ratio_validation():
    with pytest.raises(DomainError):
        sublevel_ratio((1, -1), -0.1, (0.5, 0.668))
    with pytest.raises(DomainError):
        sublevel_ratio((1, -1), 0.1, (0.7, 0.6))


# ---------------------------------------------------------------------------
# attracting-parameter construction


def test_depth_zero_returns_midpoint():
    res = construct_attracting_parameter((0.6, 0.63), 0, 0.5)
    assert res.lam == pytest.approx(0.615)
    assert res.certificates == ()
    assert res.complete


def test_depth_one_finds_golden_certificate():
    res = construct_attracting_parameter((0.6, 0.63), 1, 0.5)
    assert res.complete and res.depth_reached == 1
    assert len(res.certificates) == 1
    cert = res.certificates[0]
    assert cert.s == 0.5
    # The stage-1 zero is the golden ratio; the certificate threshold holds.
    assert res.lam == pytest.approx(GOLDEN, abs=1e-6)
    assert cert.r2_lower_bound >= 2.0 ** (cert.levels ** 0.5)
    # Certified coincidences survive as float pair correlation at s = 0.5.
    float_r2 = pair_correlation(generate(res.lam, cert.levels), [0.5]).r_values[0]
    assert float_r2 >= cert.r2_lower_bound


def test_depth_two_reports_partial():
    # Stage 2 would need a relation of degree ~29 whose coincidences appear
    # only beyond the level cap, so the construction stops with an explicit
    # depth-reached flag instead of forcing a certificate.
    res = construct_attracting_parameter((0.6, 0.63), 2, 0.5)
    assert not res.complete
    assert res.depth_reached == 1
    assert len(res.certificates) == 1


def test_depth_two_result_pinned():
    res = construct_attracting_parameter((0.6, 0.63), 2, 0.5)
    assert res == AttractingParameter(
        0.6180339887498949, (Certificate(1, 0.5, 15, 15.1181640625),),
        (0.6180329442857836, 0.6180350332140062), 1, False)


@pytest.mark.parametrize("interval,walks", [((0.6, 0.64), [18]), ((0.6, 0.63), [15])])
def test_construction_walks_each_stage_once(monkeypatch, interval, walks):
    # Each stage walks the exact levels once, from level 1 (one input
    # vector) to the level that certifies or to the cap (18).  Stage 2 on
    # (0.6, 0.63) has a relation of degree 29 and is not walked.
    real = pointset._next_level
    inputs = []

    def counting(*args):
        inputs.append(args[0].multiplicities.size)
        return real(*args)

    monkeypatch.setattr(pointset, "_next_level", counting)
    construct_attracting_parameter(interval, 2, 0.5)
    starts = [i for i, n in enumerate(inputs) if n == 1] + [len(inputs)]
    assert [b - a for a, b in zip(starts, starts[1:])] == walks
    assert starts[0] == 0


def test_construction_never_decodes_keys(monkeypatch):
    # Each certificate reads only the multiplicities of the levels it walks.
    def no_decode(self):
        raise AssertionError("the construction decoded the keys")

    monkeypatch.setattr(pointset.ExactPointSet, "keys", property(no_decode))
    res = construct_attracting_parameter((0.6, 0.63), 2, 0.5)
    assert res.certificates == (Certificate(1, 0.5, 15, 15.1181640625),)


def test_certificate_levels_monotone():
    res = construct_attracting_parameter((0.6, 0.63), 1, 0.7)
    levels = [c.levels for c in res.certificates]
    assert levels == sorted(levels)


def test_construct_validation():
    with pytest.raises(DomainError):
        construct_attracting_parameter((0.4, 0.6), 1, 0.5)
    with pytest.raises(DomainError):
        construct_attracting_parameter((0.6, 0.63), 5, 0.5)
    with pytest.raises(DomainError):
        construct_attracting_parameter((0.6, 0.63), 1, 1.5)


def test_construction_near_one_passes_the_degree_cap(monkeypatch):
    # Near 1 the stage relation has degree ~ log(b - mid) / log(mid): 351
    # here, past algebraic.MAX_POLY_DEGREE, which guards only parse_poly and
    # poly_roots.  No level up to the cap can certify it (see the next test),
    # so the result is partial.
    degrees = []
    real = sweep.nearest_zero_above

    def recording(lam, k):
        poly, root = real(lam, k)
        degrees.append(len(poly) - 1)
        return poly, root

    monkeypatch.setattr(sweep, "nearest_zero_above", recording)
    res = construct_attracting_parameter((0.98, 0.99), 1, 0.5)
    assert degrees == [351] and 351 > algebraic.MAX_POLY_DEGREE
    assert res == AttractingParameter(0.985, (), (0.98, 0.99), 0, False)
    # Past MAX_GREEDY_DIGITS (k = 181975 here) the stage is refused at once.
    with pytest.raises(SizeCapError):
        construct_attracting_parameter((0.9999, 0.99999), 1, 0.5)


@pytest.mark.parametrize("interval,depth,cap,walked", [
    ((0.98, 0.99), 1, 18, []), ((0.6, 0.63), 2, 18, [2]),
    ((0.6, 0.63), 1, 2, []), ((0.6, 0.63), 1, 3, [2]), ((0.74, 0.741), 1, 18, [11])])
def test_construction_refuses_a_relation_past_the_cap(monkeypatch, interval, depth, cap,
                                                      walked):
    # Level-N strings differ by polynomials of degree below N, which a
    # relation of degree >= _LEVEL_CAP divides only at 0: R2(0) = 0 at every
    # level up to the cap, so such a stage (degree 278 near 1, 29 at stage 2
    # on (0.6, 0.63), the golden relation's 2 at a cap of 2) returns partial
    # without a walk.  Trailing zeros do not count: on (0.74, 0.741) the
    # relation has 27 coefficients and degree 11.
    monkeypatch.setattr(sweep, "_LEVEL_CAP", cap)
    real = sweep.exact_levels
    degrees = []

    def guarded(minpoly, levels):
        assert len(minpoly) - 1 < sweep._LEVEL_CAP, "walked a relation past the cap"
        degrees.append(len(minpoly) - 1)
        return real(minpoly, levels)

    monkeypatch.setattr(sweep, "exact_levels", guarded)
    res = construct_attracting_parameter(interval, depth, 0.5)
    assert degrees == walked
    assert not res.complete and res.depth_reached == depth - 1


# Builders of the records that hold arrays; each compares by identity.
ARRAY_RECORDS = {
    "PointSet": lambda: generate(0.6, 4),
    "ExactPointSet": lambda: generate_exact((-1, 1, 1), 4),
    "SpacingSet": lambda: spacings(generate(0.6, 4), 1),
    "Histogram": lambda: histogram(spacings(generate(0.6, 4), 1)),
    "CorrelationCurve": lambda: pair_correlation(generate(0.6, 4), [1.0]),
    "SweepReport": lambda: averaged_pair_correlation(
        SweepConfig(interval=(0.6, 0.7), levels=4, s_grid=(1.0,), sample_count=2)),
    "MinGapScan": lambda: min_gap_scan((0.51, 0.66), 2, range(4, 5), lambda n: 0.0),
    "TransversalityReport": lambda: transversality_check(4, 2, (1e-2,), (0.5, 0.668)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_array_records_compare_and_hash_by_identity(name):
    # The generated __eq__ compared arrays (ValueError) and __hash__ hashed
    # them (TypeError).
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
