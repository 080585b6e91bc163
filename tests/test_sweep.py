import hashlib
import json
import math

import numpy as np
import pytest

from bcvlab import (DomainError, SweepConfig, averaged_pair_correlation,
                    construct_attracting_parameter, generate, min_gap_scan,
                    pair_correlation, sublevel_ratio, transversality_check)
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


def test_worker_count_does_not_change_bits():
    base = dict(interval=(0.51, 0.66), levels=10, s_grid=(0.5, 1.0, 2.0),
                sample_count=16)
    r1 = averaged_pair_correlation(SweepConfig(**base, worker_count=1))
    r4 = averaged_pair_correlation(SweepConfig(**base, worker_count=4))
    assert np.array_equal(r1.mean, r4.mean)
    assert np.array_equal(r1.min, r4.min)
    assert np.array_equal(r1.max, r4.max)


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
    assert report.seed is not None
    replay = averaged_pair_correlation(
        SweepConfig(interval=(0.51, 0.66), levels=8, s_grid=(1.0,),
                    sample_count=4, quadrature="montecarlo", seed=report.seed))
    assert np.array_equal(report.mean, replay.mean)


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
