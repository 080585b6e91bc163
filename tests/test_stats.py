import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvlab import stats
from bcvlab import (CdfModel, DomainError, Form, SpacingSet, cdf_empirical,
                    cdf_sqrt_half, coincidence_rate, gaps, generate,
                    generate_exact, gof_statistics, histogram,
                    pair_correlation, pair_correlation_interval,
                    poisson_cdf, poisson_reference, rescale, spacings)
from bcvlab.stats import write_curve_csv, write_histogram_csv
from oracles import (all_pairs_ordered_count, cdf_sqrt_half_where, gamma_cdf_int,
                     histogram_bincount, ks_searchsorted, window_count_loop)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT_HALF = 2.0**-0.5


# ---------------------------------------------------------------------------
# spacings


def test_lattice_spacings_exact():
    ps = generate(0.5, 9)
    assert np.all(spacings(ps, 1).values == 1.0)
    assert np.all(spacings(ps, 3).values == 3.0)
    assert spacings(ps, 3).values.size == (1 << 9) - 3


def test_golden_primed_contains_zero_spacing():
    ps = generate(GOLDEN, 3, Form.PRIMED)
    sp = spacings(ps, 1)
    # The coincidence at value 1 shows up as a spacing below the distinctness
    # tolerance (bit-exact zero is not guaranteed in floats).
    assert sp.values.min() <= ps.point_count * ps.distinct_tolerance()


def test_spacing_values_are_read_only():
    for source in (generate(0.6, 8), rescale(generate(0.6, 8), cdf_sqrt_half())):
        sp = spacings(source, 2)
        with pytest.raises(ValueError):
            sp.values[0] = 1.0
        with pytest.raises(ValueError):
            sp.ordered[0] = 1.0


def test_spacings_validation():
    ps = generate(0.6, 3)
    with pytest.raises(DomainError):
        spacings(ps, 8)
    with pytest.raises(DomainError):
        spacings(ps, 0)
    with pytest.raises(DomainError):
        spacings(np.array([1.0, 0.5]), 1)  # unsorted


# ---------------------------------------------------------------------------
# CDF models


def test_cdf_sqrt_half_values():
    F = cdf_sqrt_half()
    assert float(F(0.0)) == 0.0
    assert float(F(1.0)) == 1.0
    assert abs(float(F(0.5)) - 0.5) < 1e-15
    b = math.sqrt(2.0) - 1.0
    assert float(F(b)) == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)


def test_cdf_sqrt_half_continuity_at_joins():
    F = cdf_sqrt_half()
    for knot in (math.sqrt(2.0) - 1.0, 2.0 - math.sqrt(2.0)):
        below = float(F(np.nextafter(knot, 0.0)))
        here = float(F(knot))
        above = float(F(np.nextafter(knot, 1.0)))
        assert abs(below - here) < 1e-15
        assert abs(above - here) < 1e-15


def test_cdf_sqrt_half_clamps_with_flag():
    F = cdf_sqrt_half()
    y, clamped = F.evaluate(np.array([-0.1, 0.3, 1.2]))
    assert clamped == 2
    assert y[0] == 0.0 and y[2] == 1.0


def test_cdf_empirical_identity_for_half():
    F = cdf_empirical(0.5, 10)
    xs = np.linspace(0.0, F.support[1], 4001)
    assert np.max(np.abs(F(xs) - xs)) <= 2.0**-10


def test_cdf_empirical_endpoints():
    F = cdf_empirical(0.6429, 12)
    lo, hi = F.support
    assert float(F(lo)) == 0.0
    assert float(F(hi)) == 1.0


def test_cdf_empirical_close_to_explicit():
    F_emp = cdf_empirical(SQRT_HALF, 20)
    F_ref = cdf_sqrt_half()
    xs = np.linspace(0.0, 1.0, 20001)
    assert np.max(np.abs(F_emp(xs) - F_ref(xs))) < 0.01


EMPIRICAL_06 = cdf_empirical(0.6, 8)  # support ends at 1 - 0.6**8, below 1


@st.composite
def cdf_inputs(draw):
    """Ascending CDF inputs: 0, b, 1-b and 1 and up to two ulps either side
    of each (optionally all of them at once), the empirical model's last
    knot and its neighbours, -0.0, negatives, values past 1 and arbitrary
    values, in tie runs; a single value is sometimes drawn 0-d."""
    b = math.sqrt(2.0) - 1.0
    marks = np.array([0.0, b, 1.0 - b, 1.0, EMPIRICAL_06.support[1]])
    down = np.nextafter(marks, -np.inf)
    up = np.nextafter(marks, np.inf)
    near = np.concatenate([marks, down, np.nextafter(down, -np.inf),
                           up, np.nextafter(up, np.inf)])
    atom = st.one_of(st.sampled_from(near.tolist()), st.just(-0.0),
                     st.floats(-3.0, 0.0), st.floats(1.0, 1e6), st.floats(0.0, 1.0))
    atoms = draw(st.lists(atom, max_size=40))
    if draw(st.booleans()):
        atoms += near.tolist()  # every mark and its neighbours at once
    reps = draw(st.lists(st.integers(1, 4), min_size=len(atoms), max_size=len(atoms)))
    values = np.sort(np.repeat(np.array(atoms, dtype=np.float64), reps))
    if values.size == 1 and draw(st.booleans()):
        values = values.reshape(())
    return values


@settings(max_examples=300, deadline=None)
@given(cdf_inputs())
def test_cdf_models_match_oracles(x):
    y, clamped = cdf_sqrt_half().evaluate(x)
    y_ref, clamped_ref = cdf_sqrt_half_where(x)
    assert y.shape == x.shape and y.tobytes() == y_ref.tobytes()
    assert clamped == clamped_ref
    F = EMPIRICAL_06
    lo, hi = F.support
    y, clamped = F.evaluate(x)
    assert y.tobytes() == np.interp(x, F.knots_x, F.knots_y).tobytes()
    assert clamped == int(np.count_nonzero((x < lo) | (x > hi)))


def test_cdf_empirical_clamps_past_last_knot():
    F = EMPIRICAL_06
    hi = F.support[1]
    y, clamped = F.evaluate([-1.0, 0.0, hi / 2, hi, np.nextafter(hi, 2.0), 1.0, 5.0])
    assert clamped == 4
    assert y[0] == 0.0 and y[1] == 0.0
    assert np.all(y[3:] == 1.0)


@pytest.mark.parametrize("model", [cdf_sqrt_half(), EMPIRICAL_06])
@pytest.mark.parametrize("x", [[0.5, 0.2], [0.1, np.nan], [np.nan, 0.1], np.nan,
                               [0.2, np.inf], [-np.inf, 0.2], [[0.1, 0.2]]])
def test_cdf_models_reject_unsorted_or_non_finite_input(model, x):
    with pytest.raises(DomainError):
        model(x)
    with pytest.raises(DomainError):
        model.evaluate(x)


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_identity_model_keeps_lattice():
    ps = generate(0.5, 8)
    ident = CdfModel(knots_x=np.array([0.0, 1.0]),
                     knots_y=np.array([0.0, 1.0]))
    out = rescale(ps, ident)
    assert np.array_equal(out, ps.values)


def test_rescale_starts_at_zero_and_keeps_order():
    ps = generate(0.70880447, 12)
    out = rescale(ps, cdf_sqrt_half())
    assert out[0] == 0.0
    assert np.all(np.diff(out) >= 0)


def test_rescale_rejects_primed():
    with pytest.raises(DomainError):
        rescale(generate(0.6, 5, Form.PRIMED), cdf_sqrt_half())


@pytest.mark.parametrize("knots_y", [[1.0, 0.0], [0.0, np.nan]])
def test_rescale_rejects_non_monotone_or_nan_output(knots_y):
    model = CdfModel(knots_x=np.array([0.0, 1.0]),
                     knots_y=np.array(knots_y))
    with pytest.raises(DomainError):
        rescale(generate(0.6, 6), model)


def test_rescale_warns_on_self_cdf():
    ps = generate(0.6429, 10)
    F = cdf_empirical(0.6429, 10)
    with pytest.warns(UserWarning):
        rescale(ps, F)


def test_rescaled_spacings_near_poisson_smoke():
    # Small-scale version of the figure setting: random-ish lambda near
    # 2**-0.5, explicit CDF rescale, nearest spacings roughly exponential.
    ps = generate(0.70880447, 16)
    sp = spacings(rescale(ps, cdf_sqrt_half()), 1)
    report = gof_statistics(sp)
    assert report.ks < 0.1


# ---------------------------------------------------------------------------
# histogram and Poisson reference


def test_histogram_lattice_single_bin():
    sp = spacings(generate(0.5, 10), 1)
    h = histogram(sp)
    assert h.counts[10] == (1 << 10) - 1  # bin [1.0, 1.1)
    assert h.counts.sum() == (1 << 10) - 1
    assert h.overflow == 0


def test_histogram_empty_spacing_set():
    sp = SpacingSet(1, np.array([]), 0)
    h = histogram(sp)
    assert h.counts.sum() == 0 and h.overflow == 0


def test_histogram_conservation_and_range():
    sp = spacings(generate(0.61803, 12), 2)
    h = histogram(sp)
    assert h.counts.sum() + h.overflow == sp.values.size
    assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 10.0  # 5 * ell


def test_histogram_overlay_formula():
    sp = spacings(generate(0.6, 8), 1)
    h = histogram(sp)
    centers = (np.arange(50) + 0.5) * 0.1
    want = 0.1 * 1 * (1 << 8) * poisson_reference(1, centers)
    assert np.allclose(h.overlay, want, rtol=0, atol=0)
    # reference value of the overlay formula at s=1 for a 2**22-point run:
    assert 0.1 * 2**22 * poisson_reference(1, 1.0) == pytest.approx(
        154299.82116231453, rel=1e-12)


def test_poisson_reference_values():
    assert poisson_reference(1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert poisson_reference(2, 0.0) == 0.0
    assert poisson_reference(1, 0.0) == 1.0
    with pytest.raises(DomainError):
        poisson_reference(0, 1.0)
    with pytest.raises(DomainError):
        poisson_reference(1, -0.5)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_poisson_density_normalized(ell):
    s = np.linspace(0.0, 80.0, 800001)
    assert np.trapezoid(poisson_reference(ell, s), s) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("ell", [1, 2, 4])
def test_poisson_cdf_matches_oracle(ell):
    for s in (0.0, 0.3, 1.0, 2.7, 9.0):
        assert poisson_cdf(ell, s) == pytest.approx(gamma_cdf_int(ell, s), abs=1e-14)


def test_poisson_cdf_huge_s_is_one_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poisson_cdf(3, 1e200) == 1.0
        assert poisson_cdf(7, 1e60) == 1.0
        got = poisson_cdf(3, np.array([1.0, 1e200]))
    assert got[0] == 1.0 - np.exp(-1.0) * 2.5 and got[1] == 1.0


def test_poisson_cdf_non_finite_raises():
    for s in (np.nan, -1000.0):
        with pytest.raises(DomainError):
            poisson_cdf(3, s)


def test_poisson_overlay_overflow_raises():
    ps = generate(0.7, 14)
    hist = histogram(spacings(ps, 113))  # the last ell whose overlay fits
    assert np.all(np.isfinite(hist.overlay))
    for ell in (114, 171, 172):
        sp = spacings(ps, ell)
        with pytest.raises(DomainError):
            histogram(sp)
        with pytest.raises(DomainError):
            gof_statistics(sp)


# ---------------------------------------------------------------------------
# goodness of fit


def test_gof_exponential_pseudo_sample():
    n = 10**5
    u = (np.arange(n) + 0.5) / n
    sample = -np.log1p(-u)  # exact inverse CDF of Exp(1) on a uniform grid
    report = gof_statistics(SpacingSet(1, sample, n))
    assert report.ks < 0.01
    assert report.mean == pytest.approx(1.0, abs=0.01)


def test_gof_lattice_degenerate_ks():
    report = gof_statistics(spacings(generate(0.5, 10), 1))
    # All spacings sit at 1.0, so the ECDF is 1 there and the distance to the
    # exponential CDF is exactly e^-1.
    assert report.ks == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert report.mean == 1.0
    assert report.variance == 0.0


def test_gof_telescoping_mean():
    ps = generate(0.70880447, 12)
    seq = rescale(ps, cdf_sqrt_half())
    report = gof_statistics(spacings(seq, 1))
    n = seq.size
    assert report.mean == pytest.approx(n * (seq[-1] - seq[0]) / (n - 1), rel=1e-12)


def test_gof_needs_samples():
    with pytest.raises(DomainError):
        gof_statistics(spacings(generate(0.6, 5), 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_spacings_raise(bad):
    values = np.linspace(0.0, 3.0, 200)
    values[57] = bad
    sp = SpacingSet(1, values, values.size)
    with pytest.raises(DomainError):
        histogram(sp)
    with pytest.raises(DomainError):
        gof_statistics(sp)


def test_gof_huge_spacing_gives_finite_ks():
    values = np.linspace(0.0, 3.0, 200)
    values[57] = 1e200
    sp = SpacingSet(3, values, values.size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the variance overflows
        report = gof_statistics(sp)
    assert math.isfinite(report.ks)
    assert report.ks == ks_searchsorted(values, lambda s: poisson_cdf(3, s))
    assert histogram(sp).overflow == 1


def _assert_stats_match_oracles(values, ell):
    """Exact (==) agreement with the bincount histogram and searchsorted KS."""
    sp = SpacingSet(ell, values, values.size)
    h = histogram(sp)
    counts, overflow = histogram_bincount(values, ell)
    assert np.array_equal(h.counts, counts) and h.counts.dtype == np.int64
    assert h.overflow == overflow
    if values.size < 100:
        return
    report = gof_statistics(sp)
    assert report.ks == ks_searchsorted(values, lambda s: poisson_cdf(ell, s))
    live = h.overlay > 0
    assert report.chi2 == float(np.sum((counts[live] - h.overlay[live]) ** 2
                                       / h.overlay[live]))
    assert report.mean == float(np.mean(values))
    assert report.variance == float(np.var(values, ddof=1))


@st.composite
def spacing_samples(draw):
    """Spacings for order ``ell`` that sit on bin edges (as ``k*0.1*ell`` and
    as ``k*5*ell/50``) or up to two ulps from one, signed zeros, negatives,
    values at or past ``5*ell``, and arbitrary values, repeated into long
    tie runs and shuffled."""
    ell = draw(st.integers(1, 7))
    k = np.arange(51)
    edges = np.concatenate([k * 0.1 * ell, k * (5.0 * ell) / 50])
    down = np.nextafter(edges, -np.inf)
    up = np.nextafter(edges, np.inf)
    near = np.concatenate([edges, down, np.nextafter(down, -np.inf),
                           up, np.nextafter(up, np.inf)])
    atom = st.one_of(st.sampled_from(near.tolist()),
                     st.sampled_from([0.0, -0.0, 5.0 * ell]),
                     st.floats(-2.0, 0.0), st.floats(5.0 * ell, 1e6),
                     st.floats(0.0, 5.0 * ell))
    atoms = draw(st.lists(atom, min_size=1, max_size=40))
    if draw(st.booleans()):
        atoms += near.tolist()  # every bin boundary at once
    reps = draw(st.lists(st.integers(1, 30), min_size=len(atoms), max_size=len(atoms)))
    values = np.repeat(np.array(atoms, dtype=np.float64), reps)
    size = draw(st.sampled_from([values.size, max(values.size, 120)]))
    values = np.resize(values, size)
    seed = draw(st.integers(0, 2**32 - 1))
    return ell, np.random.default_rng(seed).permutation(values)


@settings(max_examples=100, deadline=None)
@given(spacing_samples())
def test_spacing_stats_match_oracles(case):
    ell, values = case
    _assert_stats_match_oracles(values, ell)


@pytest.mark.parametrize("lam", [0.5, GOLDEN, 0.70880447, SQRT_HALF])
def test_spacing_stats_match_oracles_on_point_sets(lam):
    ps = generate(lam, 12)
    for seq in (ps, rescale(ps, cdf_sqrt_half())):
        for ell in (1, 2, 3, 7):
            _assert_stats_match_oracles(spacings(seq, ell).values, ell)


# ---------------------------------------------------------------------------
# pair correlation


def lattice_r2(s, n):
    k = math.floor(s)
    k = min(k, (1 << n) - 1)
    return 2 * k - k * (k + 1) / (1 << n)


def test_pair_correlation_lattice():
    ps = generate(0.5, 4)
    grid = [0.0, 0.5, 1.0, 2.5, 7.0]
    curve = pair_correlation(ps, grid)
    assert curve.r_values.tolist() == [lattice_r2(s, 4) for s in grid]
    assert curve.r_values[3] == 3.625


def test_pair_correlation_zero_s_binary_rationals():
    curve = pair_correlation(generate(0.5, 8), [0.0])
    assert curve.r_values[0] == 0.0


def test_pair_correlation_saturation():
    ps = generate(0.5, 4)
    curve = pair_correlation(ps, [16.0, 100.0])
    assert np.all(curve.r_values == 15.0)


def test_pair_correlation_matches_all_pairs():
    rng = np.random.default_rng(9090)
    grid = [0.0, 0.5, 1.0, 2.5, 7.0]
    for lam in 0.52 + 0.38 * rng.random(4):
        for n in (6, 10):
            ps = generate(lam, n)
            curve = pair_correlation(ps, grid)
            for s, r in zip(grid, curve.r_values):
                want = all_pairs_ordered_count(ps.values, s / (1 << n))
                assert round(r * (1 << n)) == want


def test_pair_correlation_monotone_and_bounded():
    ps = generate(0.7301, 12)
    grid = np.linspace(0.0, 40.0, 17)
    curve = pair_correlation(ps, grid)
    assert np.all(np.diff(curve.r_values) >= 0)
    assert np.all(curve.r_values <= (1 << 12) - 1)


def test_pair_correlation_uniform_slope_convention():
    rng = np.random.default_rng(1234)
    values = np.sort(rng.random(1 << 16))
    grid = [0.5, 1.0, 2.0, 4.0]
    curve = pair_correlation(values, grid)
    slopes = curve.r_values / np.asarray(grid)
    assert np.all((1.8 <= slopes) & (slopes <= 2.2))


def test_pair_correlation_grid_validation():
    ps = generate(0.6, 4)
    with pytest.raises(DomainError):
        pair_correlation(ps, [2.0, 1.0])
    with pytest.raises(DomainError):
        pair_correlation(ps, [-1.0, 1.0])
    with pytest.raises(DomainError):
        pair_correlation(ps, [])
    with pytest.raises(DomainError):
        pair_correlation(ps, [float("nan")])
    with pytest.raises(DomainError):
        pair_correlation(ps, [1.0, float("inf")])


def test_pair_correlation_rejects_empty_and_non_finite_values():
    with pytest.raises(DomainError):
        pair_correlation(np.array([]), [1.0])
    with pytest.raises(DomainError):
        pair_correlation(np.array([0.0, 0.5, np.inf]), [1.0])
    with pytest.raises(DomainError):
        pair_correlation(np.array([0.0, np.nan, 0.5]), [1.0])


@st.composite
def sorted_values_with_ties(draw):
    """A sorted array in which some values repeat, and a threshold that is 0,
    arbitrary, or within one ulp of a difference of two of its values (where
    ``values[i] + thr`` and ``values[j] - values[i]`` can round apart)."""
    base = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40))
    copies = draw(st.lists(st.sampled_from(base), max_size=20))
    values = np.sort(np.array(base + copies, dtype=np.float64))
    i, j = sorted(draw(st.lists(st.integers(0, values.size - 1),
                                min_size=2, max_size=2)))
    diff = values[j] - values[i]
    near = [float(diff), float(np.nextafter(diff, -1.0)), float(np.nextafter(diff, 10.0))]
    thr = draw(st.sampled_from([0.0] + [t for t in near if t >= 0.0])
               | st.floats(0.0, 10.0))
    return values, thr


@settings(max_examples=300, deadline=None)
@given(sorted_values_with_ties())
def test_window_count_matches_loop_and_all_pairs(case):
    values, thr = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_COUNT_BLOCK", 3)  # exercise block boundaries
        got = stats._window_count(values, thr)
    assert got == window_count_loop(values, thr)
    assert 2 * got == all_pairs_ordered_count(values, thr)


def test_pair_correlation_interval_full_matches_plain():
    ps = generate(0.5, 6)
    grid = [0.5, 1.0, 2.5]
    full = pair_correlation_interval(ps, (0.0, 1.0), grid)
    plain = pair_correlation(ps, grid)
    assert full.point_count == 1 << 6
    assert np.array_equal(full.r_values, plain.r_values)


def test_pair_correlation_interval_half_lattice():
    curve = pair_correlation_interval(generate(0.5, 4), (0.0, 0.5), [2.5])
    assert curve.point_count == 8  # J is half-open: k/16 for k = 0..7
    assert curve.r_values[0] == 2 * 2 - 2 * 3 / 8


def test_pair_correlation_interval_errors():
    ps = generate(0.9, 4)  # support ends at 1 - 0.9**4 = 0.3439
    with pytest.raises(DomainError):
        pair_correlation_interval(ps, (0.4, 0.5), [1.0])  # disjoint from support
    with pytest.raises(DomainError):
        pair_correlation_interval(ps, (0.5, 0.5), [1.0])
    with pytest.raises(DomainError):
        pair_correlation_interval(generate(0.6, 4, Form.PRIMED), (0.0, 1.0), [1.0])


# ---------------------------------------------------------------------------
# coincidence rate


def test_coincidence_rate_golden_n3():
    assert coincidence_rate(generate_exact((-1, 1, 1), 3)) == 0.25


def test_coincidence_rate_garsia_zero():
    for n in (8, 14, 20):
        assert coincidence_rate(generate_exact((-2, 0, 1), n)) == 0.0


def test_coincidence_rate_single_level():
    for minpoly in [(-1, 1, 1), (-2, 0, 1), (1, -1, -1, -1)]:
        assert coincidence_rate(generate_exact(minpoly, 1)) == 0.0


# ---------------------------------------------------------------------------
# gaps


def test_gaps_lattice_primed():
    for n in (4, 8):
        report = gaps(generate(0.5, n, Form.PRIMED))
        assert report.min_gap == report.max_gap == 2.0 ** -(n - 1)


def test_gaps_ejk_point_six():
    report = gaps(generate(0.6, 5, Form.PRIMED))
    assert report.ejk_prediction_match
    assert report.max_gap == pytest.approx(0.6**4, rel=1e-14)
    assert report.interior_max_gap == pytest.approx(0.1296, rel=1e-12)
    # the predicted consecutive pair (1 + lam^2, 1 + lam^2 + lam^4) is a gap
    vals = generate(0.6, 5, Form.PRIMED).values
    left = 1 + 0.36
    i = int(np.searchsorted(vals, left - 1e-12))
    assert vals[i] == pytest.approx(1.36, rel=1e-14)
    assert vals[i + 1] == pytest.approx(1.4896, rel=1e-14)


def test_gaps_ejk_requires_odd_and_small_lambda():
    assert not gaps(generate(0.6, 6, Form.PRIMED)).ejk_prediction_match  # even N
    assert not gaps(generate(0.65, 5, Form.PRIMED)).ejk_prediction_match  # above golden


def test_gaps_largest_is_lambda_power():
    for lam in (0.55, 0.6, 0.75):
        for n in (5, 9):
            ps = generate(lam, n, Form.PRIMED)
            report = gaps(ps)
            want = lam ** (n - 1)
            assert abs(report.max_gap - want) <= 8 * n * np.spacing(ps.values[-1])
            # the first gap (0 to lam^(n-1)) ties the maximum up to rounding
            first_gap = ps.values[1] - ps.values[0]
            assert report.max_gap - first_gap <= 8 * n * np.spacing(ps.values[-1])
            assert report.max_gap_left == ps.values[report.max_gap_index]


def test_gaps_standard_form_scaled():
    lam = 0.6
    ps = generate(lam, 5, Form.STANDARD)
    report = gaps(ps)
    want = (1 - lam) * lam**4
    assert abs(report.max_gap - want) <= 8 * 5 * np.spacing(ps.values[-1])
    assert report.ejk_prediction_match


def test_gaps_min_excludes_coincidence_shadow():
    # Golden-ratio coincidences look like ~1 ulp gaps; the default tolerance
    # must skip them, leaving the Pisot-separated true minimum.
    ps = generate(GOLDEN, 12, Form.PRIMED)
    report = gaps(ps)
    assert report.min_gap > 100 * ps.distinct_tolerance()
    assert report.min_gap == pytest.approx(GOLDEN**12, rel=1e-9)


def test_garsia_separation_stability():
    vals = []
    for n in range(10, 17):
        report = gaps(generate(SQRT_HALF, n, Form.PRIMED))
        vals.append(report.min_gap * 2.0**n)
    assert min(vals) > 0
    assert max(vals) / min(vals) < 4.0


def test_pisot_separation_stability():
    ratios = []
    for n in range(10, 17):
        report = gaps(generate(GOLDEN, n, Form.PRIMED))
        ratios.append(report.min_gap / GOLDEN**n)
    assert min(ratios) > 0
    assert max(ratios) / min(ratios) < 4.0


def test_gaps_validation():
    with pytest.raises(DomainError):
        gaps(generate(0.6, 5), distinct_tol=-1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_gaps_rejects_non_finite_tolerance(tol):
    with pytest.raises(DomainError):
        gaps(generate(0.6, 5), distinct_tol=tol)


# ---------------------------------------------------------------------------
# CSV output


def test_histogram_csv_format(tmp_path):
    h = histogram(spacings(generate(0.5, 8), 1))
    path = tmp_path / "hist.csv"
    write_histogram_csv(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count,overlay"
    assert len(lines) == 51
    left, right, count, overlay = lines[11].split(",")
    assert float(left) == pytest.approx(1.0)
    assert int(count) == (1 << 8) - 1


def test_curve_csv_format(tmp_path):
    curve = pair_correlation(generate(0.5, 4), [2.5])
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,r2"
    assert lines[1] == "2.5,3.625"
