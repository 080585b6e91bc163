import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvlab import stats
from bcvlab import (CdfModel, DomainError, Form, PointSet, SpacingSet,
                    cdf_empirical, cdf_sqrt_half, coincidence_rate, gaps,
                    generate, generate_exact, gof_statistics, histogram,
                    pair_correlation, pair_correlation_interval,
                    poisson_cdf, poisson_reference, rescale, spacings)
from bcvlab.stats import write_curve_csv, write_histogram_csv
from oracles import (all_pairs_ordered_count, cdf_sqrt_half_where, gamma_cdf_int,
                     gaps_full, histogram_bincount, ks_searchsorted, window_count_loop,
                     window_count_searchsorted)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT_HALF = 2.0**-0.5
# Block sizes for stats._BLOCK that put block boundaries inside small inputs;
# 128 is also numpy's largest unsplit pairwise-summation run.
SMALL_BLOCKS = [7, 128]


def traced_peak(fn, *args) -> int:
    """Peak traced allocation, in bytes, while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def test_spacings_validation():
    ps = generate(0.6, 3)
    with pytest.raises(DomainError):
        spacings(ps, 8)
    with pytest.raises(DomainError):
        spacings(ps, 0)
    with pytest.raises(DomainError):
        spacings(np.array([1.0, 0.5]), 1)  # unsorted


@pytest.mark.parametrize("source", [[], [0.5], np.zeros(0)])
def test_spacings_refuse_fewer_than_two_values_by_count(source):
    with pytest.raises(DomainError, match="point count of spacings must be at least 2"):
        spacings(source, 1)


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
@given(cdf_inputs(), st.sampled_from(SMALL_BLOCKS + [stats._BLOCK]))
def test_cdf_models_match_oracles(x, block):
    F = EMPIRICAL_06
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        closed, empirical = cdf_sqrt_half().evaluate(x), F.evaluate(x)
    y, clamped = closed
    y_ref, clamped_ref = cdf_sqrt_half_where(x)
    assert y.shape == x.shape and y.tobytes() == y_ref.tobytes()
    assert clamped == clamped_ref
    lo, hi = F.support
    y, clamped = empirical
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


@pytest.mark.parametrize("knots", [
    dict(knots_x=[1.0, 0.0], knots_y=[0.0, 1.0]),  # mapped ascending input to all 1.0
    dict(knots_x=[0.0, np.inf], knots_y=[0.0, 1.0]),  # mapped ascending input to all 0.0
    dict(knots_x=[0.0, 1.0]),  # evaluating it raised numpy's ValueError
    dict(knots_y=[0.0, 1.0]),
    dict(knots_x=[0.0, 0.0, 1.0], knots_y=[0.0, 0.5, 1.0]),
    dict(knots_x=[0.0, np.nan], knots_y=[0.0, 1.0]),
    dict(knots_x=[0.5], knots_y=[0.5]),
    dict(knots_x=[0.0, 1.0], knots_y=[0.0, 0.5, 1.0]),
    dict(knots_x=[[0.0, 1.0]], knots_y=[[0.0, 1.0]]),
    dict(knots_x=0.5, knots_y=0.5),
    dict(knots_x=["a", "b"], knots_y=[0.0, 1.0]),
])
def test_cdf_model_refuses_knots_it_cannot_use(knots):
    with pytest.raises(DomainError):
        CdfModel(**knots)


def test_cdf_model_keeps_usable_knots_as_float_arrays():
    model = CdfModel(knots_x=[0, 1], knots_y=[1, 0])  # knots_y is left to the output check
    assert model.knots_x.dtype == model.knots_y.dtype == np.float64
    assert model.support == (0.0, 1.0) and model(0.25) == 0.75


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


def spy_checks(monkeypatch) -> tuple[list, list]:
    """Record the arrays ``pointset._sorted_finite`` checks and the sizes of
    the slices ``stats._cdf_block`` evaluates and checks."""
    checked, evaluated = [], []
    check, block = stats._pointset._sorted_finite, stats._cdf_block

    def check_spy(values, *args):
        checked.append(values)
        return check(values, *args)

    def block_spy(model, v, *args):
        evaluated.append(v.size)
        return block(model, v, *args)

    monkeypatch.setattr(stats._pointset, "_sorted_finite", check_spy)
    monkeypatch.setattr(stats, "_cdf_block", block_spy)
    return checked, evaluated


def test_rescale_checks_only_its_output(monkeypatch):
    # The point set's values are ascending by construction; only the model's
    # output is checked as finite and ascending, once, by the blocks that
    # evaluate it.
    checked, evaluated = spy_checks(monkeypatch)
    monkeypatch.setattr(stats, "_BLOCK", 1000)
    out = rescale(generate(0.7, 12), cdf_sqrt_half())
    assert checked == []
    assert sorted(evaluated) == [96, 1000, 1000, 1000, 1000] and out.size == 4096


@pytest.mark.parametrize("ell, sizes", [(1, [96, 1001, 1001, 1001, 1001]),
                                        (999, [96, 1096, 1999, 1999, 1999]),
                                        (1000, [96, 1096, 2000, 2000, 2000]),
                                        (3000, [0, 0, 0, 96, 96, 1000,
                                                1001, 1001, 1001, 1001])])
def test_spacings_with_a_model_check_only_the_cdf(monkeypatch, ell, sizes):
    # No rescaled copy is made or checked: each block evaluates the CDF over
    # its values and the ell past them, or for ell past the block over its
    # values and one more, then over the ell-th ones on.
    checked, evaluated = spy_checks(monkeypatch)
    monkeypatch.setattr(stats, "_BLOCK", 1000)
    sp = spacings(generate(0.7, 12), ell, cdf_sqrt_half())
    assert checked == []
    assert sorted(evaluated) == sizes and sp.values.size == 4096 - ell


def test_rescale_warns_on_self_cdf():
    ps = generate(0.6429, 10)
    F = cdf_empirical(0.6429, 10)
    with pytest.warns(UserWarning):
        rescale(ps, F)


@pytest.mark.parametrize("source", [generate(0.6, 5, Form.PRIMED), generate(0.6, 5).values])
def test_spacings_with_a_model_need_a_standard_point_set(source):
    with pytest.raises(DomainError, match="STANDARD"):
        spacings(source, 1, cdf_sqrt_half())


@pytest.mark.parametrize("knots_y", [[1.0, 0.0], [0.0, np.nan]])
@pytest.mark.parametrize("ell", [1, 3, 63])
def test_spacings_with_a_model_reject_non_monotone_or_nan_output(knots_y, ell):
    model = CdfModel(knots_x=np.array([0.0, 1.0]), knots_y=np.array(knots_y))
    with pytest.raises(DomainError):
        spacings(generate(0.6, 6), ell, model)


def test_spacings_with_a_model_warn_on_self_cdf():
    with pytest.warns(UserWarning, match="own empirical CDF"):
        spacings(generate(0.6429, 10), 1, cdf_empirical(0.6429, 10))


def descending_at(values: np.ndarray, i: int) -> CdfModel:
    """A model that is ascending on ``values`` except from ``values[i - 1]``
    to ``values[i]``, where it steps down."""
    return CdfModel(knots_x=[0.0, values[i - 1], values[i], 1.0],
                    knots_y=[0.0, 0.5, 0.49, 1.0])


@pytest.mark.parametrize("i", [5, 8, 16, 31, 56])
@pytest.mark.parametrize("ell", [1, 3, 8, 9, 40, 63])
def test_one_descending_pair_is_found_at_every_place(monkeypatch, i, ell):
    # Blocks of 8 values: i = 8, 16 and 56 put the pair across a block edge,
    # and i = 31 past n - ell for the larger ell, where no spacing reads it.
    values = np.linspace(0.0, 0.9, 64)
    ps = PointSet(0.6, 6, Form.STANDARD, values)
    model = descending_at(values, i)
    monkeypatch.setattr(stats, "_BLOCK", 8)
    with pytest.raises(DomainError):
        rescale(ps, model)
    with pytest.raises(DomainError):
        spacings(ps, ell, model)
    fine = CdfModel(knots_x=model.knots_x, knots_y=[0.0, 0.5, 0.5, 1.0])
    assert spacings(ps, ell, fine).values.tobytes() == spacings(rescale(ps, fine), ell).values.tobytes()


@pytest.mark.parametrize("model", [cdf_sqrt_half(), cdf_empirical(SQRT_HALF, 16)],
                         ids=["sqrt-half", "empirical:16"])
def test_rescale_peak_memory(model):
    # The output is the only full-size allocation; the CDF is evaluated one
    # block at a time into it.
    ps = generate(0.7, 20)
    assert traced_peak(rescale, ps, model) <= 1.25 * ps.values.nbytes


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


def test_poisson_order_must_be_positive_integer():
    # ell = 0 would make poisson_cdf an empty sum (1.0) and 1.5 a TypeError.
    for ell in (0, -1, 1.5, 2.0):
        with pytest.raises(DomainError):
            poisson_cdf(ell, 1.0)
        with pytest.raises(DomainError):
            poisson_reference(ell, 1.0)
    with pytest.raises(DomainError):
        spacings(generate(0.6, 4), 1.5)
    assert poisson_cdf(np.int64(2), 1.0) == poisson_cdf(2, 1.0)
    assert poisson_reference(np.int64(2), 1.0) == poisson_reference(2, 1.0)


def test_poisson_cdf_huge_s_is_one_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poisson_cdf(3, 1e200) == 1.0
        assert poisson_cdf(7, 1e60) == 1.0
        got = poisson_cdf(3, np.array([1.0, 1e200]))
    assert got[0] == 1.0 - np.exp(-1.0) * 2.5 and got[1] == 1.0


def test_poisson_cdf_non_finite_raises():
    for s in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            poisson_cdf(3, s)


def test_poisson_cdf_is_zero_below_zero():
    # The Gamma(ell, 1) CDF, not the closed form continued past 0 (which
    # gave -1.718 at ell = 1 and 1.0 at ell = 2, and inf below about -709).
    assert poisson_cdf(1, -1.0) == 0.0 and poisson_cdf(2, -1.0) == 0.0
    for ell in (1, 3, 113):
        for s in (-0.0, 0.0, -5e-324, -1000.0, -np.inf):
            got = poisson_cdf(ell, s)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
    got = poisson_cdf(2, np.array([-800.0, -0.0, 1.0]))
    assert got.tolist() == [0.0, 0.0, poisson_cdf(2, 1.0)]


def test_gof_spacing_below_exp_range_gives_finite_ks():
    values = np.linspace(0.0, 3.0, 200)
    values[57] = -1000.0  # exp(1000) overflows a double
    report = gof_statistics(SpacingSet(2, values, values.size))
    assert math.isfinite(report.ks)
    assert report.ks == ks_searchsorted(values, lambda s: poisson_cdf(2, s))


@pytest.mark.parametrize("ell", [0, -1, 1.5])
def test_histogram_and_fit_refuse_bad_order(ell):
    # 0 and -1 give no bins and 1.5 is no order: each is refused before any pass.
    sp = SpacingSet(ell, np.linspace(0.0, 3.0, 200), 201)
    with pytest.raises(DomainError):
        histogram(sp)
    with pytest.raises(DomainError):
        gof_statistics(sp)


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


def test_gof_overflowing_variance_raises():
    values = np.linspace(0.0, 3.0, 200)
    values[57] = 1e200  # its squared deviation overflows a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            gof_statistics(SpacingSet(3, values, values.size))


def test_gof_huge_spacing_gives_finite_ks():
    values = np.linspace(0.0, 3.0, 200)
    values[57] = 1e150
    sp = SpacingSet(3, values, values.size)
    report = gof_statistics(sp)
    assert math.isfinite(report.ks) and math.isfinite(report.variance)
    assert report.ks == ks_searchsorted(values, lambda s: poisson_cdf(3, s))
    assert histogram(sp).overflow == 1


def _assert_stats_match_oracles(values, ell, block=stats._BLOCK):
    """Exact (==) agreement with the bincount histogram, searchsorted KS and
    numpy's mean and variance, with ``stats._BLOCK`` set to ``block``."""
    sp = SpacingSet(ell, values, values.size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        h = histogram(sp)
        report = gof_statistics(sp) if values.size >= 100 else None
    counts, overflow = histogram_bincount(values, ell)
    assert np.array_equal(h.counts, counts) and h.counts.dtype == np.int64
    assert h.overflow == overflow
    if report is None:
        return
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
@given(spacing_samples(), st.sampled_from(SMALL_BLOCKS + [stats._BLOCK]))
def test_spacing_stats_match_oracles(case, block):
    ell, values = case
    _assert_stats_match_oracles(values, ell, block)


@pytest.mark.parametrize("lam", [0.5, GOLDEN, 0.70880447, SQRT_HALF])
def test_spacing_stats_match_oracles_on_point_sets(lam):
    ps = generate(lam, 12)
    for seq in (ps, rescale(ps, cdf_sqrt_half())):
        for ell in (1, 2, 3, 7):
            for block in SMALL_BLOCKS + [stats._BLOCK]:
                _assert_stats_match_oracles(spacings(seq, ell).values, ell, block)


BUCKET_ELLS = [1, 2, 3, 7, 113]


def _bucket_edges(ell, step=7):
    """Every ``step``-th fine bucket edge and every bin edge of order ``ell``,
    each with its neighbors one ulp away."""
    fine = stats.HIST_BIN_COUNT * stats._BUCKETS_PER_BIN
    k = np.union1d(np.arange(0, fine + 1, step),
                   np.arange(0, fine + 1, stats._BUCKETS_PER_BIN))
    edges = np.concatenate([k * (5.0 * ell / fine), k * (0.1 * ell / stats._BUCKETS_PER_BIN)])
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@pytest.mark.parametrize("ell", BUCKET_ELLS)
def test_spacing_stats_on_bucket_and_bin_edges(ell):
    rng = np.random.default_rng(ell)
    values = rng.permutation(_bucket_edges(ell))
    for block in SMALL_BLOCKS + [stats._BLOCK]:
        _assert_stats_match_oracles(values, ell, block)


@pytest.mark.parametrize("ell", BUCKET_ELLS)
def test_spacing_stats_on_ties(ell):
    rng = np.random.default_rng(ell)
    heavy = np.repeat(rng.choice(_bucket_edges(ell, 101), 12), rng.integers(1, 400, 12))
    for values in (np.full(150, 0.4 * ell), np.full(100, 5.0 * ell), rng.permutation(heavy)):
        for block in SMALL_BLOCKS + [stats._BLOCK]:
            _assert_stats_match_oracles(values, ell, block)


@pytest.mark.parametrize("ell", BUCKET_ELLS)
def test_spacing_stats_with_maximum_in_tail_bucket(ell):
    # Most spacings lie past 5*ell and the rest far below, so the ECDF lags
    # the CDF most at the first spacing past 5*ell.
    rng = np.random.default_rng(ell)
    values = rng.permutation(np.concatenate([
        rng.uniform(0.0, 0.2 * ell, 30), np.linspace(5.0 * ell, 40.0 * ell, 170)]))
    ordered = np.sort(values)
    gap = np.abs(np.arange(1, 201) / 200 - poisson_cdf(ell, ordered))
    assert ordered[np.argmax(gap)] >= 5.0 * ell
    for block in SMALL_BLOCKS + [stats._BLOCK]:
        _assert_stats_match_oracles(values, ell, block)


def test_ks_tail_bucket_reaches_cdf_one():
    # 990 exponential quantiles lag their ECDF by 0.008 at most; 10 spacings
    # far past 5 put the maximum 0.009 at the first of them, where the CDF is
    # 1 rather than its value 0.9933 at 5.
    n = 1000
    u = np.maximum((np.arange(990) + 1) / n - 0.008, (np.arange(990) + 0.5) / n * 0.05)
    values = np.concatenate([-np.log1p(-u), 30.0 + np.arange(10)])
    ks = ks_searchsorted(values, lambda s: poisson_cdf(1, s))
    assert ks == pytest.approx(0.009, abs=1e-12)
    for block in SMALL_BLOCKS + [stats._BLOCK]:
        _assert_stats_match_oracles(np.random.default_rng(1).permutation(values), 1, block)


@pytest.mark.parametrize("ell", BUCKET_ELLS)
def test_spacing_stats_with_negative_spacings(ell):
    rng = np.random.default_rng(ell)
    values = rng.permutation(np.concatenate([
        -rng.uniform(0.0, 2.0, 40), [-0.0, -5e-324, -1e-300],
        rng.gamma(ell, size=157)]))
    for block in SMALL_BLOCKS + [stats._BLOCK]:
        _assert_stats_match_oracles(values, ell, block)


@pytest.mark.parametrize("ell", BUCKET_ELLS)
def test_spacing_stats_at_one_hundred_spacings(ell):
    values = np.random.default_rng(ell).gamma(ell, size=100)
    for block in SMALL_BLOCKS + [stats._BLOCK]:
        _assert_stats_match_oracles(values, ell, block)


def test_ks_sorts_only_the_picked_buckets():
    sp = spacings(rescale(generate(0.70880447, 16), cdf_sqrt_half()), 1)
    sorted_sizes = []
    sort = np.sort

    def spy(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "sort", spy)
        report = gof_statistics(sp)
    assert report.ks == ks_searchsorted(sp.values, lambda s: poisson_cdf(1, s))
    assert sorted_sizes and max(sorted_sizes) < sp.values.size // 10


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_gof_blocks_match_oracles_across_boundaries(block):
    # A run of 3*block tied spacings spans two block boundaries once sorted,
    # and 205 + 3*block values (never a multiple of 8, above 128) make the
    # mean and variance follow numpy's pairwise halving across blocks.
    rng = np.random.default_rng(5)
    values = rng.permutation(np.concatenate([np.full(3 * block, 1.0),
                                             rng.exponential(size=205)]))
    for ell in (1, 3):
        _assert_stats_match_oracles(values, ell, block)


def test_gof_peak_memory():
    # The bucket count and the KS gather stream the spacings, with no sorted
    # copy; the count is built inside the traced calls.
    for lam in (SQRT_HALF, 0.7035834364832109):
        sp = spacings(rescale(generate(lam, 20), cdf_sqrt_half()), 1)

        def both():
            histogram(sp)
            gof_statistics(sp)

        assert traced_peak(both) <= 0.5 * sp.values.nbytes


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


def test_pair_correlation_scalar_grid():
    # Lattice k/16: each point's two neighbours lie at 1/16, the s = 1 radius.
    curve = pair_correlation(generate(0.5, 4), 1.0)
    assert curve.s_grid.tolist() == [1.0]
    assert curve.r_values.tolist() == [1.875]


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
    # A 2-D grid, or one that is not numbers, would end in a numpy error.
    for grid in ([[0.5, 1.0]], [[0.5], [1.0]], ["a"], [[0.5], [1.0, 2.0]]):
        with pytest.raises(DomainError):
            pair_correlation(ps, grid)
        with pytest.raises(DomainError):
            pair_correlation_interval(ps, (0.2, 0.8), grid)


def test_pair_correlation_rejects_empty_and_non_finite_values():
    with pytest.raises(DomainError):
        pair_correlation(np.array([]), [1.0])
    with pytest.raises(DomainError):
        pair_correlation(np.array([0.0, 0.5, np.inf]), [1.0])
    with pytest.raises(DomainError):
        pair_correlation(np.array([0.0, np.nan, 0.5]), [1.0])


@st.composite
def sorted_values_and_grid(draw):
    """A sorted array in which some values repeat, and an ascending grid of
    thresholds holding 0, repeated values, arbitrary values, and differences
    of two of the array's values with their ``nextafter`` neighbours (where
    ``values[i] + thr`` and ``values[j] - values[i]`` can round apart)."""
    base = draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40))
    copies = draw(st.lists(st.sampled_from(base), max_size=20))
    values = np.sort(np.array(base + copies, dtype=np.float64))
    index = st.integers(0, values.size - 1)
    near = [0.0]
    for i, j in draw(st.lists(st.tuples(index, index), min_size=1, max_size=3)):
        diff = abs(values[j] - values[i])
        near += [float(diff), float(np.nextafter(diff, -1.0)), float(np.nextafter(diff, 10.0))]
    picks = draw(st.lists(st.sampled_from(near) | st.floats(0.0, 10.0), max_size=6))
    grid = np.sort(np.array([0.0] + [t for t in picks if t >= 0.0]))
    return values, grid


@settings(max_examples=300, deadline=None)
@given(sorted_values_and_grid(), st.sampled_from([3, 7]), st.sampled_from([1, 2, 16]))
def test_window_count_matches_loop_and_all_pairs(case, block, depth):
    # Small blocks and depths put block ends inside the array and send rows
    # down the search path past the depth.
    values, grid = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        mp.setattr(stats, "_DEPTH", depth)
        got = stats._grid_counts(values, grid).tolist()
    for count, thr in zip(got, grid):
        assert count == window_count_loop(values, thr)
        assert count == window_count_searchsorted(values, thr, block)
        assert 2 * count == all_pairs_ordered_count(values, thr)


def test_window_ends_steps_back_from_rounded_sum():
    # 1 + 0.6 ulp rounds up to 1 + 1 ulp, so the search lands on the last
    # value, whose difference 1 ulp exceeds the threshold: j steps back to 1.
    values = np.array([1.0, 1.0, 1.0 + 2.0**-52])
    thr = 0.6 * 2.0**-52
    assert 1.0 + thr == values[2]
    assert stats._window_ends(values, np.array([0, 1]), thr).tolist() == [1, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_DEPTH", 1)
        assert stats._grid_counts(values, np.array([thr])).tolist() == [1]


# Reciprocals of Pisot numbers: the real roots of x^2+x-1, x^3+x^2-1 and
# x^3+x^2+x-1.
CLUSTERED = [GOLDEN, 0.7548776662466927, 0.5436890126920764]


@pytest.mark.parametrize("levels", range(10, 15))
@pytest.mark.parametrize("lam", CLUSTERED)
def test_pair_correlation_clustered_matches_loop(lam, levels):
    # Many points coincide or nearly do at these parameters, so windows run
    # far past the scan depth.
    ps = generate(lam, levels)
    n = ps.point_count
    grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    want = [2.0 * window_count_loop(ps.values, s * 1.0 / n) / n for s in grid]
    for depth in (stats._DEPTH, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_DEPTH", depth)
            assert pair_correlation(ps, grid).r_values.tolist() == want


@pytest.mark.parametrize("lam", [0.7, 0.7548776662466927])
def test_pair_correlation_peak_memory(lam):
    # The scan and the search both work one block of rows at a time; at
    # 0.7548... most rows reach past the scan depth.
    ps = generate(lam, 20)
    assert traced_peak(pair_correlation, ps, [0, 0.5, 1, 2, 4]) <= 0.3 * ps.values.nbytes


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


@pytest.mark.parametrize("minpoly, levels", [
    ((-1, 1, 1), 16),  # golden
    ((1, -1, 0, -1, 0, -1, 0, -1, 0, -1), 14),  # degree 9, zero at 0.62037
    ((-2, -2, 0, 1), 12),  # Garsia, x^3 - 2x - 2
])
def test_coincidence_rate_matches_python_sum(minpoly, levels):
    eps = generate_exact(minpoly, levels)
    want = sum(int(c) * (int(c) - 1) for c in eps.multiplicities) / 2**levels
    assert coincidence_rate(eps) == want


def test_coincidence_rate_peak_memory():
    # A Garsia level is tie-free, so its multiplicities are a broadcast 1.
    eps = generate_exact((-2, -2, 0, 1), 18)
    assert eps.multiplicities.size == 2**18
    assert coincidence_rate(eps) == 0.0
    assert traced_peak(coincidence_rate, eps) < 0.05 * 8 * eps.multiplicities.size


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


@pytest.mark.parametrize("left,size,match", [
    (1.3025, 1.0, True),  # lam^4 at 1 + lam^2, as predicted
    (1.3025, 1.5, False),  # the right place, a gap 1.5 lam^4 wide
    (0.04, 1.0, False),  # a gap lam^4 wide at the wrong place
])
def test_gaps_ejk_needs_predicted_size_and_place(left, size, match):
    # Hand-built sets whose interior gaps are 0.02, size * lam^4, 0.02.
    lam = 0.55
    gap = size * lam**4
    values = np.array([0.0, left - 0.02, left, left + gap, left + gap + 0.02, 2.0])
    report = gaps(PointSet(lam, 5, Form.PRIMED, values))
    assert report.interior_max_gap == pytest.approx(gap) and report.interior_max_left == left
    assert report.ejk_prediction_match is match


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


def test_gaps_tolerance_above_every_gap():
    # No gap exceeds the tolerance, so the minimum over the rest is empty: 0.
    assert gaps(generate(0.6, 6), distinct_tol=10.0).min_gap == 0.0


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0.5, 0.55, 0.6, GOLDEN, SQRT_HALF, 0.72, 0.85]) | st.floats(0.5, 0.95),
       st.integers(1, 14), st.sampled_from(list(Form)),
       st.sampled_from([None, 0.0]) | st.floats(0.0, 0.05),
       st.sampled_from(SMALL_BLOCKS + [stats._BLOCK]))
def test_gaps_match_full_array_oracle(lam, levels, form, tol, block):
    ps = generate(lam, levels, form)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        report = gaps(ps, tol)
    tol = ps.distinct_tolerance() if tol is None else tol
    want = gaps_full(ps.values, ps.lam, levels, form is Form.STANDARD, tol)
    assert repr(asdict(report)) == repr(want)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_gaps_blocks_keep_first_maxima_and_ejk(block):
    lattice = generate(0.5, 10, Form.PRIMED)
    odd = generate(0.6, 11, Form.PRIMED)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        tied, ejk = gaps(lattice), gaps(odd)
    # Every lattice gap ties, so the first gap is the largest and the first
    # interior gap the largest interior one, whatever block holds them.
    assert tied.max_gap_index == 0
    assert tied.interior_max_left == lattice.values[1]
    # The predicted gap's left end 1 + lam^2 + ... + lam^8 lies past the first block.
    assert ejk.ejk_prediction_match
    assert np.searchsorted(odd.values, sum(0.36 ** k for k in range(5)) - 1e-9) > block


@pytest.mark.parametrize("lam", [0.55, 0.58, 0.6, 0.61])
@pytest.mark.parametrize("levels", [15, 17, 19])
@pytest.mark.parametrize("form", list(Form))
def test_gaps_ejk_matches_full_array_oracle(lam, levels, form):
    # Sets of several blocks where the EJK law holds, so the search window
    # around the predicted gap is what decides the match.
    ps = generate(lam, levels, form)
    report = gaps(ps)
    want = gaps_full(ps.values, lam, levels, form is Form.STANDARD, ps.distinct_tolerance())
    assert repr(asdict(report)) == repr(want)
    assert report.ejk_prediction_match


@pytest.mark.parametrize("lam,levels", [(0.7, 20), (0.6, 19)])
def test_gaps_peak_memory(lam, levels):
    # At (0.6, 19) the EJK law holds, so its search window is read as well.
    ps = generate(lam, levels, Form.PRIMED)
    assert traced_peak(gaps, ps) <= 0.25 * ps.values.nbytes


def test_gaps_validation():
    with pytest.raises(DomainError):
        gaps(generate(0.6, 5), distinct_tol=-1.0)
    with pytest.raises(DomainError):  # a hand-built set with no gap
        gaps(PointSet(0.5, 1, Form.PRIMED, np.zeros(1)))


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
