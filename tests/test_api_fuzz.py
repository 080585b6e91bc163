"""Fuzz the library: every public function returns a result or raises
``DomainError`` or ``SizeCapError``.

``CALLS`` names each function of ``bcvlab.__all__`` with a valid argument
for each parameter and its kind.  An example replaces some arguments with
edge cases from ``fuzzing.EDGE``:

* number and text parameters draw an edge value;
* sequence parameters (interval ends, coefficients, s and rho grids, level
  ranges, point values) draw a bare edge value, or the valid sequence with
  edge values inside it;
* path parameters draw an empty path, a directory or a missing file, and
  ``OSError`` is allowed for them only;
* point sets, spacing sets, exact tallies, CDF models, sweep configurations
  and callables stay valid.  Passing another kind of object there is left
  to Python, as ``bcvlab.errors`` states.

Each example runs under the wall-clock limit of ``fuzzing.time_limit``.
``DOMAINS`` pins each entry's domain at its edges.  The last two tests check
that ``bcvlab.__all__`` holds no module and every name of each module's
``__all__``, and that no public callable escapes both tables.
"""

import importlib
import math
import pkgutil
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bcvlab as b
from bcvlab import (MAX_EXACT_LEVELS, MAX_FLOAT_LEVELS, MAX_GREEDY_DIGITS, MAX_POLY_DEGREE,
                    MAX_WORD_COUNT_LENGTH, DomainError, SizeCapError)
from fuzzing import EDGE, time_limit

NUMBER, SEQUENCE, OBJECT, PATH = "number", "sequence", "object", "path"

PS = b.generate(0.6, 8)
SP = b.spacings(PS, 1)
EPS = b.generate_exact((-1, 1, 1), 6)
CFG = b.SweepConfig((0.6, 0.7), 6, (1.0,), 2)
GOLDEN_POLY = ((-1, 1, 1), SEQUENCE)
VALUES = ((0.0, 0.25, 0.5, 0.75), SEQUENCE)
# A path parameter's text, with "{tmp}" standing for a fresh directory
# that holds a valid point-set file "ps.bcv".
PATHS = ["", "{tmp}", "{tmp}/missing/ps.bcv"]


def walk(minpoly, levels):
    return list(b.exact_levels(minpoly, levels))


def alpha(n):
    return 3.0**-n


# Each entry: the function, then {parameter: (valid argument, kind)}.
CALLS = {
    "generate": (b.generate, {"lam": (0.6, NUMBER), "levels": (6, NUMBER),
                              "form": (b.Form.PRIMED, OBJECT)}),
    "generate_exact": (b.generate_exact, {"minpoly": GOLDEN_POLY, "levels": (6, NUMBER)}),
    "exact_levels": (walk, {"minpoly": GOLDEN_POLY, "levels": (6, NUMBER)}),
    "distinct_count": (b.distinct_count, {"eps": (EPS, OBJECT)}),
    "distinct_count_profile": (b.distinct_count_profile,
                               {"minpoly": GOLDEN_POLY, "levels": (6, NUMBER)}),
    "write_binary": (b.write_binary, {"ps": (PS, OBJECT), "path": ("{tmp}/out.bcv", PATH)}),
    "read_binary": (b.read_binary, {"path": ("{tmp}/ps.bcv", PATH)}),
    "parse_poly": (b.parse_poly, {"text": ("x^2+x-1", NUMBER)}),
    "defining_poly": (b.defining_poly, {"minpoly": GOLDEN_POLY}),
    "poly_to_string": (b.poly_to_string, {"coeffs": GOLDEN_POLY,
                                          "descending": (False, NUMBER)}),
    "poly_eval": (b.poly_eval, {"coeffs": GOLDEN_POLY, "x": (0.5, NUMBER)}),
    "poly_roots": (b.poly_roots, {"coeffs": GOLDEN_POLY}),
    "classify": (b.classify, {"coeffs": GOLDEN_POLY}),
    "greedy_expansion": (b.greedy_expansion, {"lam": (0.7, NUMBER), "k": (5, NUMBER)}),
    "nearest_zero_above": (b.nearest_zero_above, {"lam": (0.7, NUMBER), "k": (5, NUMBER)}),
    "forbidden_block": (b.forbidden_block, {"relation_coeffs": ((-1, 0, -1), SEQUENCE)}),
    "sft_growth_rate": (b.sft_growth_rate, {"block": ("101", NUMBER),
                                            "count_cap": (10, NUMBER)}),
    "spacings": (b.spacings, {"source": VALUES, "ell": (1, NUMBER)}),
    "CdfModel": (b.CdfModel, {"knots_x": ((0.0, 0.5, 1.0), SEQUENCE),
                              "knots_y": ((0.0, 0.25, 1.0), SEQUENCE)}),
    "cdf_sqrt_half": (b.cdf_sqrt_half, {}),
    "cdf_empirical": (b.cdf_empirical, {"lam": (0.6, NUMBER), "level": (6, NUMBER)}),
    "rescale": (b.rescale, {"source": VALUES, "model": (b.cdf_sqrt_half(), OBJECT)}),
    "histogram": (b.histogram, {"sp": (SP, OBJECT)}),
    "poisson_reference": (b.poisson_reference, {"ell": (1, NUMBER),
                                                "s": ((0.5, 1.0), SEQUENCE)}),
    "poisson_cdf": (b.poisson_cdf, {"ell": (1, NUMBER), "s": ((0.5, 1.0), SEQUENCE)}),
    "gof_statistics": (b.gof_statistics, {"sp": (SP, OBJECT)}),
    "pair_correlation": (b.pair_correlation, {"source": VALUES,
                                              "s_grid": ((0.5, 1.0), SEQUENCE)}),
    "pair_correlation_interval": (b.pair_correlation_interval, {
        "source": VALUES, "interval": ((0.2, 0.8), SEQUENCE),
        "s_grid": ((0.5, 1.0), SEQUENCE)}),
    "coincidence_rate": (b.coincidence_rate, {"eps": (EPS, OBJECT)}),
    "gaps": (b.gaps, {"ps": (PS, OBJECT), "distinct_tol": (1e-9, NUMBER)}),
    "write_histogram_csv": (b.write_histogram_csv, {"hist": (b.histogram(SP), OBJECT),
                                                    "path": ("{tmp}/h.csv", PATH)}),
    "write_curve_csv": (b.write_curve_csv, {"curve": (b.pair_correlation(PS, [1.0]), OBJECT),
                                            "path": ("{tmp}/c.csv", PATH)}),
    "SweepConfig": (b.SweepConfig, {
        "interval": ((0.6, 0.7), SEQUENCE), "levels": (6, NUMBER),
        "s_grid": ((1.0,), SEQUENCE), "sample_count": (2, NUMBER),
        "quadrature": ("midpoint", NUMBER), "seed": (0, NUMBER)}),
    "averaged_pair_correlation": (b.averaged_pair_correlation, {
        "cfg": (CFG, OBJECT), "progress": (False, NUMBER)}),
    "min_gap_scan": (b.min_gap_scan, {
        "interval": ((0.55, 0.7), SEQUENCE), "lambda_samples": (2, NUMBER),
        "level_range": ((4, 6), SEQUENCE), "alpha": (alpha, OBJECT),
        "seed": (0, NUMBER)}),
    "sublevel_ratio": (b.sublevel_ratio, {
        "coeffs": ((1, -1), SEQUENCE), "rho": (0.01, NUMBER),
        "interval": ((0.5, 0.6), SEQUENCE)}),
    "transversality_check": (b.transversality_check, {
        "degree": (4, NUMBER), "poly_samples": (3, NUMBER),
        "rho_grid": ((0.01, 0.1), SEQUENCE), "interval": ((0.5, 0.6), SEQUENCE),
        "seed": (0, NUMBER)}),
    "construct_attracting_parameter": (b.construct_attracting_parameter, {
        "interval": ((0.6, 0.63), SEQUENCE), "depth": (1, NUMBER),
        "epsilon": (0.5, NUMBER)}),
}
# Public callables outside the contract: records, enums and exception types.
EXEMPT = {
    "AlgebraicClass", "AttractingParameter", "CorrelationCurve",
    "DomainError", "ExactPointSet", "Form", "GapReport", "GofReport",
    "GreedyExpansion", "GrowthReport", "Histogram", "MinGapScan", "PointSet",
    "SizeCapError", "SpacingSet", "SweepReport", "TransversalityReport",
    "Verdict",
}


@st.composite
def edge_sequence(draw, valid):
    """The valid sequence with edge values at one or more positions."""
    items = list(valid)
    for i in draw(st.sets(st.sampled_from(range(len(items))), min_size=1)):
        items[i] = draw(st.sampled_from(EDGE))
    return tuple(items)


def argument(valid, kind):
    """The valid argument about half the time, else an edge case of its kind."""
    if kind == OBJECT:
        return st.just(valid)
    if kind == PATH:
        edges = st.sampled_from(PATHS)
    elif kind == SEQUENCE:
        edges = st.one_of(st.sampled_from(EDGE), edge_sequence(valid))
    else:
        edges = st.sampled_from(EDGE)
    return st.one_of(st.just(valid), edges)


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    params = CALLS[name][1]
    return name, {p: draw(argument(valid, kind)) for p, (valid, kind) in params.items()}


def run(name, kwargs):
    """Call the entry; a contract exception counts as a result, and any other
    exception (or ``fuzzing.Hang``) propagates."""
    func, params = CALLS[name]
    with tempfile.TemporaryDirectory() as tmp:
        b.write_binary(PS, Path(tmp) / "ps.bcv")
        kwargs = {p: v.format(tmp=tmp) if params[p][1] == PATH else v
                  for p, v in kwargs.items()}
        try:
            with time_limit():
                func(**kwargs)
        except (DomainError, SizeCapError):
            pass
        except OSError:
            if not any(kind == PATH for _, kind in params.values()):
                raise


@settings(max_examples=200, deadline=None)
@given(calls())
# Inputs that once ended in another exception or a hang, each refused now.
@example(("poisson_cdf", {"ell": 2**63, "s": 1.0}))
@example(("sft_growth_rate", {"block": "101", "count_cap": 2**63}))
@example(("sft_growth_rate", {"block": "101", "count_cap": math.inf}))
@example(("sft_growth_rate", {"block": 101, "count_cap": 10}))
@example(("sft_growth_rate", {"block": "1" * 800, "count_cap": 1}))
@example(("poly_to_string", {"coeffs": (10**4400,), "descending": False}))
@example(("poisson_cdf", {"ell": 1, "s": "abc"}))
@example(("poisson_reference", {"ell": 1, "s": (0.5, "")}))
@example(("gaps", {"ps": PS, "distinct_tol": "abc"}))
@example(("parse_poly", {"text": 1.5}))
@example(("forbidden_block", {"relation_coeffs": 0}))
@example(("poly_to_string", {"coeffs": ("abc", 1), "descending": False}))
@example(("poly_eval", {"coeffs": (1, -1), "x": "abc"}))
@example(("generate", {"lam": "abc", "levels": 6, "form": b.Form.PRIMED}))
@example(("spacings", {"source": (0.0, "abc"), "ell": 1}))
@example(("spacings", {"source": (0.0, 0.25, 0.5, 1e308), "ell": 1}))
@example(("pair_correlation", {"source": (-1e308, 1e308), "s_grid": 1.0}))
@example(("cdf_empirical", {"lam": 0.6, "level": "abc"}))
@example(("construct_attracting_parameter",
          {"interval": (0.6, 0.63), "depth": 1.5, "epsilon": 0.5}))
@example(("construct_attracting_parameter",
          {"interval": (0.6, 0.63), "depth": 1, "epsilon": "abc"}))
@example(("greedy_expansion", {"lam": 0.7, "k": 1.5}))
@example(("nearest_zero_above", {"lam": "abc", "k": 5}))
@example(("pair_correlation_interval",
          {"source": (0.0, 0.25, 0.5, 0.75), "interval": (0.2,), "s_grid": [1]}))
@example(("min_gap_scan", {"interval": (0.55, 0.7), "lambda_samples": -1,
                           "level_range": (4, "abc"), "alpha": alpha, "seed": 0}))
@example(("min_gap_scan", {"interval": (0.55, 0.7), "lambda_samples": 2**63,
                           "level_range": 0, "alpha": alpha, "seed": 0}))
@example(("sublevel_ratio", {"coeffs": (1, -1), "rho": math.nan,
                             "interval": (0.5, 1e308)}))
@example(("sublevel_ratio", {"coeffs": (1, -1), "rho": 1e-300, "interval": (0.5, 0.6)}))
@example(("sublevel_ratio", {"coeffs": (1, 1e308, 1e308), "rho": 0.01,
                             "interval": (0.5, 1.5)}))
@example(("transversality_check", {"degree": -1, "poly_samples": 3, "rho_grid": (0.01,),
                                   "interval": (0.5, 0.6), "seed": 0}))
@example(("transversality_check", {"degree": 2**63, "poly_samples": 3, "rho_grid": 0,
                                   "interval": (0.5, 0.6), "seed": 0}))
@example(("transversality_check", {"degree": 4, "poly_samples": 3, "rho_grid": (math.nan,),
                                   "interval": (0.5, 0.6), "seed": 0}))
def test_public_call_returns_or_raises_a_contract_error(call):
    run(*call)


# Each entry's domain at its edges, as the code states it: the arguments that
# replace valid ones, and the exception raised, or None for a result.
DOMAINS = [
    ("generate", dict(lam=1e-300, levels=4), None),
    ("generate", dict(lam="0.5"), None),
    ("generate", dict(lam=0.0), DomainError),
    ("generate", dict(lam=1.0), DomainError),
    ("generate", dict(levels=0), DomainError),
    ("generate", dict(levels=MAX_FLOAT_LEVELS + 1), SizeCapError),
    ("exact_levels", dict(minpoly=(-1, 1), levels=4), None),
    ("exact_levels", dict(levels=0), DomainError),
    ("exact_levels", dict(levels=MAX_EXACT_LEVELS + 1), SizeCapError),
    ("defining_poly", dict(minpoly=(1, -1)), None),
    ("defining_poly", dict(minpoly=()), DomainError),
    ("defining_poly", dict(minpoly=(5,)), DomainError),
    ("defining_poly", dict(minpoly=(0, 0, 0)), DomainError),
    ("defining_poly", dict(minpoly=(1.5, 1)), DomainError),
    ("poly_to_string", dict(coeffs=(1.5, 1)), DomainError),
    ("poly_to_string", dict(coeffs=(-1, 10**4300)), DomainError),
    ("greedy_expansion", dict(lam=0.5), DomainError),
    ("greedy_expansion", dict(lam="0.75", k=1), None),
    ("greedy_expansion", dict(k=0), DomainError),
    ("greedy_expansion", dict(k=MAX_GREEDY_DIGITS + 1), SizeCapError),
    ("sft_growth_rate", dict(count_cap=0), None),
    ("sft_growth_rate", dict(count_cap=-1), DomainError),
    ("sft_growth_rate", dict(count_cap=MAX_WORD_COUNT_LENGTH + 1), SizeCapError),
    ("sft_growth_rate", dict(block="1" * (MAX_POLY_DEGREE + 1)), None),
    ("sft_growth_rate", dict(block="1" * (MAX_POLY_DEGREE + 2)), SizeCapError),
    ("spacings", dict(ell=3), None),
    ("spacings", dict(ell=4), DomainError),
    ("spacings", dict(ell=0), DomainError),
    ("spacings", dict(source=(0.5,)), DomainError),
    ("rescale", dict(source=PS), None),
    ("rescale", dict(source=0.5), None),
    ("rescale", dict(source=b.generate(0.6, 8, b.Form.PRIMED)), DomainError),
    ("rescale", dict(source=(0.5, 0.25)), DomainError),
    ("rescale", dict(source=((0.25, 0.5),)), DomainError),
    ("CdfModel", dict(knots_x=None, knots_y=None), None),
    ("CdfModel", dict(knots_y=(1.0, math.nan, 0.0)), None),
    ("CdfModel", dict(knots_x=(0.0, 1.0, 0.5)), DomainError),
    ("CdfModel", dict(knots_x=(0.0, 0.5, math.inf)), DomainError),
    ("CdfModel", dict(knots_y=None), DomainError),
    ("CdfModel", dict(knots_x=(0.0, 1.0)), DomainError),
    ("cdf_empirical", dict(level=0), DomainError),
    ("cdf_empirical", dict(level=MAX_EXACT_LEVELS + 1), SizeCapError),
    ("poisson_reference", dict(ell=171), None),
    ("poisson_reference", dict(ell=172), DomainError),
    ("poisson_cdf", dict(ell=171), None),
    ("poisson_cdf", dict(ell=172), DomainError),
    ("poisson_cdf", dict(ell=0), DomainError),
    ("pair_correlation", dict(s_grid=(1.0, 0.5)), DomainError),
    ("pair_correlation", dict(s_grid=-1.0), DomainError),
    ("pair_correlation_interval", dict(interval=(0.0, 1.0)), None),
    ("pair_correlation_interval", dict(interval=(0.8, 0.2)), DomainError),
    ("gaps", dict(distinct_tol=0.0), None),
    ("gaps", dict(distinct_tol=-1e-300), DomainError),
    ("gaps", dict(distinct_tol=math.inf), DomainError),
    ("SweepConfig", dict(interval=(0.5, 0.5), sample_count=2**53), None),
    ("SweepConfig", dict(interval=(0.49, 0.6)), DomainError),
    ("SweepConfig", dict(interval=(0.6, 1.0)), DomainError),
    ("SweepConfig", dict(sample_count=0), DomainError),
    ("SweepConfig", dict(sample_count=1.5), DomainError),
    ("SweepConfig", dict(sample_count=2**53 + 1), SizeCapError),
    ("SweepConfig", dict(levels=0), DomainError),
    ("SweepConfig", dict(levels=MAX_FLOAT_LEVELS + 1), SizeCapError),
    ("SweepConfig", dict(levels="abc"), DomainError),
    ("averaged_pair_correlation", dict(cfg=b.SweepConfig((0.6, 0.7), 1, (1.0,), 2**40)),
     SizeCapError),
    ("min_gap_scan", dict(lambda_samples=0), None),
    ("min_gap_scan", dict(interval=(0.9, 0.1), lambda_samples=[0.6]), None),
    ("min_gap_scan", dict(interval=(0.9, 0.1)), DomainError),
    ("min_gap_scan", dict(interval=(0.0, 0.5)), DomainError),
    ("min_gap_scan", dict(lambda_samples=1.5), DomainError),
    ("min_gap_scan", dict(lambda_samples="abc"), DomainError),
    ("min_gap_scan", dict(level_range=(4, 29)), SizeCapError),
    ("min_gap_scan", dict(lambda_samples=2**23, level_range=(4, 5, 6)), SizeCapError),
    ("sublevel_ratio", dict(rho=1e-300), SizeCapError),
    ("sublevel_ratio", dict(rho=0.0), DomainError),
    ("sublevel_ratio", dict(interval=(0.6, 0.5)), DomainError),
    ("transversality_check", dict(degree=0), None),
    ("transversality_check", dict(poly_samples=0), DomainError),
    ("transversality_check", dict(degree=2**63), SizeCapError),
    ("transversality_check", dict(degree=2**22, poly_samples=4), SizeCapError),
    ("transversality_check", dict(rho_grid=()), DomainError),
    ("transversality_check", dict(rho_grid=1.5), DomainError),
    ("construct_attracting_parameter", dict(depth=0, epsilon="0.5"), None),
    ("construct_attracting_parameter", dict(interval=(0.5, 0.6)), DomainError),
    ("construct_attracting_parameter", dict(depth=5), DomainError),
    ("construct_attracting_parameter", dict(epsilon=1.0), DomainError),
]


def pin_id(name, overrides):
    """``name-overrides`` as Python prints the dict, but a value longer than
    40 characters, or too long for Python to print, shows by its size."""
    def show(value):
        try:
            text = repr(value)
        except ValueError:  # it holds an integer of more than 4300 digits
            return f"<{type(value).__name__} past the digit limit>"
        return text if len(text) <= 40 else f"<{type(value).__name__}: {len(text)}-char repr>"
    return f"{name}-{{{', '.join(f'{k!r}: {show(v)}' for k, v in overrides.items())}}}"


@pytest.mark.parametrize("name, overrides, expected", DOMAINS,
                         ids=[pin_id(n, o) for n, o, _ in DOMAINS])
def test_domain_edges_are_pinned(name, overrides, expected):
    func, params = CALLS[name]
    kwargs = {p: valid for p, (valid, _) in params.items()} | overrides
    with time_limit():
        if expected is None:
            func(**kwargs)
        else:
            with pytest.raises(expected):
                func(**kwargs)


def test_package_exports_every_module_all():
    star = {}
    exec("from bcvlab import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(b.__all__)
    assert len(set(b.__all__)) == len(b.__all__)
    assert not [n for n in b.__all__ if isinstance(getattr(b, n), types.ModuleType)]
    for info in pkgutil.iter_modules(b.__path__):
        module = importlib.import_module(f"bcvlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in b.__all__ and getattr(b, name) is getattr(module, name), name


def test_every_public_callable_is_fuzzed_or_exempt():
    public = {name for name in b.__all__ if callable(getattr(b, name))}
    assert public - set(CALLS) - EXEMPT == set()
    assert set(CALLS) | EXEMPT <= public
    assert not set(CALLS) & EXEMPT
