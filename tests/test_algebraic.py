import hashlib
import itertools
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvlab import (DomainError, SizeCapError, Verdict, classify, forbidden_block,
                    greedy_expansion, nearest_zero_above, parse_poly,
                    poly_eval, poly_roots, poly_to_string, sft_growth_rate)
from bcvlab import algebraic, generate_exact
from bcvlab.cli import main
from oracles import bisect_root, words_avoiding

# ---------------------------------------------------------------------------
# parsing / formatting


@pytest.mark.parametrize("text,coeffs", [
    ("x^3-2x-2", (-2, -2, 0, 1)),
    ("x^2+x-1", (-1, 1, 1)),
    ("x^2 - 2", (-2, 0, 1)),
    ("1 - x - x^5", (1, -1, 0, 0, 0, -1)),
    ("2x^2-1", (-1, 0, 2)),
    ("-x+1", (1, -1)),
    ("x", (0, 1)),
])
def test_parse_poly(text, coeffs):
    assert parse_poly(text) == coeffs


def test_parse_poly_rejects_garbage():
    for bad in ("", "x^", "2y+1", "x**3"):
        with pytest.raises(DomainError):
            parse_poly(bad)


def test_parse_poly_caps_the_degree_before_building():
    cap = algebraic.MAX_POLY_DEGREE
    assert len(parse_poly(f"x^{cap}-2")) == cap + 1
    # Terms that cancel leave the trimmed degree, which is under the cap.
    assert parse_poly("x^99999999 - x^99999999 + x") == (0, 1)
    for text in (f"x^{cap + 1}", "x^99999999", "x^" + "9" * 4000):
        with pytest.raises(SizeCapError):
            parse_poly(text)
    # Python converts no integer of more than 4300 digits.
    for text in ("x^" + "1" * 5000, "1" * 5000 + "x-1"):
        with pytest.raises(DomainError):
            parse_poly(text)


def test_degree_cap_on_coefficient_sequences():
    cap = algebraic.MAX_POLY_DEGREE
    for call in (classify, poly_roots):
        with pytest.raises(SizeCapError):
            call((1,) * (cap + 2))
    # Trailing zeros are trimmed before the check.
    assert len(poly_roots((-1,) + (0,) * (cap - 1) + (1, 0))) == cap
    # The exact backend takes the construction's relations of any degree.
    big = (-1,) + (0,) * (cap + 1) + (1,)
    assert algebraic.defining_poly(big) == big
    assert generate_exact(big, 1).levels == 1


def test_roots_overflowing_a_double_are_refused():
    # Each ended in OverflowError: a coefficient past the double range, and
    # a root near 1e308 whose residual bound overflows.
    for coeffs in ((-1, 2**1100), (1, 10**308, 1)):
        with pytest.raises(DomainError):
            poly_roots(coeffs)


def test_poly_to_string_round_trip():
    for coeffs in [(-2, -2, 0, 1), (1, -1, 0, 0, 0, -1), (0, 1), (-1, 0, 2)]:
        assert parse_poly(poly_to_string(coeffs)) == coeffs
        assert parse_poly(poly_to_string(coeffs, descending=True)) == coeffs
    assert poly_to_string((1, -1, 0, 0, 0, -1)) == "1 - x - x^5"
    assert poly_to_string((-2, -2, 0, 1), descending=True) == "x^3 - 2x - 2"


# ---------------------------------------------------------------------------
# greedy expansion


def test_greedy_k1_forced_leading_digit():
    for lam in (0.51, 0.6, 0.75, 0.95):
        e = greedy_expansion(lam, 1)
        assert e.coefficients == (1,)
        assert e.remainder == 1.0 - lam
        assert 0.0 <= e.remainder < lam


def test_greedy_point_six():
    e = greedy_expansion(0.6, 2)
    assert e.coefficients == (1, 1)
    assert e.remainder == pytest.approx(0.04, abs=1e-15)


def test_greedy_three_quarters():
    e = greedy_expansion(0.75, 5)
    assert e.coefficients == (1, 0, 0, 0, 1)
    assert e.remainder == 1.0 - 0.75 - 0.75**5  # exact dyadic arithmetic


def test_greedy_three_quarters_record():
    # The whole record, as the greedy report writes it.
    assert asdict(greedy_expansion(0.75, 5)) == {
        "coefficients": (1, 0, 0, 0, 1), "remainder": 0.0126953125}


def test_greedy_invariant_sampled():
    rng = np.random.default_rng(42)
    for lam in 0.501 + 0.49 * rng.random(40):
        for k in (1, 3, 8, 21):
            e = greedy_expansion(lam, k)
            assert e.coefficients[0] == 1
            assert 0.0 <= e.remainder < lam**k


def test_greedy_domain_error():
    for lam in (0.5, 0.2, 1.0):
        with pytest.raises(DomainError):
            greedy_expansion(lam, 3)


def test_greedy_length_cap():
    cap = algebraic.MAX_GREEDY_DIGITS
    assert len(greedy_expansion(0.75, cap).coefficients) == cap
    for k in (cap + 1, 2**63):
        with pytest.raises(SizeCapError):
            greedy_expansion(0.75, k)
        with pytest.raises(SizeCapError):
            nearest_zero_above(0.75, k)


# ---------------------------------------------------------------------------
# nearest zero above


def test_nearest_zero_golden():
    p, root = nearest_zero_above(0.6, 2)
    assert p == (1, -1, -1)
    assert root == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)


def test_nearest_zero_degree_five():
    p, root = nearest_zero_above(0.75, 5)
    assert p == (1, -1, 0, 0, 0, -1)
    # 1 - x - x^5 = -(x^2 - x + 1)(x^3 + x^2 - 1); the relevant factor root:
    want = bisect_root((-1, 0, 1, 1), 0.7, 0.8)
    assert root == pytest.approx(want, abs=1e-12)


def test_nearest_zero_degenerate_k1():
    p, root = nearest_zero_above(0.51, 1)
    assert p == (1, -1)
    assert root == pytest.approx(1.0, abs=1e-12)
    assert 0.51 <= root < 0.51 + 0.51


def test_root_bracketing_sampled():
    rng = np.random.default_rng(2718)
    for lam in 0.51 + 0.39 * rng.random(30):
        for k in (1, 4, 11, 25):
            p, root = nearest_zero_above(lam, k)
            assert lam <= root < lam + lam**k
            assert abs(poly_eval(p, root)) < 2.0**-45


# ---------------------------------------------------------------------------
# roots and classification


def test_roots_quadratics():
    got = poly_roots(parse_poly("x^2-x-1"))
    phi = (1 + math.sqrt(5)) / 2
    assert sorted(z.real for z in got) == pytest.approx([1 - phi, phi], abs=1e-12)
    assert all(z.imag == 0 for z in got)
    got = poly_roots(parse_poly("x^2-2"))
    assert sorted(z.real for z in got) == pytest.approx(
        [-math.sqrt(2), math.sqrt(2)], abs=1e-12)


def test_roots_garsia_cubic():
    roots = poly_roots(parse_poly("x^3-2x-2"))
    real = [z for z in roots if z.imag == 0]
    assert len(real) == 1
    assert real[0].real == pytest.approx(1.7692923542386, abs=1e-10)
    complex_mods = sorted(abs(z) for z in roots if z.imag != 0)
    assert complex_mods == pytest.approx([1.0632005618731] * 2, abs=1e-10)
    assert 1 / real[0].real == pytest.approx(0.5652, abs=5e-5)


def test_roots_error_on_constant():
    with pytest.raises(DomainError):
        poly_roots((3,))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=12),
       st.integers(-3, 3).filter(bool))
def test_roots_count_and_conjugate_closure(low, lead):
    # Real roots plus exact conjugate pairs make up the whole degree, so no
    # root is lost or left unpaired; the residual check may still refuse.
    coeffs = tuple(low) + (lead,)
    try:
        roots = poly_roots(coeffs)
    except DomainError:
        return
    key = lambda z: (z.real, z.imag)
    assert len(roots) == len(coeffs) - 1
    assert sorted(roots, key=key) == sorted((z.conjugate() for z in roots), key=key)


def test_classify_pisot_golden():
    c = classify(parse_poly("x^2-x-1"))
    assert c.verdict is Verdict.PISOT
    assert c.dominant_root == pytest.approx(1.6180339887, abs=1e-9)
    assert c.reciprocal == pytest.approx(0.6180339887, abs=1e-9)
    conj = [z for z in c.roots if z.real != c.dominant_root]
    assert max(abs(z) for z in conj) < 1 - 1e-9


@pytest.mark.parametrize("text,lo,hi", [
    ("x^3-2x-2", 0.5651, 0.5653),
    ("x^3-x^2-2", 0.5897, 0.5899),
])
def test_classify_garsia_cubics(text, lo, hi):
    c = classify(parse_poly(text))
    assert c.verdict is Verdict.GARSIA
    assert lo <= c.reciprocal <= hi
    assert min(abs(z) for z in c.roots) > 1 + 1e-9


def test_classify_garsia_sqrt2():
    c = classify(parse_poly("x^2-2"))
    assert c.verdict is Verdict.GARSIA
    assert c.reciprocal == pytest.approx(2**-0.5, abs=1e-12)


def test_classify_non_monic_is_neither():
    c = classify(parse_poly("2x^2-1"))
    assert c.verdict is Verdict.NEITHER
    assert c.note is not None


def test_classify_plain_integers():
    assert classify(parse_poly("x^2-x+1")).verdict is Verdict.NEITHER  # roots on unit circle
    assert classify(parse_poly("x^2-4x+1")).verdict is Verdict.PISOT  # 2 ± sqrt(3)


def test_non_integer_coefficients_are_refused():
    # Truncating would tally x^2+x-1 for -1.5 and classify x for 0.5.
    with pytest.raises(DomainError):
        generate_exact((-1.5, 1, 1), 3)
    with pytest.raises(DomainError):
        classify((0.5, 1))
    for bad in [(1, float("nan"), 1), (1, float("inf")), ("-1", 1, 1), (1, 1j, 1)]:
        with pytest.raises(DomainError):
            algebraic.defining_poly(bad)
    with pytest.raises(DomainError):
        poly_roots((-2.5, 0, 1))
    # Numpy integers and integer-valued floats are integers.
    assert algebraic.defining_poly(np.array([-1, 1, 1])) == (-1, 1, 1)
    assert algebraic.defining_poly((np.int64(1), -1.0, -1)) == (-1, 1, 1)
    assert all(type(c) is int for c in algebraic.defining_poly(np.array([-2, 0, 1])))
    assert classify(np.array([-2, -2, 0, 1])).verdict is Verdict.GARSIA


def test_classify_soundness_margins():
    # Whatever verdict comes out of a batch of small polynomials, the margin
    # certificates must back it.
    for coeffs in itertools.product(range(-2, 3), repeat=3):
        poly = coeffs + (1,)
        if all(c == 0 for c in coeffs):
            continue
        c = classify(poly)
        if c.verdict is Verdict.PISOT:
            conj = sorted(c.roots, key=lambda z: abs(z))[:-1]
            assert all(abs(z) < 1 - 1e-9 for z in conj)
        elif c.verdict is Verdict.GARSIA:
            assert all(abs(z) > 1 + 1e-9 for z in c.roots)


# ---------------------------------------------------------------------------
# forbidden blocks and growth rates


def test_forbidden_block_examples():
    assert forbidden_block((-1, -1)) == "100"  # 1 - x - x^2
    assert forbidden_block((1, 0, -1)) == "1100"  # 1 + x - x^3
    assert forbidden_block((-1,)) == "10"  # 1 - x
    with pytest.raises(DomainError):
        forbidden_block((2, 0))


def test_growth_rate_golden_block():
    g = sft_growth_rate("100")
    assert g.rho == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)
    assert g.word_counts[1:6] == (2, 4, 7, 12, 20)
    assert not g.degenerate


def test_growth_rate_degenerate_single_one():
    g = sft_growth_rate("1")
    assert g.rho == 1.0
    assert g.degenerate
    assert g.word_counts[:4] == (1, 1, 1, 1)  # only 0^n survives


def test_growth_rate_fibonacci_block():
    g = sft_growth_rate("11")
    assert g.rho == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)
    assert g.word_counts[1:7] == (2, 3, 5, 8, 13, 21)


def test_growth_counts_match_enumeration():
    for block in ("100", "11", "101", "1100", "10011"):
        g = sft_growth_rate(block)
        for n in range(1, 10):
            assert g.word_counts[n] == words_avoiding(block, n), (block, n)


def test_growth_properties_random_blocks():
    rng = np.random.default_rng(5)
    for _ in range(25):
        block = "1" + "".join(rng.choice(["0", "1"], size=rng.integers(0, 10)))
        g = sft_growth_rate(block)
        counts = g.word_counts
        assert 1.0 <= g.rho < 2.0 - 1e-6
        assert all(counts[n + 1] <= 2 * counts[n] for n in range(len(counts) - 1))
        if not g.degenerate:
            assert counts[-1] / counts[-2] == pytest.approx(g.rho, rel=1e-4)


def test_growth_reports_pinned():
    # sha256 over every block of length <= 10 of its rho (hex), word counts up
    # to length 24 and degenerate flag; a rewrite of the automaton or the
    # counting loop must not move a bit of them.
    digest = hashlib.sha256()
    for m in range(1, 11):
        for bits in itertools.product("01", repeat=m - 1):
            block = "1" + "".join(bits)
            g = sft_growth_rate(block, count_cap=24)
            digest.update(repr((block, g.rho.hex(), g.word_counts, g.degenerate)).encode())
    assert digest.hexdigest() == (
        "e2a10dc0d96a446a73893b5bec0f803dca9e7aafae7f9183c5657b59a9827d96")


def test_growth_rate_disagreeing_radius_is_domain_error(tmp_path, monkeypatch):
    monkeypatch.setattr(algebraic, "_spectral_radius", lambda T: 1.5)
    with pytest.raises(DomainError):
        sft_growth_rate("100")
    argv = ["exact", "--minpoly", "x^2+x-1", "--n", "6", "--out-dir", str(tmp_path)]
    assert main(argv) == 4


def test_growth_rate_validation():
    for bad in ("", "01", "2", "1a"):
        with pytest.raises(DomainError):
            sft_growth_rate(bad)

