import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcvlab import (DomainError, Form, SizeCapError, distinct_count,
                    distinct_count_profile, exact_levels, generate, generate_exact,
                    pointset, read_binary, write_binary)
from bcvlab.algebraic import defining_poly
from oracles import (digit_poly, exact_tally_dict, horner_values, merge_levels,
                     poly_mod, tally_of)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MINPOLY = (-1, 1, 1)  # x^2 + x - 1
SQRT_HALF = 2.0**-0.5
# Pisot parameters whose float sets hold long runs of equal values.
PLASTIC = 0.7548776662466927  # real root of x^3 + x^2 - 1
TRIBONACCI = 0.5436890126920764  # real root of x^3 + x^2 + x - 1


def test_primed_two_levels_explicit():
    ps = generate(0.75, 2, Form.PRIMED)
    assert ps.values.tolist() == [0.0, 0.75, 1.0, 1.75]


def test_half_gives_binary_rationals():
    for n in (3, 6, 10):
        ps = generate(0.5, n, Form.STANDARD)
        assert np.array_equal(ps.values, np.arange(1 << n) / (1 << n))


def test_golden_level3_coincidence():
    # Digit strings 100 and 011 both represent 1 (lam + lam^2 = 1); in floats
    # they land within the distinctness tolerance of each other.
    ps = generate(GOLDEN, 3, Form.PRIMED)
    assert ps.values.size == 8
    diffs = np.diff(ps.values)
    assert diffs.min() <= ps.distinct_tolerance()
    near_one = np.abs(ps.values - 1.0) <= 4 * np.spacing(1.0)
    assert near_one.sum() == 2
    # The exact backend certifies the coincidence.
    eps = generate_exact(GOLDEN_MINPOLY, 3)
    assert sorted(tally_of(eps).values()) == [1, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("levels,expected", [(1, 2), (2, 4), (3, 7), (4, 12)])
def test_golden_distinct_counts(levels, expected):
    assert distinct_count(generate_exact(GOLDEN_MINPOLY, levels)) == expected


def test_garsia_sqrt2_no_coincidences():
    eps = generate_exact((-2, 0, 1), 8)
    assert distinct_count(eps) == 256
    assert all(m == 1 for m in tally_of(eps).values())


def test_distinct_count_profile_matches_individual_runs():
    profile = distinct_count_profile(GOLDEN_MINPOLY, 6)
    assert profile == [distinct_count(generate_exact(GOLDEN_MINPOLY, n))
                       for n in range(1, 7)]


def test_multiplicity_conservation():
    for minpoly in [GOLDEN_MINPOLY, (-2, 0, 1), (-1, 0, 2), (-2, -2, 0, 1)]:
        for n in (1, 4, 9):
            eps = generate_exact(minpoly, n)
            assert sum(tally_of(eps).values()) == 1 << n


def test_merge_equals_horner_brute_force():
    rng = np.random.default_rng(31415)
    for lam in 0.52 + 0.38 * rng.random(6):
        for n in (1, 5, 12):
            for form, standard in ((Form.STANDARD, True), (Form.PRIMED, False)):
                got = generate(lam, n, form).values
                want = horner_values(lam, n, standard)
                tol = 8 * n * np.spacing(np.maximum(np.abs(got), np.abs(want)))
                assert np.all(np.abs(got - want) <= tol)


def merge_oracle_bytes(lam, levels, form):
    want = merge_levels(lam, levels)
    if form is Form.STANDARD:
        want = (1.0 - lam) * want
    return want.tobytes()


# Blocks of 2, 8 and 64 values send every level past the first few through
# the blocked merge; the default block reaches it only above level 16.
@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
       | st.sampled_from([GOLDEN, SQRT_HALF, PLASTIC, TRIBONACCI]),
       st.integers(1, 14), st.sampled_from(list(Form)),
       st.sampled_from([2, 8, 64, pointset._MERGE_BLOCK]))
def test_generate_bytes_match_merge_oracle(lam, levels, form, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_MERGE_BLOCK", block)
        got = generate(lam, levels, form).values.tobytes()
    assert got == merge_oracle_bytes(lam, levels, form)


@pytest.mark.parametrize("lam", [0.58, 0.83, GOLDEN, PLASTIC, TRIBONACCI])
@pytest.mark.parametrize("levels", [17, 20])
def test_generate_blocked_levels_match_merge_oracle(lam, levels):
    for form in Form:
        got = generate(lam, levels, form).values.tobytes()
        assert got == merge_oracle_bytes(lam, levels, form)


# Next to 1/2 the two images barely overlap; next to 1 they interleave at
# almost every value.  Blocks of 2 and 8 values fold the scaling of every
# level past the first few, and the STANDARD scaling of the last, into them.
@pytest.mark.parametrize("lam", [float(np.nextafter(0.5, 1.0)), float(np.nextafter(1.0, 0.0))])
@pytest.mark.parametrize("block", [2, 8, pointset._MERGE_BLOCK])
def test_generate_at_extreme_lambda_matches_merge_oracle(lam, block):
    for levels in (1, 2, 3, 9, 14):
        for form in Form:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pointset, "_MERGE_BLOCK", block)
                got = generate(lam, levels, form).values.tobytes()
            assert got == merge_oracle_bytes(lam, levels, form)


# sha256 of generate(lam, levels, form).values, STANDARD then PRIMED, pinned
# as one whole-prefix stable sort per level gives them.
GENERATE_DIGESTS = {
    (0.58, 16): ("e4167d93b520440f2de913b9c8e0965a3f65462926da5b85075cf9423452eb41",
                 "d3f9ba19338d9cf8b6ec4a21139e394c146d7ef9325b6ea8e49dad73a817cb99"),
    (0.58, 17): ("5a60a40dd88c99a7777e2ed4950e05d222d5fa4b2a1150ddd36b56492ee2a2ce",
                 "ef034b0db1932ac63e7206b603b3858a6d553f686d343f2fae5f07f5ea0e4176"),
    (0.58, 20): ("65e07e7c1a0090bcdece75dacf1c9faaf03ad3fde82ac4e9f94bf30046f09a4e",
                 "9776c68c197bb72e7da71ec603e2ad82a8355316c80809129cb0222e54ffb4aa"),
    (0.7, 16): ("1a309efe4888db8cdb4e3cb8ee94b5e95dc54cc444af5ea93d02ac80a7e473ca",
                "7b6c5464f7a609075ab4715e5ed397b523d7498661655047b75f1bf8101b17a1"),
    (0.7, 17): ("dd3e9d11f5524f5dae8781e14feba2dc50dc9e703346013c337ffd32af34470e",
                "4fc474bd6872c86100e5f2fc49a9e728afe691abf9bff1115cc48b6b23eacf9f"),
    (0.7, 20): ("c179d132320b12daa8aa7520162dd52e88b2f8ea067e55986319c380842720bc",
                "12414f58f1d03ba5c08587a219c94455ab093c3c71839c46144a8f68948d48fc"),
    (0.83, 16): ("cbaf7e4e1f55dd186af4dce8c2f57067e152f2887c33724f51c565aaa93539f2",
                 "c6cfa033686fa51fc8a44915b1ff14c3c3516a6f3e702664ce2ca51006ee6b67"),
    (0.83, 17): ("d81ff8dad3cde09f64b78c0a4463f1e707d72fe1f482129cbad99be9de238e76",
                 "614f17c7438b5d2ab5d9bf95f0edd303c0282db80b7f6d662e4de05409be1db2"),
    (0.83, 20): ("3ead07c08f4bc4b1c47adb40a5e175befc7591e8c60ce4e25571152836e7b1d4",
                 "28a12ed0d100a9c6536a316f6d61835d6ceefeea385e256e2bb69b466edb9b44"),
    (SQRT_HALF, 16): ("d5e3794fe0663d61edb4fd6216b06ddcf15b2e75ff92e786b3a10e8c60c1428b",
                      "d0307daa71ab6b38a0e7bf13e9408fb3a51479da49ae89dcb1fb806c7f4fa078"),
    (SQRT_HALF, 17): ("9609f4ed4e220e9c137c48fbf1460f05463b1276953210e8972a2074a60fc227",
                      "8910c92a04024a9a2141ea0aa31b7e271980dbf25751cfb76286c3820c482d13"),
    (SQRT_HALF, 20): ("7d03ac72b57e6c994bf9ab11966de000c11816e6b81bb07834044643e95a7d2f",
                      "63da86f93d2663453a470b99f0bc26fb50edaa760d0a7c6c84984df742498973"),
    (GOLDEN, 16): ("e3ba22b4ada2158d5f33f585ba45b01a8f0c757022f24ff2091b9b0fe79b132c",
                   "a2eea7e9244f08b4e56381cc70e153ce4d202bb49eb2926f082a156e09c726c9"),
    (GOLDEN, 17): ("03abef7f0d3bd4a659337b2f25356fc8833e11a82ae00497ba6b4e1d5e138b1b",
                   "9a4053ee82195b9a99c73fdcc7e24b1f3b0eac32d8684caaa6cdeabe69990843"),
    (GOLDEN, 20): ("7f713ec71ac80909d7da47d10bb65b17df31c69daf3b2c5e4639cb05794ba545",
                   "15fcef70987b8fbb1685e955ff32eedb9b533f0720f678c54c74eb71bd68c320"),
    (PLASTIC, 16): ("2de727db164d8f81e921488ffba1752ea9f4d0d88c10be44809f5be57d4c54fb",
                    "99fa9b60a477ef4a82ced430121267987c826df2e9f7328298da7daee6ed9e02"),
    (PLASTIC, 17): ("fc5de971d364face965fbbf099e98eaaa7ee29b1fbc6a367bc434c05558717ff",
                    "9bdd7f864ede02648ec6a9cead904d32b3c942cd460699a4b5a9f3b3e765d2a1"),
    (PLASTIC, 20): ("1f1a3a28fd160c87804a9e604e484cbb4f611402593a892642146d1771fed83c",
                    "0419bce809ed7f290ad273c872af2e727b441aed8534828bf35450e48e3e12ea"),
    (TRIBONACCI, 16): ("b6e580624809cfa54c1705ae9cde30c2ecdb868828cb1f31bb53a1d30f193636",
                       "0b6abb82a9b89d196dd2b53778fa66b85b83f3d150ccadc08233a545bb1c5f64"),
    (TRIBONACCI, 17): ("9dd71c9e9b522cea111aeb6526fd3aa3087f1e6c18dacb8788d5b8f17cbcd271",
                       "f56ffab8048db395f421338f21bd26130d2c91d0dd0582b95d26691eb48888e9"),
    (TRIBONACCI, 20): ("e5c28eaea52bbb8ccc549f7595040bbeba675f146427e8b321df6c68794b61c6",
                       "e5f325c6acde87680374ffaf57cd2984589d3ff088f894a998c2c0acab151834"),
    (0.5, 16): ("020497d7c83e3071a3031ab11fc3cf67e73a7b7954b05020614d1d00ae7207e4",
                "3f35c1f6c6da1b10b0fd226f646fbb71147928f5e139ad04eecd78a70a358a4b"),
    (0.5, 17): ("62f5f9a347136ea414ad14a3e1a50c32d7ab9b5aa87e0b9893ea429a30951fb8",
                "8806cc9872ab230af4f137605a1d34c7d29b445f11b7ccea83e51334bc2155f0"),
    (0.5, 20): ("f0f5a09658ec73bb4e75a9fa76e2e23c90f5365e27975510256345f93dd58e77",
                "a3f2ddd017277ea9c642883588191c6a2d4ac9b59a4be4ec98b5fbb125bf19a5"),
}


@pytest.mark.parametrize("lam,levels", sorted(GENERATE_DIGESTS))
def test_generate_digests(lam, levels):
    got = tuple(hashlib.sha256(generate(lam, levels, form).values.tobytes()).hexdigest()
                for form in (Form.STANDARD, Form.PRIMED))
    assert got == GENERATE_DIGESTS[lam, levels]


# ru_maxrss would start at the spawning process's peak, which exec carries
# over, so the child reads the high-water mark of its own memory map.
PEAK_SCRIPT = """
import sys
from bcvlab import generate
def hwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = hwm_kb()
values = generate(float(sys.argv[1]), 22).values
print((hwm_kb() - before) * 1024 / values.nbytes)
"""


@pytest.mark.parametrize("lam", [0.7, 0.83])
def test_generate_peak_memory(lam):
    # tracemalloc does not see numpy's sort buffers, so read the rise of the
    # peak RSS in a fresh process, in units of the output.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, repr(lam)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert float(done.stdout) <= 1.15


@pytest.mark.parametrize("levels", [12, 16])
def test_generate_small_sets_allocate_only_output(levels):
    # A set with no level above _MERGE_BLOCK values allocates no merge block;
    # an unused one costs a small set's calls their warm heap pages.
    tracemalloc.start()
    try:
        ps = generate(0.7, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ps.values.nbytes + 4096


# golden, Garsia x^2-2, non-monic 2x^2-1, Garsia x^3-2x-2, golden negated
EXACT_POLYS = [GOLDEN_MINPOLY, (-2, 0, 1), (-1, 0, 2), (-2, -2, 0, 1), (1, -1, -1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EXACT_POLYS), st.integers(1, 8))
def test_exact_tally_matches_poly_mod_grouping(minpoly, levels):
    groups = [Counter(poly_mod(digit_poly(bits), minpoly)
                      for bits in itertools.product((0, 1), repeat=n))
              for n in range(1, levels + 1)]
    eps = generate_exact(minpoly, levels)
    assert sorted(tally_of(eps).values()) == sorted(groups[-1].values())
    # A key R stands for the residue R / lead**levels.
    scale = eps.minpoly[-1] ** levels
    assert {tuple(Fraction(c, scale) for c in key): m
            for key, m in tally_of(eps).items()} == groups[-1]
    assert distinct_count_profile(minpoly, levels) == [len(g) for g in groups]


# 1 - x - x^3 - x^5 - x^7 - x^9, the degree-9 relation whose zero is 0.62037
DEGREE_9 = (1, -1, 0, -1, 0, -1, 0, -1, 0, -1)
# golden, tribonacci, x^2-2, Garsia x^3-2x-2, non-monic 2x^2-1, golden negated
ORACLE_POLYS = [GOLDEN_MINPOLY, (-1, -1, -1, 1), (-2, 0, 1), (-2, -2, 0, 1), (-1, 0, 2),
                (1, -1, -1), DEGREE_9]


# Small polynomials besides the named ones: degree 1-4, coefficients -3..3
# and a positive lead, p_0 = 0 included, so that both the tie-free levels
# and the sorted ones are drawn at every kind of parameter.
SMALL_POLYS = st.integers(1, 4).flatmap(
    lambda deg: st.tuples(*[st.integers(-3, 3)] * deg, st.integers(1, 3)))
TALLY_POLYS = st.sampled_from(ORACLE_POLYS) | SMALL_POLYS


@settings(max_examples=60, deadline=None)
@given(TALLY_POLYS, st.integers(1, 12))
def test_exact_arrays_match_dict_oracle(minpoly, levels):
    check_exact_against_oracle(minpoly, levels)


# 1 or 2 bits send every level with ties to the several-word path: row 0
# and the multiplicity are each at least 1 bit wide.  Wider words pack some
# fields.
@settings(max_examples=60, deadline=None)
@given(TALLY_POLYS, st.integers(1, 12), st.sampled_from([1, 2, 5, 12]))
def test_exact_several_words_match_dict_oracle(minpoly, levels, word_bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_WORD_BITS", word_bits)
        check_exact_against_oracle(minpoly, levels)


# Blocks of one column (1 and 3 bytes), of a few, and of a whole level: the
# new entries' ranges and words are folded block by block.
@settings(max_examples=60, deadline=None)
@given(TALLY_POLYS, st.integers(1, 10),
       st.sampled_from([1, 3, 64, 4096, pointset._TALLY_BLOCK]),
       st.sampled_from([None, 1, 5, 12]))
def test_exact_blocks_match_dict_oracle(minpoly, levels, block, word_bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_TALLY_BLOCK", block)
        if word_bits is not None:
            mp.setattr(pointset, "_WORD_BITS", word_bits)
        check_exact_against_oracle(minpoly, levels)


def check_exact_against_oracle(minpoly, levels):
    tallies = exact_tally_dict(minpoly, levels)
    check_level_against_oracle(generate_exact(minpoly, levels), levels, tallies[-1])
    walked = list(exact_levels(minpoly, levels))
    assert len(walked) == levels
    for n, (eps, tally) in enumerate(zip(walked, tallies), start=1):
        check_level_against_oracle(eps, n, tally)
    assert distinct_count_profile(minpoly, levels) == [len(t) for t in tallies]


def check_level_against_oracle(eps, levels, tally):
    want = sorted(tally)
    assert eps.levels == levels
    assert eps.keys.dtype == np.int64 and eps.multiplicities.dtype == np.int64
    assert eps.keys.shape == (len(want), len(eps.minpoly) - 1)
    # Rows come lex-sorted, each once, with the oracle's multiplicities.
    assert eps.keys.tolist() == [list(key) for key in want]
    assert eps.multiplicities.tolist() == [tally[key] for key in want]
    assert int(eps.multiplicities.sum()) == 1 << levels
    assert not eps.keys.flags.writeable and not eps.multiplicities.flags.writeable
    assert eps._words.shape[0] == len(eps._layout)  # no word beyond the reader's
    assert tally_of(eps) == tally


def sorted_levels(minpoly, levels):
    """The levels 1..levels whose words ``exact_levels`` sorts."""
    calls, out = [], []
    real = pointset._sorted_words
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_sorted_words", lambda words: calls.append(1) or real(words))
        for eps in exact_levels(minpoly, levels):
            if calls:
                out.append(eps.levels)
                calls.clear()
    return out


def images(res, p, bump):
    """x*R and x*R + bump*e0 of one vector, as in the dict oracle."""
    shifted = tuple(p[-1] * b - res[-1] * c for b, c in zip((0,) + res[:-1], p))
    return shifted, (shifted[0] + bump,) + shifted[1:]


def predicted_sorted_levels(minpoly, levels):
    """Levels that may have ties, read off the dict oracle: level t is proved
    tie-free when level t-1 holds 2**(t-1) vectors and no two of them can
    differ by D_j = -lead**t * p[j+1] / (p[0] * lead) in every entry j."""
    p = defining_poly(minpoly)
    prev, out = {(0,) * (len(p) - 1): 1}, []
    for t, tally in enumerate(exact_tally_dict(p, levels), start=1):
        spans = [max(col) - min(col) for col in zip(*prev)]
        shift = [Fraction(-p[-1] ** t * c, p[0] * p[-1]) if p[0] else 0 for c in p[1:]]
        free = p[0] != 0 and (any(d.denominator != 1 for d in shift)
                              or any(abs(d) > s for d, s in zip(shift, spans)))
        if not (len(prev) == 1 << (t - 1) and free):
            out.append(t)
        prev = tally
    return out


@pytest.mark.parametrize("minpoly", [(-2, -2, 0, 1), (-2, 0, 1), (-1, 0, 2)])
def test_garsia_levels_are_never_sorted(minpoly):
    # All 2**N strings stay apart, and D is never an integer vector: x^3-2x-2
    # and x^2-2 have D_2 = 1/2 and D_1 = 1/2, and 2x^2-1 has D_1 = 2**t above
    # the span of entry 1, which is below 2**t.
    assert sorted_levels(minpoly, 16) == []
    eps = generate_exact(minpoly, 16)
    assert eps.multiplicities.size == 1 << 16 and not eps.multiplicities.flags.writeable
    assert set(eps.multiplicities.tolist()) == {1}
    keys = eps.keys.tolist()
    assert keys == sorted(keys) and len(set(map(tuple, keys))) == 1 << 16
    assert tally_of(eps) == exact_tally_dict(minpoly, 16)[-1]


@pytest.mark.parametrize("minpoly,levels,first", [
    (GOLDEN_MINPOLY, 16, 3), (DEGREE_9, 14, 10), ((0, 1, 1), 8, 1), ((0, -1, 0, 1), 8, 1),
    ((-2, 2, 2), 10, 3), ((-1, -1, -1, 1), 12, 4)])
def test_sorted_levels_follow_tie_shift(minpoly, levels, first):
    # A level is sorted unless D proves it tie-free; with p_0 = 0 every level
    # is sorted.  D is computed here from the oracle's levels.
    want = predicted_sorted_levels(minpoly, levels)
    assert want[0] == first
    assert sorted_levels(minpoly, levels) == want
    check_exact_against_oracle(minpoly, levels)


@pytest.mark.parametrize("minpoly", [GOLDEN_MINPOLY, (1, -1, -1), (-1, -1, -1, 1),
                                     (-2, 2, 2), DEGREE_9])
def test_tie_shift_is_the_difference_of_colliding_vectors(minpoly):
    # Every pair of vectors of a level whose images collide differs by D.
    p = defining_poly(minpoly)
    prev, collisions = {(0,) * (len(p) - 1): 1}, 0
    for t, tally in enumerate(exact_tally_dict(p, 10), start=1):
        bump = p[-1] ** t
        shift = pointset._tie_shift(p, bump)
        low = {images(res, p, bump)[0]: res for res in prev}
        for res in prev:
            other = low.get(images(res, p, bump)[1])
            if other is not None:
                collisions += 1
                assert [a - b for a, b in zip(other, res)] == shift
        prev = tally
    assert collisions


def test_tie_free_needs_every_multiplicity_one():
    # x^2 - 2 never has ties, but a level whose vectors carry multiplicities
    # above 1 must keep them: this one holds 4 strings in 3 vectors.
    rows = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    mult = np.array([2, 1, 1], dtype=np.int64)
    layout = pointset._layout([64] * 2, [0] * 2)
    eps = pointset.ExactPointSet((-2, 0, 1), 2, mult, rows.view(np.uint64), layout,
                                 ((0, 1), (0, 1)))
    got = pointset._next_level(eps, 1)
    want = Counter()
    for res, m in zip(map(tuple, rows.T.tolist()), mult.tolist()):
        for key in images(res, (-2, 0, 1), 1):
            want[key] += m
    assert tally_of(got) == want
    assert got.multiplicities.tolist() == [want[key] for key in sorted(want)]


def test_exact_int64_guard():
    # 1000x^2-1: the "+1" at level 7 is 1000**7 > 2**63 on the residue scale.
    with pytest.raises(SizeCapError):
        generate_exact((-1, 0, 1000), 8)
    with pytest.raises(SizeCapError):
        distinct_count_profile((-1, 0, 1000), 8)
    with pytest.raises(SizeCapError):
        generate_exact((-(2**63), 0, 1), 1)
    assert distinct_count(generate_exact((-1, 0, 1000), 6)) == 64
    # Large low coefficients: each level matches the Python-integer oracle or
    # is refused, never wrapped (x^4 = 2**80 modulo x^2 - 2**40).
    for minpoly in [(-(2**40), 0, 1), (3, -(2**21), 5)]:
        tallies = exact_tally_dict(minpoly, 8)
        refused = 0
        for n in range(1, 9):
            try:
                eps = generate_exact(minpoly, n)
            except SizeCapError:
                refused += 1
                continue
            assert tally_of(eps) == tallies[n - 1]
        assert 0 < refused < 8


def test_exact_int64_guard_bounds_real_entries():
    # The guard grows the largest entry actually held, not a bound carried
    # from level 1: these levels hold 47-bit and 41-bit entries.
    for minpoly, levels in [((3, -(2**21), 5), 4), ((-(2**40), 0, 1), 3)]:
        tallies = exact_tally_dict(minpoly, levels)
        assert max(abs(c) for key in tallies[-1] for c in key) < 2**47
        check_exact_against_oracle(minpoly, levels)


@pytest.mark.parametrize("minpoly,fit", [
    ((-1, 0, 1000), 6), ((-(2**40), 0, 1), 3), ((3, -(2**21), 5), 4), ((-(2**63), 0, 1), 0),
    ((2**40, 0, 1), 3), ((2**30, 2**30, 1), 4), ((-(2**20), 3, 0, 7), 7),
    ((5, -(2**25), 2), 4), ((2**62, 1), 2), ((-(2**61), 2**61, 1), 3)])
def test_exact_int64_guard_refusal_levels(minpoly, fit):
    # The guard reads the largest |entry| the level holds, negative ones
    # included (x^2 + 2**40 and x + 2**62 overflow silently without them),
    # and refuses the first level that could leave int64.
    walked = []
    with pytest.raises(SizeCapError):
        for eps in exact_levels(minpoly, pointset.MAX_EXACT_LEVELS):
            walked.append(eps.levels)
    assert walked == list(range(1, fit + 1))
    if fit:
        assert tally_of(eps) == exact_tally_dict(minpoly, fit)[-1]


def test_next_level_row_spans_beyond_2_63():
    # The int64 guard keeps every entry within 2**63 - 1, so a row may span
    # up to 2**64 - 2 and need a 64-bit field; entries this wide are taken
    # modulo 2**64.  In the second input a constant row's 0-bit field shares
    # a word with each 64-bit one; in the third the 1-bit multiplicity field
    # does not fit beside the 64-bit row.  Each input is x*R for a level R
    # packed by hand, one entry per 64-bit word, modulo x^deg - 1, where x*R
    # rotates R's entries.
    top = 2**63 - 1
    wide = [[-top, top - 5, -top, 3, top - 5], [top, -top, top, 0, -top]]
    for rows, mult in [(wide, [1, 2, 3, 4, 5]),
                       ([wide[0], [7] * 5, wide[1], [-top] * 5], [1, 2, 3, 4, 5]),
                       ([wide[0]], [1] * 5)]:
        shifted = np.array(rows, dtype=np.int64)
        mult = np.array(mult, dtype=np.int64)
        bump = 5
        want = Counter()
        for col, m in zip(shifted.T.tolist(), mult.tolist()):
            want[tuple(col)] += m
            want[(col[0] + bump, *col[1:])] += m
        deg = len(rows)
        held = np.roll(shifted, -1, axis=0)
        layout = pointset._layout([64] * deg, [0] * deg)
        eps = pointset.ExactPointSet((-1,) + (0,) * (deg - 1) + (1,), 1, mult,
                                     held.view(np.uint64), layout,
                                     tuple((int(r.min()), int(r.max())) for r in held))
        got = pointset._next_level(eps, bump)
        keys = sorted(want)
        assert got.keys.tolist() == [list(key) for key in keys]
        assert got.multiplicities.tolist() == [want[key] for key in keys]
        assert got.keys.dtype == got.multiplicities.dtype == np.int64



@st.composite
def packed_columns(draw):
    """Entry fields 0..64 bits wide whose lows keep every entry in int64, an
    optional multiplicity field width, and columns of entries (then the
    multiplicity, 1 without the field) that fit them."""
    widths = draw(st.lists(st.integers(0, 64), min_size=1, max_size=6))
    lows = [draw(st.integers(-2**63, 2**63 - 2**w)) for w in widths]
    mult_width = draw(st.none() | st.integers(1, 63))
    top = 2**mult_width - 1 if mult_width else 1
    cols = draw(st.lists(st.tuples(*[st.integers(lo, lo + 2**w - 1)
                                     for lo, w in zip(lows, widths)], st.integers(1, top)),
                         min_size=1, max_size=5))
    return widths, lows, mult_width, cols


@settings(max_examples=150, deadline=None)
@given(packed_columns(), st.sampled_from([1, 5, 12, 64]))
# A 0-bit field just ahead of a 64-bit one shares its word at shift 64.
@example(([0, 64], [7, -2**63], None, [(7, -2**63, 1), (7, 2**63 - 1, 1)]), 64)
@example(([0, 64], [-5, -2**63], 2, [(-5, 0, 3), (-5, 2**63 - 1, 1)]), 64)
def test_layout_round_trips_words(packed, word_bits):
    # Encode with the writer's layout, shift the multiplicity off as
    # _next_level does, and decode with the reader's, the same layout less
    # the multiplicity field.
    widths, lows, mult_width, cols = packed
    deg, n = len(widths), len(cols)
    rows = np.array(cols, dtype=np.int64).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_WORD_BITS", word_bits)
        fields = (widths, lows) if mult_width is None else (widths + [mult_width], lows + [0])
        layout = pointset._layout(*fields)
        words = np.empty((len(layout), 2 * n), dtype=np.uint64)
        pointset._encode(words, 0, rows.copy(), layout, np.uint64(0))
        assert (words[:, :n] == words[:, n:]).all()
        words = words[:, :n]
        if mult_width is not None:
            mult = words[-1] & layout[-1][2][-1]
            words[-1] >>= mult_width
            if layout[-1][0] == deg:
                words = words[:-1]
            assert mult.view(np.int64).tolist() == rows[deg].tolist()
        out = np.empty((deg, n), dtype=np.int64)
        pointset._unpack(words, pointset._layout(widths, lows), out)
    assert out.tolist() == rows[:deg].tolist()


def test_layout_splits_fields_greedily():
    # Per word: first field, shifts, masks; a prefix of the fields splits
    # into a prefix of the words.
    def words(widths):
        return [(first, shifts.ravel().tolist(), masks.ravel().tolist())
                for first, shifts, masks, _ in pointset._layout(widths, [0] * len(widths))]
    assert words([0, 64]) == [(0, [64, 0], [0, 2**64 - 1])]
    assert words([64, 0, 3]) == [(0, [0, 0], [2**64 - 1, 0]), (2, [0], [7])]
    assert words([30, 30, 4, 2]) == [(0, [34, 4, 0], [2**30 - 1] * 2 + [15]), (3, [0], [3])]
    assert words([30, 30, 4]) == [(0, [34, 4, 0], [2**30 - 1] * 2 + [15])]


X20 = (-2,) + (0,) * 19 + (1,)  # x^20 - 2


@pytest.mark.parametrize("minpoly,levels", [((-2, -2, 0, 1), 16), ((-1, 0, 2), 16),
                                            (DEGREE_9, 16), (GOLDEN_MINPOLY, 20), (X20, 16),
                                            ((-2, -2, 0, 1), 20)])
def test_generate_exact_peak_memory(minpoly, levels):
    # The tally's traced peak, in units of the arrays it returns once the
    # keys are decoded.  x^20-2 holds every level in one word per vector,
    # against 20 int64 entries per key, so its walk stays well below them.
    # So does x^3-2x-2 at N=20, whose tie-free levels hold no multiplicity
    # array and are never sorted.
    tracemalloc.start()
    try:
        eps = generate_exact(minpoly, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 0.5 if (minpoly, levels) in [(X20, 16), ((-2, -2, 0, 1), 20)] else 2.2
    assert peak <= bound * (eps.keys.nbytes + eps.multiplicities.nbytes)


def test_golden_at_exact_cap():
    # Distinct golden values at level N number F(N+3) - 1.
    fib = [0, 1]
    while len(fib) < 28:
        fib.append(fib[-1] + fib[-2])
    eps = generate_exact(GOLDEN_MINPOLY, 24)
    assert distinct_count(eps) == fib[27] - 1 == 196417
    assert int(eps.multiplicities.sum()) == 1 << 24


def test_standard_is_scaled_primed_same_float_path():
    rng = np.random.default_rng(7)
    for lam in 0.52 + 0.45 * rng.random(5):
        std = generate(lam, 9, Form.STANDARD)
        pri = generate(lam, 9, Form.PRIMED)
        assert np.array_equal(std.values, (1.0 - lam) * pri.values)


def test_endpoint_invariants():
    rng = np.random.default_rng(11)
    for lam in 0.52 + 0.45 * rng.random(8):
        for n in (2, 7, 13):
            std = generate(lam, n, Form.STANDARD)
            pri = generate(lam, n, Form.PRIMED)
            assert std.values[0] == 0.0 and pri.values[0] == 0.0
            end_std = 1.0 - lam**n
            end_pri = (1.0 - lam**n) / (1.0 - lam)
            assert abs(std.values[-1] - end_std) <= 4 * n * np.spacing(end_std)
            assert abs(pri.values[-1] - end_pri) <= 4 * n * np.spacing(end_pri)


def test_float_distinctness_away_from_relations():
    # lambda = 1/2 is a zero of no {0,±1} polynomial, and generic samples
    # stay clear of low-degree relations at this resolution.
    for lam in (0.5, 0.67234, 0.81321):
        ps = generate(lam, 12)
        assert np.all(np.diff(ps.values) > ps.distinct_tolerance())


def test_values_sorted_and_sized():
    ps = generate(0.83, 11, Form.PRIMED)
    assert ps.values.size == 1 << 11
    assert np.all(np.diff(ps.values) >= 0)


def test_generate_errors():
    with pytest.raises(DomainError):
        generate(0.0, 4)
    with pytest.raises(DomainError):
        generate(1.0, 4)
    with pytest.raises(SizeCapError):
        generate(0.6, 0)
    with pytest.raises(SizeCapError):
        generate(0.6, 29)


def test_generate_exact_errors():
    with pytest.raises(DomainError):
        generate_exact((3,), 4)  # constant
    with pytest.raises(DomainError):
        generate_exact((0,), 4)  # zero
    with pytest.raises(SizeCapError):
        generate_exact(GOLDEN_MINPOLY, 25)


def test_levels_must_be_integers():
    # A float level is refused, not passed on to a shift or a range.
    with pytest.raises(DomainError):
        generate(0.7, 5.5)
    with pytest.raises(DomainError):
        generate(0.7, 5.0)
    for call in (generate_exact, distinct_count_profile):
        with pytest.raises(DomainError):
            call(GOLDEN_MINPOLY, 3.0)
    with pytest.raises(DomainError):
        next(exact_levels(GOLDEN_MINPOLY, 2.5))
    assert np.array_equal(generate(0.7, np.int64(5)).values, generate(0.7, 5).values)
    assert distinct_count(generate_exact(GOLDEN_MINPOLY, np.int32(4))) == 12


def test_values_are_read_only():
    ps = generate(0.6, 5)
    with pytest.raises(ValueError):
        ps.values[0] = 1.0


def test_binary_round_trip(tmp_path):
    ps = generate(0.6429, 9, Form.PRIMED)
    path = tmp_path / "dump.bin"
    write_binary(ps, path)
    raw = path.read_bytes()
    assert raw[:4] == b"BCV1"
    assert len(raw) == 4 + 13 + 8 * (1 << 9)
    back = read_binary(path)
    assert back.lam == ps.lam and back.levels == ps.levels and back.form == ps.form
    assert back.values.tobytes() == ps.values.tobytes()
    assert back.values.dtype == np.float64 and not back.values.flags.writeable


def test_write_binary_copies_nothing(tmp_path):
    # The values are written from the set itself, not from a converted copy.
    ps = generate(0.6429, 20)
    path = tmp_path / "dump.bin"
    tracemalloc.start()
    try:
        write_binary(ps, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * ps.values.nbytes
    assert path.read_bytes()[4 + 13:] == ps.values.astype("<f8").tobytes()


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DomainError):
        read_binary(path)


@pytest.mark.parametrize("corrupt", [
    lambda raw: raw[:16] + b"\x07" + raw[17:],
    lambda raw: raw[:12] + (200).to_bytes(4, "little") + raw[16:],
    lambda raw: raw[:12] + (0).to_bytes(4, "little") + raw[16:],
    lambda raw: raw + b"\x00",
    lambda raw: raw[:-1],
    lambda raw: raw[:10],
    lambda raw: raw[:41] + struct.pack("<d", math.nan) + raw[49:],
    lambda raw: raw[:17] + raw[-8:] + raw[25:-8] + raw[17:25],
    lambda raw: raw[:-8] + struct.pack("<d", math.inf),
    lambda raw: raw[:4] + struct.pack("<d", math.nan) + raw[12:],
], ids=["form", "levels-200", "levels-0", "trailing", "truncated", "header",
        "nan", "unsorted", "inf-last", "lambda-nan"])
def test_binary_corrupt_dump(tmp_path, corrupt):
    path = tmp_path / "dump.bin"
    write_binary(generate(0.6, 4), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(DomainError):
        read_binary(path)


_DUMP_BYTES = 4 + 13 + 8 * (1 << 4)
# Flip positions lean on the 17 header bytes, which a uniform draw rarely hits.
_dump_byte = st.integers(0, 16) | st.integers(0, _DUMP_BYTES - 1)
_dump_edits = st.one_of(
    st.integers(0, _DUMP_BYTES - 1).map(lambda k: ("truncate", k)),
    st.binary(min_size=1, max_size=24).map(lambda extra: ("extend", extra)),
    st.lists(st.tuples(_dump_byte, st.integers(1, 255)),
             min_size=1, max_size=6).map(lambda flips: ("flip", flips)))


@settings(max_examples=300, deadline=None)
@given(_dump_edits)
def test_binary_fuzzed_dump(tmp_path_factory, edit):
    ps = generate(0.6, 4)
    path = tmp_path_factory.mktemp("fuzz") / "dump.bin"
    write_binary(ps, path)
    raw = bytearray(path.read_bytes())
    kind, arg = edit
    if kind == "truncate":
        raw = raw[:arg]
    elif kind == "extend":
        raw += arg
    else:
        for pos, mask in arg:
            raw[pos] ^= mask
    path.write_bytes(bytes(raw))
    try:
        back = read_binary(path)
    except DomainError:
        return
    assert 0.0 < back.lam < 1.0
    assert back.values.size == 1 << back.levels
    assert np.all(np.isfinite(back.values))
    assert np.all(back.values[1:] >= back.values[:-1])
