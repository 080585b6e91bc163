import itertools
import math
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvlab import (DomainError, Form, SizeCapError, distinct_count,
                    distinct_count_profile, exact_levels, generate, generate_exact,
                    pointset, read_binary, write_binary)
from oracles import (digit_poly, exact_tally_dict, horner_values, merge_levels,
                     poly_mod)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MINPOLY = (-1, 1, 1)  # x^2 + x - 1


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
    assert sorted(eps.residues.values()) == [1, 1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("levels,expected", [(1, 2), (2, 4), (3, 7), (4, 12)])
def test_golden_distinct_counts(levels, expected):
    assert distinct_count(generate_exact(GOLDEN_MINPOLY, levels)) == expected


def test_garsia_sqrt2_no_coincidences():
    eps = generate_exact((-2, 0, 1), 8)
    assert distinct_count(eps) == 256
    assert all(m == 1 for m in eps.residues.values())


def test_distinct_count_profile_matches_individual_runs():
    profile = distinct_count_profile(GOLDEN_MINPOLY, 6)
    assert profile == [distinct_count(generate_exact(GOLDEN_MINPOLY, n))
                       for n in range(1, 7)]


def test_multiplicity_conservation():
    for minpoly in [GOLDEN_MINPOLY, (-2, 0, 1), (-1, 0, 2), (-2, -2, 0, 1)]:
        for n in (1, 4, 9):
            eps = generate_exact(minpoly, n)
            assert sum(eps.residues.values()) == 1 << n


def test_merge_equals_horner_brute_force():
    rng = np.random.default_rng(31415)
    for lam in 0.52 + 0.38 * rng.random(6):
        for n in (1, 5, 12):
            for form, standard in ((Form.STANDARD, True), (Form.PRIMED, False)):
                got = generate(lam, n, form).values
                want = horner_values(lam, n, standard)
                tol = 8 * n * np.spacing(np.maximum(np.abs(got), np.abs(want)))
                assert np.all(np.abs(got - want) <= tol)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
       | st.sampled_from([GOLDEN, 2.0**-0.5]),
       st.integers(1, 14), st.sampled_from(list(Form)))
def test_generate_bytes_match_merge_oracle(lam, levels, form):
    want = merge_levels(lam, levels)
    if form is Form.STANDARD:
        want = (1.0 - lam) * want
    assert generate(lam, levels, form).values.tobytes() == want.tobytes()


# golden, Garsia x^2-2, non-monic 2x^2-1, Garsia x^3-2x-2, golden negated
EXACT_POLYS = [GOLDEN_MINPOLY, (-2, 0, 1), (-1, 0, 2), (-2, -2, 0, 1), (1, -1, -1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EXACT_POLYS), st.integers(1, 8))
def test_exact_tally_matches_poly_mod_grouping(minpoly, levels):
    groups = [Counter(poly_mod(digit_poly(bits), minpoly)
                      for bits in itertools.product((0, 1), repeat=n))
              for n in range(1, levels + 1)]
    eps = generate_exact(minpoly, levels)
    assert sorted(eps.residues.values()) == sorted(groups[-1].values())
    # A key R stands for the residue R / lead**levels.
    scale = eps.minpoly[-1] ** levels
    assert {tuple(Fraction(c, scale) for c in key): m
            for key, m in eps.residues.items()} == groups[-1]
    assert distinct_count_profile(minpoly, levels) == [len(g) for g in groups]


# 1 - x - x^3 - x^5 - x^7 - x^9, the degree-9 relation whose zero is 0.62037
DEGREE_9 = (1, -1, 0, -1, 0, -1, 0, -1, 0, -1)
# golden, tribonacci, x^2-2, Garsia x^3-2x-2, non-monic 2x^2-1, golden negated
ORACLE_POLYS = [GOLDEN_MINPOLY, (-1, -1, -1, 1), (-2, 0, 1), (-2, -2, 0, 1), (-1, 0, 2),
                (1, -1, -1), DEGREE_9]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_POLYS), st.integers(1, 12))
def test_exact_arrays_match_dict_oracle(minpoly, levels):
    check_exact_against_oracle(minpoly, levels)


# Capacity 2 or 3 sends every level to the several-word path: row 0 and the
# multiplicity each have radix >= 2.  Larger capacities pack some digits.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_POLYS), st.integers(1, 12),
       st.sampled_from([2, 3, 2**5, 2**12]))
def test_exact_several_words_match_dict_oracle(minpoly, levels, capacity):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_WORD_CAPACITY", capacity)
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
    assert dict(eps.residues) == tally


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
            assert dict(eps.residues) == tallies[n - 1]
        assert 0 < refused < 8


def test_exact_int64_guard_bounds_real_entries():
    # The guard grows the largest entry actually held, not a bound carried
    # from level 1: these levels hold 47-bit and 41-bit entries.
    for minpoly, levels in [((3, -(2**21), 5), 4), ((-(2**40), 0, 1), 3)]:
        tallies = exact_tally_dict(minpoly, levels)
        assert max(abs(c) for key in tallies[-1] for c in key) < 2**47
        check_exact_against_oracle(minpoly, levels)


def test_merge_level_row_spans_beyond_2_63():
    # The int64 guard keeps every entry within 2**63 - 1, so a row may span
    # up to 2**64 - 2; entries this wide are taken modulo 2**64.
    top = 2**63 - 1
    shifted = np.array([[-top, top - 5, -top, 3, top - 5],
                        [top, -top, top, 0, -top]], dtype=np.int64)
    mult = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    bump = 5
    want = Counter()
    for col, m in zip(shifted.T.tolist(), mult.tolist()):
        want[tuple(col)] += m
        want[(col[0] + bump, col[1])] += m
    cols, got = pointset._merge_level(shifted, mult, bump)
    keys = sorted(want)
    assert cols.T.tolist() == [list(key) for key in keys]
    assert got.tolist() == [want[key] for key in keys]
    assert cols.dtype == got.dtype == np.int64


@pytest.mark.parametrize("minpoly,levels", [((-2, -2, 0, 1), 16), ((-1, 0, 2), 16),
                                            (DEGREE_9, 16), (GOLDEN_MINPOLY, 20)])
def test_generate_exact_peak_memory(minpoly, levels):
    # The tally's traced peak, in units of the arrays it returns.
    tracemalloc.start()
    try:
        eps = generate_exact(minpoly, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * (eps.keys.nbytes + eps.multiplicities.nbytes)


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
