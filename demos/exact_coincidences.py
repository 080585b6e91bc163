"""Exact coincidence counting at algebraic parameters.

At the golden-ratio parameter (root of 1 - x - x^2) many digit strings
evaluate to the same point.  The exact backend tallies residues modulo the
defining polynomial, and the count of *distinct* values matches the number
of binary words avoiding the forbidden block "100" -- the subshift whose
growth rate bounds it.  Garsia parameters show the opposite extreme: no
coincidences at all.

Run:  python3 demos/exact_coincidences.py
"""

import math

from bcvlab import (Verdict, classify, coincidence_rate, distinct_count,
                    distinct_count_profile, forbidden_block, generate_exact,
                    parse_poly, poly_to_string, sft_growth_rate)

GOLDEN_MINPOLY = parse_poly("x^2+x-1")

print("=== golden ratio: massive coincidences, subshift-limited growth ===")
block = forbidden_block((-1, -1))  # from the relation 1 - x - x^2 = 0
growth = sft_growth_rate(block, count_cap=14)
profile = distinct_count_profile(GOLDEN_MINPOLY, 14)
print(f"forbidden block: {block}   growth rate rho = {growth.rho:.12f} "
      f"(golden mean {(1 + math.sqrt(5)) / 2:.12f})")
print(f"{'N':>3} {'distinct |A_N|':>15} {'words avoiding':>15} {'2^N':>8}")
for n, d in enumerate(profile, start=1):
    print(f"{n:>3} {d:>15} {growth.word_counts[n]:>15} {2**n:>8}")
print("distinct counts match the word counts exactly (the bound is tight here);")
r3 = coincidence_rate(generate_exact(GOLDEN_MINPOLY, 3))
print(f"ordered coincident pairs per point at N=3: {r3} (one doubled value)\n")

print("=== Garsia parameters: no coincidences, maximal separation ===")
for text in ("x^2-2", "x^3-2x-2", "x^3-x^2-2"):
    poly = parse_poly(text)
    verdict = classify(poly)
    assert verdict.verdict is Verdict.GARSIA
    eps = generate_exact(poly, 12)
    print(f"{poly_to_string(poly, descending=True):>12}: Garsia number "
          f"{verdict.dominant_root:.6f}, parameter {verdict.reciprocal:.6f}, "
          f"distinct values at N=12: {distinct_count(eps)} = 2^12, "
          f"coincidence rate {coincidence_rate(eps)}")

print("\n=== non-monic defining polynomials work too ===")
poly = parse_poly("2x^2-1")  # parameter 2**-0.5 directly
eps = generate_exact(poly, 12)
print(f"2x^2 - 1 (parameter 2**-0.5): distinct at N=12: {distinct_count(eps)}, "
      f"coincidence rate {coincidence_rate(eps)}")
