"""Smallest and largest gaps of the primed point sets.

Three stories:
  * the largest gap always equals lam**(N-1) (the set starts 0, lam**(N-1)),
    and below the golden ratio, for odd N, the same gap recurs in the
    interior at 1 + lam^2 + ... + lam^(N-3);
  * Pisot-reciprocal parameters keep all distinct points at least
    ~ lam**N apart (attraction: everything else collapses onto coincidences);
  * Garsia-reciprocal parameters keep all 2**N points at least ~ 2**-N apart
    (repulsion: as spread out as counting allows).

Run:  python3 demos/gap_laws.py
"""

import math

import numpy as np

from bcvlab import Form, gaps_at, generate

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

print("=== largest gap: G_N = lam^(N-1), interior copy below the golden ratio ===")
for lam in (0.55, 0.6, 0.615):
    for n in (5, 9, 13):
        report = gaps_at(lam, n, Form.PRIMED)
        print(f"lam={lam:5} N={n:2}: G_N={report.max_gap:.3e} "
              f"(lam^(N-1)={lam**(n-1):.3e})  interior match: "
              f"{report.ejk_prediction_match}")

print("\n=== Pisot separation: min gap tracks lam^N (golden ratio) ===")
for n in range(8, 17, 2):
    report = gaps_at(GOLDEN, n, Form.PRIMED)
    print(f"N={n:2}: g_N={report.min_gap:.6e}   g_N/lam^N="
          f"{report.min_gap / GOLDEN**n:.6f}")

print("\n=== Garsia separation: min gap tracks 2^-N (parameter 2^-1/2) ===")
for n in range(8, 17, 2):
    report = gaps_at(2**-0.5, n, Form.PRIMED)
    print(f"N={n:2}: g_N={report.min_gap:.6e}   g_N*2^N="
          f"{report.min_gap * 2.0**n:.6f}")

print("\n=== near-miss parameters inherit the behavior at finite N ===")
for lam, tag in ((0.6518, "close to a Pisot reciprocal 0.651822..."),
                 (0.652, "a touch further away"),
                 (0.70710678, "within 1e-9 of the Garsia reciprocal 2^-1/2"),
                 (0.7071, "within 2e-5 of it")):
    ps = generate(lam, 18)
    sp = (np.diff(ps.values)) * ps.point_count
    frac = float(np.mean(sp < 0.1))
    print(f"lam={lam:<11} ({tag}): fraction of tiny normalized spacings "
          f"= {frac:.4f}")
