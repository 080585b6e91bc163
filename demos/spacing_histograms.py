"""Spacing histograms against the Poisson model.

Walks the full rescaling workflow at a generic parameter: generate the
2**N-point set, push it through the closed-form CDF for 2**-0.5 (a good
stand-in for nearby parameters), take nearest and higher-order spacings,
and compare the 50-bin histograms with the Poisson overlay.

Run:  python3 demos/spacing_histograms.py [outdir]
"""

import sys
from pathlib import Path


from bcvlab import cdf_sqrt_half, generate, gof_statistics, histogram, spacings
from bcvlab.stats import write_histogram_csv

LAM = 0.70880447  # a random draw from [0.69, 0.71], close to 2**-0.5
N = 18  # bump to 22 for the full-resolution picture (a few seconds more)

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
out.mkdir(parents=True, exist_ok=True)

print(f"generating A_N(lambda) for lambda={LAM}, N={N} "
      f"({2**N:,} points, multiplicities kept)")
ps = generate(LAM, N)

print("rescaling by the closed-form CDF of the lambda = 2**-0.5 convolution")
model = cdf_sqrt_half()  # evaluated inside each spacings pass; no rescaled copy

for ell in (1, 2, 3):
    raw = spacings(ps, ell)
    tidy = spacings(ps, ell, model)
    h = histogram(tidy)
    fit = gof_statistics(tidy)
    raw_fit = gof_statistics(raw)
    path = out / f"hist_rescaled_ell{ell}.csv"
    write_histogram_csv(h, path)
    print(f"  ell={ell}:  KS vs Poisson  raw={raw_fit.ks:.4f}  "
          f"rescaled={fit.ks:.4f}   -> {path}")

print("\nThe rescaled sequences hug the Poisson law (KS a couple of percent);")
print("the raw sequences do not, because the limiting measure is far from")
print("uniform. Plot any CSV: bin edges in columns 1-2, counts in column 3,")
print("Poisson overlay in column 4.")
