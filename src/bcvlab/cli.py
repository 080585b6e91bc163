"""Command-line front end.

:func:`main` is the one run frame: it creates ``--out-dir`` before any work,
calls ``cmd_*(args, run)``, which only computes and writes its data files
(CSV/JSON) through ``run.path``, then writes the run manifest listing them
and maps errors to exit codes.  Runs are deterministic given flags and seed.
Plots are standalone gnuplot scripts reading the CSV files, not images.

Exit codes: 0 success, 2 usage error (including an output directory or file
that cannot be created or written), 3 resource-cap error (including an
allocation the system refuses), 4 numeric-domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .algebraic import (classify, defining_poly, forbidden_block,
                        greedy_expansion, nearest_zero_above, parse_poly,
                        poly_to_string, sft_growth_rate)
from .errors import DomainError, SizeCapError
from .pointset import Form, distinct_count, exact_levels, generate
# Looked up here by name by the benchmark tracer (bench/tracing.py).
from .pointset import distinct_count_profile, generate_exact  # noqa: F401
from .stats import rescale  # noqa: F401
from .stats import (cdf_empirical, cdf_sqrt_half, coincidence_rate, gaps,
                    gof_statistics, histogram, pair_correlation,
                    pair_correlation_interval, spacings,
                    write_curve_csv, write_histogram_csv)
from .sweep import SweepConfig, averaged_pair_correlation

def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"cannot parse float list {text!r}")


def _parse_poly_arg(text: str):
    """Accept either "x^2+x-1" or a constant-first JSON list like [-1,1,1]."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            coeffs = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # also >4300-digit ints
            raise DomainError(f"bad JSON coefficient list: {exc}")
        if (not isinstance(coeffs, list) or not coeffs
                or not all(type(c) is int for c in coeffs)):
            raise DomainError("coefficient list must be nonempty integers")
        return tuple(coeffs)
    return parse_poly(stripped)


def _json_dump(obj, path: Path) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=False)
        f.write("\n")


class _Run:
    """Creates --out-dir, collects output paths, writes the manifest last."""

    def __init__(self, argv: list[str], args):
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.subcommand = args.subcommand
        self.argv = argv
        self.seed: int | None = None
        self.outputs: list[str] = []
        self.t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out_dir / name

    def finish(self) -> None:
        manifest = {
            "subcommand": self.subcommand,
            "argv": self.argv,
            "seed": self.seed,
            "versions": {
                "bcvlab": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "outputs": self.outputs,
            "wall_time_s": time.perf_counter() - self.t0,
        }
        _json_dump(manifest, self.out_dir / "run_manifest.json")


# ---------------------------------------------------------------------------
# subcommands


def _build_rescaler(kind: str, lam: float):
    if kind == "none":
        return None
    if kind == "sqrt-half":
        return cdf_sqrt_half()
    if kind.startswith("empirical:"):
        try:
            level = int(kind.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"empirical:M needs an integer level M, got {kind!r}")
        return cdf_empirical(lam, level)
    raise DomainError(f"unknown rescale mode {kind!r} "
                      "(expected none, sqrt-half, or empirical:M)")


def cmd_spacings(args, run: _Run) -> None:
    ps = generate(args.lam, args.n, Form.STANDARD)
    model = _build_rescaler(args.rescale, args.lam)
    sp = spacings(ps, args.ell, model)  # the model's CDF is evaluated in the pass
    del ps  # the statistics need only the spacings
    hist = histogram(sp)
    gof = gof_statistics(sp)

    hist_path = run.path("spacings_histogram.csv")
    write_histogram_csv(hist, hist_path)
    gof_path = run.path("spacings_gof.json")
    _json_dump({
        "lambda": args.lam,
        "n": args.n,
        "ell": args.ell,
        "rescale": args.rescale,
        **asdict(gof),
        "overflow": hist.overflow,
    }, gof_path)
    plot_path = run.path("spacings_plot.gp")
    with open(plot_path, "w") as f:
        f.write(
            "# gnuplot script: spacing histogram with Poisson overlay\n"
            "set datafile separator ','\n"
            f"set title 'spacings: lambda={args.lam:g} N={args.n} ell={args.ell} "
            f"rescale={args.rescale}'\n"
            "set xlabel 'normalized spacing'\n"
            "set ylabel 'count'\n"
            f"set boxwidth {0.1 * args.ell:g}\n"
            "set style fill solid 0.4\n"
            "plot 'spacings_histogram.csv' skip 1 using (0.5*($1+$2)):3 "
            "with boxes title 'spacings', \\\n"
            "     'spacings_histogram.csv' skip 1 using (0.5*($1+$2)):4 "
            "with lines lw 2 title 'poisson'\n")
    print(f"ks={gof.ks:.6g} chi2={gof.chi2:.6g} mean={gof.mean:.6g} "
          f"overflow={hist.overflow}", file=sys.stderr)


def cmd_paircorr(args, run: _Run) -> None:
    ps = generate(args.lam, args.n, Form.STANDARD)
    grid = _parse_floats(args.s_grid)
    if any(s == 0 for s in grid):
        print("note: s=0 counts exact float coincidences only; "
              "use the exact subcommand for certified coincidence analysis",
              file=sys.stderr)
    if args.interval is not None:
        curve = pair_correlation_interval(ps, _parse_floats(args.interval), grid)
    else:
        curve = pair_correlation(ps, grid)
    write_curve_csv(curve, run.path("paircorr_curve.csv"))


def cmd_exact(args, run: _Run) -> None:
    # The one normal form: every spelling of a polynomial writes one report.
    coeffs = defining_poly(_parse_poly_arg(args.minpoly))
    verdict = classify(coeffs)  # refuse a bad polynomial before the tally
    distinct_counts = []
    for eps in exact_levels(coeffs, args.n):
        distinct_counts.append(distinct_count(eps))
    report = {
        "minpoly": poly_to_string(coeffs, descending=True),
        "coefficients": list(coeffs),
        "n": args.n,
        "total_strings": 2 ** args.n,
        "distinct": distinct_count(eps),
        "coincidence_rate": coincidence_rate(eps),
        "classification": {
            "verdict": verdict.verdict.value,
            "dominant_root": verdict.dominant_root,
            "reciprocal": verdict.reciprocal,
            "modulus_margin": verdict.modulus_margin,
            "note": verdict.note,
        },
    }
    # Growth comparison applies only when the polynomial is itself a
    # {0,±1} relation (constant term ±1, all coefficients in {-1,0,1}).
    if abs(coeffs[0]) == 1 and all(abs(c) <= 1 for c in coeffs):
        relation = tuple(c * coeffs[0] for c in coeffs[1:])
        block = forbidden_block(relation)
        growth = sft_growth_rate(block, count_cap=args.n)
        report["growth"] = {
            "forbidden_block": block,
            "rho": growth.rho,
            "degenerate": growth.degenerate,
            "word_counts": list(growth.word_counts[1:args.n + 1]),
            "distinct_counts": distinct_counts,
        }
    else:
        report["growth_note"] = ("polynomial is not a {0,±1} relation; "
                                 "growth comparison omitted")
    _json_dump(report, run.path("exact_report.json"))


def cmd_sweep(args, run: _Run) -> None:
    cfg = SweepConfig(
        interval=_parse_floats(args.interval),
        levels=args.n,
        s_grid=tuple(_parse_floats(args.s_grid)),
        sample_count=args.samples,
        quadrature=args.quadrature,
        seed=args.seed,
    )
    report = averaged_pair_correlation(cfg, progress=args.samples >= 16)
    run.seed = report.seed
    _json_dump(report.to_json_dict(), run.path("sweep_report.json"))


def cmd_gaps(args, run: _Run) -> None:
    form = Form.PRIMED if args.primed else Form.STANDARD
    ps = generate(args.lam, args.n, form)
    report = gaps(ps, args.distinct_tol)
    _json_dump({"lambda": args.lam, "n": args.n, "form": form.value,
                **asdict(report)}, run.path("gaps_report.json"))


def cmd_classify(args, run: _Run) -> None:
    result = classify(_parse_poly_arg(args.poly))
    _json_dump({
        "poly": poly_to_string(result.poly, descending=True),
        "coefficients": list(result.poly),
        "verdict": result.verdict.value,
        "roots": [[z.real, z.imag] for z in result.roots],
        "root_moduli": [abs(z) for z in result.roots],
        "dominant_root": result.dominant_root,
        "reciprocal": result.reciprocal,
        "modulus_margin": result.modulus_margin,
        "note": result.note,
    }, run.path("classify_report.json"))


def cmd_greedy(args, run: _Run) -> None:
    expansion = greedy_expansion(args.lam, args.k)
    poly, root = nearest_zero_above(args.lam, args.k)
    _json_dump({
        "lambda": args.lam,
        "k": args.k,
        **asdict(expansion),
        "polynomial": poly_to_string(poly),
        "root": root,
    }, run.path("greedy_report.json"))


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcvlab",
        description="Finite Bernoulli convolution laboratory: spacings, pair "
                    "correlations, gaps, sweeps, and exact algebraic analysis.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory")
    float_set = argparse.ArgumentParser(add_help=False, parents=[common])
    float_set.add_argument("--lambda", dest="lam", type=float, required=True)
    float_set.add_argument("--n", type=int, required=True)

    def add(name, func, help, parent=common):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(func=func)
        return p

    p = add("spacings", cmd_spacings, "spacing histogram with Poisson overlay", float_set)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--rescale", default="none",
                   help="none | sqrt-half | empirical:M")

    p = add("paircorr", cmd_paircorr, "pair correlation curve", float_set)
    p.add_argument("--s-grid", required=True, help="comma-separated s values")
    p.add_argument("--interval", default=None, help="restrict to a,b in [0,1]")

    p = add("exact", cmd_exact, "exact coincidence analysis for an algebraic parameter")
    p.add_argument("--minpoly", required=True, help='e.g. "x^2+x-1"')
    p.add_argument("--n", type=int, required=True)

    p = add("sweep", cmd_sweep, "averaged pair correlation over an interval")
    p.add_argument("--interval", required=True, help="a,b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s-grid", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--quadrature", choices=("midpoint", "montecarlo"),
                   default="midpoint")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="ignored: the sweep runs on the calling thread")

    p = add("gaps", cmd_gaps, "smallest/largest gap report", float_set)
    p.add_argument("--primed", action="store_true")
    p.add_argument("--distinct-tol", dest="distinct_tol", type=float, default=None)

    p = add("classify", cmd_classify, "Pisot/Garsia classification")
    p.add_argument("--poly", required=True)

    p = add("greedy", cmd_greedy, "greedy expansion and nearest zero above")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=int, required=True)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = _Run(argv, args)
        args.func(args, run)
        run.finish()
    except (SizeCapError, MemoryError) as exc:
        print(f"error (resource cap): {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error (domain): {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error (output): {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
