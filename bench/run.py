"""bcvlab benchmark: run one workload, check its outputs, print its metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare BASE NEW

Each pass runs the workload's job list in a fresh process (``one_pass.py``);
passes repeat until ``--seconds`` would be exceeded, with at least
``MIN_PASSES``.  Every job's output is checked against an independent
reference (``reference.py``).  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones (``tracing.py``).  The full result, with
the environment block and output digests, goes to ``--out`` (default
``.bench_out/`` in the checkout).  The last line on stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"

MIN_PASSES = 3  # per kind (untraced, traced) in a run
SETUP_SAMPLES_PER_PASS = 3
DEADLINE_S = 160  # every pass ends by then, so a run exits within 180 s

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "strings_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(samples: int) -> list[float]:
    """Seconds to ``import bcvlab.cli`` in a fresh interpreter, per sample."""
    code = ("import time; t = time.perf_counter(); import bcvlab.cli; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                                 capture_output=True, text=True, timeout=60,
                                 check=True).stdout)
            for _ in range(samples)]


def run_pass(workload: str, seed: int, traced: bool, pass_dir: Path,
             timeout: float) -> dict | None:
    """Run one pass in a fresh process; None if the process itself failed."""
    pass_dir.mkdir(parents=True)
    with open(pass_dir / "stderr.log", "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "one_pass.py"), workload, str(seed),
                 "1" if traced else "0", str(pass_dir)],
                env=_child_env(), cwd=ROOT, stdout=log, stderr=log,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not (pass_dir / "pass.json").is_file():
        return None
    with open(pass_dir / "pass.json") as f:
        report = json.load(f)
    if not Path(report["bcvlab_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"pass imported bcvlab from {report['bcvlab_file']}, not {SRC}")
    return report


def _output_files(job_dir: Path):
    return sorted(p for p in job_dir.rglob("*") if p.is_file())


def environment(workload) -> dict:
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False

    def cache_bytes(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                 capture_output=True, text=True, timeout=10)
            return int(out.stdout) or None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "largest_array_bytes": workload.largest_array_bytes,
        "largest_array": workload.largest_array,
    }


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name][0]} for name in units}


def _median(values):
    return statistics.median(values) if values else 0.0


def _digests(pass_dir: Path, jobs) -> dict:
    """sha256 of every data file per job; the manifest holds the wall time."""
    return {job.name: {str(p.relative_to(pass_dir / job.name)): reference.sha256_file(p)
                       for p in _output_files(pass_dir / job.name)
                       if p.name != "run_manifest.json"}
            for job in jobs}


def _evaluate(report: dict, pass_dir: Path, jobs, refs, traced: bool) -> tuple[dict, dict]:
    """Record and failures (by job) of a pass whose process completed."""
    failures = {k: v for k, v in reference.check_pass(jobs, pass_dir, report, refs).items() if v}
    entry = {"traced": traced, "wall_s": report["wall_s"],
             "peak_rss_mb": report["maxrss_kb"] / 1024.0,
             "job_s": {r["name"]: r["t1"] - r["t0"] for r in report["jobs"]}}
    if traced:
        cli_bytes = sum(p.stat().st_size for job in jobs if job.kind == "cli"
                        for p in _output_files(pass_dir / job.name))
        layers = entry["layers"] = tracing.layer_metrics(report, jobs, cli_bytes)
        # The self times of all spans must account for the whole traced pass.
        if abs(layers["trace.unattributed_s"]) > 0.01 * report["wall_s"] + 0.01:
            failures["trace"] = [f"self times miss {layers['trace.unattributed_s']:.4f} s "
                                 f"of a {report['wall_s']:.3f} s pass"]
    return entry, failures


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    jobs = workloads.jobs_for(args.workload, args.seed)
    strings_per_pass = sum(j.strings for j in jobs)
    refs = reference.References()

    start = time.perf_counter()
    if not args.trace:
        measure_setup(1)  # writes the bytecode cache, as any earlier CLI run would
    setup = []

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    passes, failures, digests = [], {}, None
    digests_stable = True
    attempted = failed = 0
    longest = 0.0  # slowest loop iteration so far: pass, checks, setup samples
    try:
        while True:
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            pass_dir = run_dir / f"pass{index}"
            t0 = time.perf_counter()
            report = run_pass(args.workload, args.seed, traced, pass_dir,
                              DEADLINE_S - (t0 - start))
            elapsed = time.perf_counter() - t0
            attempted += len(jobs)
            if report is None:
                log = (pass_dir / "stderr.log").read_text(errors="replace")
                entry, bad = {"traced": traced}, {"process": log.strip().splitlines()[-5:]}
                failed += len(jobs)
            else:
                entry, bad = _evaluate(report, pass_dir, jobs, refs, traced)
                failed += len(bad)
                files = _digests(pass_dir, jobs)
                digests = digests or files
                digests_stable &= files == digests
            entry.update(ok=not bad, process_s=elapsed)
            if bad:
                failures[f"pass{index}"] = bad
            passes.append(entry)
            shutil.rmtree(pass_dir)
            if not args.trace:
                # Interleaved with the passes, so both see the same machine state.
                setup += measure_setup(SETUP_SAMPLES_PER_PASS)

            now = time.perf_counter() - start
            longest = max(longest, time.perf_counter() - t0)
            enough = sum(p["traced"] == traced for p in passes) >= MIN_PASSES and (
                not args.trace or len(passes) >= 2 * MIN_PASSES)
            if now + longest > DEADLINE_S or (enough and now + longest > args.seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def walls(traced):
        return [p["wall_s"] for p in passes if p["traced"] == traced and "wall_s" in p]

    if args.trace:
        layer_runs = [p["layers"] for p in passes if "layers" in p]
        values = {name: _median([layers[name] for layers in layer_runs])
                  for name in tracing.PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (_median(walls(True)) - _median(walls(False))
                                      if walls(True) and walls(False) else 0.0)
        metrics = _metric_block(values, tracing.PER_LAYER)
    else:
        wall = _median(walls(False))
        values = {
            "setup_s": _median(setup),
            "wall_s": wall,
            "strings_per_s": strings_per_pass / wall if wall else 0.0,
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes if "peak_rss_mb" in p]),
            "ok_rate": 1.0 - failed / attempted,
        }
        metrics = _metric_block(values, END_TO_END)

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    result = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(workload),
        "jobs": [{"name": j.name, "kind": j.kind, "argv": list(j.argv),
                  "strings": j.strings} for j in jobs],
        "strings_per_pass": strings_per_pass,
        "setup_samples_s": setup,
        "passes": passes,
        "failures": failures,
        "digests": digests,
        "digests_stable": digests_stable,
        **summary,
    }
    out = Path(args.out) if args.out else (
        RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")

    for name, block in metrics.items():
        print(f"{args.workload} {name} = {block['value']:.6g} {block['unit']}")
    for where, what in failures.items():
        print(f"FAILED {where}: {json.dumps(what)}", file=sys.stderr)
    print(f"result: {out}")
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# compare mode


def _load_results(path: Path) -> dict[str, list[dict]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for file in files:
        with open(file) as f:
            result = json.load(f)
        by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def compare(base_path: str, new_path: str) -> int:
    """One row per workload: each metric's new/base ratio and both medians."""
    base, new = _load_results(Path(base_path)), _load_results(Path(new_path))
    for workload in sorted(set(base) & set(new)):
        cells = []
        for trace in (0, 1):
            b_runs = [r for r in base[workload] if r["trace"] == trace]
            n_runs = [r for r in new[workload] if r["trace"] == trace]
            if not (b_runs and n_runs):
                continue
            for name, block in b_runs[0]["metrics"].items():
                b = _median([r["metrics"][name]["value"] for r in b_runs])
                n = _median([r["metrics"][name]["value"] for r in n_runs if name in r["metrics"]])
                ratio = f"{n / b:.3f}" if b else "n/a"
                cells.append(f"{name} {ratio} ({b:.4g} -> {n:.4g} {block['unit']})")
        print(f"{workload} [{len(base[workload])} vs {len(new[workload])} results]: "
              + "; ".join(cells))
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'base' if workload in base else 'new'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="where to write the full result JSON")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files or directories of them")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if not (SRC / "bcvlab" / "cli.py").is_file():
        print(f"error: no bcvlab sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
