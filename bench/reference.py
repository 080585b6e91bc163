"""Independent references and the output check of every job.

Nothing here calls bcvlab.  The float references rebuild the point sets by
Horner evaluation of all digit strings at once (sort instead of merge), which
yields the same doubles as the library's sorted merges.  Pair counts apply
the exact predicate ``v[j] - v[i] <= thr``.  The exact reference tallies
residues as int64 rows, merged by one lexsort per level.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np


def float_pointset(lam: float, levels: int, primed: bool = False) -> np.ndarray:
    """Sorted values of all 2**levels digit strings, STANDARD form unless primed."""
    values = np.zeros(1)
    for _ in range(levels):
        scaled = lam * values
        values = np.sort(np.concatenate((scaled, scaled + 1.0)))
    return values if primed else (1.0 - lam) * values


def window_count(v: np.ndarray, thr: float) -> int:
    """Ordered-pair half count: sum over i of #{j > i : v[j] - v[i] <= thr}."""
    n = v.size
    i = np.arange(n)
    j = np.searchsorted(v, v + thr, side="right")  # first j past v[i] + thr
    # v[i] + thr rounds, so move j until it is the first index failing the
    # predicate as evaluated in floating point.
    while True:
        down = (j - 1 > i) & (v[np.maximum(j - 1, 0)] - v > thr)
        up = j < n
        up[up] = v[j[up]] - v[up] <= thr
        if not (down.any() or up.any()):
            return int(np.sum(j - i - 1))
        j = j - down + up


def exact_tally(coeffs: tuple[int, ...], levels: int) -> tuple[list[int], np.ndarray]:
    """Distinct residues per level and the final multiplicities.

    Level t holds integer rows R with residue R / lead**t, so every level is
    compared on a common scale; ``x*r`` reduces by ``lead*x**d = -sum c_i x**i``.
    """
    lead = coeffs[-1]
    low = np.array(coeffs[:-1], dtype=np.int64)
    rows = np.zeros((1, low.size), dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    profile = []
    for t in range(levels):
        shifted = np.zeros_like(rows)
        shifted[:, 1:] = rows[:, :-1]
        rows = lead * shifted - rows[:, -1:] * low
        bumped = rows.copy()
        bumped[:, 0] += lead ** (t + 1)
        rows = np.concatenate((rows, bumped))
        mult = np.concatenate((mult, mult))
        order = np.lexsort(rows.T[::-1])
        rows, mult = rows[order], mult[order]
        first = np.ones(rows.shape[0], dtype=bool)
        first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        starts = np.flatnonzero(first)
        rows, mult = rows[starts], np.add.reduceat(mult, starts)
        profile.append(int(rows.shape[0]))
    return profile, mult


def _fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class References:
    """Reference values for one workload and seed, computed once per run."""

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def round_trip(self, lam: float, n: int) -> dict:
        def compute():
            v = float_pointset(lam, n)
            header = b"BCV1" + struct.pack("<dIB", lam, n, 0)
            blob = hashlib.sha256(header)
            blob.update(v.astype("<f8").tobytes())
            sp = (v[1:] - v[:-1]) * float(v.size)
            return {"file_sha256": blob.hexdigest(),
                    "spacings_sha256": hashlib.sha256(sp.tobytes()).hexdigest()}
        return self._get(("rt", lam, n), compute)

    def interval_r2(self, lam: float, n: int, interval, s_grid) -> list[float]:
        def compute():
            v = float_pointset(lam, n)
            a, b = interval
            window = v[np.searchsorted(v, a, "left"):np.searchsorted(v, b, "left")]
            m = window.size
            return [2.0 * window_count(window, s * (b - a) / m) / m
                    for s in np.asarray(s_grid, dtype=np.float64)]
        return self._get(("ir2", lam, n, tuple(interval), tuple(s_grid)), compute)

    def sweep(self, interval, n: int, s_grid, samples: int) -> dict:
        def compute():
            a, b = interval
            lambdas = a + (np.arange(samples) + 0.5) * (b - a) / samples
            grid = np.asarray(s_grid, dtype=np.float64)
            rows = []
            for lam in lambdas:
                v = float_pointset(float(lam), n)
                rows.append([2.0 * window_count(v, s / v.size) / v.size for s in grid])
            curves = np.array(rows)
            mean = curves.mean(axis=0)
            slopes = mean / grid
            return {"mean": mean.tolist(), "min": curves.min(axis=0).tolist(),
                    "max": curves.max(axis=0).tolist(),
                    "c_hat": float(slopes.min()), "C_hat": float(slopes.max())}
        return self._get(("sweep", tuple(interval), n, tuple(s_grid), samples), compute)

    def exact(self, coeffs, n: int) -> dict:
        def compute():
            profile, mult = exact_tally(tuple(coeffs), n)
            pairs = int(np.sum(mult * (mult - 1)))
            return {"profile": profile, "multiplicity_sum": int(mult.sum()),
                    "coincidence_rate": pairs / float(2 ** n)}
        return self._get(("exact", tuple(coeffs), n), compute)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages for one job's outputs


def _read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def _check_spacings(job, job_dir, record, refs):
    n, ell = job.params["n"], job.params["ell"]
    expected = 2 ** n - ell
    gof = _read_json(job_dir / "spacings_gof.json")
    with open(job_dir / "spacings_histogram.csv") as f:
        counts = [int(row["count"]) for row in csv.DictReader(f)]
    errors = []
    if sum(counts) + gof["overflow"] != expected:
        errors.append(f"histogram counts + overflow = {sum(counts) + gof['overflow']}, "
                      f"expected {expected}")
    if gof["sample_count"] != expected:
        errors.append(f"sample_count = {gof['sample_count']}, expected {expected}")
    return errors


def _check_gaps(job, job_dir, record, refs):
    lam, n = job.params["lam"], job.params["n"]
    report = _read_json(job_dir / "gaps_report.json")
    support = math.fsum(lam ** k for k in range(n))
    tol = 8 * n * float(np.spacing(support))
    if abs(report["max_gap"] - lam ** (n - 1)) > tol:
        return [f"max_gap {report['max_gap']!r} differs from lambda^(N-1) "
                f"{lam ** (n - 1)!r} by more than {tol:.3g}"]
    return []


def _check_sweep(job, job_dir, record, refs):
    p = job.params
    report = _read_json(job_dir / "sweep_report.json")
    ref = refs.sweep(p["interval"], p["n"], p["s_grid"], p["samples"])
    got = {key: [row[key] for row in report["per_s"]] for key in ("mean", "min", "max")}
    errors = [f"per_s {key} {got[key]} != reference {ref[key]}"
              for key in got if got[key] != ref[key]]
    errors += [f"{key} {report[key]!r} != reference {ref[key]!r}"
               for key in ("c_hat", "C_hat") if report[key] != ref[key]]
    return errors


def _check_paircorr(job, job_dir, record, refs):
    p = job.params
    with open(job_dir / "paircorr_curve.csv") as f:
        got = [float(row["r2"]) for row in csv.DictReader(f)]
    ref = refs.interval_r2(p["lam"], p["n"], p["interval"], p["s_grid"])
    return [] if got == ref else [f"R2 {got} != exact-predicate reference {ref}"]


def _check_exact(job, job_dir, record, refs):
    coeffs, n = job.params["coeffs"], job.params["n"]
    report = _read_json(job_dir / "exact_report.json")
    ref = refs.exact(coeffs, n)
    golden = tuple(coeffs) == (-1, 1, 1)
    closed_form = _fibonacci(n + 3) - 1 if golden else 2 ** n
    errors = []
    if ref["multiplicity_sum"] != 2 ** n:
        errors.append("reference tally lost strings")  # guards the reference itself
    if report["total_strings"] != 2 ** n:
        errors.append(f"total_strings {report['total_strings']} != 2^{n}")
    if report["distinct"] != closed_form or report["distinct"] != ref["profile"][-1]:
        errors.append(f"distinct {report['distinct']}, closed form {closed_form}, "
                      f"reference {ref['profile'][-1]}")
    if report["coincidence_rate"] != ref["coincidence_rate"]:
        errors.append(f"coincidence_rate {report['coincidence_rate']!r} != "
                      f"reference {ref['coincidence_rate']!r}")
    if golden and report["growth"]["distinct_counts"] != ref["profile"]:
        errors.append("distinct_counts profile differs from the reference tally")
    return errors


def _check_round_trip(job, job_dir, record, refs):
    lam, n = job.params["lam"], job.params["n"]
    ref = refs.round_trip(lam, n)
    got = record["summary"]
    errors = []
    if sha256_file(job_dir / "pointset.bcv1") != ref["file_sha256"]:
        errors.append("BCV1 dump differs from the reference encoding")
    if got["spacings_count"] != 2 ** n - 1:
        errors.append(f"{got['spacings_count']} spacings, expected {2 ** n - 1}")
    if got["spacings_sha256"] != ref["spacings_sha256"]:
        errors.append("spacings of the read-back set differ from the reference")
    return errors


def _check_attracting(job, job_dir, record, refs):
    eps = job.params["epsilon"]
    return [f"certificate {c} is below 2^(N^(1-eps))"
            for c in record["summary"]["certificates"]
            if c["r2_lower_bound"] < 2.0 ** (c["levels"] ** (1.0 - eps))]


CHECKS = {
    "spacings": _check_spacings,
    "gaps": _check_gaps,
    "sweep": _check_sweep,
    "paircorr": _check_paircorr,
    "exact": _check_exact,
    "bcv1-round-trip": _check_round_trip,
    "attracting-parameter": _check_attracting,
}


def check_pass(jobs, pass_dir: Path, report: dict, refs: References) -> dict[str, list[str]]:
    """Failure messages per job name; an empty list means the job passed."""
    records = {r["name"]: r for r in report["jobs"]}
    failures: dict[str, list[str]] = {}
    for job in jobs:
        record = records.get(job.name)
        if record is None:
            failures[job.name] = ["job did not run"]
            continue
        if record["error"] is not None:
            failures[job.name] = [record["error"].strip().splitlines()[-1]]
            continue
        if record["exit_code"] != 0:
            failures[job.name] = [f"exit code {record['exit_code']}"]
            continue
        check = CHECKS[job.argv[0] if job.kind == "cli" else job.name]
        try:
            failures[job.name] = check(job, pass_dir / job.name, record, refs)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            failures[job.name] = [f"unreadable output: {exc!r}"]
    # Documented guarantee: sweep results are bit-identical for any worker count.
    if "sweep-w2" in records:
        try:
            w1, w2 = (_read_json(pass_dir / name / "sweep_report.json")["per_s"]
                      for name in ("sweep-w1", "sweep-w2"))
        except (OSError, KeyError, ValueError):
            pass  # a missing report has already failed its job
        else:
            if w1 != w2:
                failures["sweep-w2"].append("per_s differs between workers=1 and workers=2")
    # Traced passes see every residue tally: multiplicities must sum to 2^N.
    for span in report["spans"]:
        c = span["counts"]
        if "multiplicity_sum" in c and c["multiplicity_sum"] != c["strings"]:
            for job in jobs:
                record = records[job.name]
                if record["t0"] <= span["t0"] and span["t1"] <= record["t1"]:
                    failures.setdefault(job.name, []).append(
                        f"multiplicities sum to {c['multiplicity_sum']}, "
                        f"expected {c['strings']}")
    return failures
