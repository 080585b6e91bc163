"""Run one pass of a workload's job list in this (fresh) process.

Usage: python3 bench/one_pass.py WORKLOAD SEED TRACE OUT_DIR

Imports ``bcvlab.cli`` untimed, then times each job; the pass wall is the sum
of the job times.  Output checks happen in the parent (``run.py``); this
process only records what the checks need, after each job's timer stops.
Writes ``OUT_DIR/pass.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import workloads


def _round_trip(bcv, params: dict, out_dir: Path):
    ps = bcv.generate(params["lam"], params["n"])
    path = out_dir / "pointset.bcv1"
    bcv.write_binary(ps, path)
    back = bcv.read_binary(path)
    return bcv.spacings(back, 1)


def _summarize_round_trip(sp) -> dict:
    return {"spacings_count": int(sp.values.size),
            "spacings_sha256": hashlib.sha256(sp.values.tobytes()).hexdigest()}


def _attracting(bcv, params: dict, out_dir: Path):
    return bcv.construct_attracting_parameter(
        tuple(params["interval"]), depth=params["depth"], epsilon=params["epsilon"])


def _summarize_attracting(result) -> dict:
    return {"lam": result.lam, "depth_reached": result.depth_reached,
            "complete": result.complete,
            "certificates": [asdict(c) for c in result.certificates]}


# Library jobs: (call, summary of its result).  Calls look functions up on
# the package at call time, so a traced pass sees the traced wrappers.
LIBRARY_JOBS = {
    "bcv1-round-trip": (_round_trip, _summarize_round_trip),
    "attracting-parameter": (_attracting, _summarize_attracting),
}


def main(argv: list[str]) -> int:
    workload, seed, trace, out = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    import bcvlab
    import bcvlab.cli

    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    jobs = []
    for job in workloads.jobs_for(workload, seed):
        job_dir = out / job.name
        job_dir.mkdir(parents=True)
        record = {"name": job.name, "exit_code": None, "error": None, "summary": None}
        t0 = time.perf_counter()
        try:
            if job.kind == "cli":
                record["exit_code"] = bcvlab.cli.main([*job.argv, "--out-dir", str(job_dir)])
                result = None
            else:
                result = LIBRARY_JOBS[job.name][0](bcvlab, job.params, job_dir)
                record["exit_code"] = 0
        except Exception:  # a crashing job is a failed job, not a failed pass
            result = None
            record["error"] = traceback.format_exc()
        t1 = time.perf_counter()
        record["t0"], record["t1"] = t0, t1
        if result is not None:
            record["summary"] = LIBRARY_JOBS[job.name][1](result)
        del result
        jobs.append(record)

    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "bcvlab_file": bcvlab.__file__,
        "wall_s": sum(j["t1"] - j["t0"] for j in jobs),
        "maxrss_kb": maxrss_kb,
        "jobs": jobs,
        "spans": [asdict(s) for s in recorder.spans] if recorder else [],
    }
    with open(out / "pass.json", "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
