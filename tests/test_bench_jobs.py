"""The benchmark's CLI jobs pass argv to ``bcvlab.cli.main``; each must parse."""

import importlib.util
import sys
from pathlib import Path

import pytest

from bcvlab.cli import build_parser

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_bench_cli_jobs_parse(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up
    spec.loader.exec_module(workloads)
    jobs = [(name, job) for name in workloads.WORKLOADS
            for job in workloads.jobs_for(name, 1) if job.kind == "cli"]
    assert jobs
    parser = build_parser()
    refused = []
    for name, job in jobs:
        try:
            parser.parse_args([*job.argv, "--out-dir", str(tmp_path)])
        except SystemExit:
            refused.append(f"{name}/{job.name}")
    assert refused == []
    with pytest.raises(SystemExit):  # an unknown option is refused this way
        parser.parse_args(["sweep", "--no-such-option"])
