"""Spans around the calls into each bcvlab layer, recorded from outside.

``install`` replaces each traced function under the name its caller looks it
up by (``bcvlab.cli.generate``, ``bcvlab.sweep.pair_correlation``, ...) with
a wrapper that records one span per call.  Nothing in the package changes on
disk; the patch lasts for the life of the process, which is one pass.

A span's parent is the innermost open span on the same thread.  A span opened
on a thread with no open span (a sweep worker thread) takes the innermost
open span of the main thread, which is the call that dispatched the work.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass

# Caller module -> names it looks up at call time.  Functions that write
# output files are not traced: their time stays in the caller's self time.
TRACED = {
    "bcvlab": ("generate", "write_binary", "read_binary", "spacings",
               "construct_attracting_parameter"),
    "bcvlab.cli": ("main", "generate", "generate_exact", "distinct_count_profile",
                   "rescale", "spacings", "histogram", "gof_statistics",
                   "pair_correlation", "pair_correlation_interval", "gaps",
                   "coincidence_rate", "cdf_empirical", "classify",
                   "sft_growth_rate", "averaged_pair_correlation"),
    "bcvlab.sweep": ("generate", "generate_exact", "pair_correlation",
                     "coincidence_rate", "nearest_zero_above", "gaps"),
    "bcvlab.stats": ("histogram",),
    # stats.cdf_empirical calls generate through its module reference.
    "bcvlab.pointset": ("generate",),
}


def _counts(fn: str, args, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if fn in ("pointset.generate", "pointset.read_binary"):
        return {"levels": result.levels, "points": result.point_count}
    if fn == "pointset.write_binary":
        return {"points": args[0].point_count}
    if fn == "pointset.generate_exact":
        return {"levels": result.levels, "strings": 2 ** result.levels,
                "distinct": len(result.residues),
                "multiplicity_sum": sum(result.residues.values())}
    if fn == "pointset.distinct_count_profile":
        return {"strings": 2 ** len(result)}
    if fn == "stats.pair_correlation":
        return {"points": result.point_count, "s_values": int(result.s_grid.size)}
    if fn == "stats.histogram":
        return {"overflow": result.overflow}
    return {}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str  # caller module and the name it imported
    fn: str  # defining module (without the package) and function name
    thread: int
    t0: float
    t1: float
    counts: dict


class Recorder:
    """Thread-safe, in-memory span store."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        fn = f"{func.__module__.removeprefix('bcvlab.')}.{func.__name__}"
        measure_rss = fn == "pointset.generate"

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if measure_rss else 0
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = _counts(fn, args, result)
            if measure_rss:
                counts["maxrss_kb_before"] = rss0
                counts["maxrss_kb_after"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss
            span = Span(span_id, parent, name, fn, threading.get_ident(), t0, t1, counts)
            with self._lock:
                self.spans.append(span)
            return result

        traced.__wrapped__ = func
        return traced


def install(recorder: Recorder) -> None:
    import importlib

    for module_name, names in TRACED.items():
        module = importlib.import_module(module_name)
        for name in names:
            setattr(module, name,
                    recorder.wrap(f"{module_name}.{name}", getattr(module, name)))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

# name -> (unit, better).  A metric of a layer the workload never calls is 0.
PER_LAYER = {
    "pointset.generate.self_s": ("s", "lower"),
    "pointset.generate.ns_per_point": ("ns", "lower"),
    "pointset.generate.rss_over_output": ("ratio", "lower"),
    "pointset.io.write_mb_per_s": ("MB/s", "higher"),
    "pointset.io.read_mb_per_s": ("MB/s", "higher"),
    "pointset.generate_exact.self_s": ("s", "lower"),
    "pointset.generate_exact.ns_per_string": ("ns", "lower"),
    "pointset.distinct_count_profile.self_s": ("s", "lower"),
    "pointset.exact.redundancy": ("ratio", "lower"),
    "pointset.exact.distinct_ratio": ("ratio", "higher"),
    "stats.rescale.self_s": ("s", "lower"),
    "stats.spacings.self_s": ("s", "lower"),
    "stats.histogram.self_s": ("s", "lower"),
    "stats.gof_statistics.self_s": ("s", "lower"),
    "stats.gaps.self_s": ("s", "lower"),
    "stats.histogram.overflow": ("count", "lower"),
    "stats.pair_correlation.self_s": ("s", "lower"),
    "stats.pair_correlation.ns_per_point_s": ("ns", "lower"),
    "stats.pair_correlation_interval.self_s": ("s", "lower"),
    "stats.coincidence_rate.self_s": ("s", "lower"),
    "algebraic.classify.self_s": ("s", "lower"),
    "algebraic.sft_growth_rate.self_s": ("s", "lower"),
    "algebraic.nearest_zero_above.self_s": ("s", "lower"),
    "sweep.averaged_pair_correlation.self_s": ("s", "lower"),
    "sweep.sample_s_p50": ("s", "lower"),
    "sweep.sample_s_max": ("s", "lower"),
    "sweep.parallel_efficiency": ("ratio", "higher"),
    "sweep.speedup_2w": ("ratio", "higher"),
    "sweep.construct_attracting_parameter.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def self_times(spans: list[dict]) -> tuple[dict[int, float], float]:
    """Self time per span id, and the parallel excess.

    Self time is a span's duration minus the part of it that the union of its
    children covers.  The parallel excess is how much children's durations
    exceed that union (children running on several threads at once), so
    ``sum(self) - excess`` equals the total duration of the top-level spans.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    result, excess = {}, 0.0
    for s in spans:
        parts = sorted((max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                       for c in children.get(s["id"], ()))
        covered, end = 0.0, float("-inf")
        for lo, hi in parts:
            lo = max(lo, end)
            if hi > lo:
                covered += hi - lo
                end = hi
        result[s["id"]] = (s["t1"] - s["t0"]) - covered
        excess += sum(max(0.0, hi - lo) for lo, hi in parts) - covered
    return result, excess


def _sweep_samples(spans: list[dict]) -> list[dict]:
    """One sample per (generate, pair_correlation) span pair under a sweep."""
    sweeps = {s["id"] for s in spans if s["fn"] == "sweep.averaged_pair_correlation"}
    per_thread: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] in sweeps and s["name"] in ("bcvlab.sweep.generate",
                                                    "bcvlab.sweep.pair_correlation"):
            per_thread.setdefault(s["thread"], []).append(s)
    samples = []
    for group in per_thread.values():
        group.sort(key=lambda s: s["t0"])
        for gen, pc in zip(group, group[1:]):
            if gen["fn"] == "pointset.generate" and pc["fn"] == "stats.pair_correlation":
                samples.append({"t0": gen["t0"], "t1": pc["t1"]})
    return samples


def layer_metrics(report: dict, jobs: list, cli_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` excluded)."""
    spans = report["spans"]
    own, excess = self_times(spans)
    windows = {r["name"]: (r["t0"], r["t1"]) for r in report["jobs"]}

    def where(name_prefix="", fn=None):
        return [s for s in spans
                if (fn is None or s["fn"] == fn) and s["name"].startswith(name_prefix)]

    def self_sum(fn):
        return sum((own[s["id"]] for s in where(fn=fn)), 0.0)

    def total(selected, key):
        return sum(s["counts"].get(key, 0) for s in selected)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in PER_LAYER:
        if name.endswith(".self_s") and name != "cli.self_s":
            m[name] = self_sum(name.removesuffix(".self_s"))
    m["cli.self_s"] = self_sum("cli.main")

    gens = where(fn="pointset.generate")
    m["pointset.generate.ns_per_point"] = ratio(
        1e9 * m["pointset.generate.self_s"], total(gens, "points"))
    first24 = sorted((s for s in gens if s["counts"]["levels"] == 24),
                     key=lambda s: s["t0"])[:1]
    m["pointset.generate.rss_over_output"] = ratio(
        sum(1024 * (s["counts"]["maxrss_kb_after"] - s["counts"]["maxrss_kb_before"])
            for s in first24),
        total(first24, "points") * 8)
    for key, fn in (("write", "pointset.write_binary"), ("read", "pointset.read_binary")):
        io = where(fn=fn)
        m[f"pointset.io.{key}_mb_per_s"] = ratio(
            total(io, "points") * 8 / 1e6, sum(s["t1"] - s["t0"] for s in io))

    tallies = where(fn="pointset.generate_exact")
    m["pointset.generate_exact.ns_per_string"] = ratio(
        1e9 * m["pointset.generate_exact.self_s"], total(tallies, "strings"))
    cli_tallies = (where("bcvlab.cli.", "pointset.generate_exact")
                   + where("bcvlab.cli.", "pointset.distinct_count_profile"))
    requested = sum(j.strings for j in jobs if j.kind == "cli" and j.argv[0] == "exact")
    m["pointset.exact.redundancy"] = ratio(total(cli_tallies, "strings"), requested)
    cli_exact = where("bcvlab.cli.", "pointset.generate_exact")
    m["pointset.exact.distinct_ratio"] = ratio(total(cli_exact, "distinct"),
                                               total(cli_exact, "strings"))

    m["stats.histogram.overflow"] = total(where("bcvlab.cli.", "stats.histogram"), "overflow")
    pcs = where(fn="stats.pair_correlation")
    m["stats.pair_correlation.ns_per_point_s"] = ratio(
        1e9 * m["stats.pair_correlation.self_s"],
        sum(s["counts"]["points"] * s["counts"]["s_values"] for s in pcs))

    samples = _sweep_samples(spans)
    durations = sorted(s["t1"] - s["t0"] for s in samples)
    m["sweep.sample_s_p50"] = statistics.median(durations) if durations else 0.0
    m["sweep.sample_s_max"] = durations[-1] if durations else 0.0
    m["sweep.parallel_efficiency"] = m["sweep.speedup_2w"] = 0.0
    if "sweep-w1" in windows and "sweep-w2" in windows:
        lo, hi = windows["sweep-w2"]
        busy = sum(s["t1"] - s["t0"] for s in samples if lo <= s["t0"] and s["t1"] <= hi)
        m["sweep.parallel_efficiency"] = ratio(busy, (hi - lo) * 2)
        m["sweep.speedup_2w"] = ratio(windows["sweep-w1"][1] - windows["sweep-w1"][0], hi - lo)

    m["cli.bytes_written"] = cli_bytes
    m["trace.unattributed_s"] = report["wall_s"] - (sum(own.values()) - excess)
    return m
