"""The block runner that generate's merge and the blocked stats passes share.

The two-thread tests patch ``pointset._usable_cpus``, so they run the helper
thread on any host, and shorten the switch interval so that the threads
hand over often.
"""

import hashlib
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcvlab import (DomainError, Form, SpacingSet, cdf_empirical, cdf_sqrt_half, gaps,
                    generate, gof_statistics, histogram, pointset, rescale, spacings, stats)
from oracles import histogram_bincount, merge_levels


class RecordingHelper:
    """A single-worker executor that keeps every future it hands out."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.futures = []

    def submit(self, fn, *args):
        future = self.pool.submit(fn, *args)
        self.futures.append(future)
        return future


@contextmanager
def threads(cpus: int):
    """Run with ``cpus`` usable CPUs, a recording helper and a short switch
    interval; yields the helper."""
    helper = RecordingHelper()
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_usable_cpus", lambda: cpus)
        mp.setattr(pointset, "_HELPER", helper)
        sys.setswitchinterval(1e-6)
        try:
            yield helper
        finally:
            sys.setswitchinterval(interval)
            helper.pool.shutdown()


def test_usable_cpus_reads_affinity_then_cpu_count(monkeypatch):
    monkeypatch.setattr(pointset.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert pointset._usable_cpus() == 3
    monkeypatch.delattr(pointset.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pointset.os, "cpu_count", lambda: 4)
    assert pointset._usable_cpus() == 4
    monkeypatch.setattr(pointset.os, "cpu_count", lambda: None)
    assert pointset._usable_cpus() == 1


def test_map_blocks_keeps_order_and_raises_after_both_threads_stop():
    with threads(2) as helper:
        assert pointset._map_blocks(lambda i: i * i, range(500)) == [i * i for i in range(500)]
        caller = threading.current_thread()
        raised = threading.Event()

        def fn(i):
            if threading.current_thread() is caller:
                raised.wait(10)  # let the helper claim an item
                return i
            raised.set()
            raise KeyError(i)

        with pytest.raises(KeyError):
            pointset._map_blocks(fn, range(50))
        assert raised.is_set()
        assert len(helper.futures) == 2 and all(f.done() for f in helper.futures)

        calls = []

        def fail_first(i):
            calls.append(i)
            if i == 0:
                raise KeyError(i)

        with pytest.raises(KeyError):
            pointset._map_blocks(fail_first, range(10_000))
        assert len(calls) < 10  # both threads stopped claiming
        assert all(f.done() for f in helper.futures)


def test_helper_runs_in_the_callers_errstate():
    # Every spacing overflows; the RuntimeWarning filter of the test suite
    # would turn a warning from either thread into an error.
    values = np.arange(-150, 150) * 1e306  # 300 values 1e306 apart
    with threads(2) as helper, pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", 7)
        sp = spacings(values, 1)
    assert helper.futures and np.all(np.isposinf(sp.values))


# Blocks of 16 to 64 values send every level past the first few through the
# blocked merge, with many blocks per level for the two threads to share.
@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
       st.integers(1, 14), st.sampled_from(list(Form)), st.sampled_from([16, 32, 64]))
def test_two_thread_merge_matches_merge_oracle(lam, levels, form, block):
    want = merge_levels(lam, levels)
    if form is Form.STANDARD:
        want = (1.0 - lam) * want
    with threads(2) as helper, pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointset, "_MERGE_BLOCK", block)
        got = generate(lam, levels, form).values
    assert got.tobytes() == want.tobytes()
    assert all(f.done() for f in helper.futures)


def test_two_thread_bucket_count_loses_no_update():
    # Over a thousand 128-value blocks, each adding a full bucket array to
    # the shared counts; a lost update would change the histogram.
    values = np.random.default_rng(5).exponential(size=200_000)
    counts, overflow = histogram_bincount(values, 1)
    for _ in range(3):
        with threads(2) as helper, pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_BLOCK", 128)
            hist = histogram(SpacingSet(1, values, values.size))
        assert helper.futures
        assert hist.counts.tolist() == counts.tolist() and hist.overflow == overflow


def _figure_outputs() -> str:
    """sha256 over the outputs of every blocked pass at N = 18."""
    parts = []
    for lam, form in ((0.7, Form.STANDARD), (0.83, Form.PRIMED)):
        ps = generate(lam, 18, form)
        parts += [ps.values.tobytes(), repr(asdict(gaps(ps)))]
    for model, ell in ((cdf_sqrt_half(), 1), (cdf_empirical(0.66, 14), 3)):
        ps = generate(2.0**-0.5, 18)
        seq, clamped = model.evaluate(ps.values)
        sp = spacings(rescale(ps, model), ell)
        hist = histogram(sp)
        parts += [seq.tobytes(), repr(clamped), sp.values.tobytes(), hist.counts.tobytes(),
                  repr(hist.overflow), repr(asdict(gof_statistics(sp))),
                  spacings(ps, ell, model).values.tobytes()]
    return hashlib.sha256("".join(map(str, parts)).encode()).hexdigest()


MODELS = {"sqrt-half": cdf_sqrt_half(), "empirical": cdf_empirical(0.66, 10)}


@st.composite
def fused_cases(draw):
    """The level of a point set, a block size below or above the 4096 knots
    of an empirical model, and an order ell up to, at and past the block."""
    levels = draw(st.integers(1, 13))
    n = 1 << levels
    block = draw(st.sampled_from([7, 1000, 5000]))
    ell = draw(st.one_of(st.integers(1, 20), st.integers(1, n),
                         st.sampled_from([block - 1, block, block + 1, block + 2, n - 1])))
    return levels, block, max(1, min(ell, n - 1))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True), fused_cases(),
       st.sampled_from(sorted(MODELS)), st.sampled_from([1, 2]))
def test_spacings_with_a_model_match_spacings_of_the_rescaled_set(lam, case, model, cpus):
    levels, block, ell = case
    ps = generate(lam, levels)
    with threads(cpus), pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", block)
        got = spacings(ps, ell, MODELS[model])
        want = spacings(rescale(ps, MODELS[model]), ell)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.ell, got.point_count) == (want.ell, want.point_count)


def test_one_usable_cpu_submits_nothing_and_keeps_the_bytes():
    with threads(2) as helper:
        two = _figure_outputs()
    assert helper.futures
    with threads(1) as helper:
        one = _figure_outputs()
    assert helper.futures == []
    assert one == two


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", [3, 1000, 1999])
def test_non_finite_spacings_raise_with_the_helper_idle(bad, where):
    values = np.linspace(0.0, 3.0, 2000)
    values[where] = bad
    with threads(2) as helper, pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK", 7)
        with pytest.raises(DomainError):
            histogram(SpacingSet(1, values, values.size))
        assert helper.futures and all(f.done() for f in helper.futures)


def test_caller_threads_share_the_helper():
    # At levels 17 the last merge has two blocks, so two threads that
    # generate at once both call the runner; a deadlock would leave one alive.
    lams = (0.6, 0.7)
    with threads(1):
        want = [generate(lam, 17).values.tobytes() for lam in lams]
    got = [None, None]
    start = threading.Barrier(len(lams))

    def run(k):
        start.wait()
        got[k] = generate(lams[k], 17).values.tobytes()

    with threads(2) as helper:
        workers = [threading.Thread(target=run, args=(k,), daemon=True)
                   for k in range(len(lams))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert not any(worker.is_alive() for worker in workers)
    assert helper.futures
    assert got == want


# A thread that outlives the main thread runs while the interpreter shuts
# down, when the helper pool takes no more work.
LATE_THREAD_SCRIPT = """
import threading
import time
from bcvlab import generate
def late():
    time.sleep(0.5)
    print(generate(0.7, 18).values.sum().hex())
threading.Thread(target=late).start()
"""


def test_thread_outliving_main_still_generates():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", LATE_THREAD_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr
    assert float.fromhex(done.stdout.strip()) == generate(0.7, 18).values.sum()
