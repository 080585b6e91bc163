"""Fuzz the command line: every argv ends in exit 0, 2, 3 or 4.

Arguments are drawn from a grammar of each subcommand's options, with values
from a set of edge cases (zero, negatives, fractions, non-finite and huge
numbers, empty and non-numeric text, reversed intervals; see
``fuzzing.EDGE``).  Levels stay at 12 or below and counts stay small,
except values that are refused before any allocation.  Each example runs
under a wall-clock limit, since a hang would otherwise stall the suite
rather than fail it.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcvlab.cli import main
from fuzzing import EDGE_TEXT as EDGE
from fuzzing import time_limit

LAMBDAS = ["0.5", "0.6", "0.70880447", "0.75", "1e-300"]
LEVELS = ["1", "4", "9", "12"]
COUNTS = ["1", "2", "3"]
POLYS = ["x^2+x-1", "x^2-2", "x^3-2x-2", "2x^2-1", "x-1", "[-1, 1, 1]"]
BAD_POLYS = [p for v in EDGE for p in (f"x^2-{v}", f"{v}x-1", f"[{v}, 1]")] + [
    "x^2", "x^^2", "x^99999999", "[1.5, 2]", "[]", "[true, 1]", "x^4-4x^3+6x^2-4x+1",
    f"x^2+{10**308}x+1", f"[1, {2**1100}]", "1000x^2-1"]


def values(valid, edge=EDGE):
    """A valid value about three times as often as an edge case."""
    return st.sampled_from(valid * (3 * len(edge) // len(valid) + 1) + edge)


def number_list(valid):
    return st.lists(values(valid), min_size=1, max_size=3).map(",".join)


@st.composite
def interval(draw):
    a, b = draw(values(["0.25", "0.55", "0.6"])), draw(values(["0.65", "0.7", "0.95"]))
    return draw(st.sampled_from([f"{a},{b}", f"{a},{b}", f"{b},{a}", a]))


GRAMMAR = {
    "spacings": {"--lambda": values(LAMBDAS), "--n": values(LEVELS),
                 "--ell": values(COUNTS + ["113", "114"]),
                 "--rescale": values(["none", "sqrt-half", "empirical:6"],
                                     ["bogus"] + [f"empirical:{v}" for v in EDGE])},
    "paircorr": {"--lambda": values(LAMBDAS), "--n": values(LEVELS),
                 "--s-grid": number_list(["0.5", "1", "2"]), "--interval": interval()},
    "exact": {"--minpoly": values(POLYS, BAD_POLYS), "--n": values(LEVELS)},
    "sweep": {"--interval": interval(), "--n": values(LEVELS),
              "--s-grid": number_list(["0.5", "1", "2"]), "--samples": values(COUNTS),
              "--quadrature": values(["midpoint", "montecarlo"], ["bogus"]),
              "--seed": values(["7"]), "--workers": values(COUNTS)},
    "gaps": {"--lambda": values(LAMBDAS), "--n": values(LEVELS),
             "--primed": st.just(None), "--distinct-tol": values(["1e-9"])},
    "classify": {"--poly": values(POLYS, BAD_POLYS)},
    "greedy": {"--lambda": values(LAMBDAS), "--k": values(COUNTS + ["40"])},
}
# Options a run needs; the others are left out about half the time.
REQUIRED = {"--lambda", "--n", "--s-grid", "--minpoly", "--interval", "--samples",
            "--poly", "--k"}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(GRAMMAR)))
    argv = [name]
    for option, strategy in GRAMMAR[name].items():
        keep = draw(st.integers(0, 19)) > 0 if option in REQUIRED else draw(st.booleans())
        if keep:
            value = draw(strategy)
            argv += [option] if value is None else [option, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs(), st.sampled_from(["fresh"] * 7 + ["under-a-file"]))
# Inputs that once ended in a traceback or a hang, each refused now.
@example(["classify", "--poly", "x^" + "1" * 5000], "fresh")
@example(["classify", "--poly", "[" + "1" * 5000 + "]"], "fresh")
@example(["classify", "--poly", f"x^2+{10**308}x+1"], "fresh")
@example(["exact", "--minpoly", f"[1, {2**1100}]", "--n", "4"], "fresh")
@example(["classify", "--poly", "x^99999999"], "fresh")
@example(["exact", "--minpoly", "x^99999999", "--n", "4"], "fresh")
@example(["greedy", "--lambda", "0.75", "--k", str(2**63)], "fresh")
@example(["sweep", "--interval", "0.6,0.7", "--n", "4", "--s-grid", "1",
          "--samples", str(2**63)], "fresh")
def test_cli_exits_with_a_contract_code(argv, out_dir):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if out_dir == "under-a-file":
            Path(tmp, "file").write_text("")
            out = Path(tmp) / "file" / "out"
        with time_limit():
            rc = main(argv + ["--out-dir", str(out)])
        assert rc in (0, 2, 3, 4)
        manifest = out / "run_manifest.json"
        assert manifest.exists() == (rc == 0)
        if rc == 0:
            listed = json.loads(manifest.read_text())["outputs"]
            assert {p.name for p in out.iterdir()} == set(listed) | {manifest.name}
