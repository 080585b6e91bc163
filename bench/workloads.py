"""Workload definitions: the job list each workload runs for a given seed.

The seed picks the lambda of every float job and the sweep interval.  The
algebraic inputs of ``exact-certify`` stay fixed, because their structure
(Pisot, Garsia, non-monic) is what that workload tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    """One unit of work in a pass.

    ``kind`` is "cli" (``argv`` goes to ``bcvlab.cli.main`` with an added
    ``--out-dir``) or "lib" (``name`` selects a library call in
    ``one_pass.LIBRARY_JOBS``).  ``strings`` is the number of digit strings
    the job asks for: the sum of 2**N over every point set or residue tally
    named by its arguments.
    """

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    strings: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    largest_array_bytes: int
    largest_array: str
    build: object  # seed -> list[Job]


def _figure_float(seed: int) -> list[Job]:
    rng = random.Random(seed)
    lam_sqrt = 2.0 ** -0.5 + rng.uniform(-0.01, 0.01)
    lam_emp, lam_gap, lam_rt = (rng.uniform(0.55, 0.85) for _ in range(3))
    # The N=24 job runs first so that the rise of ru_maxrss across its
    # generate call is not hidden by the peak of an earlier job.
    return [
        Job("gaps-n24", "cli",
            ("gaps", "--lambda", repr(lam_gap), "--n", "24", "--primed"),
            {"lam": lam_gap, "n": 24}, 2 ** 24),
        Job("spacings-sqrt-half", "cli",
            ("spacings", "--lambda", repr(lam_sqrt), "--n", "22", "--ell", "1",
             "--rescale", "sqrt-half"),
            {"lam": lam_sqrt, "n": 22, "ell": 1}, 2 ** 22),
        Job("spacings-empirical", "cli",
            ("spacings", "--lambda", repr(lam_emp), "--n", "22", "--ell", "3",
             "--rescale", "empirical:16"),
            {"lam": lam_emp, "n": 22, "ell": 3}, 2 ** 22 + 2 ** 16),
        Job("bcv1-round-trip", "lib", (), {"lam": lam_rt, "n": 22}, 2 ** 22),
    ]


def _sweep_r2(seed: int) -> list[Job]:
    rng = random.Random(seed)
    a = rng.uniform(0.51, 0.60)
    b = a + 0.15
    # The share of points inside [0.25, 0.75) sets the cost of the interval
    # pair count (57% at lambda 0.55, 91% at 0.85); this range keeps it
    # near 68-79% so the seed barely moves the wall time.
    lam_pc = rng.uniform(0.66, 0.74)
    sweep = ("sweep", "--interval", f"{a!r},{b!r}", "--n", "16",
             "--s-grid", "0.5,1,2,4", "--samples", "16",
             "--quadrature", "midpoint")
    params = {"interval": (a, b), "n": 16, "s_grid": (0.5, 1.0, 2.0, 4.0),
              "samples": 16}
    return [
        Job("sweep-w1", "cli", sweep + ("--workers", "1"), params, 16 * 2 ** 16),
        Job("sweep-w2", "cli", sweep + ("--workers", "2"), params, 16 * 2 ** 16),
        Job("paircorr-interval", "cli",
            ("paircorr", "--lambda", repr(lam_pc), "--n", "20",
             "--s-grid", "1,2", "--interval", "0.25,0.75"),
            {"lam": lam_pc, "n": 20, "s_grid": (1.0, 2.0),
             "interval": (0.25, 0.75)}, 2 ** 20),
    ]


def _exact_certify(seed: int) -> list[Job]:
    del seed  # algebraic inputs are fixed on purpose
    exact = [
        # (name, minpoly, coefficients constant-first, N)
        ("exact-golden", "x^2+x-1", (-1, 1, 1), 22),
        ("exact-garsia", "x^3-2x-2", (-2, -2, 0, 1), 19),
        ("exact-nonmonic", "2x^2-1", (-1, 0, 2), 16),
    ]
    jobs = [Job(name, "cli", ("exact", "--minpoly", text, "--n", str(n)),
                {"coeffs": coeffs, "n": n}, 2 ** n)
            for name, text, coeffs, n in exact]
    # The construction's level search is internal to the library, so it
    # adds wall time but no requested strings.
    jobs.append(Job("attracting-parameter", "lib", (),
                    {"interval": (0.6, 0.64), "depth": 2, "epsilon": 0.5}, 0))
    return jobs


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "figure-float",
            "figure-scale spacings and gaps at N=22-24: generate and the numpy "
            "passes in stats dominate; no pair counting, no exact backend",
            8 * 2 ** 24, "computed: 2**24 float64 values of the N=24 gaps set",
            _figure_float),
        Workload(
            "sweep-r2",
            "averaged R2 sweeps over many small sets at N=16 plus an N=20 "
            "interval pair correlation: the pair counter dominates",
            8 * 2 ** 20, "computed: 2**20 float64 values of the N=20 paircorr set",
            _sweep_r2),
        Workload(
            "exact-certify",
            "certified coincidence counts at Pisot, Garsia and non-monic "
            "parameters: the dict residue tally dominates, no float sets",
            0, "computed: no float arrays; the largest tally holds 2**19 "
               "residue tuples in a dict",
            _exact_certify),
    )
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload].build(seed)
