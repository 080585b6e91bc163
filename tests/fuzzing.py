"""Shared pieces of the fuzz tests: the edge values and a wall-clock limit.

``EDGE`` holds the edge cases every fuzz test draws from (zero, a negative,
a fraction, non-finite and huge numbers, empty and non-numeric text), as
Python values; the command-line test passes their text, ``EDGE_TEXT``.
Each example runs under :func:`time_limit`, since a hang would otherwise
stall the suite rather than fail it.
"""

import math
import signal
from contextlib import contextmanager

LIMIT_S = 2.0

EDGE = [0, -1, 1.5, math.nan, math.inf, 1e308, 2**63, "", "abc"]
EDGE_TEXT = [str(v) for v in EDGE]


class Hang(Exception):
    pass


@contextmanager
def time_limit(seconds=LIMIT_S):
    def alarm(signum, frame):
        raise Hang(f"the example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
