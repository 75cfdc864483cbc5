"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared virtual machines whose CPU speed drifts by
tens of percent over tens of seconds, which swamps the run-to-run
differences a program change makes.  A fixed pure-Python loop, timed on the
same CPU right next to the measured work, tracks most of that drift.  On a
2-vCPU VM, over three 4-minute samples, the median of the loop over blocks
of 12-15 ops correlated 0.89-0.97 with the latency of a fixed ``germs`` op,
and dividing by it cut the block-to-block spread (coefficient of variation)
of that latency from 12-17% to 5-8%.

Timings are therefore reported in reference seconds: raw seconds scaled by
``REFERENCE_S`` over the loop's current time, the seconds the work would
take on a host that runs the loop in exactly ``REFERENCE_S``.  The loop does
not touch the program, so no change to the program can move it; neither
``REFERENCE_LOOPS`` nor ``REFERENCE_S`` may change without a new baseline.
"""

from __future__ import annotations

import os
import statistics
import time

REFERENCE_LOOPS = 60_000
REFERENCE_S = 0.005
# Reference samples around an op that set its scale: 7 before, 7 after.
WINDOW = 7


def reference_seconds() -> float:
    """Wall time of the fixed reference loop, measured now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def scaled(raw_s: list[float], reference_s: list[float]) -> list[float]:
    """Each raw time in reference seconds, using the median reference time
    of the samples in a window around it."""
    out = []
    for i, raw in enumerate(raw_s):
        window = reference_s[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(raw * REFERENCE_S / statistics.median(window))
    return out


def pin_to_one_cpu() -> None:
    """Keep this process (and the children it starts) on one CPU, so that
    the reference loop and the work it scales run on the same one."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
