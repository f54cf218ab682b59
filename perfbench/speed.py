"""Machine-speed calibration for the timed metrics.

On a shared virtual machine one CPU's speed can change by half for seconds to
minutes at a time, independently of the other CPUs, while the benchmark's
work stays the same. The benchmark therefore pins itself and its child
processes to one CPU and times a fixed pure-Python loop right before and right
after every timed job. A job's time is reported scaled to the speed at which
that loop takes ``NOMINAL_S``: ``wall * NOMINAL_S / loop time``. The loop is
the benchmark's own code and does not touch ``coalloc``, so a change to the
program moves the scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import os
import time

NOMINAL_S = 0.010
ITERATIONS = 60_000  # about NOMINAL_S on a 2-vCPU Xeon VM, Python 3.11.7


def loop_s() -> float:
    """Wall seconds the calibration loop takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    picked: list[tuple[int, int]] = []
    total = 0
    for i in range(ITERATIONS):
        key = i % 251
        total += table.get(key, 0) ^ i
        table[key] = total & 0xFFFF
        if key == 0:
            picked.append((total & 0xFF, i))
    picked.sort()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two loop timings into nominal seconds."""
    return NOMINAL_S / ((before + after) / 2)


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on one CPU, where the OS allows it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
