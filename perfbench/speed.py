"""Host-speed reference: a fixed piece of work timed between requests.

Small virtual machines change CPU speed with the load of their
neighbours.  On a 2-vCPU Intel Xeon virtual machine the reference below
took 4.4 ms in calm periods and 7.5 ms in busy ones that lasted minutes.
Raw hwfc-worlds round times moved with it: over ten runs their
interquartile range reached 0.45 of the median.  Dividing each request's
time by the reference time measured around it cut that to 0.01-0.07.
So the end-to-end times are reported in *reference-speed* units: a
wall time multiplied by ``REFERENCE_MS / measured reference``.  On a calm
machine like that one they read close to wall time.  The raw wall times
are printed beside them.

The reference touches no qcollapse code, so a change to the program moves
the normalized times exactly as it moves the wall times.  It mixes
interpreter work (dict and tuple operations, small numpy calls) with a
memory-bound numpy pass, as the workloads do.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_MS = 4.4

_SMALL = np.arange(64.0)
_LARGE = np.ones(1 << 15, dtype=np.complex128)


def reference_work() -> float:
    table: dict[tuple[int, int], int] = {}
    acc = 0.0
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += float((_SMALL * (i % 7)).sum())
    for _ in range(12):
        acc += float(np.abs(_LARGE * 1.5).sum())
    return acc


def speed_factor() -> float:
    """REFERENCE_MS over the reference's time now; multiply wall times by it."""
    started = time.perf_counter()
    reference_work()
    return REFERENCE_MS / ((time.perf_counter() - started) * 1e3)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the reference and
    the work it scales always run on the same one."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
