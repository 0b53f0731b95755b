"""A fixed slice of interpreter work that measures the host's speed.

The host these figures come from, a shared 2-vCPU virtual machine, runs
the same code up to twice as slow from one second to the next, as other
tenants come and go.  Timed right next to each query, this yardstick
slows down with it, so a query's time over the yardstick's is steady
where the query's time alone is not.  The yardstick is part of the
benchmark, never of the program, so a change to the program moves the
query's time and not the yardstick's.
"""

from __future__ import annotations

import time

#: the yardstick's time on the host above in its faster phases (the 5th
#: percentile of 2,000 calls was 2.96-2.99 ms; Intel Xeon at 2.1 GHz,
#: CPython 3.11).  A time at reference speed is its measured time scaled
#: by this over the yardstick's time measured next to it.  Only a fixed
#: scale: it makes the figures read as milliseconds on that host.
REFERENCE_MS = 3.0

_SLOTS = 4096


def _work() -> int:
    """List indexing, integer arithmetic and dict stores, the interpreter
    operations the solver's inner loops are made of."""
    slots = [0] * _SLOTS
    seen = {}
    total = 0
    for i in range(12000):
        j = (i * 2654435761) & (_SLOTS - 1)
        slots[j] += i & 7
        total += slots[(j + 17) & (_SLOTS - 1)]
        if not i & 15:
            seen[j] = total
    return total + len(seen)


def timed() -> tuple[float, float]:
    """Run the yardstick once; returns its ``(wall_ms, cpu_ms)``."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    _work()
    wall1, cpu1 = time.perf_counter(), time.process_time()
    return (wall1 - wall0) * 1000.0, (cpu1 - cpu0) * 1000.0
