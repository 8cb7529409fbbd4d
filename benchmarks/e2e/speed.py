"""Machine-speed calibration for the timing metrics.

The box this benchmark runs on does not run at one speed: for seconds
at a time every instruction stream on it — a pure-Python loop as much
as the program under test — gets up to ~35 % slower and then recovers
(CPU time inflates with wall time, so it is execution speed, not
descheduling).  Twenty-second runs therefore differ by 15-20 % for
reasons no commit can influence.

So the harness runs a fixed reference kernel every ~50 ms of the timed
loop and divides each stretch's timings by ``kernel time / REFERENCE_S``:
every timing metric reads as it would at the speed at which the kernel
takes ``REFERENCE_S``.  The kernel is plain interpreter work of the kind
the program does (dict and list traffic, a sort, method calls, string
building) and touches nothing of the program, so no change to the
program calls it.  Measured on this box over ten seeds per workload,
throughput that spreads 7-15 % by the wall clock spreads 2-4 % once
normalised (the table is in ``README.md``).

What it costs: a change that slows the interpreter as a whole (a bigger
heap, cache pressure) slows the kernel too, and part of its loss is
divided away.  So the wall-clock figures are recorded beside the
normalised ones and ``compare.py`` judges both.
"""

from __future__ import annotations

import gc
import statistics
from time import thread_time

#: Seconds the kernel takes at the reference speed (this box, when
#: nothing slows it down).  Only ratios to it matter: a different box
#: scales every timing of both sides of a comparison alike.
REFERENCE_S = 0.00131


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


_DATA = [(f"k{i % 997}", i * 0.37, i % 13) for i in range(6000)]


def _kernel() -> int:
    groups: dict[str, list] = {}
    for name, value, _group in _DATA:
        entry = groups.get(name)
        if entry is None:
            groups[name] = [value, 1]
        else:
            entry[0] += value
            entry[1] += 1
    rows = [(name, entry[0] / entry[1])
            for name, entry in groups.items() if entry[1] > 2]
    rows.sort(key=lambda row: (-row[1], row[0]))
    total = 0
    for point in [_Point(i, i + 1) for i in range(3000)]:
        total += point.total()
    text = ",".join(str(row[1])[:6] for row in rows[:300])
    return len(text) + total


def factor(repeats: int = 1) -> float:
    """How much slower than the reference speed the box runs right now
    (the median of *repeats* kernel runs).

    CPU time, not wall time: being descheduled is not a slow machine.
    The collector is held off so that a collection the kernel's own
    garbage triggers is not charged to the machine either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            started = thread_time()
            _kernel()
            times.append(thread_time() - started)
        return statistics.median(times) / REFERENCE_S
    finally:
        if was_enabled:
            gc.enable()
