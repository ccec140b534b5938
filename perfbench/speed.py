"""The machine's speed over a run, from a fixed reference loop.

On a shared VM the speed of one and the same Python loop drifts by up to
1.5x in spells of seconds to minutes, and the CPU time drifts with the wall
time, so no clock separates it from the program's own speed.  The
benchmark therefore times a fixed piece of interpreter work, which no
change to ualgebra can touch, between its items all through the run
(`tick`), and reports every end-to-end time at a fixed reference speed:
measured seconds times `factor`, the reference loop's time at that speed
over its median time in the run.  A whole run in a slow spell then reads
about the same as one in a quiet spell.  The median over the whole run, not a
local one per sample: the loop's single timings scatter by about 10 %,
and scaling each sample by its neighbours added that scatter back.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REF_SECONDS = 0.0017  # reference_loop's time at the reference speed
REF_EVERY_S = 0.1  # least time between two calibrations
REF_REPEATS = 3  # timings of reference_loop per calibration

_REF_DATA = tuple(range(256))


def _ref_step(acc, x):
    return (acc * 31 + x) & 0xFFFF


def reference_loop():
    """Interpreter work of the kind the kernel's loops do: indexing,
    integer arithmetic and one call per step.  It allocates nothing the
    garbage collector tracks, so the heap a workload has built does not
    change its time."""
    data, acc = _REF_DATA, 0
    for i in range(8000):
        acc = _ref_step(acc, data[(i * 7 + acc) & 255])
    return acc


class Speed:
    def __init__(self):
        self.secs: list[float] = []  # every timing of reference_loop
        self.last = float("-inf")

    def tick(self, force=False):
        """Calibrate, unless the last calibration is recent.  The collector
        is off meanwhile, so that a collection the workload's garbage is
        due for does not land in a timing."""
        if not force and perf_counter() - self.last < REF_EVERY_S:
            return
        was = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REF_REPEATS):
                t0 = perf_counter()
                reference_loop()
                self.secs.append(perf_counter() - t0)
        finally:
            if was:
                gc.enable()
        self.last = perf_counter()

    def factor(self):
        """Seconds at the reference speed per second measured in this run."""
        return REF_SECONDS / statistics.median(self.secs)
