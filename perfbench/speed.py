"""The machine's speed, measured by a fixed reference next to the ops.

The shared hosts this benchmark runs on change speed in spells that last
from a fraction of a second to minutes; the same op can take twice as long
in one as outside it, with the process on the CPU all the time.  Wall
times taken across such spells spread too far to compare two versions of
the program.  So the benchmark also times a fixed reference next to its
ops, at least every ``INTERVAL_S`` of a timed loop and again after any op
that took longer, and every time it reports is its wall time scaled by
``nominal / reference``, where ``reference`` is the reference time taken
just before the op, or the mean of those just before and just after it.
A reported time therefore reads as the time on a machine on which the
reference takes its nominal time (about what it takes on an unloaded
2-vCPU Intel Xeon).

The reference is the same kind of work as the op it scales, because some
spells slow process start-up and imports but not a loop in a running
process.  For an op inside the worker process it is ``reference()``, a loop
over exact fractions, tuples and a dict, much as the symbolic kernel does,
run in that process.  For an op that starts a process, a set-up or a CLI
call, it is ``python speed.py``: interpreter start-up, ``import numpy``, a
few standard-library imports and that loop.  Neither touches skewforms, so
no change to skewforms moves them: a faster program still reads as faster.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

NOMINAL_S = 0.008          # in-process reference time a reported time is scaled to
NOMINAL_PROCESS_S = 0.200  # the same for the reference process
INTERVAL_S = 0.2           # at most this much of a timed loop between two references
_ITERATIONS = 2000

PROCESS = [sys.executable, str(Path(__file__).resolve())]


def reference() -> float:
    """Seconds that one run of the reference loop takes now."""
    t0 = time.perf_counter()
    acc = {}
    step = Fraction(1, 3)
    for i in range(_ITERATIONS):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + step * i
    sorted(acc.items())
    return time.perf_counter() - t0


class Speed:
    """References taken along a timed loop.  Call ``tick`` before each op,
    outside its timer, and pass the op's wall time to ``scaled`` after it.

    ``measure`` times one reference and ``nominal`` is its nominal time."""

    def __init__(self, measure=reference, nominal=NOMINAL_S):
        self.measure, self.nominal = measure, nominal
        self._last_at = None
        self._last = None

    def _sample(self):
        self._last = self.measure()
        self._last_at = time.perf_counter()

    def tick(self):
        if self._last_at is None or time.perf_counter() - self._last_at >= INTERVAL_S:
            self._sample()

    def scaled(self, seconds: float) -> float:
        before = self._last
        if seconds < INTERVAL_S:
            return seconds * self.nominal / before
        self._sample()
        return seconds * self.nominal / ((before + self._last) / 2)


if __name__ == "__main__":
    import argparse  # noqa: F401  (the reference process's imports)
    import decimal  # noqa: F401
    import json  # noqa: F401

    import numpy  # noqa: F401

    reference()
