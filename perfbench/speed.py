"""Times corrected for the host's speed at the moment they were taken.

On a shared virtual machine the same pure-Python work can take twice as long
from one minute to the next, because other tenants contend for the host's
caches and memory.  So the benchmark's end-to-end times are taken on a clock
that advances at the host's measured speed.  On a 2-core Xeon VM, the spread
(standard deviation over mean) of back-to-back passes of one input set was,
real against corrected: litmus 0.060 against 0.033 over 24 passes, fifo 0.039
against 0.011 over 8 passes; in a busier spell, with twice the touches per
sample taken twice as often, litmus 0.13 against 0.03 over 20 passes.

* the reference is a fixed amount of memory-bound work of the benchmark's own
  (inserting randomly chosen tuples of a 200k-entry table into a set), large
  enough that the workload under test leaves it cache-cold;
* while a ``SpeedClock`` is active, a SIGALRM handler in the one benchmark
  thread times one reference sample every ``INTERVAL_S``;
* the clock then advances at ``NOMINAL_S / median(last WINDOW samples)``
  times real time, and stands still while a sample runs.

A time on this clock is the time the work would have taken at the speed where
one reference sample takes ``NOMINAL_S``, roughly this host's usual speed.
A change that shrinks the program's memory footprint could warm the
reference's table and so hide part of its own gain; a table larger than the
caches keeps that small.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

ENTRIES = 200_000
TOUCHES = 2_000
INTERVAL_S = 0.1
WINDOW = 7
# One sample on a 2-core Xeon VM at its usual speed: cache-cold, as between
# the workload's steps, and warm, as back to back.
NOMINAL_S = 1.5e-3
WARM_NOMINAL_S = 0.36e-3


class Reference:
    """The reference work: a table built once and touched in a fixed
    pseudo-random order."""

    def __init__(self):
        self.table = [(i, i * 7919 % 1000, str(i)) for i in range(ENTRIES)]
        self.order = random.Random(ENTRIES).sample(range(ENTRIES), TOUCHES)

    def sample(self) -> float:
        """Seconds one pass over the reference work takes now."""
        table, seen = self.table, set()
        t0 = perf_counter()
        for i in self.order:
            seen.add(table[i])
        return perf_counter() - t0

    def rate(self) -> float:
        """Speed now relative to the usual one, from back-to-back samples."""
        return WARM_NOMINAL_S / statistics.median(
            self.sample() for _ in range(WINDOW))


class SpeedClock:
    """A clock on host-speed-corrected seconds, ticking while active."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples = []
        # (corrected seconds at real time `last`, last, corrected seconds per
        # real second), replaced as one object so that a tick between two
        # reads in now() cannot mix old and new values.
        self._state = (0.0, perf_counter(), 1.0)
        self._old_handler = None

    def _tick(self, *_):
        elapsed, last, factor = self._state
        elapsed += (perf_counter() - last) * factor
        self.samples.append(self.ref.sample())
        factor = NOMINAL_S / statistics.median(self.samples[-WINDOW:])
        self._state = (elapsed, perf_counter(), factor)

    def now(self) -> float:
        elapsed, last, factor = self._state
        return elapsed + (perf_counter() - last) * factor

    def __enter__(self):
        self.samples = []
        self._state = (0.0, perf_counter(), 1.0)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False
