"""The reference kernel: how slow is the host running right now?

The sandbox gives the benchmark a few cores of a shared machine, and their
speed moves under it by up to 2x — for a second, or for minutes — whatever
the benchmark does (perf/README.md, "Noise").  Nothing measured over a run
of seconds averages a minutes-long slow phase out, so ten runs of the same
code spread by 25-100 %.  What does survive is a *ratio*: the time the
program took over the time a fixed piece of work took on the same core at
about the same moment.

That fixed piece of work is :meth:`Reference.kernel` — Python-level
dictionary and sort work plus small numpy reductions over rows gathered
from an array larger than the caches, which is the mix the program's own
query path is made of.  It lives here, not in ``src/``, so no change to
the program can move it.  :meth:`Reference.host_factor` runs it for a few
tens of milliseconds on a given core while the system under test is idle
and returns ``(median call time / NOMINAL_S) ** SENSITIVITY``: 1.0 on the
quiet host this was written on.  Every time the benchmark reports is
divided by the factor read next to it, i.e. it is in seconds *at nominal
host speed*; the plain readings go to stderr.

``SENSITIVITY`` is below 1 because the program slows down less than the
kernel does: part of its time is memory stalls, timers and wake-ups, which
a slower core does not stretch.  Ten-seed sets of every workload, replayed
from their per-window dumps with exponents 0, 0.5, 0.75 and 1, spread
least at 0.75 on ``lib-mpa``, ``shard-mpa`` and ``ingest-mixed`` (0.5 suits
``serve-point``, whose latency is half batch-window timer, a little better;
the table is in perf/README.md, "Noise").  One constant for all, so that
no workload's figure depends on a guess about that workload.
"""

from __future__ import annotations

import os
from statistics import median

import numpy as np

from driver import clock

#: Seconds one kernel call takes on the quiet 2-vCPU sandbox this was
#: written on.  It only fixes the unit: a factor of 1.0 means "that host".
NOMINAL_S = 300e-6
#: How much of the kernel's slow-down the program's own times show.
SENSITIVITY = 0.75
#: Untimed spin before a reading (the core may have been idle: let its
#: clock and the kernel's cache lines come up), then the timed burst.
_SPIN_S = 0.005
_BURST_S = 0.020


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(20190408)
        self._pool = rng.standard_normal((40_000, 128))  # 41 MB: beyond the caches
        self._picks = [np.sort(rng.integers(0, 40_000, 60)) for _ in range(64)]
        self._query = rng.standard_normal(128)
        self._words = [bytes(rng.integers(0, 64, 8).tolist()) for _ in range(400)]
        self._turn = 0

    def kernel(self) -> float:
        """One call of the fixed work (its result only defeats dead code)."""
        table: dict = {}
        for word in self._words:
            key = word[:4]
            table[key] = table.get(key, 0) + word[5]
        ranked = sorted((count, key) for key, count in table.items())
        nearest = float(ranked[0][0])
        for _ in range(6):
            rows = self._picks[self._turn % len(self._picks)]
            self._turn += 1
            diff = self._pool[rows] - self._query
            nearest += float(np.sqrt(np.einsum("ij,ij->i", diff, diff)).min())
        return nearest

    def _burst(self, seconds: float) -> float:
        """Median seconds per kernel call over a burst of ``seconds``."""
        calls = []
        stop_at = clock() + seconds
        started = clock()
        while started < stop_at:
            self.kernel()
            ended = clock()
            calls.append(ended - started)
            started = ended
        return median(calls)

    def host_factor(self, cores: list) -> float:
        """Mean slow-down of ``cores`` relative to the nominal host, as the
        program feels it.

        The calling thread hops onto each core in turn (the system under
        test must be idle) and back to where it was.  The median call of a
        burst ignores the odd call a stray thread pre-empted.
        """
        home = os.sched_getaffinity(0)
        readings = []
        for core in cores:
            os.sched_setaffinity(0, {core})
            self._burst(_SPIN_S)
            readings.append((self._burst(_BURST_S) / NOMINAL_S) ** SENSITIVITY)
        os.sched_setaffinity(0, home)
        return sum(readings) / len(readings)
