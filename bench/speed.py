"""Host-speed gauge: takes the shared host's changing speed out of timings.

On the shared 2-core host this benchmark was built on, one fixed round of
pure-Python work takes anywhere from 0.9 to 1.5 s, from one second to the
next, and a run's median drifts by 10-20% between runs a minute apart.  The
gauge interleaves a small fixed computation with the workload, about 3% of
the busy time, and reports for each stretch of work how much slower than
nominal the host ran.  Dividing a time by that slowdown gives it in
reference-speed seconds: the time on a host where one reference call takes
``NOMINAL_S``.  The reference is a complex-arithmetic series loop like
the package's own, and it does not touch ``qsd_sr``, so a change to the
program moves only the timings, never the gauge.  Fresh processes (cold CLI
runs, set-up) are gauged by a fresh interpreter importing numpy instead:
the loop tracked them poorly, this reference closely.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

SHARE = 0.03


class SpeedGauge:
    """Reference samples, one per ``tick``, in the order they were taken.
    The reference is a complex-arithmetic series loop like the package's
    own, run in this process; ``NOMINAL_S`` is one call on a quiet host."""

    NOMINAL_S = 2.0e-4

    def __init__(self):
        self.samples = []  # (seconds, calls)

    def calls_for(self, busy_s):
        """About SHARE of ``busy_s``, at least one call."""
        return max(1, math.ceil(SHARE * busy_s / self.NOMINAL_S))

    @staticmethod
    def reference():
        s = 0j
        a = 0.3 + 0.1j
        for _ in range(4):
            t = 1 + 0j
            for n in range(150):
                t = t * (a + n) / (1.5 + n) * (0.5 / (n + 1))
                s += t
        return s

    def tick(self, busy_s):
        n = self.calls_for(busy_s)
        t0 = time.perf_counter()
        for _ in range(n):
            self.reference()
        self.samples.append((time.perf_counter() - t0, n))

    def slowdown(self, first=0, last=None):
        """Slowdown against nominal over samples ``first`` to ``last``."""
        taken = self.samples[first:last]
        return sum(s for s, _ in taken) / (sum(n for _, n in taken) * self.NOMINAL_S)


class ColdStartGauge(SpeedGauge):
    """For times of fresh processes (a cold CLI run, a set-up), which track
    the in-process loop poorly: the reference is a fresh interpreter that
    imports numpy, once per tick."""

    NOMINAL_S = 0.2

    def calls_for(self, busy_s):
        return 1

    @staticmethod
    def reference():
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
