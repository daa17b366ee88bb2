"""Host-speed probes: fixed work timed between ops, to scale a run's timings.

The shared 2-core virtual machine this benchmark was built on runs the same
code up to 1.8x slower for stretches of seconds to minutes, in CPU time as
much as in wall time, because other tenants share its cores.  A run of
20-40 s cannot average that out: in one such stretch, ten runs of
``points`` spread by 0.40-0.50 (distance between quartiles over the
median) on every timing metric.

So each run also times a probe: fixed work of the same kind as the
workload's, run between ops in the same process.  Its median around an op
says how fast the host ran then, and the op's times are scaled by
``nominal / median``, so they read as on a host that runs the probe in
its nominal time.  The probe is the benchmark's code, not the program's,
so a change to the program moves scaled timings as much as raw ones.

The median is over the probe runs within ``WINDOW_S`` of op time on
either side of the op.  On ten ``thresholds`` and eight ``points`` runs,
this window gave spreads of 0.04-0.10, against 0.07-0.13 for one median
over the whole run and 0.11-0.20 unscaled.

Python-level work on 4x4 matrices slows far more under contention than
dense LAPACK calls do, so the probe follows the workload: ``interpreted``
for the Gaussian workloads and ``dense`` for the Fock oracle.  Scaling
the oracle by the interpreted probe made its spread worse, not better.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_SMALL = np.random.default_rng(0).standard_normal((4, 4))
_DENSE = np.random.default_rng(1).standard_normal((300, 300))
_DENSE = _DENSE + _DENSE.T


def _interpreted():
    # 500 Python-level steps of 4x4 linear algebra, like the Gaussian pipeline.
    a = np.eye(4)
    for _ in range(500):
        b = a @ _SMALL
        a = 0.5 * b / np.linalg.norm(b) + np.eye(4)
        np.linalg.det(a)


def _dense():
    # One eigensolve and one product at n = 300, like the oracle's dense algebra.
    np.linalg.eigvalsh(_DENSE)
    _DENSE @ _DENSE


PROBES = {"interpreted": _interpreted, "dense": _dense}

#: Each probe takes about this long on the host above while it runs fast.
NOMINAL_S = 5e-3

#: The probe runs once per this much op time, so it samples the whole run.
EVERY_S = 0.2
MAX_RUNS = 25
#: An op is scaled by the probe runs within this much op time of it.
WINDOW_S = 6.0


class Probe:
    def __init__(self, kind: str):
        self._run = PROBES[kind]
        self.samples = []
        self.stamps = []
        self._last = -EVERY_S

    def between_ops(self, busy: float):
        """Run the probe once per ``EVERY_S`` of op time since it last ran.

        ``busy`` is the op time of the run so far.  After a long op the
        probe runs several times (at most ``MAX_RUNS``), so that each
        stretch of the run weighs in the median by its length.
        """
        gap = busy - self._last
        if gap < EVERY_S:
            return
        for _ in range(min(MAX_RUNS, round(gap / EVERY_S))):
            t0 = time.perf_counter()
            self._run()
            self.samples.append(time.perf_counter() - t0)
            self.stamps.append(busy)
        self._last = busy

    def scale(self, start: float, end: float) -> float:
        """Factor that turns the times of an op run over op time [start, end]
        into times at nominal speed."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        return NOMINAL_S / statistics.median(self.samples[lo:hi] or self.samples)
