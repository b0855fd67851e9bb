"""Host-speed scaling of measured times.

The shared host that runs this benchmark changes speed by up to ~1.6x for
seconds to minutes at a time: one fixed memory_n pass took 0.75 s for a
stretch of runs and 1.2 s in the next, with CPU time equal to wall time
throughout. No choice of medians removes a shift that lasts a whole run.

So a fixed reference snippet, a mix of the kinds of work the workloads
do (small-array numpy calls, a branchy integer loop, a small solve), is
timed at most PROBE_EVERY_S apart: between operations, and while the
benchmark waits on a child process. A measured interval is scaled by
REF_S / (median snippet time of the probes within WINDOW_S of it): the
result is the interval in seconds at the host speed where the snippet
takes REF_S. One probe is noisy (about +-15%); the median over the window
is not, and still follows a change of speed within a fraction of a
second. The snippet touches no package code, so a change to the package
cannot move the scale.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_S = 1e-3
PROBE_EVERY_S = 0.05
WINDOW_S = 0.25

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((16, 16)) + 16.0 * np.eye(16)
_UNIFORM = _RNG.random(1500).tolist()


def _snippet():
    """Small-array numpy calls, a branchy integer loop and a small solve:
    the three kinds of work the workloads are made of."""
    start = perf_counter()
    x = _MATRIX[0, :4]
    for k in range(30):
        y = x * 0.5 + k
        x = np.stack([y, x, y, x], axis=-1).sum(axis=-1) / 4.0
    h, counts = 0, [0, 0]
    for u in _UNIFORM:
        a = 0 if u < 0.5 else 1
        h = ((h << 1) | a) & 63
        counts[a] += 1
    for k in range(4):
        np.linalg.solve(_MATRIX, _MATRIX[k])
    return perf_counter() - start


class Speed:
    def __init__(self):
        _snippet()  # the first call pays for cold caches
        self.times = []  # when each probe ended
        self.probes = []  # snippet seconds

    def mark(self, force=False):
        """Probe unless the last probe is less than PROBE_EVERY_S old."""
        if force or not self.times or perf_counter() - self.times[-1] > PROBE_EVERY_S:
            self.probes.append(_snippet())
            self.times.append(perf_counter())

    def scaled(self, seconds, start, end):
        """``seconds`` measured in [start, end], at the reference speed.

        Every interval is bracketed by ``mark`` calls, so the window holds
        at least the probes just before and just after it. Call once the
        later probes have been taken, at the end of the run.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return seconds * REF_S / statistics.median(self.probes[lo:hi])
