"""Machine speed, sampled with a fixed probe between timed calls.

On a shared host the whole machine runs faster or slower for seconds at a
time: the same epoch can take 1.5x as long a minute later. A fixed probe
(small numpy ops driven from a Python loop, the same mix the program
spends its time on) slows down by the same factor, so each timed interval
is rescaled by `REFERENCE_MS / probe_ms`, with `probe_ms` the mean of the
probes taken within a few seconds of it. The rescaled times read as times
on a machine where the probe takes REFERENCE_MS; they stay comparable
between runs made minutes apart.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_MS = 2.0      # the probe time that the calibrated times are expressed at


class Speed:
    PERIOD_S = 0.5      # at most one probe per period
    WINDOW_S = 2.5      # probes this close to an interval set its scale
    ROUNDS = 3          # a probe is the median of this many kernel runs

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(32, 20))
        self._w = rng.normal(size=(20, 20))
        self.times: list[float] = []     # when each probe ended
        self.probes: list[float] = []    # its kernel time, seconds

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(300):
            a = self._x @ self._w
            acc += float(np.exp(-a * a).sum()) + (i * i) % 7
        return acc

    def probe(self) -> None:
        runs = []
        for _ in range(self.ROUNDS):
            start = perf_counter()
            self._kernel()
            runs.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.probes.append(statistics.median(runs))

    def tick(self) -> None:
        """Probe unless the last probe is more recent than PERIOD_S."""
        if not self.times or perf_counter() - self.times[-1] >= self.PERIOD_S:
            self.probe()

    def scale(self, when: float) -> float:
        """reference / mean probe time within WINDOW_S of `when`.

        Averaging the probes near an interval keeps one noisy probe from
        setting its scale; the window is short next to how long the machine
        stays in one speed state.
        """
        lo = bisect.bisect_left(self.times, when - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, when + self.WINDOW_S)
        if lo == hi:    # no probe that close: take the nearest one
            lo = min(lo, len(self.times) - 1)
            if lo > 0 and when - self.times[lo - 1] < abs(self.times[lo] - when):
                lo -= 1
            hi = lo + 1
        return REFERENCE_MS / 1e3 / statistics.fmean(self.probes[lo:hi])
