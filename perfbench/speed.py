"""Machine-speed calibration, so end-to-end times compare across a drifting host.

On a host whose cores are shared with other tenants, the speed at which one
process runs drifts by 10-35 % over seconds to minutes, for library code and
a plain integer loop alike; the medians of 30-second windows of the loop
spread by about 15 %.  So while the untraced pass runs, a timer signal times
`loop` every INTERVAL_S, also in the middle of a long command.  Each
command's wall time, less the loop timings taken inside it, is scaled by
NOMINAL_S over the median loop time within WINDOW_S of the command: a
reported time is the time the command would take at the speed at which the
loop takes NOMINAL_S.  The loop builds no containers, so neither the garbage
collector nor the heap the library leaves behind changes its time; only the
machine does.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left

# About the loop's time on the x86_64 Xeon VM of baseline.json; it only sets
# the scale of the reported times.
NOMINAL_S = 0.0007
INTERVAL_S = 0.04
WINDOW_S = 0.1


def loop() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def time_loop() -> float:
    started = time.perf_counter()
    loop()
    return time.perf_counter() - started


def calibrate() -> float:
    """NOMINAL_S over the median of five loop timings taken now."""
    return NOMINAL_S / statistics.median(time_loop() for _ in range(5))


class Speed:
    """Loop timings taken every INTERVAL_S while the context is entered.

    The timer is stopped and the previous SIGALRM handler restored on every
    way out of the context.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.at.append(time.perf_counter())
        self.seconds.append(time_loop())

    def __enter__(self) -> Speed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float) -> slice:
        return slice(bisect_left(self.at, start), bisect_left(self.at, end))

    def scaled(self, start: float, seconds: float) -> tuple[float, float]:
        """(scaled seconds, wall seconds) of a command that started at `start`
        and took `seconds`, loop timings inside it included."""
        wall = seconds - sum(self.seconds[self._between(start, start + seconds)])
        near = self.seconds[self._between(start - WINDOW_S, start + seconds + WINDOW_S)]
        return wall * NOMINAL_S / statistics.median(near), wall
