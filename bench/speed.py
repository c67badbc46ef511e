"""Machine-speed sampling, so operation times can be reported at one speed.

On a shared host the CPU speed this process gets swings by up to 2.5x,
from milliseconds to minutes, as neighbours load the machine. While an
operation runs, a SIGALRM handler times a fixed piece of interpreter work
(the kernel) every INTERVAL_S seconds. An operation's time, minus the
handler's own time, is scaled by the mean of REFERENCE_S over the kernel
times sampled during it (the mean relative speed), and so reads as on the
reference machine: a 2-core Xeon at 2.1 GHz under Python 3.11, with no
contention, where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

KERNEL_LOOPS = 1000
REFERENCE_S = 0.00016
INTERVAL_S = 0.02


def kernel() -> None:
    """Integer bit operations, small tuples and dict updates, like the
    library's inner loops."""
    counts: dict = {}
    for i in range(KERNEL_LOOPS):
        key = (i & 63, (i >> 6).bit_count())
        counts[key] = counts.get(key, 0) + 1


class SpeedSampler:
    """Context manager that samples the kernel's time while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end) would take at reference speed.
        An interval too short to hold a sample uses the samples either side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        speed_from = inside or self.durations[max(lo - 1, 0) : hi + 1]
        speed = sum(REFERENCE_S / d for d in speed_from) / len(speed_from)
        return (end - start - sum(inside)) * speed
