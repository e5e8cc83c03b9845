"""Reference kernel that tracks the speed of the machine while a run goes on.

On a shared machine the speed available to one process drifts: on the
two-core machine this benchmark was written on, the same scalar piv() loop
took between 2.7 and 6.7 us per call within 90 seconds, in phases lasting
seconds.  A sampler thread therefore times a small fixed kernel every few
milliseconds for the whole run, and every timing is reported scaled by
NOMINAL_S / (mean kernel time while it ran): the time the operation would
have taken at the kernel's nominal speed.  The kernel is plain interpreted
float code like the program's own and calls nothing from piv, so a change to
the program cannot move it.  Raw times are kept in the run record.
"""

from __future__ import annotations

import bisect
import math
import threading
import time

# Kernel time on a quiet core of the machine the benchmark was written on
# (2 vCPU, Python 3.11).  It only sets the scale of normalized times.
NOMINAL_S = 0.0001
INTERVAL_S = 0.02
_SQRT2 = math.sqrt(2.0)


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(500):
        x = (i % 97) * 0.03 - 1.4
        acc += 0.5 * math.erfc(-x / _SQRT2) + math.sqrt(1.0 + x * x)
    elapsed = time.perf_counter() - start
    if acc <= 0.0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


class SpeedSampler:
    """Times the kernel every INTERVAL_S on a daemon thread between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            elapsed = _kernel()
            self.samples.append((time.perf_counter(), elapsed))

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Mean kernel time over [t0, t1], widened to at least two samples."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        while hi - lo < 2 and (lo > 0 or hi < len(samples)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
        window = samples[lo:hi]
        return sum(k for _, k in window) / len(window) if window else NOMINAL_S

    def normalize(self, t0: float, t1: float) -> tuple[float, float]:
        """(normalized duration, mean kernel time) of the interval [t0, t1]."""
        kernel = self.kernel_time(t0, t1)
        return (t1 - t0) * NOMINAL_S / kernel, kernel
