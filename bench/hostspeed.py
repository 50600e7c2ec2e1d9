"""Host speed sampled while the workload runs, to put timings on one scale.

A shared CPU runs other tenants' work too.  On a 2-vCPU Intel Xeon VM
(Python 3.11.7) a fixed piece of pure-Python work took 0.24 ms on average
with a coefficient of variation of 0.41 between consecutive samples, and
still of 0.22 between means over 0.24 s blocks: the host's speed for
interpreted code swings by tens of percent within seconds.  Such swings
move every timing of a run together, so they cannot be averaged out by
running longer.

While active, a SIGALRM interval timer runs a fixed calibration routine in
the main thread every INTERVAL seconds and records when it ran and how long
it took.  A call's time at reference speed is its measured time, minus the
calibration time that ran inside it, times REFERENCE_S times the host's
mean speed around the call.  The speed of one sample is the inverse of its
duration, so the mean over samples taken at regular wall-clock intervals
weighs each stretch of time by the work it could do, and a sample that
was preempted counts little.  The mean is taken over at least MIN_SAMPLES
samples: those inside the call and, when it is too short, as many again
symmetrically around it.

No thread or process is started: the handler runs between bytecodes of the
only thread.  The calibration frees each list it allocates straight away,
so the garbage collector's allocation count stays flat, no collection is
triggered, and its speed does not depend on how many objects the program
holds.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from bisect import bisect_left

#: Seconds between calibration samples.
INTERVAL = 0.01
#: Iterations of the calibration routine per sample (about 0.15 ms).
ITERATIONS = 120
#: Calibration duration that defines the reference speed: about the
#: harmonic mean of the samples in a quiet run on that VM, so that there
#: times at reference speed and wall-clock times roughly agree.
REFERENCE_S = 1.4e-4
#: Fewest samples a speed estimate is averaged over (one second of them).
MIN_SAMPLES = 100


def calibration(n: int = ITERATIONS) -> float:
    """The fixed unit of pure-Python work whose duration is sampled: float
    math in short list comprehensions, like the package's RK4 and jet code,
    which tracked the package's own slowdowns closer than plain float
    arithmetic did."""
    s = [0.1, 0.2, 0.3, 0.4]
    for _ in range(n):
        k = [0.5 * math.sin(a) for a in s]
        s = [a + 0.01 * b for a, b in zip(s, k)]
    return s[0]


class HostSpeed:
    """Context manager that samples the calibration routine on a timer."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.stamps = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration()
        self.stamps.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would have taken at reference
        speed, without the calibration samples that ran inside it."""
        i = bisect_left(self.stamps, start)
        j = bisect_left(self.stamps, end)
        inside = sum(self.durations[i:j])
        lo, hi, n = i, j, len(self.stamps)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            return end - start
        speed = sum(1.0 / d for d in self.durations[lo:hi]) / (hi - lo)
        return (end - start - inside) * REFERENCE_S * speed

    def summary(self) -> dict:
        d = sorted(self.durations)
        if not d:
            return {"samples": 0}
        q = lambda p: d[min(len(d) - 1, int(p * len(d)))]  # noqa: E731
        return {"samples": len(d), "median_s": q(0.5), "p10_s": q(0.1),
                "p90_s": q(0.9), "reference_s": REFERENCE_S}
