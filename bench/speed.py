"""CPU speed meter: a fixed kernel timed every 0.1 s during the timed work.

The benchmark runs on a share of a busy host, where CPU speed moves by up to
30% within seconds as the host's load (and with it the clock frequency and
the contention on each core) changes.  A fixed kernel slows down with it.
While a :class:`SpeedMeter` is active, a timer signal runs the kernel every
``INTERVAL_S`` on the same thread, so on the same CPU as the work.  A unit of
work then counts at the reference speed: its elapsed time, less the time the
meter took inside it, times ``REFERENCE_PROBE_S`` divided by the mean kernel
time of the samples within ``NEIGHBOURHOOD_S`` of it.

The kernel mixes interpreted Python, small numpy operations and small dense
linear algebra, as the workloads do, and calls nothing from obsdecay, so no
change to the package moves it.  Fitted over windows of a few seconds, log
unit time against log kernel time had slope 1.2 on reports of
``reference-report``, 0.9 on sweep systems and 0.7 on ``scale-certify``
reports, with correlation 0.87 to 0.98; scaling cut the quartile spread of
report times over two minutes from 0.25 to 0.04.  The slope is not 1 on every
workload, so a large change of speed is not removed entirely.
``REFERENCE_PROBE_S`` is the kernel's typical time on the machine the bounds
were set on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11, numpy on OpenBLAS
with one thread), so there scaled and raw times agree on average.
"""

import bisect
import signal
import time

import numpy as np

REFERENCE_PROBE_S = 1.1e-3
KERNEL_REPEATS = 3
INTERVAL_S = 0.1
# A unit's speed is the mean kernel time over the samples within this much
# of it: enough samples (about 20) to steady it for a unit shorter than the
# interval, and still short next to how long the speed holds.
NEIGHBOURHOOD_S = 1.0

_rng = np.random.default_rng(0)
_MATRIX = _rng.normal(size=(24, 24))
_RHS = _rng.normal(size=24)


def _kernel() -> int:
    total = 0
    for i in range(4000):
        total += i * i % 7
    v = _RHS
    for _ in range(100):
        v = 0.5 * v + 0.01 * (_MATRIX @ v)
    np.linalg.eigvals(_MATRIX)
    np.linalg.solve(_MATRIX, _RHS)
    return total


def probe(repeats: int = KERNEL_REPEATS) -> float:
    """The kernel's fastest time over ``repeats`` runs, in seconds.

    The fastest run is the one no interrupt landed in; the clock speed is
    the same for all of them.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedMeter:
    """Samples the kernel every ``INTERVAL_S`` from a ``SIGALRM`` handler.

    Each sample is ``(start, end, kernel_s)`` on the ``time.perf_counter``
    clock.  Use as a context manager around the timed loop; it must run on
    the main thread.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel_s = probe()
        self.starts.append(start)
        self.samples.append((start, time.perf_counter(), kernel_s))

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start: float, end: float):
        return self.samples[bisect.bisect_left(self.starts, start):
                            bisect.bisect_right(self.starts, end)]

    def net(self, start: float, end: float) -> float:
        """Elapsed time of ``[start, end]`` less the meter's own time in it."""
        return (end - start) - sum(e - s for s, e, _ in self._between(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Net time of ``[start, end]`` at the reference speed, from the
        samples taken in it and within ``NEIGHBOURHOOD_S`` either side."""
        near = self._between(start - NEIGHBOURHOOD_S, end + NEIGHBOURHOOD_S)
        if not near:
            raise RuntimeError("speed meter has no sample near a unit")
        mean_kernel_s = sum(k for _, _, k in near) / len(near)
        return self.net(start, end) * REFERENCE_PROBE_S / mean_kernel_s
