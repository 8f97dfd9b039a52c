"""Machine-speed sampling for normalizing timings on a shared machine.

On a small shared machine the same code can run up to 1.9x slower,
switching between a fast and a slow state every second or so, for
reasons outside the process (its CPU time grows with its wall time, so
it is execution speed, not scheduling).  A factor measured between two
calls misses the switches inside a call that takes seconds, so the
sampler measures speed during the calls: every INTERVAL_S a timer
signal runs a short fixed reference kernel twice and records the time
of the second run.  A call's speed factor is the trimmed mean of the
kernel times sampled while it ran (or of the last MIN_SAMPLES, if the
call was too short to hold that many) over the kernel's time at nominal
speed, and the time the sampling took is taken out of the call's time.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# kernel seconds at nominal speed (median on a 2-CPU Xeon, Python 3.11,
# numpy 2.4, in the machine's fast state); normalized times are in
# seconds at that speed
NOMINAL_S = 0.22e-3
INTERVAL_S = 0.02
MIN_SAMPLES = 10
TRIM = 0.05

_RNG = np.random.default_rng(0)
_DATA = _RNG.normal(size=(7, 6, 5))
_SYM = _RNG.normal(size=(7, 5, 2, 2))
_SYM = _SYM + np.swapaxes(_SYM, -1, -2)


def kernel() -> float:
    """Seconds taken by one fixed run of the reference kernel: small
    batched arrays through the kinds of calls qcap's optimizer and
    entropy code make (sort and gather, einsum, 2x2 eigenvalues, log2,
    stacking, and a little Python on the results).  A broad mix tracks
    the library's slowdowns better than a narrow loop: in one 150-s
    comparison it halved the spread of normalized call times on
    ``unital_chi`` against a kernel of sin/einsum/argsort alone."""
    x = _DATA
    start = perf_counter()
    for _ in range(3):
        y = np.sin(x) * np.cos(x)
        z = np.einsum("kmi,kmi->km", y, y)
        order = np.argsort(z, axis=1)
        x = np.take_along_axis(x, order[:, :, None], axis=1)
        p = np.clip(np.abs(np.linalg.eigvalsh(_SYM)) / 4.0, 1e-12, 1.0)
        h = -(p * np.log2(p)).sum(axis=-1)
        c = np.stack([h.mean(axis=1), h.max(axis=1)], axis=1)
        rows = np.concatenate([np.where(c > 0.0, c, 0.0), z[:, :2]], axis=1).tolist()
        max(range(len(rows)), key=lambda i: rows[i][0])
    return perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest TRIM of the values; a sample
    the scheduler interrupted reads far too slow."""
    values = sorted(values)
    cut = int(TRIM * len(values))
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def factor_over(seconds: float) -> float:
    """The speed factor from kernel runs made now for about ``seconds``
    (at least MIN_SAMPLES runs), after one untimed run that pays the
    kernel's first-call costs."""
    kernel()
    times = [kernel() for _ in range(MIN_SAMPLES)]
    while sum(times) < seconds:
        times.append(kernel())
    return trimmed_mean(times) / NOMINAL_S


class SpeedSampler:
    """Samples the kernel on a timer while installed (a context manager
    that owns SIGALRM); ``begin`` and ``end`` bracket one timed call."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, in total
        self._mark = (0, 0.0)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # the untimed first run brings the kernel back into the caches
        # the library's work evicted, so that the sample measures the
        # machine, not how much of the cache the library uses
        start = perf_counter()
        kernel()
        self.samples.append(kernel())
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        # the first runs pay one-off costs; the next fill the window
        kernel()
        self.samples.extend(kernel() for _ in range(MIN_SAMPLES))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> None:
        self._mark = (len(self.samples), self.spent)

    def end(self, seconds: float) -> tuple[float, float]:
        """For a call that took ``seconds`` since ``begin``: its seconds
        without the time spent sampling meanwhile, and its speed factor
        (above 1 when the machine ran slower than nominal)."""
        count, spent = self._mark
        taken = self.samples[count:]
        window = taken if len(taken) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        return seconds - (self.spent - spent), trimmed_mean(window) / NOMINAL_S
