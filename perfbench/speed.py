"""Machine speed, sampled between timed calls with a small fixed kernel.

On a shared 2-vCPU machine the same solve took from 1.0 to 1.6 times its
fastest time, in stretches of tens of seconds.  A timed call is scaled by
a kernel's speed sampled just before and just after it, which gives its
seconds at a fixed reference speed: the speed at which one sample takes
the kernel's reference time.  The solvers spend their time in Python and
in HiGHS behind ``scipy.optimize.linprog``, so their kernel runs a Python
loop and one small ``linprog`` model; the certifier's extended-precision
array arithmetic follows neither, so its kernel is an extended-precision
array operation.  Raw wall times stay in the run's report and in the
traced run's ``wall.pass_s``.
"""
from __future__ import annotations

import functools
import statistics
from time import perf_counter

REPEATS = 7


def python_loop() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


# numpy and scipy are imported inside the kernels, so that the set-up, which
# samples the Python loop only, still times their first import with pcrpp's.


@functools.cache
def _small_lp():
    import numpy as np

    rng = np.random.default_rng(0)
    a_ub = rng.random((20, 40))
    return -rng.random(40), a_ub, a_ub.sum(axis=1) / 2


def solver_kernel() -> None:
    """The Python loop, then one 20 x 40 LP solved by HiGHS through scipy."""
    from scipy.optimize import linprog

    python_loop()
    c, a_ub, b_ub = _small_lp()
    linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")


def longdouble_kernel() -> None:
    import numpy as np

    xs = np.linspace(0.1, 0.9, 4096).astype(np.longdouble)
    np.power(xs, np.longdouble(2.98)) / (np.longdouble(3.0) - xs)


# Kernel -> its time per run in a quiet stretch of the machine above.
REFERENCE_S = {python_loop: 0.0012, solver_kernel: 0.0030, longdouble_kernel: 0.0016}


def sample(kernel=python_loop) -> float:
    """Median seconds of REPEATS runs of the kernel, relative to its reference."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S[kernel]


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed for a call bracketed by two samples."""
    return seconds * 2.0 / (before + after)


class SpeedProbe:
    """Samples taken between calls, at most one per ``every_s`` unless forced."""

    def __init__(self, kernel, every_s: float = 0.25):
        self.kernel = kernel
        self.samples: list[float] = []
        self.every_s = every_s
        self._last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Sample when due; return the index of the latest sample."""
        if force or perf_counter() - self._last >= self.every_s:
            self.samples.append(sample(self.kernel))
            self._last = perf_counter()
        return len(self.samples) - 1

    def scaled(self, seconds: float, index: int) -> float:
        """A call made after sample ``index`` and before sample ``index + 1``."""
        return scale(seconds, self.samples[index], self.samples[index + 1])
