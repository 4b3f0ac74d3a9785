"""Machine-speed reference: fixed work timed beside the workload.

Other tenants of a shared host slow a small virtual machine by up to 2x,
for seconds to minutes at a time: on the 2-core host this benchmark was
built on, one fixed kernel took between 0.67x and 1.5x of its median time
within 90 s, and 5-second block means still spread by 27 % (interquartile
range over median). Process CPU time tracks that drift, so timing CPU
instead of wall time does not remove it, and neither did per-step minima
over repeated seed-runs.

So the worker times a short fixed kernel between steps, at most every
``PERIOD_S``, and reports every time of the process scaled to the speed at
which that kernel takes ``NOMINAL_S``: a time ``t`` is reported as
``t * NOMINAL_S / r``, where ``r`` is the mean kernel time over the
process. The kernel uses numpy and plain Python but no scorebo code, so a
faster program still shows as faster. On that host this cut the spread of
run medians from 15-30 % to 3-7 %; a per-step factor from the nearest
kernel timings, or a median, did worse.

This module must not import numpy at import time: the worker imports it
before it starts the set-up clock.
"""

from __future__ import annotations

import statistics
import time

PERIOD_S = 0.1
NOMINAL_S = 0.004


def _make_kernel():
    """Small dense linear algebra plus dict, sort and tuple work: the two
    kinds of work both optimizers spend their time on."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((30, 30))
    spd = a @ a.T + 30.0 * np.eye(30)
    rhs = rng.standard_normal((30, 61))
    grid = np.arange(61.0)

    def kernel() -> float:
        acc = 0.0
        for k in range(40):
            chol = np.linalg.cholesky(spd)
            v = np.linalg.solve(chol, rhs)
            acc += float(np.exp(-0.5 * (grid - k) ** 2 / 9.0).sum()
                         + (v * v).sum())
            table = {(i * 7919) % 61: float(i) for i in range(61)}
            acc += sum(value for _, value in sorted(table.items())[:10])
        return acc

    return kernel


class SpeedReference:
    """Kernel timings of one process and the scale they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._kernel = None

    def sample(self) -> None:
        if self._kernel is None:
            self._kernel = _make_kernel()
        start = time.perf_counter()
        self._kernel()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def maybe_sample(self) -> None:
        """Time the kernel if ``PERIOD_S`` has passed since the last time."""
        if not self.times or time.perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this process into nominal time."""
        return NOMINAL_S / statistics.fmean(self.durations)
