"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared VM the same pass can take 1.0 s in one minute and 1.7 s in the
next, with process CPU time tracking wall time: the virtual CPU itself runs
slower, so a timing taken alone measures the neighbours as much as the
program.  The benchmark therefore runs this kernel just before every op and
divides the op's time by the kernel's.  The kernel mixes the two kinds of
work the workloads do: interpreted dictionary and float work, as in the
symbolic determinant and the descent's Python loops, and vectorised cosine
evaluation, as in ``evaluate_array``.  It never calls qgspectra, so a change
to the library cannot move it.

``REF_SECONDS`` turns the ratio back into seconds: a normalised time is
what the op would take on a host where one kernel run takes ``REF_SECONDS``
(a quiet 2-vCPU Intel Xeon VM, Python 3.11, numpy with one OpenBLAS thread).
"""

from __future__ import annotations

import time

REF_SECONDS = 0.05


class SpeedGauge:
    """Times one run of the reference kernel; its inputs are fixed."""

    def __init__(self) -> None:
        import numpy as np  # not at import time, which ``run.py`` measures

        self.cos = np.cos
        rng = np.random.default_rng(0)
        self.table = {i: float(i) for i in range(1 << 16)}
        self.keys = [int(k) for k in rng.integers(0, 1 << 16, 20_000)]
        self.rates = rng.random((20, 1))
        self.grid = np.linspace(0.0, 100.0, 10_000)

    def measure(self) -> float:
        """Seconds one run of the kernel takes now, its data already in cache.

        A first, untimed round brings the kernel's data back into the cache
        that the op before it has filled, so the time depends on the host's
        speed and not on how much memory that op touched.
        """
        self._round()
        t0 = time.perf_counter()
        for _ in range(6):
            self._round()
        return time.perf_counter() - t0

    def _round(self) -> float:
        total = 0.0
        for k in self.keys:
            total += self.table[k] * 0.5
        return total + float(self.cos(self.rates * self.grid).sum())
