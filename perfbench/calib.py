"""Calibration slice: a fixed unit of work built only from numpy/scipy.

Every timed unit of the benchmark is bracketed by one slice before and
one after it, and its wall time is reported in units of the adjacent
slices.  Nothing here imports ``repro``, so no change to the certifier
can move the slice; a change to the host (CPU speed, contention, a
different scipy) moves slice and unit together and cancels out.

The mix mirrors what the certifier spends its time on: HiGHS LP solves
entered through ``scipy.optimize.linprog`` (Algorithm 1), small dense
numpy products (bound propagation) and interpreted Python (the glue
between them).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog
import scipy.sparse as sparse

#: Seed of the slice's LP instance; fixed so every run times the same work.
_SLICE_SEED = 1729
#: One run of the slice's work: this many LP solves, this many small
#: matrix products and this many iterations of a pure-Python loop.
_LPS = 4
_MATMULS = 300
_LOOP = 40_000


class CalibrationSlice:
    """A callable that performs the fixed slice of work and returns its wall time.

    A slice is ``repeats`` back-to-back runs of one fixed piece of work,
    and its value is their median: it follows the host's speed, which
    drifts on a scale of seconds, while a single preemption does not
    move it.
    """

    def __init__(self, repeats: int = 4) -> None:
        self._repeats = repeats
        rng = np.random.default_rng(_SLICE_SEED)
        n, m = 80, 60
        self._a = sparse.random(
            m, n, density=0.15, random_state=rng, format="csr"
        )
        self._b = self._a @ rng.uniform(0.0, 1.0, n) + 0.5
        self._costs = rng.standard_normal((_LPS, n))
        self._w = rng.standard_normal((32, 32))
        self._x = rng.standard_normal((32, 8))
        self.checksum = 0.0

    def _work(self) -> float:
        total = 0.0
        for c in self._costs:
            res = linprog(
                c, A_ub=self._a, b_ub=self._b, bounds=(0.0, 1.0), method="highs"
            )
            total += float(res.fun)
        x = self._x
        for _ in range(_MATMULS):
            x = np.maximum(self._w @ x, 0.0)
            x /= float(np.abs(x).max()) + 1.0
        total += float(x.sum())
        acc = 0
        for i in range(_LOOP):
            acc = (acc * 31 + i) % 1_000_003
        return total + acc

    def __call__(self) -> float:
        runs = []
        for _ in range(self._repeats):
            t0 = time.perf_counter()
            value = self._work()
            runs.append(time.perf_counter() - t0)
            if self.checksum and value != self.checksum:
                raise RuntimeError("calibration slice changed its result")
            self.checksum = value
        return statistics.median(runs)
