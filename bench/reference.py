"""A fixed pure-Python reference that measures how fast the host runs right
now, so that the end-to-end timings can be scaled to one host speed.

On a shared host the speed one process sees drifts by up to 1.4x over
minutes, and a slow phase can cover a whole run.  The kernels below do the
kinds of work the package spends its time on (``Fraction`` sums, products
of sparse polynomials held as dicts of exponent tuples, fraction-free
elimination) but use none of its code, so a change to the package cannot
move them.  A run times one sample of all of them after every few ops and
keeps the best sample.
"""

from __future__ import annotations

import gc
import math
import random
import time
from fractions import Fraction


def _fraction_sum() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return total


_RNG = random.Random(20170424)
_POLY_A = {tuple(_RNG.randint(0, 3) for _ in range(4)):
           Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(20)}
_POLY_B = {tuple(_RNG.randint(0, 3) for _ in range(4)):
           Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(20)}
_MATRIX = [[Fraction(_RNG.randint(-9, 9)) for _ in range(9)] for _ in range(9)]


def _sparse_product() -> list:
    out: dict = {}
    for ka, va in _POLY_A.items():
        for kb, vb in _POLY_B.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return sorted(k for k, v in out.items() if v)


def _bareiss_rank() -> int:
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    previous, rank = Fraction(1), 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            rows[r] = [(rows[rank][rank] * rows[r][j] - rows[r][rank] * rows[rank][j])
                       / previous for j in range(n)]
        previous = rows[rank][rank]
        rank += 1
    return rank


def _kernels() -> None:
    for _ in range(5):
        _fraction_sum()
    for _ in range(3):
        _sparse_product()
        _bareiss_rank()


# Best time of one sample in ns on the 2-vCPU Xeon VM this was calibrated
# on, Python 3.11.7, in a fast phase of the host.  A sample takes about as
# long as a typical op: the best of a much shorter sample finds a fast
# phase that an op of 30 ms does not, and the scaled timings then drift
# with the host again.  The kernels work on small numbers and allocate
# many small objects, as the package does; elimination on large integers
# slowed less than the package's ops in slow phases.
CALIBRATED_NS = 16_200_000


class Reference:
    """Best time of one sample of the kernels over the samples taken so
    far."""

    def __init__(self):
        self.best = math.inf
        self.samples = 0

    def sample(self) -> None:
        """Time one sample, with the cyclic collector off so that the
        package's heap does not enter the kernels' time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            _kernels()
            took = time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        self.best = min(self.best, took)
        self.samples += 1

    def slowdown(self) -> float:
        """Best sample / calibrated sample: 1 on the calibration host in a
        fast phase, 1.4 when it runs 1.4x slower."""
        if not self.samples:
            raise ValueError("no sample taken")
        return self.best / CALIBRATED_NS
