"""Machine-speed gauge: a fixed unit of work timed between a run's ops.

On a shared host the speed of a core drifts, often by 1.3-1.5x over seconds
to minutes, as other tenants load its sibling threads and caches; every op
of a run slows with it, and CPU time slows too, so neither wall nor CPU time
of one run is comparable with another run's.  The worker therefore runs
bursts of gauge units between ops, taking SHARE of the op time, and scales
each op's time by REF_UNIT_S / (mean unit time in the same block of BLOCK_S
of op time): times are reported at the speed of a machine on which one unit
takes REF_UNIT_S.  A faster program still reads faster; a faster moment of
the host mostly does not.  The match is not exact: in a 100 s probe the
region workload's op time moved by about 0.85 of the gauge's change
(log-log slope), with 2 % scatter over 4 s windows.

The unit mixes what the workloads do -- Python float arithmetic, string
formatting, small complex Hermitian eigensolves and partial traces -- and
calls no cqekit code, so no change to the library can move it.  Its
eigensolver is bound here at import, before any tracing, so the tracer's
eigensolve counter never sees it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh

REF_UNIT_S = 1.2e-4  # one unit's time on the reference machine
SHARE = 0.2  # gauge time per op time
BURST = 16  # units run back to back, so cache refills after an op weigh little
BLOCK_S = 0.5  # op time per block sharing one speed scale


def _hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n


_RNG = np.random.default_rng(20081127)
_MATS = [_hermitian(n, _RNG) for n in (4, 9)]
_STATE = np.kron(_MATS[0], _MATS[0]).reshape(4, 4, 4, 4)
_LAMS = np.linspace(0.05, 1.0, 16)


def _inside(bound: float, c: float, q: float, e: float) -> bool:
    return c >= 0.0 and q >= 0.0 and c + 2 * q <= bound and q <= e + bound


def unit() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    # Float arithmetic and number formatting, as in the cli writers.
    s, cells = 0.0, []
    for k in range(1, 76):
        x = k / 76.0
        s += -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
        cells.append(f"{s:.12g}")
    total = float(len(",".join(cells)))
    # A scalar search over a lambda grid, as in region membership tests.
    for lam in _LAMS:
        u = ((0.7 - (1.0 - lam) * 0.2) / lam, (0.3 - (1.0 - lam) * 0.1) / lam, 0.5 * lam)
        total += any(_inside(bound, *u) for bound in (0.5, 1.0, 1.5))
    # Small Hermitian eigensolves and a partial trace, as in the entropics.
    for m in _MATS:
        total += float(_eigvalsh(m).sum())
    return total + float(np.einsum("abcb->ac", _STATE).real.trace())


def unit_time(seconds: float) -> float:
    """Median time of one unit, over units run for about `seconds`."""
    times = []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        t0 = perf_counter()
        unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Meter:
    """Interleaves gauge units with ops and gives each op its speed scale.

    Call ``after_op`` with each op's time, right after the op; ``close``
    ends the last block.  ``scales`` then holds one factor per op, in
    order: REF_UNIT_S over the mean unit time of the op's block.
    """

    def __init__(self):
        self.scales: list[float] = []
        self.unit_times: list[float] = []
        self._open()

    def _open(self) -> None:
        self._op_s = self._gauge_s = 0.0
        self._ops = self._units = 0

    def after_op(self, op_s: float) -> None:
        self._op_s += op_s
        self._ops += 1
        while not self._units or self._gauge_s < SHARE * self._op_s:
            t0 = perf_counter()
            for _ in range(BURST):
                unit()
            self._gauge_s += perf_counter() - t0
            self._units += BURST
        if self._op_s >= BLOCK_S:
            self._close_block()

    def _close_block(self) -> None:
        if self._ops:
            mean = self._gauge_s / self._units
            self.unit_times.append(mean)
            self.scales.extend([REF_UNIT_S / mean] * self._ops)
        self._open()

    def close(self) -> None:
        self._close_block()
