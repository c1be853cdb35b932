"""Time in the library, with the machine's speed swings taken out.

On a shared machine the speed of one core can change by a factor of two
from one second to the next, and a run of 20 seconds can fall in a slow or
a fast stretch, so raw pass times spread by 20-40% between runs.  While an
operation runs, a SIGALRM handler times a fixed reference kernel every
PERIOD_S.  The kernel is the benchmark's own code and does the library's
kind of work: arithmetic on 15-element complex arrays reached through
small Python calls.  An operation's cost, in reference kernels, is the sum
over time of the sampled speed 1/r: its time in the library times the mean
of 1/r over the samples taken just before, during and just after it.  A
library change moves the cost; a slow stretch of the machine moves r as
much as the operation and cancels.
"""
from __future__ import annotations

import heapq
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05     # sampling interval; one sample costs about 1% of it
_KERNEL_LOOPS = 12


class _Affine:
    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = a


def _leaf(node, d):
    if isinstance(node, _Affine):
        return node.a + (1.0 + 0.5j) * d
    return d


class SpeedProbe:
    def __init__(self):
        self._x = np.linspace(1e-4, 1e-3, 15)
        self._w = np.linspace(0.01, 0.2, 15)
        self._nodes = (_Affine(0.5), _Affine(1.5), _Affine(-0.3))
        self._speeds: list[float] = []
        self._sampling_s = 0.0

    def _kernel(self) -> float:
        """Seconds for one run of the reference kernel.

        The kernel evaluates a power of a product of affine factors at 15
        angle offsets, walking the factors in Python, then forms a weighted
        sum and pushes it on a heap: the pattern of the library's boundary
        evaluation and quadrature panels, on fixed inputs.
        """
        x, w = self._x, self._w
        heap: list = []
        t0 = time.perf_counter()
        for i in range(_KERNEL_LOOPS):
            half = np.sin(x / 2.0)
            em1 = (-2.0) * half * half + 1j * np.sin(x)
            rel = em1 - 0.01 - 0.01 * em1
            f1, f2, f3 = (_leaf(node, rel) for node in self._nodes)
            z = f1 * f2 / f3
            y = np.abs(z) ** 0.7 * np.exp(0.7j * np.angle(z))
            v = float(w @ np.abs(y))
            heapq.heappush(heap, (-v, i))
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._speeds.append(1.0 / self._kernel())
        self._sampling_s += time.perf_counter() - t0

    def measure(self, fn):
        """(fn(), seconds in fn, cost of fn in reference kernels).

        The sampling time is taken out of the seconds.
        """
        self._speeds = [1.0 / self._kernel()]
        self._sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            seconds = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self._speeds.append(1.0 / self._kernel())
        seconds -= self._sampling_s
        return result, seconds, seconds * statistics.fmean(self._speeds)
