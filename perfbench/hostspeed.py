"""Host-speed reference: a fixed pure-Python kernel timed next to the work.

The benchmark shares a few cores of a host whose speed drifts by tens of
per cent over minutes, and flips within a second, while every run does
the same work.  So each host-time measurement is taken together with
readings of this kernel's time (before, after and, for long calls,
during it; :class:`Meter`) and reported in *reference seconds*: host
seconds times ``NOMINAL_S`` over the kernel's measured time.  On a host
where the kernel takes ``NOMINAL_S``, reference seconds are host
seconds.

The kernel is part of the benchmark, never of the program, so a change
to the program moves the measured work but not the kernel.  It does
what the program's hot paths do: dict-based LRU set lookups like the
cache kernel, and method calls, attribute access, float arithmetic and
a binary heap like the event-driven simulator.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from typing import Callable, List, Optional, Tuple

#: Kernel time, in host seconds, that one reference second stands for:
#: the median of :func:`sample` on the 2-vCPU VM the benchmark was sized on.
NOMINAL_S = 0.0030

_rng = random.Random(20070609)
_ADDRESSES = tuple(_rng.randrange(1 << 20) << 6 for _ in range(6000))
_DELAYS = tuple(_rng.random() * 100.0 for _ in range(1500))


class _Job:
    __slots__ = ("work", "done")

    def __init__(self, work: float) -> None:
        self.work = work
        self.done = 0.0

    def step(self, share: float) -> float:
        grant = self.work * share
        self.done += grant
        return grant


def _lru_sets() -> int:
    sets = [{} for _ in range(64)]
    misses = 0
    for address in _ADDRESSES:
        block = address >> 6
        lines = sets[block & 63]
        tag = block >> 6
        meta = lines.pop(tag, -1)
        if meta >= 0:
            lines[tag] = meta
            continue
        misses += 1
        if len(lines) >= 8:
            lines.pop(next(iter(lines)))
        lines[tag] = 1
    return misses


def _event_loop() -> float:
    jobs = [_Job(1.0 + index % 7) for index in range(16)]
    queue = [(delay, index) for index, delay in enumerate(_DELAYS)]
    heapq.heapify(queue)
    total = 0.0
    while queue:
        when, index = heapq.heappop(queue)
        total += jobs[index & 15].step(when * 1e-3) + len(str(index))
    return total


def kernel() -> None:
    """One run of the reference work (about 3 ms at ``NOMINAL_S``)."""
    _lru_sets()
    _event_loop()


def sample(repeats: int = 3) -> float:
    """Host seconds of the kernel now: the fastest of ``repeats`` runs.

    Host noise only ever adds to the kernel's time, so the fastest run is
    its steadiest reading.  Collection is held off while it runs, so that
    the program's heap size does not leak into the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Reference seconds per host second between two :func:`sample` readings."""
    return NOMINAL_S / ((before + after) / 2.0)


class Meter:
    """Times calls in reference seconds.

    Readings split a call into segments: one reading before it, one after
    it and, with ``every`` set, one every ``every`` seconds during it,
    taken by an interval-timer signal handler.  The host's speed flips
    within a second, so a call of several seconds needs the readings
    inside it.  Each segment's host time is scaled by the readings at its
    two ends, and the readings' own time is left out of the call's time.
    The reading after one call is the reading before the next.
    """

    def __init__(self, every: Optional[float] = None) -> None:
        self.every = every
        self._reading: Optional[float] = None
        self._marks: Optional[List[Tuple[float, float]]] = None
        self._start = 0.0
        self._paused = 0.0
        if every is not None:
            # Installed for good: a signal left pending by a call must
            # still find this handler, which ignores it between calls.
            signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        if self._marks is None:
            return
        began = time.perf_counter()
        reading = sample()
        self._marks.append((began - self._start - self._paused, reading))
        self._paused += time.perf_counter() - began

    def call(self, fn: Callable, *args, **kwargs) -> Tuple[object, float, float]:
        """Run ``fn``; return its result, its host seconds and its
        reference seconds.  An exception from ``fn`` propagates."""
        first = self._reading if self._reading is not None else sample()
        self._marks, self._paused = [], 0.0
        self._start = time.perf_counter()
        if self.every is not None:
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        try:
            result = fn(*args, **kwargs)
        finally:
            if self.every is not None:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            marks, self._marks = self._marks, None
            host_s = time.perf_counter() - self._start - self._paused
        self._reading = sample()
        points = [(0.0, first), *marks, (host_s, self._reading)]
        ref_s = sum(
            (end - begin) * scale(before, after)
            for (begin, before), (end, after) in zip(points, points[1:])
        )
        return result, host_s, ref_s
