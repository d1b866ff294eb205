"""Running statistics accumulators.

Cache statistics, wall-clock-time summaries (Figure 6 of the paper shows
average plus min/max "candles"), and LAC occupancy tracking all need
streaming mean/min/max/variance without storing every sample.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional


class RunningStats:
    """Welford-style streaming mean/variance with min/max tracking."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many samples."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples seen so far (0.0 if none)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen; raises if empty."""
        if self._min is None:
            raise ValueError("no samples accumulated")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen; raises if empty."""
        if self._max is None:
            raise ValueError("no samples accumulated")
        return self._max

    @property
    def spread(self) -> float:
        """``max - min``: the length of the Figure-6 candle."""
        return self.maximum - self.minimum

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "RunningStats(empty)"
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.4g}, "
            f"min={self.minimum:.4g}, max={self.maximum:.4g})"
        )


class SampleStats(RunningStats):
    """:class:`RunningStats` that also retains the raw samples.

    Float addition is non-associative, so combining two accumulators'
    moments cannot reproduce the serial run's mean bit for bit.
    Worker-side registries therefore record with this class and the
    parent *replays* the samples in input order — the exact additions
    the serial run would have performed.  Memory is bounded by the worker's sample count,
    which telemetry summaries keep small (per-job, per-phase numbers).
    """

    def __init__(self) -> None:
        super().__init__()
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        super().add(value)
        self.samples.append(value)
