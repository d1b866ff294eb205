"""The metrics registry: named counters, gauges, and summaries.

Every subsystem that used to keep ad-hoc dicts of counts (cache stats,
LAC bookkeeping, fault tallies) can publish through one registry
instead, so a run's numbers are inspectable in one place and exportable
as machine-readable JSONL (the reproducibility argument of the gem5
standardization work).

Names are hierarchical dotted paths (``cache.l2.core0.misses``); an
optional label mapping refines a name without exploding the namespace
(``counter("mem.bus.grants", core=3)``).  Labels are canonicalised into
the metric key in sorted order, so the same label set always maps to
the same series.

Snapshots are deterministic: keys are emitted sorted and values
reflect only what was recorded (never the host wall clock), so two
identically-seeded runs produce byte-identical exports.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.util.stats import RunningStats, SampleStats

MetricValue = Union[int, float]


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical series key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not name:
        raise ValueError("metric name must be non-empty")
    if not labels:
        return name
    rendered = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: MetricValue = 0

    def inc(self, amount: MetricValue = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(
                f"counters only increase; got increment {amount}"
            )
        self.value += amount


class Gauge:
    """A point-in-time value that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: MetricValue = 0

    def set(self, value: MetricValue) -> None:
        """Record the current value."""
        self.value = value

    def add(self, delta: MetricValue) -> None:
        """Shift the current value by ``delta``."""
        self.value += delta


class MetricsRegistry:
    """Process-local registry of named metric series.

    Series are created on first touch, so instrumentation sites never
    need a registration step; the same ``(name, labels)`` always
    returns the same underlying object.
    """

    def __init__(self, *, record_samples: bool = False) -> None:
        # ``record_samples`` makes summaries retain their raw samples
        # (``SampleStats``) so a parent registry can merge them by exact
        # replay — the worker-telemetry mode of ``parallel_map``.
        self._record_samples = record_samples
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._summaries: Dict[str, RunningStats] = {}

    # -- series accessors -------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        return gauge

    def summary(self, name: str, **labels: object) -> RunningStats:
        """Streaming mean/min/max/variance series, created on first use."""
        key = metric_key(name, labels)
        summary = self._summaries.get(key)
        if summary is None:
            summary = self._summaries[key] = (
                SampleStats() if self._record_samples else RunningStats()
            )
        return summary

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's series into this one.

        The deterministic-aggregation contract of ``parallel_map``:
        applying each worker's registry *in input order* reproduces the
        serial run's registry exactly —

        - counters add (commutative; integer increments are exact),
        - gauges take the incoming value (last write in input order
          wins, matching serial execution order),
        - summaries replay the incoming side's retained samples
          (bit-exact vs serial).  An incoming summary that kept no
          samples cannot be merged exactly: it raises ``ValueError``
          before anything is merged.
        """
        for key, summary in other._summaries.items():
            if not isinstance(summary, SampleStats):
                raise ValueError(
                    f"summary {key!r} kept no samples, so it cannot be "
                    "merged exactly"
                )
        for key, counter in other._counters.items():
            mine = self._counters.get(key)
            if mine is None:
                mine = self._counters[key] = Counter()
            mine.value += counter.value
        for key, gauge in other._gauges.items():
            mine = self._gauges.get(key)
            if mine is None:
                mine = self._gauges[key] = Gauge()
            mine.value = gauge.value
        for key, summary in other._summaries.items():
            mine = self._summaries.get(key)
            if mine is None:
                mine = self._summaries[key] = (
                    SampleStats() if self._record_samples else RunningStats()
                )
            for value in summary.samples:
                mine.add(value)

    # -- export -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._summaries)

    def snapshot(self) -> List[dict]:
        """All series as plain records, sorted by (type, key).

        The records contain only simulation-derived values, so the
        snapshot of a seeded run is reproducible byte for byte.
        """
        records: List[dict] = []
        for key in sorted(self._counters):
            records.append(
                {
                    "type": "counter",
                    "name": key,
                    "value": self._counters[key].value,
                }
            )
        for key in sorted(self._gauges):
            records.append(
                {
                    "type": "gauge",
                    "name": key,
                    "value": self._gauges[key].value,
                }
            )
        for key in sorted(self._summaries):
            summary = self._summaries[key]
            record = {
                "type": "summary",
                "name": key,
                "count": summary.count,
                "mean": summary.mean,
            }
            if summary.count:
                record["min"] = summary.minimum
                record["max"] = summary.maximum
            records.append(record)
        return records

    def to_jsonl_lines(self) -> Iterator[str]:
        """One compact, key-sorted JSON object per series."""
        for record in self.snapshot():
            yield json.dumps(record, sort_keys=True, separators=(",", ":"))

    def write_jsonl(self, path) -> str:
        """Write the snapshot to ``path`` as JSONL; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line + "\n")
        return str(path)

    def value_of(self, name: str, **labels: object) -> Optional[MetricValue]:
        """Counter or gauge value by key, or ``None`` if never touched.

        A read-only probe for tests and report footers — unlike the
        accessors it does not create the series.
        """
        key = metric_key(name, labels)
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return None

    def totals(self) -> Tuple[int, MetricValue]:
        """(number of series, sum of all counter values) for footers."""
        return (
            len(self),
            sum(counter.value for counter in self._counters.values()),
        )


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: MetricValue = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: MetricValue) -> None:
        pass

    def add(self, delta: MetricValue) -> None:
        pass


class _NullSummary(RunningStats):
    def add(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_SUMMARY = _NullSummary()


class NullMetricsRegistry(MetricsRegistry):
    """Registry whose instruments are shared no-ops.

    The disabled observer's metrics sink.  A plain ``MetricsRegistry``
    here would make every *unguarded* ``obs.metrics`` call on the null
    observer allocate and accumulate series for the life of the process
    — a slow leak that also broke the zero-cost-when-disabled contract.
    The accessors hand back singletons that record nothing, so the
    backing dicts stay empty and ``snapshot()`` stays ``[]`` forever.
    """

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NULL_GAUGE

    def summary(self, name: str, **labels: object) -> RunningStats:
        return _NULL_SUMMARY
