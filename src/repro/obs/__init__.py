"""``repro.obs`` — structured observability for the simulator stack.

Coordinated pieces (the MGSim-style monitoring layer the ROADMAP
calls for):

- :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and summaries with hierarchical dotted names and labels.
- :class:`~repro.obs.events.EventLog` — an append-only, seed-
  deterministic JSONL event stream with a versioned schema.
- :class:`~repro.obs.profiler.PhaseProfiler` — context-manager spans
  measuring per-phase wall clock and engine event counts.
- :class:`~repro.obs.slo.SloMonitor` — projection-based QoS/SLO
  violation tracking (driven by the system simulator).
- :mod:`repro.obs.export` / :mod:`repro.obs.diff` — the artefact
  loaders and summary roll-up, and cross-run regression diffing.

An :class:`Observer` bundles the sinks.  Instrumentation sites fetch
the process-wide observer with :func:`get_observer` and guard with
``obs.enabled``::

    obs = get_observer()
    if obs.enabled:
        obs.events.emit("admission", now, job_id=3, accepted=True)

The default observer is :data:`NULL_OBSERVER` — disabled, with no-op
sinks — so an un-instrumented run pays one attribute check per
instrumentation site and nothing else (the zero-cost-when-disabled
contract; ``bench_perf_kernel`` guards the budget).  The CLI installs a
live observer when ``--metrics-out``/``--events-out`` is given.

Determinism contract: everything written to the metrics/events JSONL
files derives from simulated state only (simulated times, seeded
draws, counter values).  Host wall clock appears solely in the
human-facing profiler footer, never in the files, so two runs of the
same seeded command produce byte-identical artefacts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.events import (
    SCHEMA_VERSION,
    EventLog,
    EventSchemaError,
    validate_jsonl,
    validate_record,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullMetricsRegistry,
    metric_key,
)
from repro.obs.profiler import PhaseProfiler, PhaseRecord
from repro.obs.slo import (
    JobSloSummary,
    SloMonitor,
    SloReport,
)

__all__ = [
    "SCHEMA_VERSION",
    "Counter",
    "EventLog",
    "EventSchemaError",
    "Gauge",
    "JobSloSummary",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NullMetricsRegistry",
    "Observer",
    "PhaseProfiler",
    "PhaseRecord",
    "SloMonitor",
    "SloReport",
    "get_observer",
    "metric_key",
    "observed",
    "reset_observer",
    "set_observer",
    "validate_jsonl",
    "validate_record",
]


class Observer:
    """A live observability hub: registry + events + profiler."""

    enabled = True

    def __init__(self, *, record_samples: bool = False) -> None:
        # ``record_samples`` flows to the registry so worker observers
        # retain summary samples for the exact-replay merge in
        # ``parallel_map`` (see MetricsRegistry.merge).
        self.metrics = MetricsRegistry(record_samples=record_samples)
        self.events = EventLog()
        self.profiler = PhaseProfiler()

    def absorb(self, other: "Observer") -> None:
        """Fold another observer's telemetry into this one.

        The parent-side half of the worker-telemetry contract: metrics
        merge (counters add, gauges last-write-wins, summaries replay),
        events rebase onto this log's sequence space, and profiler
        phases accumulate.  Applying workers in input order reproduces
        the serial run's telemetry.
        """
        self.metrics.merge(other.metrics)
        self.events.extend_rebased(other.events.records)
        self.profiler.merge(other.profiler)


class _NullEventLog(EventLog):
    """Event sink that drops everything."""

    def emit(self, kind: str, t: float, **fields: object) -> None:
        pass


class _NullProfiler(PhaseProfiler):
    """Profiler whose spans cost nothing and record nothing."""

    @contextmanager
    def span(self, name: str, *, event_source=None) -> Iterator[PhaseRecord]:
        yield PhaseRecord(name)


class NullObserver(Observer):
    """Disabled observer: the default, with no-op sinks.

    ``enabled`` is False, so guarded sites skip it entirely; the no-op
    sinks make even unguarded calls safe and allocation-free.  The
    metrics sink matters most: a live registry here would let unguarded
    ``obs.metrics`` calls accumulate series in a process-global object
    for the life of the process (a slow leak that also skewed the first
    *enabled* observer installed afterwards in long-lived processes
    that reused the registry object).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self.metrics = NullMetricsRegistry()
        self.events = _NullEventLog()
        self.profiler = _NullProfiler()


#: The process default: observability off.
NULL_OBSERVER = NullObserver()

_observer: Observer = NULL_OBSERVER


def get_observer() -> Observer:
    """The process-wide observer (``NULL_OBSERVER`` unless installed)."""
    return _observer


def set_observer(observer: Observer) -> None:
    """Install ``observer`` as the process-wide sink."""
    global _observer
    _observer = observer


def reset_observer() -> None:
    """Restore the disabled default."""
    set_observer(NULL_OBSERVER)


@contextmanager
def observed(observer: Optional[Observer] = None) -> Iterator[Observer]:
    """Scope a live observer: install on entry, restore on exit.

    ``with observed() as obs:`` is the test-friendly way to capture a
    block's events and metrics without leaking global state.
    """
    if observer is None:
        observer = Observer()
    previous = get_observer()
    set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
