"""Causal request tracing: deterministic span trees over simulated time.

Answers the question the metrics registry cannot: *where did this
request's (or job's) latency come from?*  A **trace** is a tree of
**spans** — named, timestamped intervals — rooted at one logical
request: a job's lifetime through the QoS system simulator, a memory
request's walk down L1 → L2 → bus → DRAM, a bus request's queue-then-
service history.

Determinism contract (the same one :mod:`repro.obs.events` holds):

- **IDs derive from identity, not chance.**  :func:`derive_trace_id`
  hashes the parts that name the traced entity (workload, job id,
  core, request sequence); span ids are ``<trace_id>.<n>`` with ``n``
  dense per trace in allocation order.  No UUIDs, no host randomness.
- **Timestamps are simulated only** — seconds in the system simulator,
  cycles in the microarchitectural path — never host wall clock.

Two identically-seeded runs therefore serialise byte-identical trace
files, and a worker's spans can be merged into a parent log without
collision (ids embed the point identity).

Analysis helpers: :meth:`TraceLog.breakdown` sums time by span name
(the per-request latency breakdown), :meth:`TraceLog.critical_path`
extracts the chain of last-finishing descendants (which child spans
actually gated the root's completion).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

_SCALAR_TYPES = (str, int, float, bool, type(None))


class TraceError(ValueError):
    """A span violates the trace contract."""


def derive_trace_id(*parts: object) -> str:
    """A 16-hex trace id deterministic in the traced entity's identity.

    ``derive_trace_id("job", workload, config, job_id)`` gives every
    job the same trace id in every run of the same experiment — the
    property that makes traces diffable across runs and mergeable
    across worker processes.
    """
    if not parts:
        raise TraceError("trace identity needs at least one part")
    text = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _check_attributes(attributes: Dict[str, object]) -> None:
    for name, value in attributes.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise TraceError(
                f"span attribute {name!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
        if type(value) is float and not math.isfinite(value):
            raise TraceError(
                f"span attribute {name!r} is non-finite ({value!r}); "
                "canonical JSON cannot round-trip it"
            )


@dataclass
class Span:
    """One named interval in a trace tree.

    ``start``/``end`` are simulated timestamps (seconds or cycles,
    whatever the instrumented layer counts in — uniform within one
    trace).  ``end`` is ``None`` while the span is open.
    """

    trace_id: str
    span_id: str
    name: str
    start: float
    parent_id: Optional[str] = None
    end: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length; raises while the span is still open."""
        if self.end is None:
            raise TraceError(f"span {self.span_id} ({self.name}) is open")
        return self.end - self.start

    def to_record(self) -> dict:
        """Plain-data form for JSONL export."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attributes),
        }


class TraceLog:
    """Append-only span store with deterministic ids and JSONL export."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_span: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording --------------------------------------------------------------

    def _allocate(
        self,
        trace_id: str,
        name: str,
        start: float,
        parent: Optional[Span],
        attributes: Dict[str, object],
    ) -> Span:
        if not trace_id:
            raise TraceError("trace_id must be non-empty")
        if not name:
            raise TraceError("span name must be non-empty")
        if not math.isfinite(start):
            raise TraceError(f"span start must be finite, got {start!r}")
        if parent is not None and parent.trace_id != trace_id:
            raise TraceError(
                f"parent span {parent.span_id} belongs to trace "
                f"{parent.trace_id}, not {trace_id}"
            )
        _check_attributes(attributes)
        sequence = self._next_span.get(trace_id, 0)
        self._next_span[trace_id] = sequence + 1
        return Span(
            trace_id=trace_id,
            span_id=f"{trace_id}.{sequence}",
            name=name,
            start=float(start),
            parent_id=parent.span_id if parent is not None else None,
            attributes=dict(attributes),
        )

    def start_span(
        self,
        trace_id: str,
        name: str,
        t: float,
        *,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Span:
        """Open a span at simulated time ``t``; close with :meth:`end_span`."""
        span = self._allocate(trace_id, name, t, parent, attributes)
        self.spans.append(span)
        return span

    def end_span(self, span: Span, t: float, **attributes: object) -> Span:
        """Close ``span`` at simulated time ``t`` (≥ its start)."""
        if span.end is not None:
            raise TraceError(
                f"span {span.span_id} ({span.name}) already ended"
            )
        if not math.isfinite(t):
            raise TraceError(f"span end must be finite, got {t!r}")
        if t < span.start:
            raise TraceError(
                f"span {span.span_id} would end at {t} before its start "
                f"{span.start}"
            )
        _check_attributes(attributes)
        span.end = float(t)
        span.attributes.update(attributes)
        return span

    def span(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Span:
        """Record an already-closed span (the common case for layers
        that compute a latency and know both endpoints at once)."""
        opened = self.start_span(trace_id, name, start, parent=parent)
        return self.end_span(opened, end, **attributes)

    def merge(self, other: "TraceLog") -> None:
        """Append another log's spans (worker-telemetry aggregation).

        Span ids are kept verbatim — they embed the trace id, which
        embeds the point identity, so logs from distinct sweep points
        cannot collide.  Per-trace sequence counters advance past the
        merged spans so a trace continued in this log stays dense.
        """
        for span in other.spans:
            self.spans.append(span)
        for trace_id, next_sequence in other._next_span.items():
            mine = self._next_span.get(trace_id, 0)
            self._next_span[trace_id] = max(mine, next_sequence)

    # -- queries ----------------------------------------------------------------

    def spans_of(self, trace_id: str) -> List[Span]:
        """All spans of one trace, in allocation order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def root_of(self, trace_id: str) -> Optional[Span]:
        """The trace's first parentless span, if any."""
        for span in self.spans:
            if span.trace_id == trace_id and span.parent_id is None:
                return span
        return None

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in allocation order."""
        return [
            candidate
            for candidate in self.spans
            if candidate.trace_id == span.trace_id
            and candidate.parent_id == span.span_id
        ]

    # -- analysis ----------------------------------------------------------------

    def breakdown(self, trace_id: str) -> Dict[str, float]:
        """Total closed-span time per span name — the latency breakdown.

        The root's duration is the request's end-to-end latency; the
        named children decompose it (L2 lookup, bus queue, DRAM …).
        Open spans are skipped — audit completeness separately via
        :meth:`open_spans`.
        """
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.trace_id != trace_id or span.end is None:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def critical_path(self, trace_id: str) -> List[Span]:
        """Root-to-leaf chain of last-finishing closed descendants.

        At every level the child that finished last is the one that
        gated its parent's completion; following that child downward
        names the stage a latency optimisation must attack first.
        """
        root = self.root_of(trace_id)
        if root is None:
            return []
        path = [root]
        current = root
        while True:
            closed = [
                child
                for child in self.children_of(current)
                if child.end is not None
            ]
            if not closed:
                return path
            current = max(closed, key=lambda span: (span.end, span.start))
            path.append(current)

    def open_spans(self) -> List[Span]:
        """Spans never closed — instrumentation bugs or aborted runs."""
        return [span for span in self.spans if span.end is None]

    # -- export -----------------------------------------------------------------

    def to_jsonl_lines(self) -> Iterator[str]:
        """Canonical one-line-per-span serialisation, allocation order."""
        for span in self.spans:
            yield json.dumps(
                span.to_record(), sort_keys=True, separators=(",", ":")
            )

    def write_jsonl(self, path) -> str:
        """Write every span to ``path`` as JSONL; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line + "\n")
        return str(path)


class NullTraceLog(TraceLog):
    """Trace sink that drops everything (the disabled default).

    Spans are still constructed and returned (so call sites can thread
    parents without branching) but never stored.
    """

    def start_span(
        self,
        trace_id: str,
        name: str,
        t: float,
        *,
        parent: Optional[Span] = None,
        **attributes: object,
    ) -> Span:
        return Span(
            trace_id=trace_id,
            span_id=f"{trace_id}.null",
            name=name,
            start=float(t),
            parent_id=parent.span_id if parent is not None else None,
        )

    def end_span(self, span: Span, t: float, **attributes: object) -> Span:
        span.end = float(t)
        return span
