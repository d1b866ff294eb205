"""Time-series telemetry: the history record, its stream, and a ring.

The paper evaluates its QoS policies by watching allocations and IPC
evolve *over time* (Figures 4-7); the snapshot artefacts of
:mod:`repro.obs` only show the end state.  This module gives the live
layers (``repro sweep`` progress, the perf-trajectory bench file) a
continuous view without breaking determinism:

- a **history record** schema (versioned JSONL, envelope
  ``{v, seq, t, kind}`` like the event log, plus an optional ``series``
  mapping of metric key to finite number) — one loader/validator
  serves every history stream;
- :class:`HistoryWriter` — append-only JSONL writer that keeps ``seq``
  dense across process restarts (a resumed sweep appends to its
  progress stream; a torn tail from a SIGKILL mid-write is trimmed on
  reopen);
- :func:`load_history_jsonl` — the loader, which validates every
  record and stops at a torn tail, so a reader tailing a live stream
  never trips over a write in flight.

Three in-memory recorders build on the same schema.  Nothing in the
package constructs them; only their tests do:

- :class:`HistoryRing` — a fixed-capacity ring of history points that
  **downsamples deterministically on overflow**: when full it drops
  every other retained point and doubles its stride, so the buffer
  always spans the whole run at geometrically decreasing resolution,
  and two identically-fed rings retain identical points;
- :class:`MetricsSampler` — snapshots a registry's counters and gauges
  into a ring at caller-driven times, so sampling stays
  seed-deterministic: the clock is an argument, never read from the
  host;
- :class:`FlightRecorder` — a crash buffer holding the last *window*
  seconds of samples and events, dumped atomically (fsync + rename) to
  a history JSONL file.

Everything here is pure bookkeeping over values the caller provides.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional

from repro.util.atomicio import write_atomic_text

#: Bump when the envelope or the meaning of ``series`` changes.
HISTORY_VERSION = 1

_ENVELOPE_FIELDS = ("v", "seq", "t", "kind")

#: Field names a history point may not use for free-form payload.
_RESERVED_FIELDS = frozenset(_ENVELOPE_FIELDS) | {"series"}

_SCALAR_TYPES = (str, int, float, bool, type(None))


class HistorySchemaError(ValueError):
    """A history record violates the envelope contract."""


# -- the record schema -------------------------------------------------------


def history_point(
    t: float,
    kind: str,
    *,
    series: Optional[Dict[str, float]] = None,
    **fields: object,
) -> dict:
    """Build one envelope-less history point, validating its payload.

    Points carry no ``v``/``seq`` — those are assigned at
    serialisation time (:class:`HistoryWriter` as it appends,
    :func:`history_records` for a whole batch), so a ring can drop
    points freely and the written file still has a dense sequence.
    """
    if not kind:
        raise HistorySchemaError("history kind must be non-empty")
    t = float(t)
    if not math.isfinite(t) or t < 0:
        raise HistorySchemaError(
            f"history time must be finite and >= 0, got {t!r}"
        )
    point: dict = {"t": t, "kind": kind}
    if series is not None:
        clean: Dict[str, float] = {}
        for name, value in series.items():
            if not isinstance(name, str) or not name:
                raise HistorySchemaError(
                    f"series key must be a non-empty string, got {name!r}"
                )
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise HistorySchemaError(
                    f"series value {name!r} must be a number, got "
                    f"{type(value).__name__}"
                )
            if not math.isfinite(value):
                raise HistorySchemaError(
                    f"series value {name!r} is non-finite ({value!r})"
                )
            clean[name] = value
        point["series"] = clean
    for name, value in fields.items():
        if name in _RESERVED_FIELDS:
            raise HistorySchemaError(
                f"payload field {name!r} collides with the envelope"
            )
        if not isinstance(value, _SCALAR_TYPES):
            raise HistorySchemaError(
                f"payload field {name!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
        if type(value) is float and not math.isfinite(value):
            raise HistorySchemaError(
                f"payload field {name!r} is non-finite ({value!r})"
            )
        point[name] = value
    return point


def history_records(
    points: Iterable[dict], *, start_seq: int = 0
) -> List[dict]:
    """Wrap points in the versioned envelope with a dense sequence."""
    records = []
    for offset, point in enumerate(points):
        record = {"v": HISTORY_VERSION, "seq": start_seq + offset}
        record.update(point)
        records.append(record)
    return records


def history_jsonl_lines(records: Iterable[dict]) -> List[str]:
    """Canonical one-line-per-record serialisation."""
    return [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in records
    ]


def write_history_jsonl(points: Iterable[dict], path) -> str:
    """Atomically write points (enveloped, dense seq) to ``path``."""
    lines = history_jsonl_lines(history_records(points))
    write_atomic_text(path, "".join(line + "\n" for line in lines))
    return str(path)


def validate_history_record(
    record: dict, *, expect_seq: Optional[int] = None
) -> None:
    """Check one parsed history record; raises on violation."""
    if not isinstance(record, dict):
        raise HistorySchemaError(
            f"history record must be an object, got {record!r}"
        )
    for field in _ENVELOPE_FIELDS:
        if field not in record:
            raise HistorySchemaError(
                f"history record missing envelope field {field!r}"
            )
    if record["v"] != HISTORY_VERSION:
        raise HistorySchemaError(
            f"history version {record['v']!r} != {HISTORY_VERSION}"
        )
    if not isinstance(record["seq"], int) or record["seq"] < 0:
        raise HistorySchemaError(f"bad sequence number {record['seq']!r}")
    if expect_seq is not None and record["seq"] != expect_seq:
        raise HistorySchemaError(
            f"non-dense sequence: expected {expect_seq}, "
            f"got {record['seq']}"
        )
    t = record["t"]
    if (
        isinstance(t, bool)
        or not isinstance(t, (int, float))
        or not math.isfinite(t)
        or t < 0
    ):
        raise HistorySchemaError(f"bad history time {t!r}")
    if not isinstance(record["kind"], str) or not record["kind"]:
        raise HistorySchemaError(f"bad history kind {record['kind']!r}")
    series = record.get("series")
    if series is not None:
        if not isinstance(series, dict):
            raise HistorySchemaError(
                f"'series' must be a mapping, got {series!r}"
            )
        for name, value in series.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise HistorySchemaError(
                    f"series value {name!r} is not a number: {value!r}"
                )
            if not math.isfinite(value):
                raise HistorySchemaError(
                    f"series value {name!r} is non-finite ({value!r})"
                )
    for name, value in record.items():
        if name == "series":
            continue
        if not isinstance(value, _SCALAR_TYPES):
            raise HistorySchemaError(
                f"field {name!r} is not a JSON scalar: {value!r}"
            )
        if type(value) is float and not math.isfinite(value):
            raise HistorySchemaError(
                f"field {name!r} is non-finite ({value!r})"
            )


def load_history_jsonl(path) -> List[dict]:
    """Parse and validate a history JSONL file into records.

    The loader for every history-shaped artefact: a sweep's progress
    stream, ``BENCH_history.jsonl``, and a written ring or
    flight-recorder dump.  An unterminated final line is
    an append cut short (or still in flight) and is not a record — the
    rule :class:`HistoryWriter` applies when it reopens the stream.
    """
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise HistorySchemaError(
                    f"{path}:{line_number + 1}: invalid JSON: {error}"
                ) from None
            validate_history_record(record, expect_seq=len(records))
            records.append(record)
    return records


# -- the bounded ring --------------------------------------------------------


class HistoryRing:
    """Fixed-capacity history buffer with deterministic decimation.

    Appends are filtered by a power-of-two ``stride`` that starts at 1.
    When the buffer would exceed ``capacity``, every other retained
    point is dropped (keeping offered indices ≡ 0 mod the doubled
    stride) — so the retained set is always "every stride-th point
    since the start", spanning the whole run at decreasing resolution.
    Two rings fed the same appends retain identical points, which is
    what makes a written ring reproducible.

    ``force=True`` retains a point regardless of the stride filter, so
    a final sample can always be kept and the last record's counter
    totals equal the final accounting.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.stride = 1
        self.offered = 0  # total points offered, retained or not
        self.dropped = 0  # points filtered or decimated away
        self._points: List[dict] = []

    def __len__(self) -> int:
        return len(self._points)

    def append(self, point: dict, *, force: bool = False) -> bool:
        """Offer one point; returns True when it was retained."""
        index = self.offered
        self.offered += 1
        if not force and index % self.stride != 0:
            self.dropped += 1
            return False
        if len(self._points) >= self.capacity:
            self._decimate()
        self._points.append(point)
        return True

    def _decimate(self) -> None:
        """Halve resolution: keep every other point, double the stride."""
        kept = self._points[::2]
        self.dropped += len(self._points) - len(kept)
        self._points = kept
        self.stride *= 2

    def points(self) -> List[dict]:
        """The retained points, oldest first (a copy)."""
        return list(self._points)

    def records(self) -> List[dict]:
        """The retained points as enveloped records, dense seq from 0."""
        return history_records(self._points)

    def last(self) -> Optional[dict]:
        """The newest retained point, or ``None`` when empty."""
        return self._points[-1] if self._points else None

    def to_payload(self) -> dict:
        """The retained history plus the stride/offered/dropped counts."""
        return {
            "version": HISTORY_VERSION,
            "stride": self.stride,
            "offered": self.offered,
            "dropped": self.dropped,
            "samples": self.records(),
        }

    def write_jsonl(self, path) -> str:
        """Atomically write the retained history to ``path``."""
        return write_history_jsonl(self._points, path)


# -- the periodic sampler ----------------------------------------------------


class MetricsSampler:
    """Snapshots a registry's scalar series into a :class:`HistoryRing`.

    The caller owns the clock: :meth:`sample` takes ``t`` explicitly
    (wall-clock seconds or simulated time), so the stream stays
    deterministic for a deterministic caller.
    """

    def __init__(self, ring: Optional[HistoryRing] = None) -> None:
        self.ring = ring if ring is not None else HistoryRing()
        self.samples_taken = 0

    def sample(
        self,
        registry,
        t: float,
        *,
        kind: str = "sample",
        extra: Optional[Dict[str, float]] = None,
        force: bool = False,
        **fields: object,
    ) -> dict:
        """Capture counters and gauges (plus ``extra``) at time ``t``.

        Returns the history point whether or not the ring retained it,
        so callers (the flight recorder feed) always see the sample.
        """
        series = registry.scalar_series()
        if extra:
            series.update(extra)
        point = history_point(t, kind, series=series, **fields)
        self.ring.append(point, force=force)
        self.samples_taken += 1
        return point


# -- the flight recorder -----------------------------------------------------


class FlightRecorder:
    """Crash buffer: the last ``window`` seconds of samples and events.

    Fed from the same stream the history ring sees
    (:meth:`note_sample`) plus the observer's event log
    (:meth:`note_events`, incremental by sequence number).  When the
    caller hits a fault or shuts down, :meth:`dump` writes everything
    still inside the window — newest context, oldest first — as one
    atomic history JSONL file: a ``flight.meta`` record naming the
    reason, the buffered samples, then the buffered events wrapped as
    ``kind="event"`` records.
    """

    def __init__(
        self,
        *,
        window: float = 30.0,
        max_samples: int = 256,
        max_events: int = 1024,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self._samples: Deque[dict] = deque(maxlen=max_samples)
        self._events: Deque[dict] = deque(maxlen=max_events)
        self._events_seen = 0
        self.dumps = 0

    def note_sample(self, point: dict) -> None:
        """Buffer one history point (as built by the sampler)."""
        self._samples.append(point)
        self._prune(point["t"])

    def note_events(self, records: List[dict]) -> int:
        """Absorb new event-log records (incremental; returns count).

        ``records`` is the *full* log (``observer.events.records``);
        only entries past the last absorbed sequence are buffered, so
        calling this periodically is O(new events).
        """
        fresh = records[self._events_seen:]
        self._events_seen = len(records)
        for record in fresh:
            self._events.append(record)
        if fresh:
            self._prune(fresh[-1]["t"])
        return len(fresh)

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        while self._samples and self._samples[0]["t"] < horizon:
            self._samples.popleft()
        while self._events and self._events[0]["t"] < horizon:
            self._events.popleft()

    def points(self, *, t: float, reason: str) -> List[dict]:
        """The dump contents as history points (meta, samples, events)."""
        points = [
            history_point(
                t,
                "flight.meta",
                reason=reason,
                window=self.window,
                samples=len(self._samples),
                events=len(self._events),
            )
        ]
        points.extend(self._samples)
        for event in self._events:
            wrapped: Dict[str, object] = {}
            for name, value in event.items():
                if name in ("v", "seq"):
                    continue
                if name == "kind":
                    wrapped["event"] = value
                elif name == "t" or name not in _RESERVED_FIELDS:
                    wrapped[name] = value
            points.append(
                history_point(
                    wrapped.pop("t"),
                    "event",
                    **wrapped,  # type: ignore[arg-type]
                )
            )
        return points

    def dump(self, path, *, t: float, reason: str) -> str:
        """Atomically write the flight recording to ``path``."""
        written = write_history_jsonl(
            self.points(t=t, reason=reason), path
        )
        self.dumps += 1
        return written


# -- append-across-restarts writer -------------------------------------------


class HistoryWriter:
    """Append-only history JSONL with a dense ``seq`` across reopens.

    A resumed sweep reopens its progress stream and keeps appending;
    ``seq`` continues from the existing record count so the file stays
    valid under :func:`load_history_jsonl`.  A torn final line (a
    SIGKILL mid-write) is trimmed on reopen rather than poisoning the
    stream.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._seq = self._recover()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _recover(self) -> int:
        """Count existing complete records, trimming any torn tail."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return 0
        if not raw:
            return 0
        if not raw.endswith(b"\n"):
            keep = raw[: raw.rfind(b"\n") + 1] if b"\n" in raw else b""
            self.path.write_bytes(keep)
            raw = keep
        return sum(1 for line in raw.splitlines() if line.strip())

    @property
    def seq(self) -> int:
        """The sequence number the next write will get."""
        return self._seq

    def write(self, point: dict) -> dict:
        """Envelope, append, and flush one point; returns the record."""
        record = {"v": HISTORY_VERSION, "seq": self._seq}
        record.update(point)
        self._seq += 1
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self._handle.flush()
        return record

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "HistoryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
