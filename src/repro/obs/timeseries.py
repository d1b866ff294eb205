"""Time-series telemetry: the history record and its stream.

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

Everything here is pure bookkeeping over values the caller provides.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

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

    Points carry no ``v``/``seq`` — :class:`HistoryWriter` assigns
    them as it appends, so the written file has a dense sequence.
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
    stream and ``BENCH_history.jsonl``.  An unterminated final line is
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
