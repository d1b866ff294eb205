"""The structured event log: an append-only, deterministic JSONL stream.

Every decision the simulator makes that a person would want to replay —
admission verdicts, mode downgrades, repartitions, fault injections,
bus grants — is one event record.  Records are dicts with a stable
envelope:

- ``v``    — schema version (:data:`SCHEMA_VERSION`)
- ``seq``  — per-log sequence number, dense from 0
- ``t``    — *simulated* time of the event (never host wall clock)
- ``kind`` — event type, a lowercase dotted identifier

plus free-form, JSON-scalar payload fields.  Because ``t`` is simulated
time and ``seq`` is allocation order, two runs of the same seeded
command emit byte-identical streams — the property the CI smoke job
asserts, and the reason the log is usable as a regression artefact.

Serialisation is canonical: compact separators, sorted keys, one object
per line.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, List, Optional

#: Bump when the envelope or the meaning of a payload field changes.
SCHEMA_VERSION = 1

_ENVELOPE_FIELDS = ("v", "seq", "t", "kind")

_SCALAR_TYPES = (str, int, float, bool, type(None))


class EventSchemaError(ValueError):
    """An event record violates the envelope contract."""


class EventLog:
    """Append-only in-memory event stream with JSONL export."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def __len__(self) -> int:
        return len(self.records)

    def emit(self, kind: str, t: float, **fields: object) -> None:
        """Append one event at simulated time ``t``.

        Payload ``fields`` must be JSON scalars and must not collide
        with the envelope; violations raise immediately so a bad
        instrumentation site fails its own test, not a downstream
        parser.
        """
        if not kind:
            raise EventSchemaError("event kind must be non-empty")
        t = float(t)
        if not math.isfinite(t):
            raise EventSchemaError(f"event time must be finite, got {t!r}")
        for name, value in fields.items():
            if name in _ENVELOPE_FIELDS:
                raise EventSchemaError(
                    f"payload field {name!r} collides with the envelope"
                )
            if not isinstance(value, _SCALAR_TYPES):
                raise EventSchemaError(
                    f"payload field {name!r} must be a JSON scalar, got "
                    f"{type(value).__name__}"
                )
            # NaN/inf are rejected at the emit site: Python's json module
            # would happily write ``NaN``, which is not JSON and does not
            # round-trip through strict parsers — validate_record applies
            # the identical check from the consuming side.
            if type(value) is float and not math.isfinite(value):
                raise EventSchemaError(
                    f"payload field {name!r} is non-finite ({value!r}); "
                    "canonical JSON cannot represent it portably"
                )
        record = {
            "v": SCHEMA_VERSION,
            "seq": len(self.records),
            "t": t,
            "kind": kind,
        }
        record.update(fields)
        self.records.append(record)

    def extend_rebased(self, records: Iterable[dict]) -> int:
        """Append already-emitted records, rewriting their ``seq``.

        The worker-telemetry merge of ``parallel_map``: each worker
        emits a dense local stream, and the parent rebases the streams
        one worker at a time *in input order*, so the merged stream is
        dense, deterministic, and identical to the serial run's stream
        (serial execution visits the same points in the same order).
        Returns the number of records appended.
        """
        appended = 0
        for record in records:
            validate_record(record)
            rebased = dict(record)
            rebased["seq"] = len(self.records)
            self.records.append(rebased)
            appended += 1
        return appended

    def of_kind(self, kind: str) -> List[dict]:
        """All events of one kind, in emission order."""
        return [r for r in self.records if r["kind"] == kind]

    # -- export -----------------------------------------------------------------

    def to_jsonl_lines(self) -> Iterator[str]:
        """Canonical one-line-per-event serialisation."""
        for record in self.records:
            yield json.dumps(record, sort_keys=True, separators=(",", ":"))

    def write_jsonl(self, path) -> str:
        """Write the stream to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line + "\n")
        return str(path)


def validate_record(record: dict, *, expect_seq: Optional[int] = None) -> None:
    """Check one parsed event against the schema; raises on violation."""
    if not isinstance(record, dict):
        raise EventSchemaError(f"event must be an object, got {record!r}")
    for field in _ENVELOPE_FIELDS:
        if field not in record:
            raise EventSchemaError(f"event missing envelope field {field!r}")
    if record["v"] != SCHEMA_VERSION:
        raise EventSchemaError(
            f"schema version {record['v']!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(record["seq"], int) or record["seq"] < 0:
        raise EventSchemaError(f"bad sequence number {record['seq']!r}")
    if expect_seq is not None and record["seq"] != expect_seq:
        raise EventSchemaError(
            f"non-dense sequence: expected {expect_seq}, got {record['seq']}"
        )
    if not isinstance(record["t"], (int, float)) or record["t"] < 0:
        raise EventSchemaError(f"bad event time {record['t']!r}")
    if not isinstance(record["kind"], str) or not record["kind"]:
        raise EventSchemaError(f"bad event kind {record['kind']!r}")
    for name, value in record.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise EventSchemaError(
                f"field {name!r} is not a JSON scalar: {value!r}"
            )
        # Mirror of the emit-site check: the validator and the emitter
        # must agree on what a well-formed stream is.
        if type(value) is float and not math.isfinite(value):
            raise EventSchemaError(
                f"field {name!r} is non-finite ({value!r})"
            )


def validate_jsonl(path) -> int:
    """Validate an events file written by :meth:`EventLog.write_jsonl`.

    Returns the number of valid events; raises :class:`EventSchemaError`
    (or ``json.JSONDecodeError``) on the first violation.  Used by the
    CI observability smoke job.
    """
    count = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise EventSchemaError(
                    f"{path}:{line_number + 1}: invalid JSON: {error}"
                ) from None
            validate_record(record, expect_seq=count)
            count += 1
    return count
