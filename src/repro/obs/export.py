"""Readers and the summary roll-up over run artefacts.

The registry's JSONL snapshot is the one serialised form of a run's
metrics (byte-stable, diffable, checked into CI baselines).  This
module reads it and the event stream back, and derives
:func:`summary_dict` — a compact roll-up (series counts by type,
counter totals, event-kind tallies) that ``repro obs summarize``
prints and can write as canonical JSON.

The loaders serve ``repro obs summarize|top|diff``; the roll-up is a
pure function over parsed snapshot records, so it works on a live
registry (``registry.snapshot()``) and on a loaded artefact
(:func:`load_metrics_jsonl`) alike.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.events import EventSchemaError, validate_record


def summary_dict(
    records: List[dict], events: Optional[List[dict]] = None
) -> dict:
    """Compact roll-up of a run's telemetry for ``repro obs summarize``.

    Deterministic: all values derive from the artefacts, keys sort on
    serialisation.
    """
    by_type: Dict[str, int] = {}
    counter_total: float = 0
    top_counters: List[Tuple[str, object]] = []
    for record in records:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
        if record["type"] == "counter":
            counter_total += record["value"]
            top_counters.append((record["name"], record["value"]))
    top_counters.sort(key=lambda item: (-item[1], item[0]))
    summary = {
        "series": len(records),
        "series_by_type": by_type,
        "counter_total": counter_total,
        "top_counters": [
            {"name": name, "value": value}
            for name, value in top_counters[:10]
        ],
    }
    if events is not None:
        kinds: Dict[str, int] = {}
        for event in events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        summary["events"] = len(events)
        summary["event_kinds"] = kinds
        if events:
            summary["t_first"] = events[0]["t"]
            summary["t_last"] = events[-1]["t"]
    return summary


# -- artefact loading ---------------------------------------------------------------


#: Per record type of a metrics snapshot: the numeric fields it must
#: carry, and those it may.
_METRIC_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "counter": (("value",), ()),
    "gauge": (("value",), ()),
    "summary": (("count",), ("mean", "min", "max")),
}


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _metrics_problem(record: dict, index: int) -> Optional[str]:
    """Why ``record`` is not one ``MetricsRegistry`` writes, or ``None``."""
    kind, name = record.get("type"), record.get("name")
    if kind not in _METRIC_FIELDS:
        return f"not a metrics snapshot (unknown record type {kind!r})"
    if not isinstance(name, str):
        return f"not a metrics snapshot (name {name!r} is not a string)"
    required, optional = _METRIC_FIELDS[kind]
    for field in required + tuple(f for f in optional if f in record):
        value = record.get(field)
        if not _is_number(value):
            return (
                f"not a metrics snapshot ({kind} {name!r} field "
                f"{field!r} must be a number, got {value!r})"
            )
    return None


def _events_problem(record: dict, index: int) -> Optional[str]:
    """Why ``record`` cannot be event ``index`` of a stream, or ``None``.

    The schema's own check, as :func:`repro.obs.events.validate_jsonl`
    applies it: the loader accepts exactly the streams it accepts.
    """
    try:
        validate_record(record, expect_seq=index)
    except EventSchemaError as error:
        return f"not an event stream ({error})"
    return None


def _load_jsonl(
    path, problem: Callable[[dict, int], Optional[str]]
) -> List[dict]:
    """Parse ``path``; a record ``problem`` objects to raises ``ValueError``.

    ``problem`` sees each record with its index among the records.
    """
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_number}: not a JSON object")
            complaint = problem(record, len(records))
            if complaint is not None:
                raise ValueError(f"{path}:{line_number}: {complaint}")
            records.append(record)
    return records


def load_metrics_jsonl(path) -> List[dict]:
    """Parse a metrics snapshot written by ``MetricsRegistry.write_jsonl``.

    Accepts exactly the records the registry writes; any other record
    raises a ``ValueError`` naming the path and the line.
    """
    return _load_jsonl(path, _metrics_problem)


def load_events_jsonl(path) -> List[dict]:
    """Parse an event stream written by ``EventLog.write_jsonl``.

    Accepts exactly the streams ``validate_jsonl`` accepts; any other
    record raises a ``ValueError`` naming the path and the line.
    """
    return _load_jsonl(path, _events_problem)


def write_summary_json(
    records: List[dict], path, events: Optional[List[dict]] = None
) -> str:
    """Write the summary roll-up to ``path`` as canonical JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            summary_dict(records, events),
            handle,
            sort_keys=True,
            separators=(",", ":"),
        )
        handle.write("\n")
    return str(path)
