"""Exporters over metrics snapshots: Prometheus text and summary JSON.

The registry's JSONL snapshot is the canonical artefact (byte-stable,
diffable, checked into CI baselines).  This module derives the two
*presentation* formats people actually paste into other tools:

- :func:`prometheus_lines` — the Prometheus text exposition format
  (``# TYPE`` headers, dotted names flattened to underscores, labels
  quoted), so a run's numbers drop straight into promtool or a
  Grafana "explore" box.
- :func:`summary_dict` — a compact roll-up (series counts by type,
  counter totals, event-kind tallies) for the ``repro obs summarize``
  command and the summary-JSON artefact.

Both are pure functions over parsed snapshot records, so they work on
a live registry (``registry.snapshot()``) and on a loaded artefact
(:func:`load_metrics_jsonl`) alike.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterator, List, Optional, Tuple

# DOTALL + \Z so label values containing newlines still parse — the
# exposition renderer escapes them, but the canonical key carries them
# raw.
_KEY_RE = re.compile(
    r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?\Z", re.DOTALL
)

_INVALID_PROM_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a canonical series key back into ``(name, labels)``.

    Inverse of :func:`repro.obs.metrics.metric_key` for the label
    values' string forms: ``"mem.bus.grants{core=3}"`` →
    ``("mem.bus.grants", {"core": "3"})``.
    """
    match = _KEY_RE.match(key)
    if match is None or not match.group("name"):
        raise ValueError(f"unparsable metric key {key!r}")
    name = match.group("name")
    rendered = match.group("labels")
    labels: Dict[str, str] = {}
    if rendered:
        for part in rendered.split(","):
            label, _, value = part.partition("=")
            if not label:
                raise ValueError(f"unparsable label {part!r} in {key!r}")
            labels[label] = value
    return name, labels


def _prometheus_name(name: str) -> str:
    """Flatten a dotted series name into the Prometheus charset."""
    flattened = _INVALID_PROM_CHARS.sub("_", name)
    if flattened and flattened[0].isdigit():
        flattened = "_" + flattened
    return flattened


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format.

    Backslash, double quote, and newline are the three characters the
    format reserves inside quoted label values.  Order matters:
    backslashes first, or the escapes themselves get re-escaped.
    """
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prometheus_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{_prometheus_name(key)}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + rendered + "}"


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    # Prometheus spells the special values NaN/+Inf/-Inf — Python's
    # repr ("nan"/"inf") is not parseable by promtool.
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prometheus_lines(records: List[dict]) -> Iterator[str]:
    """Render snapshot records in the Prometheus text format.

    Histograms become the conventional ``_bucket``/``_count`` series
    with cumulative ``le`` edges; summaries become ``_count``/``_mean``
    (plus min/max gauges when present).  Output order follows the
    snapshot, which is already sorted — so the text is deterministic.
    """
    typed_header_done: Dict[str, str] = {}

    def header(name: str, prom_type: str) -> Iterator[str]:
        if typed_header_done.get(name) != prom_type:
            typed_header_done[name] = prom_type
            yield f"# TYPE {name} {prom_type}"

    for record in records:
        name, labels = parse_metric_key(record["name"])
        flat = _prometheus_name(name)
        kind = record["type"]
        if kind == "counter":
            yield from header(flat + "_total", "counter")
            yield (
                f"{flat}_total{_prometheus_labels(labels)} "
                f"{_format_value(record['value'])}"
            )
        elif kind == "gauge":
            yield from header(flat, "gauge")
            yield (
                f"{flat}{_prometheus_labels(labels)} "
                f"{_format_value(record['value'])}"
            )
        elif kind == "histogram":
            yield from header(flat, "histogram")
            cumulative = 0
            width = record["bucket_width"]
            for edge, count in record["buckets"]:
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_value(edge + width)
                yield (
                    f"{flat}_bucket{_prometheus_labels(bucket_labels)} "
                    f"{cumulative}"
                )
            infinity_labels = dict(labels)
            infinity_labels["le"] = "+Inf"
            yield (
                f"{flat}_bucket{_prometheus_labels(infinity_labels)} "
                f"{record['count']}"
            )
            yield (
                f"{flat}_count{_prometheus_labels(labels)} "
                f"{record['count']}"
            )
        elif kind == "summary":
            yield from header(flat, "summary")
            yield (
                f"{flat}_count{_prometheus_labels(labels)} "
                f"{record['count']}"
            )
            yield (
                f"{flat}_mean{_prometheus_labels(labels)} "
                f"{_format_value(record['mean'])}"
            )
            for bound in ("min", "max"):
                if bound in record:
                    yield (
                        f"{flat}_{bound}{_prometheus_labels(labels)} "
                        f"{_format_value(record[bound])}"
                    )
        else:
            raise ValueError(f"unknown snapshot record type {kind!r}")


def prometheus_text(records: List[dict]) -> str:
    """The full Prometheus exposition as one string.

    An empty snapshot renders as the empty string — a lone ``"\\n"``
    is not a valid exposition body.
    """
    lines = list(prometheus_lines(records))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


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


def _load_jsonl(path) -> List[dict]:
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number + 1}: invalid JSON: {error}"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{line_number + 1}: not a JSON object"
                )
            records.append(record)
    return records


def load_metrics_jsonl(path) -> List[dict]:
    """Parse a metrics snapshot written by ``MetricsRegistry.write_jsonl``."""
    records = _load_jsonl(path)
    for record in records:
        if "type" not in record or "name" not in record:
            raise ValueError(
                f"{path}: not a metrics snapshot (record {record!r})"
            )
    return records


def load_events_jsonl(path) -> List[dict]:
    """Parse an event stream written by ``EventLog.write_jsonl``."""
    records = _load_jsonl(path)
    for record in records:
        if "kind" not in record or "t" not in record:
            raise ValueError(
                f"{path}: not an event stream (record {record!r})"
            )
    return records


def write_prometheus(records: List[dict], path) -> str:
    """Write the Prometheus text rendering to ``path``; returns path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(records))
    return str(path)


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
