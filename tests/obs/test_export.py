"""Tests for the summary roll-up and the artefact loaders."""

import json

import pytest

from repro.obs.export import (
    load_events_jsonl,
    load_metrics_jsonl,
    summary_dict,
    write_summary_json,
)
from repro.obs.metrics import MetricsRegistry


def sample_registry():
    registry = MetricsRegistry()
    registry.counter("cache.l2.misses", core=0).inc(7)
    registry.gauge("slo.violation_fraction", job=1).set(0.25)
    summary = registry.summary("job.wall_clock")
    for value in (1.0, 3.0):
        summary.add(value)
    return registry


class TestSummaryDict:
    def test_metrics_only(self):
        summary = summary_dict(sample_registry().snapshot())
        assert summary["series"] == 3
        assert summary["series_by_type"] == {
            "counter": 1,
            "gauge": 1,
            "summary": 1,
        }
        assert summary["counter_total"] == 7
        assert summary["top_counters"][0]["name"].startswith(
            "cache.l2.misses"
        )
        assert "events" not in summary

    def test_with_events(self):
        events = [
            {"kind": "a", "t": 0.5},
            {"kind": "b", "t": 1.0},
            {"kind": "a", "t": 2.0},
        ]
        summary = summary_dict([], events)
        assert summary["events"] == 3
        assert summary["event_kinds"] == {"a": 2, "b": 1}
        assert summary["t_first"] == 0.5
        assert summary["t_last"] == 2.0


class TestLoadersAndWriters:
    def test_metrics_roundtrip(self, tmp_path):
        registry = sample_registry()
        path = registry.write_jsonl(tmp_path / "metrics.jsonl")
        assert load_metrics_jsonl(path) == registry.snapshot()

    def test_metrics_loader_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind":"x","t":0.0}\n')
        with pytest.raises(ValueError, match="not a metrics snapshot"):
            load_metrics_jsonl(path)

    def test_events_loader_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"type":"counter","name":"a","value":1}\n')
        with pytest.raises(ValueError, match="not an event stream"):
            load_events_jsonl(path)

    def test_loader_rejects_bad_json_with_location(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type":"counter","name":"a","value":1}\nnope\n')
        with pytest.raises(ValueError, match=":2: invalid JSON"):
            load_metrics_jsonl(path)

    def test_write_summary_json_canonical(self, tmp_path):
        path = write_summary_json(
            sample_registry().snapshot(), tmp_path / "s.json"
        )
        text = (tmp_path / "s.json").read_text()
        assert path == str(tmp_path / "s.json")
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert (
            json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
            == text
        )
