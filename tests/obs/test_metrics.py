"""Tests for the metrics registry."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NullMetricsRegistry,
    metric_key,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("cache.l2.misses", {}) == "cache.l2.misses"

    def test_labels_sorted_into_key(self):
        key = metric_key("bus.grants", {"core": 3, "bank": 1})
        assert key == "bus.grants{bank=1,core=3}"

    def test_same_labels_same_key(self):
        a = metric_key("m", {"a": 1, "b": 2})
        b = metric_key("m", {"b": 2, "a": 1})
        assert a == b

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            metric_key("", {})


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(2.5)
        gauge.add(-1.0)
        assert gauge.value == pytest.approx(1.5)


class TestRegistry:
    def test_series_created_on_first_touch(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        registry.counter("a.b").inc()
        assert registry.value_of("a.b") == 2
        assert len(registry) == 1

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        registry.counter("grants", core=0).inc(3)
        registry.counter("grants", core=1).inc(5)
        assert registry.value_of("grants", core=0) == 3
        assert registry.value_of("grants", core=1) == 5
        assert registry.value_of("grants") is None

    def test_value_of_does_not_create(self):
        registry = MetricsRegistry()
        assert registry.value_of("never.touched") is None
        assert len(registry) == 0

    def test_histogram_and_summary_series(self):
        registry = MetricsRegistry()
        registry.summary("wall").add(1.5)
        assert registry.summary("wall").mean == pytest.approx(1.5)

    def test_snapshot_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("z.gauge").set(1)
        registry.counter("a.counter").inc()
        records = registry.snapshot()
        assert [r["type"] for r in records] == ["counter", "gauge"]
        assert records[0]["name"] == "a.counter"

    def test_jsonl_roundtrip_and_determinism(self, tmp_path):
        def populate():
            registry = MetricsRegistry()
            registry.counter("c", core=1).inc(7)
            registry.gauge("g").set(3.5)
            registry.summary("s").add(1.0)
            return registry

        first = populate().write_jsonl(tmp_path / "a.jsonl")
        second = populate().write_jsonl(tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert first != second  # distinct paths, identical bytes
        for line in a.decode().splitlines():
            record = json.loads(line)
            assert record["type"] in {"counter", "gauge", "summary"}

    def test_totals(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(2)
        registry.counter("b").inc(3)
        registry.gauge("g").set(100)
        series, counted = registry.totals()
        assert series == 3
        assert counted == 5  # gauges excluded


class TestNullRegistry:
    def test_instruments_record_nothing(self):
        """Regression: the disabled observer's registry used to be a
        live MetricsRegistry, so unguarded calls leaked series."""
        registry = NullMetricsRegistry()
        registry.counter("leak", core=1).inc(5)
        registry.gauge("leak.gauge").set(3.0)
        registry.summary("leak.summary").add(1.0)
        assert len(registry) == 0
        assert registry.snapshot() == []
        assert registry.value_of("leak", core=1) is None
        assert registry.totals() == (0, 0)

    def test_instruments_are_shared_singletons(self):
        registry = NullMetricsRegistry()
        assert registry.counter("a") is registry.counter("b", core=1)
        assert registry.gauge("a") is registry.gauge("b")


class TestMerge:
    def test_counters_add_and_gauges_take_incoming(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("c").inc(2)
        parent.gauge("g").set(1.0)
        worker.counter("c").inc(3)
        worker.counter("only.worker").inc(1)
        worker.gauge("g").set(9.0)
        parent.merge(worker)
        assert parent.value_of("c") == 5
        assert parent.value_of("only.worker") == 1
        assert parent.value_of("g") == 9.0

    def test_summary_without_samples_refuses_to_merge(self):
        """A summary that kept no samples cannot be replayed, and
        pairwise moments are not bit-exact: the merge refuses it
        before touching the parent."""
        parent, worker = MetricsRegistry(), MetricsRegistry()
        worker.counter("c").inc()
        worker.summary("wall", job=1).add(1.5)
        with pytest.raises(ValueError, match=r"'wall\{job=1\}' kept no"):
            parent.merge(worker)
        assert len(parent) == 0

    def test_sample_replay_matches_serial_exactly(self):
        """With retained samples the merged summary is bit-identical to
        the serial registry — the parallel_map artefact contract."""
        values = [0.1, 0.2, 0.3, 0.7, 1.9, 2.3]
        serial = MetricsRegistry()
        for value in values:
            serial.summary("s").add(value)
        parent = MetricsRegistry()
        for chunk in (values[:3], values[3:]):
            worker = MetricsRegistry(record_samples=True)
            for value in chunk:
                worker.summary("s").add(value)
            parent.merge(worker)
        assert list(parent.to_jsonl_lines()) == list(
            serial.to_jsonl_lines()
        )

    def test_merge_order_reproduces_serial_gauge(self):
        serial = MetricsRegistry()
        serial.gauge("last").set(1.0)
        serial.gauge("last").set(2.0)
        parent = MetricsRegistry()
        for value in (1.0, 2.0):
            worker = MetricsRegistry()
            worker.gauge("last").set(value)
            parent.merge(worker)
        assert parent.value_of("last") == serial.value_of("last")
