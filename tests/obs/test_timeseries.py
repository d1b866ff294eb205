"""Tests for the time-series telemetry layer (`repro.obs.timeseries`).

The load-bearing contracts: schema validation at construction and at
load, deterministic stride decimation in the ring, the flight
recorder's sliding window and dump format, and the writer's dense
sequence across reopens (including torn-tail recovery).
"""

import json

import pytest

from repro.obs import NULL_OBSERVER, Observer
from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry
from repro.obs.timeseries import (
    HISTORY_VERSION,
    FlightRecorder,
    HistoryRing,
    HistorySchemaError,
    HistoryWriter,
    MetricsSampler,
    history_point,
    history_records,
    load_history_jsonl,
    validate_history_record,
    write_history_jsonl,
)


class TestHistoryPoint:
    def test_minimal_point(self):
        point = history_point(1.5, "sample")
        assert point == {"t": 1.5, "kind": "sample"}

    def test_series_and_fields(self):
        point = history_point(
            0.0, "sample", series={"a": 1, "b": 2.5}, note="hi"
        )
        assert point["series"] == {"a": 1, "b": 2.5}
        assert point["note"] == "hi"

    def test_rejects_bad_time(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(HistorySchemaError):
                history_point(bad, "sample")

    def test_rejects_empty_kind(self):
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "")

    def test_rejects_non_numeric_series(self):
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "s", series={"a": "text"})
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "s", series={"a": True})
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "s", series={"a": float("nan")})
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "s", series={"": 1.0})

    def test_rejects_reserved_field_names(self):
        # "t"/"kind"/"series" are shielded by the signature itself;
        # "v" and "seq" must be caught by the schema check.
        for name in ("v", "seq"):
            with pytest.raises(HistorySchemaError):
                history_point(0.0, "s", **{name: 1})

    def test_rejects_non_scalar_fields(self):
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "s", payload=[1, 2])
        with pytest.raises(HistorySchemaError):
            history_point(0.0, "s", value=float("inf"))


class TestRecordsAndValidation:
    def test_dense_seq_from_start(self):
        points = [history_point(float(i), "s") for i in range(3)]
        records = history_records(points, start_seq=5)
        assert [r["seq"] for r in records] == [5, 6, 7]
        assert all(r["v"] == HISTORY_VERSION for r in records)

    def test_validate_record_catches_violations(self):
        good = history_records([history_point(0.0, "s")])[0]
        validate_history_record(good, expect_seq=0)
        for mutate in (
            {"v": 99},
            {"seq": -1},
            {"t": -2.0},
            {"kind": ""},
            {"series": [1]},
            {"series": {"a": "x"}},
            {"extra": [1]},
        ):
            bad = dict(good)
            bad.update(mutate)
            with pytest.raises(HistorySchemaError):
                validate_history_record(bad)
        with pytest.raises(HistorySchemaError):
            validate_history_record(dict(good, seq=3), expect_seq=0)

    def test_write_and_load_round_trip(self, tmp_path):
        points = [
            history_point(0.0, "a", series={"x": 1}),
            history_point(1.0, "b", note="n"),
        ]
        path = tmp_path / "h.jsonl"
        write_history_jsonl(points, path)
        records = load_history_jsonl(path)
        assert len(records) == 2
        assert records[0]["series"] == {"x": 1}
        assert records[1]["note"] == "n"
        assert [r["seq"] for r in records] == [0, 1]

    def test_load_rejects_holes_in_seq(self, tmp_path):
        records = history_records(
            [history_point(0.0, "a"), history_point(1.0, "b")]
        )
        records[1]["seq"] = 7  # hole
        path = tmp_path / "h.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        with pytest.raises(HistorySchemaError):
            load_history_jsonl(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(HistorySchemaError):
            load_history_jsonl(path)


class TestHistoryRing:
    def test_retains_everything_under_capacity(self):
        ring = HistoryRing(capacity=8)
        for i in range(8):
            assert ring.append(history_point(float(i), "s"))
        assert len(ring) == 8
        assert ring.stride == 1 and ring.dropped == 0

    def test_decimation_keeps_every_stride_th_point(self):
        ring = HistoryRing(capacity=4)
        for i in range(16):
            ring.append(history_point(float(i), "s", index=i))
        # Retained indices are exactly the offered indices ≡ 0 mod stride.
        indices = [p["index"] for p in ring.points()]
        assert indices == [
            i for i in range(16) if i % ring.stride == 0
        ]
        assert ring.offered == 16
        assert ring.dropped == 16 - len(ring)
        assert ring.stride in (4, 8)  # power-of-two stride

    def test_two_identically_fed_rings_retain_identical_points(self):
        a, b = HistoryRing(capacity=8), HistoryRing(capacity=8)
        for i in range(100):
            point = history_point(float(i), "s", index=i)
            a.append(dict(point))
            b.append(dict(point))
        assert a.points() == b.points()
        assert a.stride == b.stride and a.dropped == b.dropped

    def test_force_bypasses_the_stride_filter(self):
        ring = HistoryRing(capacity=4)
        for i in range(32):
            ring.append(history_point(float(i), "s", index=i))
        assert ring.stride > 1
        # An index the stride would drop is retained when forced.
        assert ring.append(
            history_point(99.0, "final", index=33), force=True
        )
        assert ring.last()["kind"] == "final"

    def test_payload_shape_and_dense_records(self):
        ring = HistoryRing(capacity=4)
        for i in range(10):
            ring.append(history_point(float(i), "s"))
        payload = ring.to_payload()
        assert payload["version"] == HISTORY_VERSION
        assert payload["offered"] == 10
        assert payload["stride"] == ring.stride
        seqs = [r["seq"] for r in payload["samples"]]
        assert seqs == list(range(len(seqs)))

    def test_write_jsonl_validates(self, tmp_path):
        ring = HistoryRing(capacity=4)
        for i in range(10):
            ring.append(history_point(float(i), "s"))
        path = tmp_path / "ring.jsonl"
        ring.write_jsonl(path)
        assert len(load_history_jsonl(path)) == len(ring)

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            HistoryRing(capacity=1)


class TestMetricsSampler:
    def test_samples_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("reqs").inc(3)
        registry.gauge("depth").set(7)
        sampler = MetricsSampler(HistoryRing(capacity=8))
        point = sampler.sample(registry, 1.0, uptime=1.0)
        assert point["series"] == {"reqs": 3, "depth": 7}
        assert point["uptime"] == 1.0
        assert sampler.samples_taken == 1
        assert sampler.ring.last() is not None

    def test_extra_series_merge(self):
        registry = MetricsRegistry()
        sampler = MetricsSampler()
        point = sampler.sample(registry, 0.0, extra={"x": 1.5})
        assert point["series"] == {"x": 1.5}

    def test_null_registry_yields_empty_series(self):
        # The zero-cost contract: a disabled observer's registry
        # produces an empty (but valid) series.
        sampler = MetricsSampler()
        point = sampler.sample(NullMetricsRegistry(), 0.0)
        assert point["series"] == {}

    def test_scalar_series_is_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        assert list(registry.scalar_series()) == ["a", "b"]


class TestNullObserverRegression:
    def test_null_observer_stays_disabled_and_sampleable(self):
        assert not NULL_OBSERVER.enabled
        assert NULL_OBSERVER.metrics.scalar_series() == {}

    def test_live_observer_series_reflect_activity(self):
        observer = Observer()
        observer.metrics.counter("hits").inc(2)
        assert observer.metrics.scalar_series() == {"hits": 2}


class TestFlightRecorder:
    def test_window_prunes_old_entries(self):
        flight = FlightRecorder(window=10.0)
        flight.note_sample(history_point(0.0, "sample"))
        flight.note_sample(history_point(5.0, "sample"))
        flight.note_sample(history_point(20.0, "sample"))
        points = flight.points(t=20.0, reason="test")
        # The arrival of t=20 pruned everything older than t=10.
        assert points[0]["kind"] == "flight.meta"
        assert points[0]["samples"] == 1
        assert [p["t"] for p in points[1:]] == [20.0]

    def test_note_events_is_incremental(self):
        flight = FlightRecorder(window=100.0)
        log = [
            {"v": 1, "seq": 0, "t": 0.0, "kind": "a"},
            {"v": 1, "seq": 1, "t": 1.0, "kind": "b"},
        ]
        assert flight.note_events(log) == 2
        assert flight.note_events(log) == 0  # nothing new
        log.append({"v": 1, "seq": 2, "t": 2.0, "kind": "c"})
        assert flight.note_events(log) == 1

    def test_dump_is_a_valid_history_file(self, tmp_path):
        flight = FlightRecorder(window=100.0)
        flight.note_sample(history_point(1.0, "sample", series={"x": 1}))
        flight.note_events(
            [{"v": 1, "seq": 0, "t": 1.5, "kind": "serve.shed",
              "tenant": "acme"}]
        )
        path = tmp_path / "flight.jsonl"
        flight.dump(path, t=2.0, reason="breaker:elastic")
        records = load_history_jsonl(path)
        assert records[0]["kind"] == "flight.meta"
        assert records[0]["reason"] == "breaker:elastic"
        assert records[1]["kind"] == "sample"
        assert records[2]["kind"] == "event"
        assert records[2]["event"] == "serve.shed"
        assert records[2]["tenant"] == "acme"
        assert flight.dumps == 1

    def test_count_bounds_hold(self):
        flight = FlightRecorder(window=1e9, max_samples=4, max_events=4)
        for i in range(10):
            flight.note_sample(history_point(float(i), "sample"))
        points = flight.points(t=10.0, reason="test")
        assert points[0]["samples"] == 4

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError):
            FlightRecorder(window=0.0)


class TestHistoryWriter:
    def test_dense_seq_across_reopens(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        with HistoryWriter(path) as writer:
            writer.write(history_point(0.0, "a"))
            writer.write(history_point(1.0, "b"))
        with HistoryWriter(path) as writer:
            assert writer.seq == 2
            writer.write(history_point(2.0, "c"))
        assert [r["seq"] for r in load_history_jsonl(path)] == [0, 1, 2]

    def test_torn_tail_is_trimmed_on_reopen(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        with HistoryWriter(path) as writer:
            writer.write(history_point(0.0, "a"))
        # Simulate a SIGKILL mid-append: a partial, unterminated line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"seq":1,"t":1.0,"ki')
        with HistoryWriter(path) as writer:
            assert writer.seq == 1  # torn record does not count
            writer.write(history_point(2.0, "b"))
        records = load_history_jsonl(path)
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_all_torn_file_recovers_to_empty(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text('{"v":1,"seq":0')  # no newline anywhere
        with HistoryWriter(path) as writer:
            assert writer.seq == 0
            writer.write(history_point(0.0, "a"))
        assert len(load_history_jsonl(path)) == 1

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "h.jsonl"
        with HistoryWriter(path) as writer:
            writer.write(history_point(0.0, "a"))
        assert path.exists()
