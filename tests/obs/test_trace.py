"""Tests for causal trace spans: ids, trees, analysis, export."""

import json

import pytest

from repro.obs.trace import (
    NullTraceLog,
    Span,
    TraceError,
    TraceLog,
    derive_trace_id,
)


class TestDeriveTraceId:
    def test_deterministic_in_parts(self):
        assert derive_trace_id("job", "bzip2", 3) == derive_trace_id(
            "job", "bzip2", 3
        )

    def test_distinct_parts_distinct_ids(self):
        ids = {derive_trace_id("mem", 0, seq) for seq in range(100)}
        assert len(ids) == 100

    def test_part_boundaries_matter(self):
        # "ab" + "c" must not collide with "a" + "bc".
        assert derive_trace_id("ab", "c") != derive_trace_id("a", "bc")

    def test_sixteen_hex_chars(self):
        trace_id = derive_trace_id("x")
        assert len(trace_id) == 16
        int(trace_id, 16)  # parses as hex

    def test_empty_identity_rejected(self):
        with pytest.raises(TraceError, match="at least one part"):
            derive_trace_id()


class TestSpanRecording:
    def test_span_ids_dense_per_trace(self):
        log = TraceLog()
        tid_a = derive_trace_id("a")
        tid_b = derive_trace_id("b")
        first = log.start_span(tid_a, "root", 0.0)
        second = log.start_span(tid_a, "child", 1.0, parent=first)
        other = log.start_span(tid_b, "root", 0.0)
        assert first.span_id == f"{tid_a}.0"
        assert second.span_id == f"{tid_a}.1"
        assert other.span_id == f"{tid_b}.0"

    def test_closed_span_duration(self):
        log = TraceLog()
        span = log.span(derive_trace_id("t"), "work", 2.0, 5.0, hit=True)
        assert span.duration == pytest.approx(3.0)
        assert span.attributes["hit"] is True

    def test_open_span_duration_raises(self):
        log = TraceLog()
        span = log.start_span(derive_trace_id("t"), "work", 2.0)
        with pytest.raises(TraceError, match="is open"):
            span.duration

    def test_double_close_rejected(self):
        log = TraceLog()
        span = log.span(derive_trace_id("t"), "work", 0.0, 1.0)
        with pytest.raises(TraceError, match="already ended"):
            log.end_span(span, 2.0)

    def test_end_before_start_rejected(self):
        log = TraceLog()
        span = log.start_span(derive_trace_id("t"), "work", 5.0)
        with pytest.raises(TraceError, match="before its start"):
            log.end_span(span, 4.0)

    def test_cross_trace_parent_rejected(self):
        log = TraceLog()
        parent = log.start_span(derive_trace_id("a"), "root", 0.0)
        with pytest.raises(TraceError, match="belongs to trace"):
            log.start_span(derive_trace_id("b"), "child", 0.0, parent=parent)

    def test_non_finite_timestamps_rejected(self):
        log = TraceLog()
        with pytest.raises(TraceError, match="finite"):
            log.start_span(derive_trace_id("t"), "work", float("nan"))
        span = log.start_span(derive_trace_id("t"), "work", 0.0)
        with pytest.raises(TraceError, match="finite"):
            log.end_span(span, float("inf"))

    def test_non_scalar_attribute_rejected(self):
        log = TraceLog()
        with pytest.raises(TraceError, match="JSON scalar"):
            log.start_span(derive_trace_id("t"), "work", 0.0, bad=[1])

    def test_non_finite_attribute_rejected(self):
        log = TraceLog()
        with pytest.raises(TraceError, match="non-finite"):
            log.start_span(
                derive_trace_id("t"), "work", 0.0, bad=float("nan")
            )


def build_request_trace(log, trace_id):
    """A mem.request tree: root with lookup children, DRAM last."""
    root = log.start_span(trace_id, "mem.request", 0.0, core=1)
    log.span(trace_id, "l1.lookup", 0.0, 1.0, parent=root, hit=False)
    log.span(trace_id, "l2.lookup", 1.0, 11.0, parent=root, hit=False)
    log.span(trace_id, "dram.access", 11.0, 111.0, parent=root)
    log.end_span(root, 111.0)
    return root


class TestAnalysis:
    def test_breakdown_sums_by_name(self):
        log = TraceLog()
        trace_id = derive_trace_id("req")
        build_request_trace(log, trace_id)
        breakdown = log.breakdown(trace_id)
        assert breakdown == {
            "mem.request": pytest.approx(111.0),
            "l1.lookup": pytest.approx(1.0),
            "l2.lookup": pytest.approx(10.0),
            "dram.access": pytest.approx(100.0),
        }

    def test_critical_path_follows_last_finisher(self):
        log = TraceLog()
        trace_id = derive_trace_id("req")
        build_request_trace(log, trace_id)
        path = [span.name for span in log.critical_path(trace_id)]
        assert path == ["mem.request", "dram.access"]

    def test_critical_path_empty_for_unknown_trace(self):
        assert TraceLog().critical_path("deadbeef") == []

    def test_open_spans_flags_unclosed(self):
        log = TraceLog()
        trace_id = derive_trace_id("t")
        log.start_span(trace_id, "never.closed", 0.0)
        log.span(trace_id, "closed", 0.0, 1.0)
        assert [s.name for s in log.open_spans()] == ["never.closed"]

    def test_tree_queries(self):
        log = TraceLog()
        trace_id = derive_trace_id("t")
        root = build_request_trace(log, trace_id)
        assert log.root_of(trace_id) is root
        assert [s.name for s in log.children_of(root)] == [
            "l1.lookup",
            "l2.lookup",
            "dram.access",
        ]
        assert len(log.spans_of(trace_id)) == 4


class TestMerge:
    def test_merge_keeps_ids_and_advances_sequences(self):
        parent, worker = TraceLog(), TraceLog()
        trace_id = derive_trace_id("shared")
        worker.span(trace_id, "work", 0.0, 1.0)
        worker.span(trace_id, "work", 1.0, 2.0)
        parent.merge(worker)
        # A span the parent adds to the same trace must stay dense.
        cont = parent.span(trace_id, "more", 2.0, 3.0)
        assert [s.span_id for s in parent.spans_of(trace_id)] == [
            f"{trace_id}.0",
            f"{trace_id}.1",
            f"{trace_id}.2",
        ]
        assert cont.span_id == f"{trace_id}.2"

    def test_merge_order_is_serialisation_order(self):
        parent = TraceLog()
        for label in ("a", "b"):
            worker = TraceLog()
            worker.span(derive_trace_id(label), label, 0.0, 1.0)
            parent.merge(worker)
        assert [s.name for s in parent.spans] == ["a", "b"]


class TestExport:
    def test_jsonl_is_canonical_and_deterministic(self, tmp_path):
        def build():
            log = TraceLog()
            build_request_trace(log, derive_trace_id("req"))
            return log

        first = build().write_jsonl(tmp_path / "a.jsonl")
        second = build().write_jsonl(tmp_path / "b.jsonl")
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert first != second
        records = [json.loads(line) for line in a.decode().splitlines()]
        assert all(
            set(record)
            == {
                "trace_id",
                "span_id",
                "parent_id",
                "name",
                "start",
                "end",
                "attrs",
            }
            for record in records
        )
        assert records[0]["parent_id"] is None
        assert records[1]["parent_id"] == records[0]["span_id"]


class TestNullTraceLog:
    def test_drops_spans_but_returns_usable_objects(self):
        log = NullTraceLog()
        root = log.start_span(derive_trace_id("t"), "root", 0.0)
        child = log.span(
            derive_trace_id("t"), "child", 0.0, 1.0, parent=root
        )
        log.end_span(root, 1.0)
        assert isinstance(root, Span)
        assert child.parent_id == root.span_id
        assert root.end == 1.0
        assert len(log) == 0
        assert log.spans == []
