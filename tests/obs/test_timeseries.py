"""Tests for the time-series telemetry layer (`repro.obs.timeseries`).

The load-bearing contracts: schema validation at construction and at
load, and the writer's dense sequence across reopens (including
torn-tail recovery).
"""

import json

import pytest

from repro.obs.timeseries import (
    HISTORY_VERSION,
    HistorySchemaError,
    HistoryWriter,
    history_point,
    load_history_jsonl,
    validate_history_record,
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
    def test_validate_record_catches_violations(self, tmp_path):
        with HistoryWriter(tmp_path / "h.jsonl") as writer:
            good = writer.write(history_point(0.0, "s"))
        assert good["v"] == HISTORY_VERSION
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
        path = tmp_path / "h.jsonl"
        with HistoryWriter(path) as writer:
            writer.write(history_point(0.0, "a", series={"x": 1}))
            writer.write(history_point(1.0, "b", note="n"))
        records = load_history_jsonl(path)
        assert len(records) == 2
        assert records[0]["series"] == {"x": 1}
        assert records[1]["note"] == "n"
        assert [r["seq"] for r in records] == [0, 1]

    def test_load_rejects_holes_in_seq(self, tmp_path):
        path = tmp_path / "h.jsonl"
        with HistoryWriter(path) as writer:
            writer.write(history_point(0.0, "a"))
        records = load_history_jsonl(path)
        hole = dict(records[0], seq=7, kind="b")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(hole) + "\n")
        with pytest.raises(HistorySchemaError):
            load_history_jsonl(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(HistorySchemaError):
            load_history_jsonl(path)


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
