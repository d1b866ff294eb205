"""Tests for the structured event log and its schema validators."""

import json

import pytest

from repro.obs.events import (
    SCHEMA_VERSION,
    EventLog,
    EventSchemaError,
    validate_jsonl,
    validate_record,
)


class TestEmit:
    def test_envelope_fields(self):
        log = EventLog()
        log.emit("admission", 1.5, job_id=3, accepted=True)
        record = log.records[0]
        assert record["v"] == SCHEMA_VERSION
        assert record["seq"] == 0
        assert record["t"] == 1.5
        assert record["kind"] == "admission"
        assert record["job_id"] == 3
        assert record["accepted"] is True

    def test_sequence_is_dense(self):
        log = EventLog()
        for index in range(5):
            log.emit("tick", float(index))
        assert [r["seq"] for r in log.records] == [0, 1, 2, 3, 4]

    def test_empty_kind_rejected(self):
        with pytest.raises(EventSchemaError, match="non-empty"):
            EventLog().emit("", 0.0)

    def test_envelope_collision_rejected(self):
        with pytest.raises(EventSchemaError, match="collides"):
            EventLog().emit("x", 0.0, seq=9)

    def test_non_scalar_payload_rejected(self):
        with pytest.raises(EventSchemaError, match="JSON scalar"):
            EventLog().emit("x", 0.0, payload=[1, 2])

    def test_non_finite_time_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(EventSchemaError, match="finite"):
                EventLog().emit("x", bad)

    def test_non_finite_payload_rejected(self):
        # json.dumps would happily write the non-JSON token ``NaN``,
        # breaking every downstream parser — so emit refuses.
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(EventSchemaError, match="non-finite"):
                EventLog().emit("x", 0.0, value=bad)

    def test_bools_are_not_floats(self):
        log = EventLog()
        log.emit("x", 0.0, flag=True)  # must not trip the finite check
        assert log.records[0]["flag"] is True

    def test_kind_queries(self):
        log = EventLog()
        log.emit("a", 0.0)
        log.emit("b", 1.0)
        log.emit("a", 2.0)
        assert [r["t"] for r in log.of_kind("a")] == [0.0, 2.0]
        assert len(log) == 3


class TestSerialisation:
    def test_lines_are_canonical_json(self):
        log = EventLog()
        log.emit("z", 0.5, beta=1, alpha=2)
        (line,) = list(log.to_jsonl_lines())
        # Keys sorted, compact separators: byte-stable serialisation.
        assert line == (
            '{"alpha":2,"beta":1,"kind":"z","seq":0,"t":0.5,"v":1}'
        )

    def test_write_and_validate_jsonl(self, tmp_path):
        log = EventLog()
        log.emit("a", 0.0, n=1)
        log.emit("b", 2.0, n=None)
        path = log.write_jsonl(tmp_path / "events.jsonl")
        assert validate_jsonl(path) == 2


class TestExtendRebased:
    def test_appends_with_dense_local_sequence(self):
        parent, worker = EventLog(), EventLog()
        parent.emit("local", 0.0)
        worker.emit("remote", 1.0, n=1)
        worker.emit("remote", 2.0, n=2)
        appended = parent.extend_rebased(worker.records)
        assert appended == 2
        assert [r["seq"] for r in parent.records] == [0, 1, 2]
        assert [r["kind"] for r in parent.records] == [
            "local",
            "remote",
            "remote",
        ]
        # The source log is untouched.
        assert [r["seq"] for r in worker.records] == [0, 1]

    def test_rebased_stream_still_validates(self, tmp_path):
        parent, worker = EventLog(), EventLog()
        worker.emit("a", 0.0)
        worker.emit("b", 1.0)
        parent.extend_rebased(worker.records)
        parent.extend_rebased(worker.records)
        path = parent.write_jsonl(tmp_path / "merged.jsonl")
        assert validate_jsonl(path) == 4

    def test_invalid_incoming_record_rejected(self):
        with pytest.raises(EventSchemaError, match="missing envelope"):
            EventLog().extend_rebased([{"kind": "x"}])


class TestValidators:
    def good(self):
        return {"v": SCHEMA_VERSION, "seq": 0, "t": 0.0, "kind": "x"}

    def test_valid_record_passes(self):
        validate_record(self.good(), expect_seq=0)

    def test_missing_envelope_field(self):
        record = self.good()
        del record["t"]
        with pytest.raises(EventSchemaError, match="missing envelope"):
            validate_record(record)

    def test_wrong_version(self):
        record = self.good()
        record["v"] = 99
        with pytest.raises(EventSchemaError, match="schema version"):
            validate_record(record)

    def test_non_dense_sequence(self):
        with pytest.raises(EventSchemaError, match="non-dense"):
            validate_record(self.good(), expect_seq=4)

    def test_negative_time(self):
        record = self.good()
        record["t"] = -1.0
        with pytest.raises(EventSchemaError, match="bad event time"):
            validate_record(record)

    def test_non_finite_payload_rejected_like_emit(self):
        # The validator and the emitter must agree on the schema: a
        # record emit() would refuse is a record validate rejects.
        record = self.good()
        record["value"] = float("nan")
        with pytest.raises(EventSchemaError, match="non-finite"):
            validate_record(record)

    def test_validate_jsonl_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n")
        with pytest.raises(EventSchemaError, match="invalid JSON"):
            validate_jsonl(path)

    def test_validate_jsonl_rejects_gap_in_sequence(self, tmp_path):
        log = EventLog()
        log.emit("a", 0.0)
        log.emit("b", 1.0)
        lines = list(log.to_jsonl_lines())
        record = json.loads(lines[1])
        record["seq"] = 5
        path = tmp_path / "gap.jsonl"
        path.write_text(
            lines[0]
            + "\n"
            + json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        with pytest.raises(EventSchemaError, match="non-dense"):
            validate_jsonl(path)
