"""Tests for the event-trace schema and recorders (repro.trace)."""

import json

import pytest

from repro.errors import TraceError
from repro.trace.recorder import (
    NULL_RECORDER,
    JsonlTraceRecorder,
    TraceRecorder,
    derive_trace_path,
)
from repro.trace.schema import (
    RECORD_TYPES,
    SCHEMA_VERSION,
    iter_trace,
    validate_record,
)


class TestValidateRecord:
    def test_valid_records_for_every_type(self):
        # Build a minimal valid record for each registered type and
        # check none are rejected — the registry stays self-consistent.
        samples = {
            int: 1, float: 2.5, str: "x", bool: True, dict: {},
        }
        for kind, (required, _optional) in RECORD_TYPES.items():
            record = {"type": kind, "t": 0.0}
            for name, types in required.items():
                record[name] = samples[types[0]]
            validate_record(record)

    def test_rejects_non_dict(self):
        with pytest.raises(TraceError, match="JSON object"):
            validate_record(["delivery"])

    def test_rejects_missing_type(self):
        with pytest.raises(TraceError, match="no string 'type'"):
            validate_record({"t": 0.0})

    def test_rejects_unknown_type(self):
        with pytest.raises(TraceError, match="unknown record type"):
            validate_record({"type": "made-up", "t": 0.0})

    def test_rejects_missing_time(self):
        with pytest.raises(TraceError, match="'t' must be a number"):
            validate_record({"type": "contact-up", "a": 1, "b": 2})

    def test_rejects_boolean_time(self):
        with pytest.raises(TraceError, match="'t' must be a number"):
            validate_record({"type": "contact-up", "t": True, "a": 1, "b": 2})

    def test_rejects_missing_required_field(self):
        with pytest.raises(TraceError, match="missing required field 'b'"):
            validate_record({"type": "contact-up", "t": 1.0, "a": 1})

    def test_rejects_ill_typed_required_field(self):
        with pytest.raises(TraceError, match="field 'a'"):
            validate_record({"type": "contact-up", "t": 1.0,
                             "a": "one", "b": 2})

    def test_rejects_unknown_field(self):
        with pytest.raises(TraceError, match="unknown field 'extra'"):
            validate_record({"type": "contact-up", "t": 1.0,
                             "a": 1, "b": 2, "extra": 3})

    def test_rejects_bool_where_int_expected(self):
        # bool is a subclass of int; the schema must not accept it.
        with pytest.raises(TraceError, match="field 'a'"):
            validate_record({"type": "contact-up", "t": 1.0,
                             "a": True, "b": 2})

    def test_rejects_ill_typed_optional_field(self):
        with pytest.raises(TraceError, match="field 'reason'"):
            validate_record({"type": "contact-down", "t": 1.0,
                             "a": 1, "b": 2, "reason": 7})

    def test_accepts_optional_fields(self):
        validate_record({
            "type": "offer", "t": 5.0, "uuid": "u", "sender": 1,
            "receiver": 2, "role": "relay", "promise": 3.0, "prepay": 1.0,
        })


class TestIterTrace:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _header(self):
        return json.dumps(
            {"type": "trace-header", "t": 0.0, "schema": SCHEMA_VERSION}
        )

    def test_reads_records_in_order(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [
            self._header(),
            json.dumps({"type": "contact-up", "t": 1.0, "a": 1, "b": 2}),
            json.dumps({"type": "contact-down", "t": 2.0, "a": 1, "b": 2}),
        ])
        records = list(iter_trace(path))
        assert [r["type"] for r in records] == [
            "trace-header", "contact-up", "contact-down",
        ]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="unreadable"):
            list(iter_trace(tmp_path / "absent.jsonl"))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty trace"):
            list(iter_trace(path))

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [
            json.dumps({"type": "contact-up", "t": 1.0, "a": 1, "b": 2}),
        ])
        with pytest.raises(TraceError, match="trace-header"):
            list(iter_trace(path))

    def test_future_schema_version_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [
            json.dumps({"type": "trace-header", "t": 0.0,
                        "schema": SCHEMA_VERSION + 1}),
        ])
        with pytest.raises(TraceError, match="not supported"):
            list(iter_trace(path))

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [self._header(), "{broken"])
        with pytest.raises(TraceError, match=":2: malformed JSON"):
            list(iter_trace(path))

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            (self._header() + "\n").encode()
            + b'{"type":"contact-up","t":1.0,"a":1,"b":2}\xff\n'
        )
        with pytest.raises(TraceError, match=":2: not valid UTF-8"):
            list(iter_trace(path))

    def test_schema_violation_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [
            self._header(),
            json.dumps({"type": "contact-up", "t": 1.0, "a": 1}),
        ])
        with pytest.raises(TraceError, match=":2:"):
            list(iter_trace(path))

    def test_validate_false_skips_schema_checks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write(path, [
            self._header(),
            json.dumps({"type": "contact-up", "t": 1.0, "a": 1}),
        ])
        records = list(iter_trace(path, validate=False))
        assert len(records) == 2


class TestRecorders:
    def test_null_recorder_is_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.emit({"type": "anything"})  # no-op, never raises
        NULL_RECORDER.close()

    def test_enabled_is_a_class_attribute(self):
        # The emission guard relies on this being resolvable without
        # instance dict lookups.
        assert TraceRecorder.enabled is False
        assert JsonlTraceRecorder.enabled is True

    def test_writes_header_on_construction(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceRecorder(path, meta={"scheme": "incentive",
                                            "seed": 3}) as recorder:
            assert recorder.records_written == 1
        records = list(iter_trace(path))
        assert records[0]["type"] == "trace-header"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert records[0]["scheme"] == "incentive"
        assert records[0]["seed"] == 3

    def test_emitted_records_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit({"type": "delivery", "t": 9.25,
                           "uuid": "m-1", "node": 4, "first": True})
        records = list(iter_trace(path))
        assert records[-1] == {"type": "delivery", "t": 9.25,
                               "uuid": "m-1", "node": 4, "first": True}

    def test_emit_after_close_raises(self, tmp_path):
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        recorder.close()
        with pytest.raises(TraceError, match="already closed"):
            recorder.emit({"type": "delivery", "t": 0.0})

    def test_close_is_idempotent(self, tmp_path):
        recorder = JsonlTraceRecorder(tmp_path / "t.jsonl")
        recorder.close()
        recorder.close()

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        JsonlTraceRecorder(path).close()
        assert path.exists()

    def test_unopenable_path_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot open"):
            JsonlTraceRecorder(tmp_path)  # a directory, not a file


class TestDeriveTracePath:
    def test_placeholders_are_substituted(self):
        assert derive_trace_path(
            "out/{scheme}/run-s{seed}.jsonl", scheme="chitchat", seed=4
        ) == "out/chitchat/run-s4.jsonl"

    def test_suffix_inserted_before_extension(self):
        assert derive_trace_path(
            "out/run.jsonl", scheme="incentive", seed=3
        ) == "out/run.incentive.s3.jsonl"

    def test_extensionless_base_gets_jsonl(self):
        assert derive_trace_path(
            "out/run", scheme="incentive", seed=1
        ) == "out/run.incentive.s1.jsonl"

    def test_distinct_runs_never_collide(self):
        paths = {
            derive_trace_path("t.jsonl", scheme=scheme, seed=seed)
            for scheme in ("incentive", "chitchat")
            for seed in (1, 2, 3)
        }
        assert len(paths) == 6
