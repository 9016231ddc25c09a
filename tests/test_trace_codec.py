"""The trace codec against its per-record references.

:class:`~repro.trace.recorder.JsonlTraceRecorder` must write exactly
``json.dumps(record, separators=(",", ":")) + "\\n"`` per record;
:func:`~repro.trace.schema.iter_trace` must yield exactly the records,
or raise at exactly the line, that one ``json.loads`` per line gives;
and :func:`~repro.trace.schema.validate_record` must accept and reject
exactly what the registry walk below does, with the same messages.
"""

import enum
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace import schema
from repro.trace.recorder import JsonlTraceRecorder
from repro.trace.schema import (
    RECORD_TYPES,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    iter_trace,
    validate_record,
)

# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------

_NUM = (int, float)


def _reference_validate(record):
    """The per-field registry walk ``validate_record`` must agree with."""
    if not isinstance(record, dict):
        raise TraceError(f"record must be a JSON object, got {type(record).__name__}")
    kind = record.get("type")
    if not isinstance(kind, str):
        raise TraceError(f"record has no string 'type' field: {record!r}")
    spec = RECORD_TYPES.get(kind)
    if spec is None:
        raise TraceError(f"unknown record type {kind!r}")
    t = record.get("t")
    if not isinstance(t, _NUM) or isinstance(t, bool):
        raise TraceError(f"{kind}: 't' must be a number, got {t!r}")
    required, optional = spec
    for name, types in required.items():
        value = record.get(name)
        if value is None and name not in record:
            raise TraceError(f"{kind}: missing required field {name!r}")
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise TraceError(
                f"{kind}: field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
            )
    for name, value in record.items():
        if name in ("type", "t") or name in required:
            continue
        types = optional.get(name)
        if types is None:
            raise TraceError(f"{kind}: unknown field {name!r}")
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise TraceError(
                f"{kind}: field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
            )


def _refuse_constant(name):
    raise ValueError(name)


def _reference_read(path, validate):
    """One decode and one ``json.loads`` per ``\\n``-terminated line.

    Returns ``(records, error)``: every record read before the first
    problem, and that problem as ``(line, kind)`` (``None`` if none).
    """
    records = []
    first = True
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                return records, (lineno, "not valid UTF-8")
            if not line.strip():
                continue
            try:
                record = json.loads(line, parse_constant=_refuse_constant)
            except ValueError:
                return records, (lineno, "malformed JSON")
            if validate:
                try:
                    _reference_validate(record)
                except TraceError as exc:
                    return records, (lineno, str(exc))
            if first:
                first = False
                if not isinstance(record, dict) or (
                    record.get("type") != "trace-header"
                ):
                    return records, (
                        lineno, "first record must be a trace-header"
                    )
                if record.get("schema") not in SUPPORTED_VERSIONS:
                    return records, (None, "schema version")
            records.append(record)
    if first:
        return records, (None, "empty trace file")
    return records, None


def _read(path, validate):
    """:func:`iter_trace` in the shape of :func:`_reference_read`."""
    records = []
    try:
        for record in iter_trace(path, validate=validate):
            records.append(record)
    except TraceError as exc:
        message = str(exc)
        prefix = f"{path}:"
        assert message.startswith(prefix), message
        located = re.match(r"(\d+): (.*)$", message[len(prefix):], re.S)
        if located is None:
            rest = message[len(prefix):].lstrip()
            kind = "schema version" if rest.startswith("schema version") \
                else rest.split(" (")[0]
            return records, (None, kind)
        lineno, rest = int(located.group(1)), located.group(2)
        for kind in ("not valid UTF-8", "malformed JSON"):
            if rest.startswith(kind):
                return records, (lineno, kind)
        return records, (lineno, rest)
    return records, None


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Text that exercises the block guard and the encoder's escaping.
_TEXT = st.text(
    alphabet=st.sampled_from(
        list("ab-_ 1.[]{},:\"\\\n\r\t") + ["é", "中", " ", "\x7f", "😀"]
    ),
    max_size=12,
)
_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_INT = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
_DICT = st.dictionaries(_TEXT, st.one_of(_INT, _FLOAT, _TEXT), max_size=3)
_VALUES = {int: _INT, float: _FLOAT, str: _TEXT, bool: st.booleans(),
           dict: _DICT}


@st.composite
def _records(draw):
    """A schema-valid record of any registered type."""
    kind = draw(st.sampled_from(sorted(RECORD_TYPES)))
    required, optional = RECORD_TYPES[kind]
    record = {"type": kind, "t": draw(st.one_of(_FLOAT, _INT))}
    for name, types in required.items():
        record[name] = draw(_VALUES[draw(st.sampled_from(types))])
    for name in draw(st.lists(st.sampled_from(sorted(optional)) if optional
                              else st.nothing(), unique=True)):
        record[name] = draw(_VALUES[draw(st.sampled_from(optional[name]))])
    return record


#: Injected damage: (what, where, how much).
_DAMAGE = st.tuples(
    st.sampled_from([
        "blank", "spaces", "crlf", "split", "merge", "merge-comma",
        "bracket", "ff", "nan", "infinity", "schema", "truncate",
    ]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=1, max_value=10 ** 6),
)


def _damage(lines, what, where, amount):
    """Apply one injected fault to ``lines`` (a list of bytes, no
    terminators) in place; ``truncate`` is applied to the file."""
    i = where % len(lines)
    if what == "blank":
        lines.insert(i, b"")
    elif what == "spaces":
        lines.insert(i, b" \t ")
    elif what == "crlf":
        lines[i] += b"\r"
    elif what == "split":
        cut = amount % (len(lines[i]) + 1)
        lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
    elif what in ("merge", "merge-comma") and i + 1 < len(lines):
        glue = b"," if what == "merge-comma" else b""
        lines[i:i + 2] = [lines[i] + glue + lines[i + 1]]
    elif what == "bracket":
        lines.insert(i, b'{"type":"message-drop","t":1.0,"uuid":"[x]","node":2}')
    elif what == "ff":
        cut = amount % (len(lines[i]) + 1)
        lines[i] = lines[i][:cut] + b"\xff" + lines[i][cut:]
    elif what == "schema":
        lines.insert(i, b'{"type":"contact-up","t":1.0,"a":1}')
    elif what in ("nan", "infinity"):
        token = b"NaN" if what == "nan" else b"-Infinity"
        lines[i] = re.sub(rb'"t":[^,}]+', b'"t":' + token, lines[i], count=1)


def _write_trace(path, records):
    with JsonlTraceRecorder(path, meta={"scheme": "incentive"}) as recorder:
        for record in records:
            recorder.emit(record)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


class TestIterTraceMatchesPerLineReference:
    @settings(max_examples=300, deadline=None)
    @given(
        records=st.lists(_records(), max_size=40),
        damage=st.lists(_DAMAGE, max_size=3),
        block=st.sampled_from([64, 200, 1024, 1 << 16]),
    )
    def test_same_records_or_same_error(
        self, tmp_path_factory, records, damage, block
    ):
        path = tmp_path_factory.mktemp("codec") / "t.jsonl"
        _write_trace(path, records)
        lines = path.read_bytes().split(b"\n")[:-1]
        cut = 0
        for what, where, amount in damage:
            if what == "truncate":
                cut = amount % 40
            else:
                _damage(lines, what, where, amount)
        body = b"".join(line + b"\n" for line in lines)
        path.write_bytes(body[: len(body) - cut])
        for validate in (True, False):
            with mock.patch.object(schema, "_BLOCK_BYTES", block):
                got = _read(path, validate)
            assert got == _reference_read(path, validate)

    def test_clean_trace_parses_as_blocks(self, tmp_path):
        # Recorder output passes the guard: no block falls back.
        path = tmp_path / "t.jsonl"
        _write_trace(path, [
            {"type": "contact-up", "t": float(i), "a": i, "b": i + 1}
            for i in range(3000)
        ])
        with mock.patch.object(
            schema, "_parse_lines", side_effect=AssertionError("fallback")
        ):
            records = list(iter_trace(path))
        assert len(records) == 3001
        assert records[-1] == {"type": "contact-up", "t": 2999.0,
                               "a": 2999, "b": 3000}

    def test_lines_longer_than_a_block(self, tmp_path):
        path = tmp_path / "t.jsonl"
        long = {"type": "message-drop", "t": 1.0, "uuid": "u" * 200_000,
                "node": 1}
        short = {"type": "message-drop", "t": 2.0, "uuid": "v", "node": 2}
        _write_trace(path, [long, short, long, long, short])
        assert list(iter_trace(path))[1:] == [long, short, long, long, short]

    @pytest.mark.parametrize("spanning", [
        # An array across the join (the no-"[" guard).
        b'{"type":"contact-up","t":1.0,"a":1,"b":2,"x":[{}\n{}]}\n',
        # An object across the join (the "{ ... }" line guard).
        b'{"type":"contact-up","t":1.0\n"a":1,"b":2}\n',
    ])
    def test_value_across_lines_with_a_merged_line(self, tmp_path, spanning):
        # Each guard alone keeps this block from parsing as one element
        # per line: a value spanning lines 2-3 hides the extra element
        # of the merged line 4, so the counts agree.
        path = tmp_path / "t.jsonl"
        _write_trace(path, [])
        with open(path, "ab") as handle:
            handle.write(
                spanning
                + b'{"type":"contact-up","t":2.0,"a":1,"b":2},{"t":3.0}\n'
            )
        for validate in (True, False):
            assert _read(path, validate) == _reference_read(path, validate)
            assert _read(path, validate)[1] == (2, "malformed JSON")

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_number_names_the_line(self, tmp_path, token):
        path = tmp_path / "t.jsonl"
        _write_trace(path, [{"type": "account-open", "t": 0.0,
                             "node": 1, "amount": 200.0}])
        with open(path, "ab") as handle:
            handle.write(b'{"type":"account-open","t":0.0,"node":2,"amount":'
                         + token + b"}\n")
        for validate in (True, False):
            with pytest.raises(TraceError, match=r"t\.jsonl:3: malformed JSON"):
                list(iter_trace(path, validate=validate))


class TestRecorderMatchesJsonDumps:
    @staticmethod
    def _every_field(kind, text):
        required, optional = RECORD_TYPES[kind]
        samples = {int: -7, float: 0.1 + 0.2, str: text, bool: False,
                   dict: {text: 1.5, "n": None}}
        record = {"type": kind, "t": 1e-300}
        for name, types in {**required, **optional}.items():
            record[name] = samples[types[0]]
        return record

    @pytest.mark.parametrize("kind", sorted(RECORD_TYPES))
    def test_every_record_type(self, tmp_path, kind):
        path = tmp_path / "t.jsonl"
        records = [self._every_field(kind, text)
                   for text in ("plain", "é中😀 \x00\"\\/", "[{]}")]
        _write_trace(path, records)
        header = {"type": "trace-header", "t": 0.0, "schema": SCHEMA_VERSION,
                  "scheme": "incentive"}
        expected = "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in [header] + records
        )
        assert path.read_bytes() == expected.encode("ascii")

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(st.one_of(
        _records(),
        st.dictionaries(_TEXT, st.one_of(
            _INT, st.floats(), _TEXT, st.booleans(), st.none(),
            st.lists(_FLOAT, max_size=2), _DICT,
        ), max_size=4),
    ), max_size=20))
    def test_any_json_value(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("enc") / "t.jsonl"
        _write_trace(path, records)
        lines = path.read_bytes().decode("ascii").split("\n")[1:-1]
        assert lines == [
            json.dumps(record, separators=(",", ":")) for record in records
        ]

    def test_failed_record_leaves_no_stale_markers(self, tmp_path):
        # The reused encoder's circular-reference markers must not
        # outlive a record that failed to encode.
        path = tmp_path / "t.jsonl"
        record = {"type": "message-drop", "t": 1.0, "uuid": object(),
                  "node": 1}
        with JsonlTraceRecorder(path) as recorder:
            with pytest.raises(TypeError):
                recorder.emit(record)
            record["uuid"] = "m-1"
            recorder.emit(record)
        assert list(iter_trace(path))[-1] == record


class _Level(enum.IntEnum):
    ONE = 1


#: Values of every JSON type, plus subclasses of the registry's types.
_ANY_VALUE = st.one_of(
    _INT, st.floats(), _TEXT, st.booleans(), st.none(), _DICT,
    st.lists(_INT, max_size=2),
    st.just(_Level.ONE), st.just(np.float64(2.5)), st.just(np.int64(3)),
)


@st.composite
def _candidate_records(draw):
    """Records near the schema: valid ones with fields dropped, added,
    retyped or reordered, plus non-dicts and bad ``type`` values."""
    shape = draw(st.sampled_from(["record", "non-dict", "bad-type"]))
    if shape == "non-dict":
        return draw(st.one_of(st.lists(_INT, max_size=2), _TEXT, _INT,
                              st.none()))
    record = draw(_records())
    if shape == "bad-type":
        record["type"] = draw(st.one_of(
            _ANY_VALUE, st.just("made-up"), st.just(["list"])
        ))
    names = list(record)
    for name in draw(st.lists(st.sampled_from(names), max_size=2)):
        record.pop(name, None)
    for name in draw(st.lists(st.sampled_from(
        names + ["extra", "t", "type", "schema", "balances"]
    ), max_size=2)):
        record[name] = draw(_ANY_VALUE)
    if draw(st.booleans()):
        items = list(record.items())
        draw(st.randoms()).shuffle(items)
        record = dict(items)
    return record


def _verdict(check, record):
    try:
        check(record)
    except TraceError as exc:
        return str(exc)
    return None


class TestCompiledValidatorMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(record=_candidate_records())
    def test_same_accept_set_and_messages(self, record):
        assert _verdict(validate_record, record) == \
            _verdict(_reference_validate, record)

    @pytest.mark.parametrize("kind", sorted(RECORD_TYPES))
    def test_every_type_with_every_field(self, kind):
        required, optional = RECORD_TYPES[kind]
        record = {"type": kind, "t": 0}
        for name, types in {**required, **optional}.items():
            record[name] = {int: 1, float: 2.5, str: "x", bool: True,
                            dict: {}}[types[0]]
        validate_record(record)
        for name in list(record):
            broken = dict(record)
            broken[name] = [1]
            assert _verdict(validate_record, broken) == \
                _verdict(_reference_validate, broken) is not None
