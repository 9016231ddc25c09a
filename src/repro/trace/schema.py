"""The versioned event-trace schema.

A trace file is JSON Lines: one record per line, every record a JSON
object with at least a ``type`` (one of :data:`RECORD_TYPES`) and a
``t`` (simulation time in seconds).  The first record of a file is a
``trace-header`` carrying :data:`SCHEMA_VERSION`; the last record of a
completed run is a ``run-end`` snapshot the auditor cross-checks its
replay against.

The registry below is the single source of truth for what each record
type carries.  :func:`validate_record` is strict in both directions —
missing required fields *and* unknown fields are errors — so a typo at
an emission site fails the trace-smoke CI job instead of silently
producing records nobody can replay.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, Optional, Tuple, Union

from repro.errors import TraceError

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "RECORD_TYPES",
    "validate_record",
    "iter_trace",
]

#: Bumped whenever a record type changes incompatibly.  Version 2
#: added the optional heterogeneous-population fields
#: (``delivery.node_class``, ``run-end.node_classes``); version-1 files
#: carry neither and stay readable.
SCHEMA_VERSION = 2

#: Header versions :func:`iter_trace` accepts.  Older versions here are
#: strict subsets of the current registry, so validation of their
#: records needs no special-casing.
SUPPORTED_VERSIONS = frozenset({1, 2})

_NUM = (int, float)
_INT = (int,)
_STR = (str,)
_BOOL = (bool,)
_DICT = (dict,)

#: type -> (required fields, optional fields); every record also
#: requires ``type`` (str) and ``t`` (number), checked separately.
RECORD_TYPES: Dict[str, Tuple[Dict[str, tuple], Dict[str, tuple]]] = {
    # File framing
    "trace-header": (
        {"schema": _INT},
        {"scheme": _STR, "seed": _INT, "n_nodes": _INT, "duration": _NUM},
    ),
    "run-end": (
        {},
        {
            "events": _INT,
            "supply": _NUM,
            "endowment": _NUM,
            "escrow": _NUM,
            "token_payments": _INT,
            "tokens_moved": _NUM,
            "balances": _DICT,
            # node id (as a string key) -> population class name;
            # emitted only by heterogeneous runs (schema v2).
            "node_classes": _DICT,
        },
    ),
    # Simulation core
    "engine-run": ({"events": _INT}, {"pending": _INT}),
    "contact-up": ({"a": _INT, "b": _INT}, {}),
    "contact-down": ({"a": _INT, "b": _INT}, {"reason": _STR}),
    "message-created": (
        {"uuid": _STR, "source": _INT},
        {"size": _INT, "priority": _INT, "quality": _NUM, "intended": _INT},
    ),
    "transfer-start": (
        {"uuid": _STR, "sender": _INT, "receiver": _INT},
        {"duration": _NUM},
    ),
    "transfer-complete": (
        {"uuid": _STR, "sender": _INT, "receiver": _INT}, {}
    ),
    "transfer-abort": (
        {"uuid": _STR, "sender": _INT, "receiver": _INT},
        {"reason": _STR},
    ),
    "delivery": (
        {"uuid": _STR, "node": _INT},
        # node_class: the receiver's population class, emitted only
        # by heterogeneous runs (schema v2).
        {"first": _BOOL, "node_class": _STR},
    ),
    "message-drop": ({"uuid": _STR, "node": _INT}, {}),
    "message-expiry": ({"uuid": _STR, "node": _INT}, {}),
    # Incentive protocol
    "offer": (
        {"uuid": _STR, "sender": _INT, "receiver": _INT, "role": _STR},
        {"award": _NUM, "promise": _NUM, "prepay": _NUM},
    ),
    "offer-declined": (
        {"uuid": _STR, "sender": _INT, "receiver": _INT, "reason": _STR},
        {"role": _STR},
    ),
    "enrichment": (
        {"uuid": _STR, "node": _INT},
        {"keyword": _STR, "relevant": _BOOL},
    ),
    # Token ledger
    "account-open": ({"node": _INT, "amount": _NUM}, {}),
    "transfer-payment": (
        {"payer": _INT, "payee": _INT, "amount": _NUM},
        {"reason": _STR, "key": _STR},
    ),
    "transfer-duplicate": (
        {"payer": _INT, "payee": _INT, "amount": _NUM},
        {"key": _STR},
    ),
    "escrow-hold": (
        {"hold": _INT, "payer": _INT, "amount": _NUM},
        {"reason": _STR, "expires_at": _NUM},
    ),
    "escrow-capture": (
        {"hold": _INT, "payer": _INT, "payee": _INT, "amount": _NUM},
        {"reason": _STR, "key": _STR},
    ),
    "escrow-duplicate": (
        {"hold": _INT, "payer": _INT, "payee": _INT, "amount": _NUM},
        {"key": _STR},
    ),
    "escrow-release": (
        {"hold": _INT, "payer": _INT, "amount": _NUM},
        {"cause": _STR},
    ),
    # Reputation
    "rating": (
        {"rater": _INT, "subject": _INT, "rating": _NUM},
        {"score": _NUM},
    ),
    "gossip": ({"a": _INT, "b": _INT}, {"merged_a": _INT, "merged_b": _INT}),
    "reputation-forget": ({"subject": _INT}, {"books": _INT}),
    # Faults
    "fault-crash": ({"node": _INT}, {"wiped": _BOOL}),
    "fault-restart": ({"node": _INT}, {}),
    "fault-blackout": ({"node": _INT}, {}),
}

_BASE_FIELDS = ("type", "t")


def _compile(
    spec: Tuple[Dict[str, tuple], Dict[str, tuple]],
) -> Tuple[FrozenSet[str], FrozenSet[str], Dict[str, FrozenSet[type]]]:
    """One registry entry as ``(required, allowed, exact)``.

    ``required`` and ``allowed`` are key sets (both include ``type``
    and ``t``); ``exact`` maps each allowed field to the exact
    value types it accepts without further checks.  Those are the
    registry's own tuple members, so ``bool`` passes only where the
    registry names it; a subclass value (an ``IntEnum``, a NumPy float)
    is left to :func:`_check_fields`.
    """
    required, optional = spec
    exact = {"type": frozenset(_STR), "t": frozenset(_NUM)}
    for name, types in {**required, **optional}.items():
        exact[name] = frozenset(types)
    return frozenset(required).union(_BASE_FIELDS), frozenset(exact), exact


#: :data:`RECORD_TYPES`, compiled once for :func:`validate_record`.
_COMPILED = {kind: _compile(spec) for kind, spec in RECORD_TYPES.items()}


def validate_record(record: object) -> None:
    """Check one decoded record against the registry.

    A valid record costs two key-set inclusions and one exact-type test
    per field.  Anything that fails them is walked field by field
    against :data:`RECORD_TYPES`, which names the first problem.

    Raises:
        TraceError: If the record is not a dict, has an unknown type, a
            missing/ill-typed field, or any field the registry does not
            declare.
    """
    kind = record.get("type") if isinstance(record, dict) else None
    spec = _COMPILED.get(kind) if type(kind) is str else None
    if spec is not None:
        required, allowed, exact = spec
        keys = record.keys()
        if keys >= required and keys <= allowed:
            for name, value in record.items():
                if type(value) not in exact[name]:
                    break
            else:
                return
    _check_fields(record)


def _check_fields(record: object) -> None:
    """The registry walk behind :func:`validate_record`.

    Raises the record's first problem, in the order the fields are
    checked (``type``, ``t``, required fields in registry order, then
    the rest in record order), or returns for a valid record whose
    values are subclasses of the registry's types.
    """
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
        if name in _BASE_FIELDS or name in required:
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


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name}")


#: Strict JSON: ``NaN``, ``Infinity`` and ``-Infinity`` are not numbers
#: a trace may carry, so the decoder refuses them.
_decode = json.JSONDecoder(parse_constant=_reject_constant).decode

#: Bytes of whole lines :func:`iter_trace` reads and parses at once
#: (a single longer line is a block of its own).
_BLOCK_BYTES = 1 << 16


def _blocks(source: Path) -> Iterator[Tuple[int, bytes]]:
    """``(first line number, bytes)`` for each block of ``source``.

    Lines split on ``\\n`` only and are numbered from 1.  Every block
    but an unterminated last line ends with ``\\n``.
    """
    try:
        handle = open(source, "rb")
    except OSError as exc:
        raise TraceError(f"{source}: unreadable trace file: {exc}") from None
    with handle:
        lineno = 1
        tail = b""
        while True:
            chunk = handle.read(_BLOCK_BYTES - len(tail))
            if not chunk:
                break
            cut = chunk.rfind(b"\n") + 1
            if cut:
                block = tail + chunk[:cut]
                tail = chunk[cut:]
            else:
                # No line ends in the room left: finish this line and
                # make it a block of its own.
                block = tail + chunk + handle.readline()
                tail = b""
            yield lineno, block
            lineno += block.count(b"\n")
        if tail:
            yield lineno, tail


def _parse_block(block: bytes) -> Optional[list]:
    """A block's records, one per line, from one JSON array parse.

    Returns ``None`` unless the block passes the exactness guard and
    the parse (DESIGN.md §8, "Trace encoding and block replay"): it
    decodes as UTF-8, holds no ``[``, every line starts with ``{`` and
    ends with ``}``, and the array has one element per line.  The
    caller then parses that block line by line.
    """
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = text.count("\n")
    # For a text of \n-terminated lines, "every line is {...}" is: the
    # text starts with "{", ends with "}\n", and each of the other
    # lines - 1 newlines sits in a "}\n{".
    if (
        "[" in text
        or not text.startswith("{")
        or not text.endswith("}\n")
        or text.count("}\n{") != lines - 1
    ):
        return None
    try:
        records = _decode("[" + text[:-1].replace("\n", ",\n") + "]")
    except (ValueError, RecursionError):
        return None
    return records if len(records) == lines else None


def _parse_lines(
    source: Path, start: int, block: bytes
) -> Iterator[Tuple[int, object]]:
    """``(line number, record)`` for each non-blank line of ``block``.

    One decode and one parse per line: the reference reading, which
    names the first offending line.
    """
    for lineno, raw in enumerate(io.BytesIO(block), start):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceError(
                f"{source}:{lineno}: not valid UTF-8: {exc}"
            ) from None
        if not line.strip():
            continue
        try:
            record = _decode(line)
        except ValueError as exc:
            raise TraceError(f"{source}:{lineno}: malformed JSON: {exc}") from None
        yield lineno, record


def iter_trace(
    path: Union[str, Path], *, validate: bool = True
) -> Iterator[dict]:
    """Yield every record of a JSONL trace file, in order.

    The file is read in blocks of at most 64 KiB of whole lines, so a
    replay holds one block in memory, not the whole file.  A block of
    recorder output parses as one JSON array; any other block is parsed
    line by line, with the same records and errors.

    Args:
        path: The trace file.
        validate: Run :func:`validate_record` on each record (default).

    Raises:
        TraceError: On unreadable files, a line that is not UTF-8,
            malformed JSON (including ``NaN`` and ``Infinity``), a
            missing or version-mismatched header, or (with
            ``validate``) any schema violation — always naming the
            offending line.
    """
    source = Path(path)
    first = True
    for start, block in _blocks(source):
        records = _parse_block(block)
        numbered = (
            _parse_lines(source, start, block) if records is None
            else enumerate(records, start)
        )
        for lineno, record in numbered:
            if validate:
                try:
                    validate_record(record)
                except TraceError as exc:
                    raise TraceError(f"{source}:{lineno}: {exc}") from None
            if first:
                first = False
                if not isinstance(record, dict) or (
                    record.get("type") != "trace-header"
                ):
                    raise TraceError(
                        f"{source}:{lineno}: first record must be a "
                        f"trace-header"
                    )
                version = record.get("schema")
                if version not in SUPPORTED_VERSIONS:
                    raise TraceError(
                        f"{source}: schema version {version!r} is not "
                        f"supported (this build reads versions "
                        f"{sorted(SUPPORTED_VERSIONS)})"
                    )
            yield record
    if first:
        raise TraceError(f"{source}: empty trace file (no records)")
