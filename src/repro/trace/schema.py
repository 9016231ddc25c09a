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

import json
from pathlib import Path
from typing import Dict, Iterator, Tuple, Union

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


def validate_record(record: object) -> None:
    """Check one decoded record against the registry.

    Raises:
        TraceError: If the record is not a dict, has an unknown type, a
            missing/ill-typed field, or any field the registry does not
            declare.
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


def _numbered_lines(source: Path) -> Iterator[Tuple[int, str]]:
    """``(line number, text)`` for each line of ``source``, read lazily.

    Lines split on ``\\n`` and are numbered from 1.  Recorder output is
    ASCII JSON, one record per ``\\n``-terminated line, so its files
    split exactly as ``str.splitlines`` would split them.
    """
    try:
        handle = open(source, "rb")
    except OSError as exc:
        raise TraceError(f"{source}: unreadable trace file: {exc}") from None
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceError(
                    f"{source}:{lineno}: not valid UTF-8: {exc}"
                ) from None
            yield lineno, text


def iter_trace(
    path: Union[str, Path], *, validate: bool = True
) -> Iterator[dict]:
    """Yield every record of a JSONL trace file, in order.

    The file is read one line at a time, so a replay holds one record in
    memory, not the whole file.

    Args:
        path: The trace file.
        validate: Run :func:`validate_record` on each record (default).

    Raises:
        TraceError: On unreadable files, a line that is not UTF-8,
            malformed JSON, a missing or version-mismatched header, or
            (with ``validate``) any schema violation — always naming
            the offending line.
    """
    source = Path(path)
    first = True
    for lineno, line in _numbered_lines(source):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise TraceError(f"{source}:{lineno}: malformed JSON: {exc}") from None
        if validate:
            try:
                validate_record(record)
            except TraceError as exc:
                raise TraceError(f"{source}:{lineno}: {exc}") from None
        if first:
            first = False
            if not isinstance(record, dict) or record.get("type") != "trace-header":
                raise TraceError(
                    f"{source}:{lineno}: first record must be a trace-header"
                )
            version = record.get("schema")
            if version not in SUPPORTED_VERSIONS:
                raise TraceError(
                    f"{source}: schema version {version!r} is not supported "
                    f"(this build reads versions "
                    f"{sorted(SUPPORTED_VERSIONS)})"
                )
        yield record
    if first:
        raise TraceError(f"{source}: empty trace file (no records)")
