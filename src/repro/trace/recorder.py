"""Trace recorders: the null object and the JSONL sink.

The emission contract is deliberately minimal so the disabled path is
nearly free: every instrumented component holds a recorder (the shared
:data:`NULL_RECORDER` by default) and guards each emission with::

    if self.trace.enabled:
        self.trace.emit({"type": ..., "t": now, ...})

``enabled`` is a class attribute, so a disabled run costs one attribute
load and a branch per event — no dict building, no I/O.  No benchmark
isolates that cost: ``bench/run.py`` times whole runs with tracing off,
and in its traced round :meth:`JsonlTraceRecorder.emit`
(``trace.emit_s``).
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import IO, Optional, Union

from repro.errors import TraceError
from repro.trace.schema import SCHEMA_VERSION

__all__ = [
    "TraceRecorder",
    "NULL_RECORDER",
    "JsonlTraceRecorder",
    "derive_trace_path",
]


class TraceRecorder:
    """The do-nothing recorder (also the base class for real ones)."""

    #: Emission sites branch on this before building a record dict.
    enabled: bool = False

    def emit(self, record: dict) -> None:
        """Record one event (no-op here)."""

    def close(self) -> None:
        """Flush and release the sink (no-op here)."""


#: The process-wide shared null recorder; safe to share, it holds no state.
NULL_RECORDER = TraceRecorder()


class JsonlTraceRecorder(TraceRecorder):
    """Appends one compact JSON object per event to a JSONL file.

    The header record (``trace-header``, schema version plus any
    ``meta`` the caller supplies) is written on construction, so even an
    empty run produces a parseable trace.

    Args:
        path: Output file (parent directories are created).
        meta: Extra header fields — scheme, seed, node count, duration.
    """

    enabled = True

    def __init__(
        self, path: Union[str, Path], *, meta: Optional[dict] = None
    ):
        self._path = Path(path)
        if self._path.parent != Path("."):
            self._path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._file: Optional[IO[str]] = open(
                self._path, "w", encoding="utf-8"
            )
        except OSError as exc:
            raise TraceError(
                f"cannot open trace file {self._path}: {exc}"
            ) from None
        # json.dumps(record, separators=(",", ":")) builds a fresh C
        # encoder per record; this is the same encoder, made once with
        # the arguments JSONEncoder.iterencode passes it, so every line
        # is byte-identical to json.dumps.  The encoder keeps its
        # circular-reference markers between calls: emit clears them
        # after a failed record.
        spec = json.JSONEncoder(separators=(",", ":"))
        self._markers: dict = {}
        self._encode = c_make_encoder(
            self._markers, spec.default, encode_basestring_ascii,
            spec.indent, spec.key_separator, spec.item_separator,
            spec.sort_keys, spec.skipkeys, spec.allow_nan,
        )
        self.records_written = 0
        header = {"type": "trace-header", "t": 0.0, "schema": SCHEMA_VERSION}
        if meta:
            header.update(meta)
        self.emit(header)

    @property
    def path(self) -> Path:
        """Where the trace is being written."""
        return self._path

    def emit(self, record: dict) -> None:
        if self._file is None:
            raise TraceError(
                f"trace recorder for {self._path} is already closed"
            )
        try:
            chunks = self._encode(record, 0)
        except BaseException:
            self._markers.clear()
            raise
        self._file.write("".join(chunks) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlTraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def derive_trace_path(
    base: Union[str, Path], *, scheme: str, seed: int
) -> str:
    """A per-run trace path derived from a user-supplied base path.

    Multi-run commands (comparisons, seed averages, parallel sweeps)
    cannot write every run into one file; each run gets its own.  When
    ``base`` contains ``{scheme}`` / ``{seed}`` placeholders they are
    substituted; otherwise ``.<scheme>.s<seed>`` is inserted before the
    extension (``out/run.jsonl`` -> ``out/run.incentive.s3.jsonl``).
    """
    text = str(base)
    if "{scheme}" in text or "{seed}" in text:
        return text.format(scheme=scheme, seed=seed)
    path = Path(text)
    suffix = path.suffix or ".jsonl"
    stem = path.name[: -len(path.suffix)] if path.suffix else path.name
    return str(path.with_name(f"{stem}.{scheme}.s{seed}{suffix}"))
