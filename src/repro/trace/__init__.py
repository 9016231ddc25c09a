"""Structured run-trace observability.

Every quantitative claim in the paper is a time series over protocol
events, yet a simulation normally exposes only end-of-run aggregates.
This package records the events themselves: a
:class:`~repro.trace.recorder.TraceRecorder` is threaded through the
simulation core (engine, world, links), the token ledger, the
reputation system and the incentive protocol, and — when enabled —
writes one JSON object per event to a JSONL file.

The default recorder is a null object whose :attr:`enabled` flag is
``False``; every emission site guards on that flag, so a run without
tracing pays a single attribute load per event.  No benchmark isolates
that cost: ``bench/run.py`` times whole runs with tracing off, and in
its traced round the enabled recorder's ``emit`` (``trace.emit_s``) and
the replay (``trace.audit_s``).

* :mod:`repro.trace.schema` — the versioned record-type registry and
  per-record validation.
* :mod:`repro.trace.recorder` — the null and JSONL recorders.
* :mod:`repro.trace.audit` — replays a trace into per-node token-flow
  ledgers, reputation time series and a token-conservation audit
  (``repro-dtn trace audit``).
"""

from repro.trace.recorder import (
    NULL_RECORDER,
    JsonlTraceRecorder,
    TraceRecorder,
    derive_trace_path,
)
from repro.trace.schema import SCHEMA_VERSION, iter_trace, validate_record

__all__ = [
    "NULL_RECORDER",
    "TraceRecorder",
    "JsonlTraceRecorder",
    "derive_trace_path",
    "SCHEMA_VERSION",
    "iter_trace",
    "validate_record",
]
