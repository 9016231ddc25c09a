"""Import/export of ONE-simulator connection event traces.

The ONE simulator's ``ConnectivityONEReport`` emits lines of the form::

    <time> CONN <host1> <host2> up
    <time> CONN <host1> <host2> down

so a contact trace recorded by ONE (or by any tool speaking that
format) can drive this package's protocol simulation directly — and
traces generated here can be replayed inside ONE.  Unterminated
connections are closed at an explicit ``end_time``.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import MobilityError
from repro.mobility.trace import ContactTrace

__all__ = ["load_one_trace", "save_one_trace"]


def _parse_host(token: str, path: Path, line_no: int) -> int:
    """ONE host names may be plain ints or prefixed ids like ``p12``."""
    if token.isdigit():
        return int(token)
    digits = "".join(ch for ch in token if ch.isdigit())
    if digits:
        return int(digits)
    raise MobilityError(
        f"{path}:{line_no}: cannot parse host id from {token!r}"
    )


def load_one_trace(
    path: Union[str, Path], *, end_time: Optional[float] = None
) -> ContactTrace:
    """Read a ONE ``CONN`` event report into a :class:`ContactTrace`.

    Args:
        path: Report file path.
        end_time: Close time for connections that never see a ``down``
            event; defaults to the last event time in the file.

    Raises:
        MobilityError: On malformed lines, ``down`` without ``up``, or
            duplicate ``up`` events for an open pair.
    """
    source = Path(path)
    open_since: Dict[Tuple[int, int], float] = {}
    # Closed contacts as (start, end, a, b) rows, turned into columns.
    rows: List[Tuple[float, float, int, int]] = []
    last_time = 0.0
    with source.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 5 or fields[1].upper() != "CONN":
                raise MobilityError(
                    f"{source}:{line_no}: expected "
                    f"'<time> CONN <h1> <h2> up|down', got {line!r}"
                )
            try:
                time = float(fields[0])
            except ValueError as exc:
                raise MobilityError(
                    f"{source}:{line_no}: bad timestamp {fields[0]!r}"
                ) from exc
            if not (math.isfinite(time) and time >= 0.0):
                raise MobilityError(
                    f"{source}:{line_no}: timestamp must be finite and "
                    f">= 0, got {fields[0]!r}"
                )
            host_a = _parse_host(fields[2], source, line_no)
            host_b = _parse_host(fields[3], source, line_no)
            pair = (host_a, host_b) if host_a < host_b else (host_b, host_a)
            state = fields[4].lower()
            last_time = max(last_time, time)
            if state == "up":
                if pair in open_since:
                    raise MobilityError(
                        f"{source}:{line_no}: duplicate 'up' for open "
                        f"pair {pair}"
                    )
                open_since[pair] = time
            elif state == "down":
                started = open_since.pop(pair, None)
                if started is None:
                    raise MobilityError(
                        f"{source}:{line_no}: 'down' without 'up' for "
                        f"pair {pair}"
                    )
                if time > started:
                    rows.append((started, time, *pair))
            else:
                raise MobilityError(
                    f"{source}:{line_no}: unknown state {fields[4]!r}"
                )
    close_at = end_time if end_time is not None else last_time
    for pair, started in sorted(open_since.items()):
        if close_at > started:
            rows.append((started, close_at, *pair))
    starts, ends, node_a, node_b = zip(*rows) if rows else ((), (), (), ())
    return ContactTrace.from_columns(starts, ends, node_a, node_b)


def save_one_trace(trace: ContactTrace, path: Union[str, Path]) -> None:
    """Write a trace as a ONE-compatible ``CONN`` event report."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for time, kind, (a, b) in trace.events():
            handle.write(f"{time:.3f} CONN {a} {b} {kind}\n")
