"""Contact traces.

A contact is an interval during which two nodes are within radio range.
The protocol simulation consumes contacts as (up, down) events; this
module provides the trace container, the chronological event ticks,
serialisation, and summary statistics.  Traces can come from a mobility
model (via :mod:`repro.mobility.contact`), from a file, or be written by
hand for scripted scenarios.

A :class:`ContactTrace` is a column store: ``start`` and ``end``
(float64) and ``a`` and ``b`` (int64, ``a < b``), kept in
``(start, end, a, b)`` order by one ``np.lexsort``.  Detection, the
trace cache and the engine all read and write the columns; a
:class:`Contact` record is built only when a caller iterates or indexes
a trace.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import MobilityError

__all__ = ["Contact", "ContactTrace"]


def _contact_error(start: float, end: float, a: int, b: int) -> Optional[str]:
    """Why ``(start, end, a, b)`` is not a valid contact, or None.

    The one statement of the contact rules: :class:`Contact` applies it
    to each record, and the columnar constructor to the first row its
    vectorised mask rejects, so both name the field the same way.
    """
    if not math.isfinite(start):
        return f"contact start must be finite, got {start!r}"
    if not math.isfinite(end):
        return f"contact end must be finite, got {end!r}"
    if start < 0:
        return f"contact start must be >= 0, got {start!r}"
    if end <= start:
        return f"contact end ({end!r}) must be after start ({start!r})"
    if a == b:
        return f"contact requires two distinct nodes, got {a}"
    return None


@dataclass(frozen=True)
class Contact:
    """One contact interval between nodes ``a`` and ``b``.

    Attributes:
        start: Contact start time, seconds (finite, ``>= 0``).
        end: Contact end time, seconds (finite, ``end > start``).
        a: First node id (``a < b`` by convention).
        b: Second node id.
    """

    start: float
    end: float
    a: int
    b: int

    def __post_init__(self) -> None:
        error = _contact_error(self.start, self.end, self.a, self.b)
        if error is not None:
            raise MobilityError(error)
        if self.a > self.b:
            # Normalise order so pair identity is canonical.
            low, high = self.b, self.a
            object.__setattr__(self, "a", low)
            object.__setattr__(self, "b", high)

    @property
    def duration(self) -> float:
        """Length of the contact in seconds."""
        return self.end - self.start

    @property
    def pair(self) -> Tuple[int, int]:
        """Canonical ``(a, b)`` pair."""
        return (self.a, self.b)


class ContactTrace:
    """An ordered collection of contacts, stored as columns.

    Attributes:
        start: Start times, float64, in ``(start, end, a, b)`` order.
        end: End times, float64.
        a: Lower node id of each contact, int64.
        b: Higher node id of each contact, int64.

    The columns are read-only arrays; :meth:`add` replaces them.

    Example:
        >>> trace = ContactTrace([Contact(0.0, 10.0, 0, 1)])
        >>> [(t, kind, pair) for t, kind, pair in trace.events()]
        [(0.0, 'up', (0, 1)), (10.0, 'down', (0, 1))]
    """

    def __init__(self, contacts: Iterable[Contact] = ()):
        contacts = list(contacts)
        self._set_columns(
            [c.start for c in contacts], [c.end for c in contacts],
            [c.a for c in contacts], [c.b for c in contacts],
        )

    @classmethod
    def from_columns(cls, start, end, a, b) -> "ContactTrace":
        """Build a trace from parallel columns, in any row order.

        Pairs may be given as ``(b, a)``; each row is checked against
        the :class:`Contact` rules.

        Raises:
            MobilityError: On unequal or non-1-D columns, or naming the
                first invalid row and field.
        """
        trace = cls.__new__(cls)
        trace._set_columns(start, end, a, b)
        return trace

    def _set_columns(self, start, end, a, b) -> None:
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if start.ndim != 1 or not (
            start.shape == end.shape == a.shape == b.shape
        ):
            raise MobilityError(
                "contact columns must be 1-D and of equal length, got "
                f"shapes {start.shape}, {end.shape}, {a.shape}, {b.shape}"
            )
        valid = (
            np.isfinite(start) & np.isfinite(end) & (start >= 0.0)
            & (end > start) & (a != b)
        )
        if not valid.all():
            row = int(np.argmin(valid))
            error = _contact_error(
                float(start[row]), float(end[row]), int(a[row]), int(b[row])
            )
            raise MobilityError(f"contact {row}: {error}")
        low = np.minimum(a, b)
        high = np.maximum(a, b)
        order = np.lexsort((high, low, end, start))
        self.start = start[order]
        self.end = end[order]
        self.a = low[order]
        self.b = high[order]
        for column in (self.start, self.end, self.a, self.b):
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.start.size

    def __iter__(self) -> Iterator[Contact]:
        return map(
            Contact, self.start.tolist(), self.end.tolist(),
            self.a.tolist(), self.b.tolist(),
        )

    def __getitem__(self, index: int) -> Contact:
        return Contact(
            float(self.start[index]), float(self.end[index]),
            int(self.a[index]), int(self.b[index]),
        )

    @property
    def contacts(self) -> Tuple[Contact, ...]:
        """All contacts, sorted by start time."""
        return tuple(self)

    def add(self, contact: Contact) -> None:
        """Insert a contact, keeping start-time order."""
        self._set_columns(
            np.append(self.start, contact.start),
            np.append(self.end, contact.end),
            np.append(self.a, contact.a),
            np.append(self.b, contact.b),
        )

    def ticks(self) -> Iterator[Tuple[float, str, List[Tuple[int, int]]]]:
        """Yield one ``(time, 'up'|'down', pairs)`` batch per tick.

        Every contact is an ``up`` event at its start and a ``down``
        event at its end.  One lexsort orders the events by
        ``(time, down-before-up, a, b)`` — so a pair that disconnects
        and reconnects at the same instant is handled as two distinct
        contacts — and the sorted run is cut wherever the time or the
        kind changes.  Each batch's pairs are ``(a, b)`` tuples of
        Python ints, all built here, before the first batch is yielded;
        a contact's up and down events share one tuple.
        """
        count = len(self)
        if not count:
            return
        # Event i < count is contact i's up, event count + i its down.
        time = np.concatenate([self.start, self.end])
        kind = np.repeat(np.array([1, 0], dtype=np.int8), count)
        node_a = np.concatenate([self.a, self.a])
        node_b = np.concatenate([self.b, self.b])
        order = np.lexsort((node_b, node_a, kind, time))
        time = time[order]
        kind = kind[order]
        pair_of = list(zip(self.a.tolist(), self.b.tolist()))
        pairs = list(map(pair_of.__getitem__, (order % count).tolist()))
        cuts = np.flatnonzero(
            (time[1:] != time[:-1]) | (kind[1:] != kind[:-1])
        ) + 1
        lows = [0, *cuts.tolist()]
        highs = [*lows[1:], 2 * count]
        for t, up, low, high in zip(
            time[lows].tolist(), kind[lows].tolist(), lows, highs
        ):
            yield t, "up" if up else "down", pairs[low:high]

    def events(self) -> Iterator[Tuple[float, str, Tuple[int, int]]]:
        """Yield ``(time, 'up'|'down', (a, b))`` in chronological order.

        The flattening of :meth:`ticks`: for simultaneous events,
        ``down`` sorts before ``up``, then pairs in ``(a, b)`` order.
        """
        for time, kind, pairs in self.ticks():
            for pair in pairs:
                yield time, kind, pair

    def duration(self) -> float:
        """Latest contact end time (0 for an empty trace)."""
        return float(self.end.max()) if len(self) else 0.0

    def total_contact_time(self) -> float:
        """Sum of all contact durations, added in trace order."""
        return sum((self.end - self.start).tolist())

    def contacts_per_pair(self) -> Dict[Tuple[int, int], int]:
        """Number of contacts recorded for each node pair."""
        return dict(Counter(zip(self.a.tolist(), self.b.tolist())))

    def restricted_to(self, nodes: Iterable[int]) -> "ContactTrace":
        """Return a trace containing only contacts among ``nodes``."""
        keep = np.fromiter(set(nodes), dtype=np.int64)
        mask = np.isin(self.a, keep) & np.isin(self.b, keep)
        return ContactTrace.from_columns(
            self.start[mask], self.end[mask],
            self.a[mask], self.b[mask],
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines: one contact object per line."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for start, end, a, b in zip(
                self.start.tolist(), self.end.tolist(),
                self.a.tolist(), self.b.tolist(),
            ):
                record = {"start": start, "end": end, "a": a, "b": b}
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ContactTrace":
        """Read a trace previously written by :meth:`save`.

        Raises:
            MobilityError: Naming ``<file>:<line>`` for a malformed
                record or one that breaks a :class:`Contact` rule.
        """
        source = Path(path)
        rows: List[Tuple[float, float, int, int]] = []
        with source.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    row = (
                        float(record["start"]), float(record["end"]),
                        int(record["a"]), int(record["b"]),
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise MobilityError(
                        f"{source}:{line_no}: malformed contact record: {exc}"
                    ) from exc
                error = _contact_error(*row)
                if error is not None:
                    raise MobilityError(f"{source}:{line_no}: {error}")
                rows.append(row)
        starts, ends, node_a, node_b = zip(*rows) if rows else ((), (), (), ())
        return cls.from_columns(starts, ends, node_a, node_b)

    def save_npz(self, path: Union[str, Path]) -> None:
        """Write the trace as a compressed ``.npz`` column store.

        Columnar float64/int64 arrays round-trip bit-exactly, unlike the
        human-readable JSON-lines format, which makes ``.npz`` the
        format of record for the on-disk trace cache.
        """
        target = Path(path)
        # Write through a handle so numpy cannot append its own ".npz"
        # suffix and silently change the destination path.
        with target.open("wb") as handle:
            np.savez_compressed(
                handle, starts=self.start, ends=self.end,
                node_a=self.a, node_b=self.b,
            )

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "ContactTrace":
        """Read a trace previously written by :meth:`save_npz`.

        Raises:
            MobilityError: Naming the file when it is unreadable, lacks
                a column, or holds a row that breaks a
                :class:`Contact` rule.
        """
        source = Path(path)
        try:
            with np.load(source) as data:
                columns = [
                    data["starts"], data["ends"],
                    data["node_a"], data["node_b"],
                ]
        except (OSError, KeyError, ValueError) as exc:
            raise MobilityError(
                f"{source}: malformed npz contact trace: {exc}"
            ) from exc
        try:
            return cls.from_columns(*columns)
        except MobilityError as exc:
            raise MobilityError(f"{source}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ContactTrace({len(self)} contacts, "
            f"span={self.duration():.1f}s)"
        )
