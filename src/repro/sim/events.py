"""Event primitives for the discrete-event engine.

An :class:`Event` couples a firing time with a zero-argument callback.
The engine fires events in ``(time, priority, sequence)`` order (its heap
holds those keys beside each event) so that simultaneous events fire in
a deterministic order: lower ``priority`` first, then insertion order.  Determinism matters here because the paper's experiments
are averages over seeded runs, and a nondeterministic queue would make runs
irreproducible.

Events are ``__slots__`` dataclasses and labels may be lazy: a callable
label is only rendered when someone actually asks for it (error messages,
debugging), so the hot loop never pays for f-string formatting on the
hundreds of thousands of events a paper-scale run schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

__all__ = ["Event", "EventHandle", "resolve_label"]

#: A label is either the string itself or a zero-argument callable that
#: renders it on demand.
LabelLike = Union[str, Callable[[], str]]


def resolve_label(label: LabelLike) -> str:
    """Render a possibly-lazy event label."""
    return label() if callable(label) else label


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: Simulation time (seconds) at which the event fires.
        priority: Tie-break for simultaneous events; lower fires first.
        sequence: Monotonic insertion counter (assigned by the engine).
        callback: Zero-argument callable invoked when the event fires.
        label: Human-readable tag used in error messages and traces;
            either a string or a zero-argument callable rendered lazily.
        cancelled: Whether the event has been cancelled (lazy deletion).
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: LabelLike = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """A cancellation handle for a scheduled event.

    The engine uses lazy deletion: cancelling marks the event and the
    engine skips it when popped, which keeps cancellation O(1).  The
    handle also notifies the owning engine so it can compact the heap
    once cancelled events dominate the queue.
    """

    __slots__ = ("_event", "_engine")

    def __init__(self, event: Event, engine=None):
        self._event = event
        self._engine = engine

    @property
    def time(self) -> float:
        """Scheduled firing time of the underlying event."""
        return self._event.time

    @property
    def label(self) -> str:
        """Label of the underlying event (lazy labels are rendered)."""
        return resolve_label(self._event.label)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if self._engine is not None:
                self._engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {self.label!r}, {state})"
