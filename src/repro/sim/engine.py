"""The discrete-event engine.

The engine owns the simulation clock and a binary-heap event queue.  It is
deliberately small: everything domain-specific (contacts, transfers,
message generation) is expressed as scheduled callbacks, exactly as in
event-driven network simulators such as ONE or ns-3.

Heap entries are ``(time, priority, sequence, event)`` tuples, so the
heap orders them with C tuple comparisons; sequences are unique, so the
event itself is never compared.

Cancellation is lazy (cancelled events are skipped when popped), but the
engine compacts the heap whenever cancelled events outnumber live ones —
retransmission backoff under fault injection can otherwise litter the
queue with tens of thousands of dead timers.

Example:
    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule_at(5.0, lambda: fired.append(engine.now))
    >>> engine.run_until(10.0)
    >>> fired
    [5.0]
"""

from __future__ import annotations

import gc
import heapq
import math
from typing import Callable, Iterable, List, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import Event, EventHandle, LabelLike, resolve_label
from repro.trace.recorder import NULL_RECORDER, TraceRecorder

__all__ = ["Engine"]

#: A heap entry: ``(time, priority, sequence, event)``.
_Entry = Tuple[float, int, int, Event]


class Engine:
    """A deterministic discrete-event simulation engine.

    Events scheduled for the same instant fire in (priority, insertion)
    order.  The clock only moves forward; scheduling in the past raises
    :class:`~repro.errors.SchedulingError`.
    """

    #: Queues smaller than this are never compacted — rebuilding them
    #: costs more than lazily skipping a handful of dead events.
    _COMPACT_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0):
        if not math.isfinite(start_time):
            raise SchedulingError(f"start_time must be finite, got {start_time!r}")
        self._now = float(start_time)
        self._queue: List[_Entry] = []
        self._sequence = 0
        self._running = False
        self._events_fired = 0
        self._cancelled_pending = 0
        self._compactions = 0
        #: Event-trace sink; the world swaps in a real recorder when
        #: tracing is enabled.  Never None.
        self.trace: TraceRecorder = NULL_RECORDER

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events in the queue, **including cancelled ones**.

        Cancellation is lazy: a cancelled event stays in the heap (still
        counted here) until its firing time comes around — or until a
        heap compaction drops it — at which point it is discarded
        without running and without incrementing :attr:`events_fired`.
        ``pending`` is therefore an upper bound on the events that will
        actually fire.
        """
        return len(self._queue)

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed so far."""
        return self._compactions

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: LabelLike = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire at absolute simulation ``time``.

        Args:
            time: Absolute firing time; must be >= :attr:`now`.
            callback: Zero-argument callable.
            priority: Tie-break among simultaneous events; lower first.
            label: Tag used in error messages — a string, or a
                zero-argument callable rendered only when the label is
                actually needed.

        Returns:
            A handle that can cancel the event.

        Raises:
            SchedulingError: If ``time`` is in the past or not finite.
        """
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule {resolve_label(label) or 'event'!r} "
                f"at t={time:.6f}, clock is already at t={self._now:.6f}"
            )
        time = float(time)
        sequence = self._sequence
        event = Event(
            time=time,
            priority=priority,
            sequence=sequence,
            callback=callback,
            label=label,
        )
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (time, priority, sequence, event))
        return EventHandle(event, self)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: LabelLike = "",
    ) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay!r}")
        return self.schedule_at(
            self._now + delay, callback, priority=priority, label=label
        )

    def schedule_many(
        self,
        items: "Iterable[Tuple[float, Callable[[], None], int, LabelLike]]",
    ) -> int:
        """Bulk-schedule ``(time, callback, priority, label)`` tuples.

        Fires in exactly the order the equivalent :meth:`schedule_at`
        loop would: sequences are assigned in iteration order and events
        are totally ordered by ``(time, priority, sequence)``, so a
        single O(n) ``heapify`` over the extended queue pops identically
        to n O(log n) pushes.  This is the bulk-load path for contact
        traces and workload plans, whose event counts dominate the queue
        (hundreds of thousands at paper scale, millions beyond).

        The scheduled events are not individually cancellable — bulk
        loads are static by construction.

        Returns:
            The number of events scheduled.

        Raises:
            SchedulingError: If any time is in the past or not finite.
        """
        now = self._now
        sequence = self._sequence
        events: List[_Entry] = []
        try:
            for time, callback, priority, label in items:
                if not math.isfinite(time) or time < now:
                    raise SchedulingError(
                        f"cannot bulk-schedule "
                        f"{resolve_label(label) or 'event'!r} at "
                        f"t={time!r}, clock is at t={now:.6f}"
                    )
                time = float(time)
                events.append((time, priority, sequence, Event(
                    time=time,
                    priority=priority,
                    sequence=sequence,
                    callback=callback,
                    label=label,
                )))
                sequence += 1
        finally:
            # Keep sequences unique even when a bad item aborts the load
            # partway (none of the batch is scheduled in that case).
            self._sequence = sequence
        if events:
            self._queue.extend(events)
            heapq.heapify(self._queue)
        return len(events)

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when an event is cancelled.

        Triggers a compaction once cancelled events outnumber live ones
        (and the queue is large enough for the rebuild to pay off).
        """
        self._cancelled_pending += 1
        if (
            len(self._queue) >= self._COMPACT_MIN_QUEUE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify the survivors.

        Firing order is untouched: events are totally ordered by
        ``(time, priority, sequence)`` (sequence is unique), so any heap
        over the same live set pops in the same order.
        """
        live = [entry for entry in self._queue if not entry[3].cancelled]
        if len(live) != len(self._queue):
            heapq.heapify(live)
            self._queue = live
            self._compactions += 1
        self._cancelled_pending = 0

    def step(self) -> bool:
        """Fire the next pending event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                if self._cancelled_pending:
                    self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._events_fired += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time``.

        Events scheduled exactly at ``end_time`` are fired.  The clock is
        left at ``end_time`` even if the queue drains early, so metric
        windows line up with the configured duration.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.6f} is before current time {self._now:.6f}"
            )
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")
        self._running = True
        # Pause the cyclic collector for the duration of the loop:
        # generation-2 scans over a large world cost ~20% of wall clock
        # at 10k nodes, and the event path leaves no cycles for them to
        # find (a finished transfer drops its event handle and no link
        # keeps finished transfers), so reference counting frees every
        # event, transfer and closed link when it is done.  Every
        # registered scheme is held to that by
        # tests/test_schemes.py::TestWholeCatalog::test_run_leaves_no_cyclic_garbage.
        # Results are byte-identical either way.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            queue = self._queue
            while queue:
                if queue[0][0] > end_time:
                    break
                event = heapq.heappop(queue)[3]
                if event.cancelled:
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
                    continue
                self._now = event.time
                self._events_fired += 1
                event.callback()
                queue = self._queue  # a compaction may have replaced it
            self._now = float(end_time)
            if self.trace.enabled:
                self.trace.emit({
                    "type": "engine-run", "t": self._now,
                    "events": self._events_fired,
                    "pending": len(self._queue),
                })
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def run(self) -> None:
        """Run until the event queue is exhausted."""
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")
        self._running = True
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while self.step():
                pass
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Engine(now={self._now:.3f}, pending={self.pending}, "
            f"fired={self._events_fired})"
        )
