"""Contact links with bandwidth-limited transfers.

While two nodes are in range they share a link with a finite transfer
speed (Table 5.1: 250 kBps).  A transfer of a 1 MB message therefore
occupies the link for four seconds; transfers queued behind it wait, and
everything still in flight when the contact ends is aborted — the
standard ONE-simulator behaviour that makes short contacts deliver fewer
messages.

Each link direction is independently busy (full duplex across
directions, serial within a direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.errors import ConfigurationError, SimulationError
from repro.messages.message import Message
from repro.sim.engine import Engine
from repro.sim.events import EventHandle
from repro.trace.recorder import NULL_RECORDER, TraceRecorder

__all__ = ["Transfer", "Link"]


@dataclass
class Transfer:
    """One in-flight or queued message transfer.

    Attributes:
        message: The message copy being moved.
        sender: Sending node id.
        receiver: Receiving node id.
        duration: Transfer time in seconds (size / link speed).
        on_complete: Called with the transfer when it finishes.
        on_abort: Called with the transfer if the link closes first.
        started_at: Simulation time the transfer began (None if queued).
        completed: Whether the transfer finished successfully.
        aborted: Whether the transfer was cut off by link closure.
    """

    message: Message
    sender: int
    receiver: int
    duration: float
    on_complete: Callable[["Transfer"], None]
    on_abort: Optional[Callable[["Transfer"], None]] = None
    started_at: Optional[float] = None
    completed: bool = False
    aborted: bool = False
    #: Why the transfer aborted: ``"mobility"`` (the contact broke),
    #: ``"loss"`` / ``"corruption"`` (link-layer fault), ``"churn"``
    #: (an endpoint crashed) or ``"blackout"`` (battery depleted).
    abort_reason: Optional[str] = None
    #: The pending completion event; dropped once the transfer finishes
    #: or is cut off, since the event's callback refers back to it.
    _handle: Optional[EventHandle] = field(default=None, repr=False)


class Link:
    """A bidirectional contact link between two nodes.

    Args:
        engine: The event engine used to schedule completions.
        a: First node id.
        b: Second node id.
        speed: Transfer speed in bytes per second (> 0).
        distance: Physical distance between the endpoints in metres
            (used by the energy model via the protocol layer).
        fault_hook: Optional per-transfer fault oracle.  Called when a
            transfer is about to complete; returning a reason string
            (``"loss"``, ``"corruption"``) aborts the transfer with
            that :attr:`Transfer.abort_reason` instead of completing
            it.  ``None`` (the default) keeps the ideal-link behaviour.
        trace: Optional event-trace recorder (``transfer-start``
            records); defaults to the no-op recorder.
    """

    def __init__(
        self,
        engine: Engine,
        a: int,
        b: int,
        *,
        speed: float,
        distance: float = 0.0,
        fault_hook: Optional[Callable[[Transfer], Optional[str]]] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if a == b:
            raise ConfigurationError(f"link endpoints must differ, got {a}")
        if speed <= 0:
            raise ConfigurationError(f"link speed must be > 0, got {speed!r}")
        if distance < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance!r}")
        self._engine = engine
        self.a, self.b = (a, b) if a < b else (b, a)
        self.speed = float(speed)
        self.distance = float(distance)
        self.opened_at = engine.now
        self.closed = False
        self._fault_hook = fault_hook
        self.trace = trace if trace is not None else NULL_RECORDER
        # Per-direction state: key is the sending node id.
        self._active: Dict[int, Optional[Transfer]] = {self.a: None, self.b: None}
        self._queues: Dict[int, Deque[Transfer]] = {
            self.a: deque(), self.b: deque()
        }

    @property
    def pair(self) -> Tuple[int, int]:
        """Canonical ``(a, b)`` endpoint pair."""
        return (self.a, self.b)

    def peer_of(self, node: int) -> int:
        """The other endpoint of the link."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ConfigurationError(f"node {node} is not on link {self.pair}")

    def transfer_time(self, message: Message) -> float:
        """Seconds needed to move ``message`` over this link."""
        return message.size / self.speed

    def busy(self, sender: int) -> bool:
        """Whether ``sender``'s direction currently has a transfer going."""
        self.peer_of(sender)  # validate membership
        return self._active[sender] is not None

    def queued(self, sender: int) -> int:
        """Number of transfers waiting behind the active one."""
        self.peer_of(sender)
        return len(self._queues[sender])

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def send(
        self,
        sender: int,
        message: Message,
        on_complete: Callable[[Transfer], None],
        on_abort: Optional[Callable[[Transfer], None]] = None,
        *,
        duration: Optional[float] = None,
    ) -> Transfer:
        """Enqueue a message transfer from ``sender`` to its peer.

        The transfer starts immediately if the direction is idle,
        otherwise it waits behind earlier transfers.  If the link closes
        before completion, ``on_abort`` fires instead of ``on_complete``.

        Args:
            duration: Optional explicit transfer time; defaults to
                ``size / speed``.  Used by reactive fragmentation, where
                a resumed transfer only moves the remaining bytes.

        Raises:
            SimulationError: If the link is already closed.
        """
        if self.closed:
            raise SimulationError(
                f"cannot send on closed link {self.pair}"
            )
        if duration is not None and duration < 0:
            raise ConfigurationError(
                f"duration must be >= 0, got {duration!r}"
            )
        receiver = self.peer_of(sender)
        transfer = Transfer(
            message=message,
            sender=sender,
            receiver=receiver,
            duration=(
                duration if duration is not None
                else self.transfer_time(message)
            ),
            on_complete=on_complete,
            on_abort=on_abort,
        )
        if self._active[sender] is None:
            self._start(transfer)
        else:
            self._queues[sender].append(transfer)
        return transfer

    def _start(self, transfer: Transfer) -> None:
        transfer.started_at = self._engine.now
        self._active[transfer.sender] = transfer
        if self.trace.enabled:
            self.trace.emit({
                "type": "transfer-start", "t": self._engine.now,
                "uuid": transfer.message.uuid,
                "sender": transfer.sender,
                "receiver": transfer.receiver,
                "duration": transfer.duration,
            })
        # Lazy label: rendered only if the handle is ever inspected.
        transfer._handle = self._engine.schedule_in(
            transfer.duration,
            lambda: self._finish(transfer),
            label=lambda: (
                f"transfer {transfer.message.uuid} "
                f"{transfer.sender}->{transfer.receiver}"
            ),
        )

    def _finish(self, transfer: Transfer) -> None:
        # Break the handle -> event -> callback -> transfer cycle, so
        # reference counting frees all of them once this call returns
        # (the engine runs with the cyclic collector paused).
        transfer._handle = None
        if self.closed or transfer.aborted:
            return
        if self._fault_hook is not None:
            verdict = self._fault_hook(transfer)
            if verdict is not None:
                # The bytes were sent but the frame was lost/mangled:
                # abort with the fault reason, on a link that stays
                # open (so a retransmission can go out immediately).
                transfer.aborted = True
                transfer.abort_reason = verdict
                self._active[transfer.sender] = None
                if transfer.on_abort is not None:
                    transfer.on_abort(transfer)
                self._start_next(transfer.sender)
                return
        transfer.completed = True
        self._active[transfer.sender] = None
        transfer.on_complete(transfer)
        self._start_next(transfer.sender)

    def _start_next(self, sender: int) -> None:
        """Dequeue the next transfer unless a callback already did.

        Completion/abort callbacks may close the link or call
        :meth:`send` re-entrantly (retransmission); both are guarded.
        """
        if self.closed:
            return
        queue = self._queues[sender]
        if queue and self._active[sender] is None:
            self._start(queue.popleft())

    def close(self, reason: str = "mobility") -> List[Transfer]:
        """Tear the link down, aborting in-flight and queued transfers.

        All per-direction state is cleared *before* any ``on_abort``
        callback fires, so a callback that re-entrantly calls
        :meth:`close` is a no-op and one that calls :meth:`send` fails
        cleanly (the link is already closed) without corrupting queues
        or firing callbacks twice.

        Args:
            reason: Recorded as each casualty's
                :attr:`Transfer.abort_reason` (default ``"mobility"``).

        Returns:
            The transfers that were cut off (in-flight first).
        """
        if self.closed:
            return []
        self.closed = True
        casualties: List[Transfer] = []
        for sender in (self.a, self.b):
            active = self._active[sender]
            if active is not None:
                active.aborted = True
                active.abort_reason = reason
                if active._handle is not None:
                    active._handle.cancel()
                    active._handle = None
                casualties.append(active)
                self._active[sender] = None
            while self._queues[sender]:
                waiting = self._queues[sender].popleft()
                waiting.aborted = True
                waiting.abort_reason = reason
                casualties.append(waiting)
        for transfer in casualties:
            if transfer.on_abort is not None:
                transfer.on_abort(transfer)
        return casualties

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"Link({self.a}<->{self.b}, {self.speed:.0f} B/s, {state})"
