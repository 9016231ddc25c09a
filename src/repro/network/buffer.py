"""Finite message buffers.

Every DTN node carries in-transit messages in a finite buffer (Table 5.1:
250 MB).  When a new message does not fit, a drop policy decides which
resident messages to evict — or whether to reject the newcomer.  The
paper's incentive scheme argues larger messages deserve more tokens
precisely because they consume more buffer, so buffer accounting must be
byte-accurate.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import BufferError_, ConfigurationError
from repro.messages.message import Message

__all__ = ["DropPolicy", "MessageBuffer"]


class DropPolicy(enum.Enum):
    """What to do when an arriving message does not fit."""

    #: Reject the newcomer; residents are never evicted.
    REJECT = "reject"
    #: Evict oldest-received messages until the newcomer fits (ONE default).
    DROP_OLDEST = "drop-oldest"
    #: Evict lowest-priority (ties: oldest) messages first.
    DROP_LOWEST_PRIORITY = "drop-lowest-priority"


class MessageBuffer:
    """A byte-bounded message store keyed by message UUID.

    Args:
        capacity: Buffer size in bytes (> 0).
        policy: Eviction policy when a newcomer does not fit.

    Example:
        >>> from repro.messages import Message
        >>> buffer = MessageBuffer(capacity=10)
        >>> message = Message(0, 0.0, size=5, quality=0.5)
        >>> buffer.add(message, now=0.0)
        []
    """

    def __init__(
        self,
        capacity: int,
        policy: DropPolicy = DropPolicy.DROP_OLDEST,
    ):
        if capacity <= 0:
            raise ConfigurationError(f"buffer capacity must be > 0, got {capacity}")
        self._capacity = int(capacity)
        self._policy = DropPolicy(policy)
        self._messages: Dict[str, Message] = {}
        self._arrival: Dict[str, float] = {}
        # ``_messages``/``_arrival`` are always mutated together, so
        # their (identical) insertion order doubles as arrival order as
        # long as ``add`` timestamps never run backwards.  Simulation
        # clocks are monotone, so this stays ``False`` in practice and
        # :meth:`messages` skips its sort; an out-of-order add (unit
        # tests construct these) flips it permanently.
        self._unordered = False
        self._max_arrival = float("-inf")
        # Residency-change counter keying the size/quality maxima memo
        # (the incentive layer asks for them on every promise).
        self._mutations = 0
        self._maxima_key = -1
        self._maxima: Tuple[int, float] = (0, 0.0)
        self._used = 0
        self._drops = 0
        self._rejections = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Capacity in bytes."""
        return self._capacity

    @property
    def used(self) -> int:
        """Bytes currently occupied."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes available."""
        return self._capacity - self._used

    @property
    def drops(self) -> int:
        """Number of resident messages evicted so far."""
        return self._drops

    @property
    def rejections(self) -> int:
        """Number of arriving messages rejected so far."""
        return self._rejections

    def __len__(self) -> int:
        return len(self._messages)

    def __contains__(self, uuid: str) -> bool:
        return uuid in self._messages

    def __iter__(self) -> Iterator[Message]:
        return iter(list(self._messages.values()))

    def get(self, uuid: str) -> Optional[Message]:
        """The resident message with ``uuid``, or ``None``."""
        return self._messages.get(uuid)

    def messages(self) -> List[Message]:
        """All resident messages in arrival order."""
        if self._unordered:
            # Stable sort: equal timestamps keep insertion order, which
            # is exactly what the fast path below returns — the two
            # branches agree whenever both are applicable.
            ordered = sorted(self._arrival.items(), key=lambda kv: kv[1])
            return [self._messages[uuid] for uuid, _ in ordered]
        return list(self._messages.values())

    def size_quality_maxima(self) -> Tuple[int, float]:
        """``(max size, max quality)`` over residents, ``(0, 0.0)`` when
        empty.  Cached per residency change: message size and quality
        are immutable, so the maxima only move when membership does.
        """
        if self._maxima_key != self._mutations:
            messages = self._messages.values()
            if messages:
                self._maxima = (
                    max(m.size for m in messages),
                    max(m.quality for m in messages),
                )
            else:
                self._maxima = (0, 0.0)
            self._maxima_key = self._mutations
        return self._maxima

    def arrival_time(self, uuid: str) -> float:
        """When the message with ``uuid`` was stored.

        Raises:
            BufferError_: If the message is not resident.
        """
        try:
            return self._arrival[uuid]
        except KeyError:
            raise BufferError_(f"message {uuid!r} is not in the buffer") from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, message: Message, now: float) -> List[Message]:
        """Store ``message``, evicting residents if the policy allows.

        Returns:
            The list of evicted messages (empty when nothing was dropped).

        Raises:
            BufferError_: If the message is larger than the whole buffer,
                if it is already resident, or if the policy is REJECT and
                it does not fit (the rejection is also counted).
        """
        if message.uuid in self._messages:
            raise BufferError_(f"message {message.uuid!r} is already buffered")
        if message.size > self._capacity:
            self._rejections += 1
            raise BufferError_(
                f"message {message.uuid!r} ({message.size} B) exceeds buffer "
                f"capacity ({self._capacity} B)"
            )
        evicted: List[Message] = []
        if message.size > self.free:
            if self._policy is DropPolicy.REJECT:
                self._rejections += 1
                raise BufferError_(
                    f"buffer full: {self.free} B free, message needs "
                    f"{message.size} B"
                )
            evicted = self._make_room(message.size)
        self._messages[message.uuid] = message
        arrival = float(now)
        self._arrival[message.uuid] = arrival
        if arrival >= self._max_arrival:
            self._max_arrival = arrival
        else:
            self._unordered = True
        self._used += message.size
        self._mutations += 1
        return evicted

    def remove(self, uuid: str) -> Message:
        """Remove and return the message with ``uuid``.

        Raises:
            BufferError_: If the message is not resident.
        """
        message = self._messages.pop(uuid, None)
        if message is None:
            raise BufferError_(f"message {uuid!r} is not in the buffer")
        del self._arrival[uuid]
        self._used -= message.size
        self._mutations += 1
        return message

    def discard(self, uuid: str) -> Optional[Message]:
        """Remove the message if present; return it or ``None``."""
        if uuid not in self._messages:
            return None
        return self.remove(uuid)

    def expire(self, now: float, ttl: float) -> List[Message]:
        """Drop every message older than ``ttl`` seconds.

        Age is measured from message *creation*, matching DTN TTL
        semantics (a copy does not get younger by being forwarded).
        """
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be > 0, got {ttl!r}")
        expired = [
            m for m in self._messages.values() if now - m.created_at > ttl
        ]
        for message in expired:
            self.remove(message.uuid)
            self._drops += 1
        return expired

    def _make_room(self, needed: int) -> List[Message]:
        """Evict residents according to the policy until ``needed`` fits."""
        victims = self._eviction_order()
        evicted: List[Message] = []
        for uuid in victims:
            if needed <= self.free:
                break
            evicted.append(self.remove(uuid))
            self._drops += 1
        if needed > self.free:  # pragma: no cover - guarded by size check
            raise BufferError_("eviction failed to make room")
        return evicted

    def _eviction_order(self) -> List[str]:
        if self._policy is DropPolicy.DROP_OLDEST:
            ranked: List[Tuple[Tuple[float, str], str]] = [
                ((time, uuid), uuid) for uuid, time in self._arrival.items()
            ]
        elif self._policy is DropPolicy.DROP_LOWEST_PRIORITY:
            # Higher Priority value = less important = evicted first;
            # within a priority class the oldest goes first.
            ranked = [
                ((-int(self._messages[uuid].priority), self._arrival[uuid]), uuid)
                for uuid in self._messages
            ]
        else:  # pragma: no cover - REJECT never evicts
            return []
        ranked.sort(key=lambda item: item[0])
        return [uuid for _, uuid in ranked]
