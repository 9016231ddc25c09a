"""DTN node state.

A :class:`Node` is the per-device state shared by every routing scheme:
identity, role in the user hierarchy, direct social interests, the
finite message buffer, and delivery bookkeeping.  Protocol-specific
state (ChitChat weights, token balances, reputation books) lives in the
respective protocol components keyed by node id, so the same node
population can be replayed under different schemes — exactly how the
paper compares "ours vs ChitChat" on identical scenarios.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional, Set

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.network.buffer import DropPolicy, MessageBuffer

__all__ = ["Node"]


class Node:
    """One mobile device in the DTN.

    Args:
        node_id: Unique integer id (>= 0).
        interests: Direct social-interest keywords (subscriptions).
        role: User-hierarchy rank; 1 is the top (e.g. Sergeant), larger
            numbers are lower ranks (paper Section 3.2).
        buffer_capacity: Buffer size in bytes (Table 5.1: 250 MB).
        drop_policy: Buffer eviction policy.
        behavior: Optional behaviour profile (honest/selfish/malicious);
            interpreted by :mod:`repro.agents`.
    """

    def __init__(
        self,
        node_id: int,
        interests: Iterable[str],
        *,
        role: int = 1,
        buffer_capacity: int = 250_000_000,
        drop_policy: DropPolicy = DropPolicy.DROP_OLDEST,
        behavior: Optional[Any] = None,
    ):
        if node_id < 0:
            raise ConfigurationError(f"node_id must be >= 0, got {node_id}")
        if role < 1:
            raise ConfigurationError(f"role must be >= 1, got {role}")
        self.node_id = int(node_id)
        self.role = int(role)
        self.interests: FrozenSet[str] = frozenset(interests)
        self.buffer = MessageBuffer(buffer_capacity, drop_policy)
        self.behavior = behavior

        #: UUIDs of messages this node originated.
        self.generated: Set[str] = set()
        #: UUID -> delivery time for messages received *as a destination*.
        self.delivered: Dict[str, float] = {}
        #: UUIDs ever seen (buffered or delivered); used for dedup so the
        #: same message is never accepted twice (the UUID's purpose).
        self.seen: Set[str] = set()

    # ------------------------------------------------------------------
    # Interest predicates
    # ------------------------------------------------------------------
    def is_interested_in(self, message: Message) -> bool:
        """Whether the node has a *direct* interest in any message tag.

        Per ChitChat, a device with a direct interest in a message's
        keywords is a *destination* for it.
        """
        # The keyword tuple, not the frozenset: routers' memo keys build
        # the tuple on every received copy anyway, and a frozenset per
        # copy adds about 7 MB to the paper workload's peak RSS.
        return not self.interests.isdisjoint(message.keyword_sequence)

    def matching_interests(self, message: Message) -> FrozenSet[str]:
        """Direct interests that appear among the message's tags."""
        return self.interests & message.keywords

    # ------------------------------------------------------------------
    # Message custody
    # ------------------------------------------------------------------
    def originate(self, message: Message, now: float) -> None:
        """Record and buffer a message created by this node."""
        if message.source != self.node_id:
            raise ConfigurationError(
                f"node {self.node_id} cannot originate a message whose "
                f"source is {message.source}"
            )
        self.generated.add(message.uuid)
        self.seen.add(message.uuid)
        self.buffer.add(message, now)

    def accept_for_relay(self, message: Message, now: float) -> None:
        """Buffer a message received for forwarding."""
        self.seen.add(message.uuid)
        self.buffer.add(message, now)

    def accept_delivery(self, message: Message, now: float) -> bool:
        """Record a message delivered to this node as a destination.

        Returns:
            ``True`` on first delivery, ``False`` for a duplicate copy
            (per the paper, only the first deliverer is rewarded; the
            UUID guarantees the message "does not get duplicated in any
            device").
        """
        if message.uuid in self.delivered:
            return False
        self.delivered[message.uuid] = float(now)
        self.seen.add(message.uuid)
        return True

    def has_seen(self, uuid: str) -> bool:
        """Whether this node ever held or received the message."""
        return uuid in self.seen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node({self.node_id}, role={self.role}, "
            f"interests={len(self.interests)}, buffered={len(self.buffer)})"
        )
