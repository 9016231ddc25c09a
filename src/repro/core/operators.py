"""The operator functions of Paper I Section 4 as a public facade.

The thesis specifies eleven user/system functions (Annotate, Subscribe,
DecayWeights, IncrementWeights, GetMessagesToForward, DecideDestOrRelay,
DecideBestRelay, ComputeIncentive, RateMessage, RateNode, Enrich).  The
:class:`Operators` facade exposes each one against a running
:class:`~repro.core.protocol.IncentiveChitChatRouter`, so applications
(and the examples in ``examples/``) can drive the mechanism exactly the
way the Android demo app of Paper II does.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.protocol import IncentiveChitChatRouter
from repro.errors import ConfigurationError
from repro.messages.message import Message, Priority

__all__ = ["Operators"]


class Operators:
    """Paper I Section 4 operator functions over a bound protocol.

    Args:
        protocol: An :class:`IncentiveChitChatRouter` already bound to a
            world (i.e. after the world was constructed with it).
    """

    def __init__(self, protocol: IncentiveChitChatRouter):
        self._protocol = protocol

    @property
    def _world(self):
        return self._protocol.world

    # -- Function 1: Annotate ------------------------------------------
    def annotate(
        self,
        source: int,
        content: Iterable[str],
        labels: Sequence[str],
        *,
        size: int = 1_000_000,
        quality: float = 0.8,
        priority: Priority = Priority.MEDIUM,
        location: Optional[Tuple[float, float]] = None,
    ) -> Message:
        """Create and inject an annotated message (operator *Annotate*).

        ``content`` is the ground truth of what the image shows (the
        cloud-vision + human-knowledge union); ``labels`` are the
        keywords the user saved, each starting at ChitChat weight 0.5.
        """
        message = Message(
            source=source,
            created_at=self._world.now,
            size=size,
            quality=quality,
            priority=priority,
            content=frozenset(content),
            keywords=tuple(labels),
            location=location,
        )
        self._world.inject_message(message)
        return message

    # -- Function 2: Subscribe -----------------------------------------
    def subscribe(self, node_id: int, interests: Sequence[str]) -> None:
        """Add direct keyword subscriptions for a user (through
        ``World.subscribe``, which also updates the router)."""
        self._world.subscribe(node_id, interests)

    # -- Function 3: DecayWeights --------------------------------------
    def decay_weights(self, node_id: int) -> dict:
        """Run the ChitChat decay phase; returns keyword -> new weight."""
        table = self._protocol.table(node_id)
        connected = self._protocol._connected_ids(node_id)
        table.decay(self._world.now, connected, beta=self._protocol.beta)
        return {k: table.weight(k) for k in table.keywords}

    # -- Function 4: IncrementWeights ----------------------------------
    def increment_weights(
        self, node_id: int, peer_id: int, elapsed: float
    ) -> dict:
        """Run the ChitChat growth phase against a peer's table."""
        table = self._protocol.table(node_id)
        peer_table = self._protocol.table(peer_id)
        table.grow_from_arrays(
            *peer_table.snapshot_arrays(), self._world.now, elapsed,
            growth_scale=self._protocol.growth_scale,
            elapsed_cap=self._protocol.growth_elapsed_cap,
        )
        return {k: table.weight(k) for k in table.keywords}

    # -- Function 5: GetMessagesToForward ------------------------------
    def get_messages_to_forward(
        self, sender_id: int, receiver_id: int
    ) -> List[Message]:
        """Messages the sender should offer the receiver."""
        return [
            message for message, _role in
            self._protocol.select_messages(sender_id, receiver_id)
        ]

    # -- Function 6: DecideDestOrRelay ---------------------------------
    def decide_dest_or_relay(self, message: Message, node_id: int) -> str:
        """``"destination"`` or ``"relay"`` for the connected node."""
        return self._protocol.classify(node_id, message)

    # -- Function 7: DecideBestRelay -----------------------------------
    def decide_best_relay(
        self, candidates: Sequence[int], message: Message
    ) -> int:
        """The candidate with the strongest interest in the message.

        Raises:
            ConfigurationError: For an empty candidate list.
        """
        if not candidates:
            raise ConfigurationError("candidates must be non-empty")
        return max(
            candidates,
            key=lambda node_id: (
                self._protocol.interest_sum(node_id, message), -node_id
            ),
        )

    # -- Function 8: ComputeIncentive ----------------------------------
    def compute_incentive(
        self, message: Message, sender_id: int, receiver_id: int
    ) -> float:
        """The promise for forwarding ``message`` to the connected node.

        Requires an open link between the two devices (incentives are
        negotiated in-contact).
        """
        link = self._world.link_between(sender_id, receiver_id)
        if link is None:
            raise ConfigurationError(
                f"nodes {sender_id} and {receiver_id} are not connected"
            )
        sender = self._world.node(sender_id)
        receiver = self._world.node(receiver_id)
        return self._protocol.compute_promise(
            sender, receiver, message, link,
            deliverer_is_relay=message.source != sender_id,
        )

    # -- Function 9: RateMessage ---------------------------------------
    def rate_message(
        self, rater_id: int, message: Message,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Rate a received message (quality + tag truthfulness).

        Updates the rater's reputation book for the source and returns
        the message rating ``R_i``.
        """
        generator = rng if rng is not None else self._world.streams.get(
            "incentive"
        )
        rating = self._protocol.rating_model.rate_source(message, generator)
        if message.source != rater_id:
            self._protocol.reputation.book(rater_id).rate_message(
                message.source, rating
            )
        return rating

    # -- Function 10: RateNode -----------------------------------------
    def rate_node(self, observer_id: int, subject_id: int) -> float:
        """Current device rating of ``subject`` at ``observer``."""
        return self._protocol.reputation.book(observer_id).score(subject_id)

    # -- Whole-population analytics ------------------------------------
    def interest_matrix(self) -> Tuple[List[int], List[str], np.ndarray]:
        """Dense ``[node x keyword]`` snapshot of current weights.

        Returns ``(node_ids, keywords, weights)`` where
        ``weights[i, j]`` is node ``node_ids[i]``'s ChitChat weight for
        ``keywords[j]`` (0.0 for keywords the node holds no record of).
        Absent keywords hold exactly 0.0 in every table row.
        """
        node_ids = self._world.node_ids()
        # Materialise every table first: creation interns the node's
        # direct interests, and the keyword axis must cover them all.
        tables = [self._protocol.table(node_id) for node_id in node_ids]
        index = self._protocol.keyword_index
        keywords = [index.name_of(kid) for kid in range(len(index))]
        weights = np.zeros((len(node_ids), len(keywords)))
        for i, table in enumerate(tables):
            present = table._present[:len(keywords)]
            weights[i, np.flatnonzero(present)] = (
                table._weight[:len(keywords)][present]
            )
        return node_ids, keywords, weights

    # -- Function 11: Enrich -------------------------------------------
    def enrich(
        self, node_id: int, message: Message, annotations: Sequence[str]
    ) -> List[str]:
        """Add user-supplied annotations to an in-transit message.

        Returns:
            The keywords actually added (duplicates are skipped).
        """
        added: List[str] = []
        for keyword in annotations:
            if message.annotate(keyword, node_id, self._world.now):
                added.append(keyword)
                self._world.metrics.on_enrichment(
                    relevant=message.is_relevant(keyword)
                )
        return added
