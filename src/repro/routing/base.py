"""Router interface.

A router decides *what to forward and what to accept*; the
:class:`~repro.network.world.World` owns the mechanics (mobility,
links, bandwidth, buffers, TTL) and calls the router's hooks.  The
separation lets the same scenario run under ChitChat, the incentive
scheme, or any baseline with identical contacts and workload — which is
how the paper's comparisons are constructed.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, List, Optional, Protocol, Tuple

import numpy as np

from repro.messages.message import Message
from repro.network.link import Link, Transfer
from repro.network.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["RoutingContext", "Router"]


class RoutingContext(Protocol):
    """The world services a router may use (implemented by ``World``)."""

    @property
    def now(self) -> float:
        """Current simulation time."""

    def node(self, node_id: int) -> Node:
        """The node with the given id."""

    def node_ids(self) -> List[int]:
        """All node ids."""

    def active_links(self, node_id: int) -> List[Link]:
        """Open links that ``node_id`` participates in."""

    def link_between(self, a: int, b: int) -> Optional[Link]:
        """The open link between ``a`` and ``b``, if any."""

    def send_message(
        self, link: Link, sender: int, message: Message
    ) -> Optional[Transfer]:
        """Queue a copy of ``message`` for transfer over ``link``.

        Returns the transfer, or ``None`` if the world suppressed it
        (duplicate in flight, link closing, ...).
        """

    def deliver(self, receiver: Node, message: Message) -> bool:
        """Record delivery to a destination; True on first delivery."""

    def accept_relay(self, receiver: Node, message: Message) -> bool:
        """Buffer a message for relaying; False if the buffer refused."""

    def schedule_in(self, delay: float, callback, *, label: str = ""):
        """Schedule ``callback`` after ``delay`` seconds (backoff timers)."""

    def node_available(self, node_id: int) -> bool:
        """Whether ``node_id`` exists and is currently up (powered, not
        faulted out).  Routers consult this before spending bounded
        resources — e.g. a retransmission attempt — on a peer that
        cannot receive anyway."""


class Router(abc.ABC):
    """Base class for routing protocols.

    Lifecycle: :meth:`bind` is called once by the world, then the event
    hooks fire as the simulation unfolds.  Implementations keep their
    per-node protocol state internally, keyed by node id.
    """

    #: Short name used in reports (override in subclasses).
    name: str = "router"

    #: Whether a destination keeps a copy in its buffer to serve further
    #: destinations.  Substrates whose reception semantics terminate at
    #: the destination (PRoPHET, Spray-and-Wait) set this False; the
    #: incentive layer consults it when composing over a substrate.
    destinations_also_relay: bool = True

    def __init__(self) -> None:
        self._world: Optional[RoutingContext] = None

    @property
    def world(self) -> RoutingContext:
        """The bound world.

        Raises:
            RuntimeError: If the router has not been bound yet.
        """
        if self._world is None:
            raise RuntimeError(f"router {self.name!r} is not bound to a world")
        return self._world

    def bind(self, world: RoutingContext) -> None:
        """Attach the router to its world.  Called once by the world."""
        self._world = world

    def node_class(self, node_id: int) -> str:
        """Population class name of ``node_id``.

        ``"default"`` on worlds built without a population, on worlds
        without population support, and before binding — so
        class-aware schemes degrade gracefully everywhere.
        """
        if self._world is None:
            return "default"
        lookup = getattr(self._world, "node_class", None)
        if lookup is None:
            return "default"
        return lookup(node_id)

    # ------------------------------------------------------------------
    # Hooks (all optional except message selection semantics)
    # ------------------------------------------------------------------
    def on_message_created(self, node_id: int, message: Message) -> None:
        """A node originated ``message`` (already buffered by the world)."""

    def on_contact_start(self, link: Link) -> None:
        """A contact came up; typically triggers the exchange phase."""

    def on_contact_end(self, link: Link) -> None:
        """A contact went down (in-flight transfers already aborted)."""

    # ------------------------------------------------------------------
    # Batched contact hooks: the world's only contact-tick entry points
    # ------------------------------------------------------------------
    # Every router takes both.  The defaults make them exactly a
    # per-pair loop; a router overrides them only to plan or fuse the
    # tick's per-pair work with a bit-identical result (ChitChat).
    def prepare_contact_batch(
        self, pairs: List[Tuple[int, int]]
    ) -> np.ndarray:
        """All admitted pairs of one contact-up tick, before any opens.

        Called by the world once per up tick so a router can plan
        pre-exchange state updates (ChitChat's RTSR decay) as
        vectorised passes, leaving the per-pair hooks only what must
        land at each pair's point.  Returns a bool mask over ``pairs``:
        the world calls :meth:`on_contact_start` only where it is set.
        A router may leave a pair out only when that pair's hook would
        offer nothing and change nothing any later read observes.  The
        default plans nothing and asks for every pair, so
        :meth:`prepare_contact` still runs per pair from
        :meth:`on_contact_start`.
        """
        return np.ones(len(pairs), dtype=bool)

    def contact_end_batch(self, links: List[Link]) -> None:
        """Every link closed by one contact-down tick or one forced
        disconnect (churn crash, battery blackout), in close order.

        The world calls this instead of per-link
        :meth:`on_contact_end`; the router may reorder or fuse the
        per-link work as long as the result is bit-identical (ChitChat
        uses round decomposition).  The default simply replays the
        per-link hook in order.
        """
        for link in links:
            self.on_contact_end(link)

    @abc.abstractmethod
    def on_message_received(self, transfer: Transfer, link: Link) -> None:
        """A transfer completed; decide delivery/relay handling."""

    def on_transfer_aborted(self, transfer: Transfer, link: Link) -> None:
        """A transfer was cut off by link closure before completing."""

    def on_message_expired(self, node_id: int, message: Message) -> None:
        """A buffered message passed its TTL and was dropped."""

    def on_message_dropped(self, node_id: int, message: Message) -> None:
        """A buffered message was evicted to make room for another."""

    def on_node_subscribed(self, node_id: int, keywords: List[str]) -> None:
        """``node_id`` subscribed to ``keywords`` (``World.subscribe``,
        after its ``Node.interests`` took them).  Routers keeping
        per-node interest state (ChitChat's direct cells) add them
        here.  Default: no state, no-op."""

    def on_node_wiped(self, node_id: int) -> None:
        """A churn crash wiped ``node_id``'s state (wipe policy only).

        Fired by the world *after* the node's buffer was drained (each
        drop already went through :meth:`on_message_dropped`) and its
        seen-set reset.  Routers holding per-node protocol state keyed
        by id — interest tables, memo caches — must return it to the
        freshly-created condition here, since the restarted identity
        must not observe pre-crash state.  Default: no state, no-op.
        """

    def finalize(self, now: float) -> None:
        """The run is over; settle or release any outstanding state.

        Called once by the experiment runner after the engine drains.
        Protocols holding escrow use this to drain every remaining hold
        back to its payer so token conservation is exact at the end of
        even the most fault-ridden run.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def is_destination(self, node: Node, message: Message) -> bool:
        """Data-centric destination test: direct interest in any tag."""
        return node.is_interested_in(message)

    def eligible_messages(
        self, sender: Node, receiver: Node, messages: Iterable[Message]
    ) -> List[Message]:
        """Filter out messages the receiver already saw or cannot fit.

        Buffer-capacity checks are left to the receive path (state may
        change while transfers are queued); this only removes certain
        no-ops.
        """
        return [
            m for m in messages
            if not receiver.has_seen(m.uuid)
        ]

    # ------------------------------------------------------------------
    # Substrate hooks (the IncentiveLayer composition contract)
    # ------------------------------------------------------------------
    # ``repro.core.incentive_layer.IncentiveLayer`` drives any Router
    # through these hooks: on contact it calls :meth:`prepare_contact`
    # (protocol state updates that normally precede offering), asks
    # :meth:`select_messages` what to offer, and runs each offer through
    # the payment pipeline; :meth:`relay_affinity` and
    # :meth:`relay_trust` feed the promise and prepay computations, and
    # the custody hooks (:meth:`on_copy_sent` / :meth:`on_copy_received`)
    # let copy-budgeted substrates (Spray-and-Wait) keep their
    # bookkeeping when the layer, not the substrate, performs the send.
    # All defaults are flood-friendly no-ops, so EpidemicRouter works
    # unmodified.

    def prepare_contact(self, link: Link) -> None:
        """Update protocol state for a fresh contact, *before* offers.

        Substrates run their per-encounter bookkeeping here (ChitChat's
        RTSR decay, PRoPHET's aging + encounter update) so a composing
        layer can trigger it without re-running the offer loop.
        """

    def classify(self, receiver_id: int, message: Message) -> str:
        """``"destination"`` or ``"relay"`` for the receiving node."""
        node = self.world.node(receiver_id)
        return (
            "destination" if self.is_destination(node, message) else "relay"
        )

    def wants_as_relay(
        self, sender_id: int, receiver_id: int, message: Message
    ) -> bool:
        """Whether the substrate would forward to this relay candidate."""
        return True

    def relay_affinity(self, node_id: int, message: Message) -> float:
        """How strongly ``node_id`` attracts ``message`` (>= 0).

        Used by the incentive layer to rank candidate relays (the
        *DecideBestRelay* gate) and to scale promises.  ChitChat returns
        the interest sum ``S``; PRoPHET its delivery predictability;
        the flood substrates have no preference and return 0.
        """
        return 0.0

    def relay_trust(self, receiver_id: int, message: Message) -> float:
        """Confidence in the relay used for the prepay threshold test.

        The incentive layer pre-pays a relay whose trust exceeds the
        relay threshold (Table 5.1: 0.8).  Substrates without a
        comparable signal return 0, which never triggers prepayment.
        """
        return 0.0

    def select_messages(
        self, sender_id: int, receiver_id: int
    ) -> List[Tuple[Message, str]]:
        """Messages ``sender`` should offer ``receiver``, with roles.

        Returns ``(message, "destination"|"relay")`` pairs in offer
        order.  The default walks the sender's buffer in order,
        offering every unseen message that fits: destinations always,
        relays when :meth:`wants_as_relay` agrees.
        """
        sender = self.world.node(sender_id)
        receiver = self.world.node(receiver_id)
        selected: List[Tuple[Message, str]] = []
        for message in sender.buffer.messages():
            if receiver.has_seen(message.uuid):
                continue
            if message.size > receiver.buffer.capacity:
                continue
            role = self.classify(receiver_id, message)
            if role == "destination":
                selected.append((message, "destination"))
            elif self.wants_as_relay(sender_id, receiver_id, message):
                selected.append((message, "relay"))
        return selected

    def on_copy_sent(
        self, transfer: Transfer, sender_id: int, message: Message, role: str
    ) -> None:
        """A composing layer queued a copy on the substrate's behalf.

        Copy-budgeted substrates decrement their counters here (the
        abort path reclaims through :meth:`on_transfer_aborted`).
        """

    def on_copy_received(
        self,
        transfer: Transfer,
        receiver_id: int,
        message: Message,
        role: str,
        accepted: bool,
    ) -> None:
        """A layer-driven transfer landed (``accepted``: buffer kept it).

        The counterpart of :meth:`on_copy_sent`: Spray-and-Wait either
        assigns the granted copies to the receiver or returns them to
        the sender when the buffer refused.
        """
