"""The incentive mechanism as a composable layer over any router.

The paper's credit + reputation + enrichment machinery is conceptually
a *layer* above a routing substrate: the substrate decides who is a
destination, which relays are worth using and in what order to offer
messages; the layer prices every offer, settles awards before
transfers, escrows in-flight payments and runs the Distributed
Reputation Model.  :class:`IncentiveLayer` implements exactly that
split — it wraps any :class:`~repro.routing.base.Router` through the
substrate hook contract (``prepare_contact`` / ``select_messages`` /
``classify`` / ``wants_as_relay`` / ``relay_affinity`` /
``relay_trust`` / custody hooks; see ``repro/routing/base.py``), so the
same mechanism composes over ChitChat (the paper's scheme,
:class:`~repro.core.protocol.IncentiveChitChatRouter`), epidemic
flooding, PRoPHET or Spray-and-Wait.

The substrate is bound to a :class:`RoutingContext` proxy whose
``send_message`` routes through the layer's payment pipeline, so even
substrate-initiated sends (ChitChat's retransmission path) cannot
bypass escrow and prepayment.

Payment flow (Paper I Section 3.3, unchanged from the inheritance-era
implementation):

1. On contact the substrate's per-encounter state updates run, stale
   escrow is reclaimed, and the two reputation books gossip.
2. The substrate's selected offers are re-ordered destinations-first,
   then by priority and quality.
3. Destination awards settle (escrow) *before* the transfer; a
   destination that cannot pay does not receive.
4. Relays above the relay-trust threshold pre-pay a fraction of the
   promise; others carry the promise for free.
5. Escrow is captured when the transfer lands, released when it aborts,
   and drained by :meth:`IncentiveLayer.finalize` at the end of a run.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.enrichment import EnrichmentPolicy
from repro.core.incentive import (
    IncentiveParams,
    hardware_incentive,
    software_incentive,
    tag_incentive,
    total_promise,
)
from repro.core.ledger import TokenLedger
from repro.core.reputation import RatingModel, ReputationSystem
from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.network.link import Link, Transfer
from repro.network.node import Node
from repro.routing.base import Router, RoutingContext
from repro.trace.recorder import NULL_RECORDER

__all__ = ["IncentiveLayer"]


class _SubstrateContext:
    """The world as seen by a wrapped substrate.

    Transparent except for ``send_message``, which routes through the
    incentive layer's payment pipeline — a substrate cannot queue a
    copy without the layer pricing it first.
    """

    __slots__ = (
        "_layer", "_world",
        # Bound-method fast paths (set eagerly in __init__ when the
        # world provides them): the substrate touches these once or
        # more per contact, and at half a million contacts per
        # simulated hour the __getattr__ round trip is measurable.  An
        # unset slot raises AttributeError on access, which falls back
        # to __getattr__ — so worlds (test stubs) lacking one of these
        # still work.
        "active_links", "open_links", "node", "deliver", "accept_relay",
        "can_send",
    )

    _FAST_PATHS = (
        "active_links", "open_links", "node", "deliver", "accept_relay",
        "can_send",
    )

    def __init__(self, layer: "IncentiveLayer", world: RoutingContext):
        self._layer = layer
        self._world = world
        for name in self._FAST_PATHS:
            try:
                object.__setattr__(self, name, getattr(world, name))
            except AttributeError:
                pass

    @property
    def now(self) -> float:
        # A property, not a cached slot: the clock is dynamic.
        return self._world.now

    def send_message(
        self, link: Link, sender: int, message: Message
    ) -> Optional[Transfer]:
        return self._layer.offer_from_substrate(link, sender, message)

    def __getattr__(self, name: str):
        return getattr(self._world, name)


class IncentiveLayer(Router):
    """Credit incentives + enrichment + the DRM over any substrate.

    Args:
        substrate: The routing substrate being incentivised.  Its
            forwarding preferences drive message selection; the layer
            prices and settles every transfer.
        params: Incentive mechanism tunables.
        enrichment: Tag-addition policy; ``None`` disables enrichment
            (ablation configurations use this).
        rating_model: The stochastic human-rater stand-in.
        ledger: Token ledger; a fresh one is created when omitted.
        reputation: Reputation system; fresh when omitted.
        best_relay_only: Forward each message only to the strongest
            currently-connected relay (operator *DecideBestRelay*,
            ranked by the substrate's ``relay_affinity``).
        relay_rating_probability: Chance a relay rates a received
            message and attaches the rating to the copy.
        destination_rating_probability: Chance a destination rates the
            message's source and annotators after reception.
        collusion: When True, malicious raters give *perfect* ratings to
            fellow malicious nodes (collusive praise) instead of random
            noise — the attack model studied by the ablation benches.
        class_multipliers: Optional mapping of population-class name to
            a positive award factor; a deliverer's award is scaled by
            its class's factor (unknown classes pay 1.0).  ``None`` —
            the default, and the only value homogeneous schemes pass —
            skips the lookup entirely, so legacy awards stay
            bit-identical.
        escrow_timeout: Seconds after which an uncaptured escrow hold is
            reclaimable by its payer (see
            :meth:`~repro.core.ledger.TokenLedger.expire_holds`).  A
            safety valve against holds stranded by faults the abort
            path never saw; ``None`` (default) disables the timeout.
    """

    def __init__(
        self,
        substrate: Router,
        *,
        params: Optional[IncentiveParams] = None,
        enrichment: Optional[EnrichmentPolicy] = None,
        rating_model: Optional[RatingModel] = None,
        ledger: Optional[TokenLedger] = None,
        reputation: Optional[ReputationSystem] = None,
        best_relay_only: bool = True,
        relay_rating_probability: float = 0.5,
        destination_rating_probability: float = 1.0,
        collusion: bool = False,
        escrow_timeout: Optional[float] = None,
        class_multipliers: Optional[Mapping[str, float]] = None,
    ):
        super().__init__()
        if isinstance(substrate, IncentiveLayer):
            raise ConfigurationError(
                "cannot stack one IncentiveLayer over another"
            )
        self.substrate = substrate
        self.name = f"incentive-{substrate.name}"
        self.params = params if params is not None else IncentiveParams()
        self.enrichment = enrichment
        self.rating_model = (
            rating_model if rating_model is not None
            else RatingModel(self.params)
        )
        self.ledger = ledger if ledger is not None else TokenLedger()
        self.reputation = (
            reputation if reputation is not None
            else ReputationSystem(self.params)
        )
        self.best_relay_only = bool(best_relay_only)
        for name, value in (
            ("relay_rating_probability", relay_rating_probability),
            ("destination_rating_probability", destination_rating_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        self.relay_rating_probability = float(relay_rating_probability)
        self.destination_rating_probability = float(destination_rating_probability)
        self.collusion = bool(collusion)
        if escrow_timeout is not None and escrow_timeout <= 0:
            raise ConfigurationError(
                f"escrow_timeout must be > 0 or None, got {escrow_timeout!r}"
            )
        self.escrow_timeout = escrow_timeout
        if class_multipliers is not None:
            for cls_name, factor in class_multipliers.items():
                if not factor > 0:
                    raise ConfigurationError(
                        f"class_multipliers[{cls_name!r}] must be > 0, "
                        f"got {factor!r}"
                    )
            class_multipliers = {
                str(k): float(v) for k, v in class_multipliers.items()
            }
        self.class_multipliers = class_multipliers

        # Promise a holder expects to collect at a destination:
        # (holder_id, uuid) -> tokens.
        self._promises: Dict[Tuple[int, str], float] = {}
        # Promise riding on an in-flight transfer: id(transfer) -> tokens.
        self._transfer_promises: Dict[int, float] = {}
        # Escrowed payments per in-flight transfer:
        # id(transfer) -> (hold_id, payee, amount, settlement_key).
        self._pending_payments: Dict[
            int, Tuple[int, int, float, str]
        ] = {}
        #: Pairs of the current up tick whose hook runs for the layer's
        #: own gossip or records although the substrate asked for none:
        #: their substrate ``prepare_contact`` is skipped.
        self._substrate_quiet: Set[Tuple[int, int]] = set()
        self._trace = NULL_RECORDER

    def __getattr__(self, name: str):
        # Reached only for attributes not found on the layer itself:
        # delegate to the substrate so its protocol surface (ChitChat
        # interest tables, PRoPHET predictabilities, spray copy counts)
        # stays reachable on the composed router.
        try:
            substrate = object.__getattribute__(self, "substrate")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(substrate, name)

    def bind(self, world: RoutingContext) -> None:
        super().bind(world)
        self.substrate.bind(_SubstrateContext(self, world))
        # Fake worlds in unit tests may not carry a recorder.
        trace = getattr(world, "trace", None)
        self._trace = trace if trace is not None else NULL_RECORDER
        self.ledger.trace = self._trace
        self.reputation.attach_trace(self._trace, lambda: self.world.now)

    # ------------------------------------------------------------------
    # Substrate delegation
    # ------------------------------------------------------------------
    @property
    def destinations_also_relay(self) -> bool:
        """Whether the substrate re-buffers delivered messages."""
        return self.substrate.destinations_also_relay

    def classify(self, receiver_id: int, message: Message) -> str:
        """The substrate's *DecideDestOrRelay*."""
        return self.substrate.classify(receiver_id, message)

    def wants_as_relay(
        self, sender_id: int, receiver_id: int, message: Message
    ) -> bool:
        """The substrate's forwarding rule."""
        return self.substrate.wants_as_relay(sender_id, receiver_id, message)

    def relay_affinity(self, node_id: int, message: Message) -> float:
        """The substrate's relay preference signal."""
        return self.substrate.relay_affinity(node_id, message)

    def relay_trust(self, receiver_id: int, message: Message) -> float:
        """The substrate's prepay-confidence signal."""
        return self.substrate.relay_trust(receiver_id, message)

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def ensure_account(self, node_id: int) -> None:
        """Open the node's token account lazily with the endowment."""
        if not self.ledger.has_account(node_id):
            now = self._world.now if self._world is not None else 0.0
            self.ledger.open_account(
                node_id, self.params.initial_tokens, time=now
            )

    def balance(self, node_id: int) -> float:
        """Current token balance of ``node_id``."""
        self.ensure_account(node_id)
        return self.ledger.balance(node_id)

    def _rng(self) -> np.random.Generator:
        return self.world.streams.get("incentive")

    def promise_held(self, node_id: int, uuid: str) -> float:
        """The promise ``node_id`` carries for message ``uuid``."""
        return self._promises.get((node_id, uuid), 0.0)

    # ------------------------------------------------------------------
    # Incentive computation (operator *ComputeIncentive*)
    # ------------------------------------------------------------------
    def compute_promise(
        self,
        sender: Node,
        receiver: Node,
        message: Message,
        link: Link,
        *,
        deliverer_is_relay: bool,
    ) -> float:
        """``I = min(I_s + I_h, I_m)`` for forwarding over ``link``.

        ``deliverer_is_relay`` selects the hardware compensation case:
        a relay is also paid for the power it spent receiving the copy.
        The interest ratio compares the receiver's relay affinity (the
        substrate's preference signal) against the best affinity among
        the sender's currently-connected peers.
        """
        # Memoised maxima instead of a full-buffer scan per promise;
        # the empty-buffer floor (0, 0.0) collapses to the message's
        # own size/quality exactly as the old ``or [message]`` did.
        buffered_size, buffered_quality = sender.buffer.size_quality_maxima()
        max_size = max(buffered_size, message.size)
        max_quality = max(buffered_quality, message.quality)
        if max_quality <= 0.0:
            max_quality = 1.0

        receiver_sum = self.substrate.relay_affinity(
            receiver.node_id, message
        )
        best_sum = receiver_sum
        relay_affinity = self.substrate.relay_affinity
        sender_id = sender.node_id
        # Zero-copy open-link view: affinity reads touch nothing that
        # could mutate the link set.
        for other_link in self.world.open_links(sender_id):
            peer_id = (
                other_link.b if other_link.a == sender_id else other_link.a
            )
            best_sum = max(best_sum, relay_affinity(peer_id, message))
        interest_ratio = receiver_sum / best_sum if best_sum > 0 else 0.0

        i_s = software_incentive(
            self.params,
            sender_role=sender.role,
            receiver_role=receiver.role,
            priority=message.priority,
            interest_ratio=interest_ratio,
            size=message.size,
            max_size=max_size,
            quality=message.quality,
            max_quality=max_quality,
        )
        energy = self.world.energy
        i_h = hardware_incentive(
            self.params,
            transmit_power=energy.transmit_power,
            received_power=energy.received_power(link.distance),
            transfer_time=link.transfer_time(message),
            is_relay=deliverer_is_relay,
        )
        return total_promise(self.params, i_s, i_h)

    def compute_award(
        self, deliverer: Node, destination: Node, message: Message, link: Link
    ) -> float:
        """``I_v`` — what ``destination`` owes ``deliverer`` on delivery.

        The base is the promise the deliverer carries (computed fresh
        when it is the source), plus tag incentives for the deliverer's
        added tags matching the destination's direct interests, scaled
        by the DRM multiplier.
        """
        promise = self._promises.get((deliverer.node_id, message.uuid))
        if promise is None:
            promise = self.compute_promise(
                deliverer, destination, message, link,
                deliverer_is_relay=message.source != deliverer.node_id,
            )
        added_by_deliverer = {
            a.keyword for a in message.annotations_by(deliverer.node_id)
            if deliverer.node_id != message.source
        }
        paid_tags = len(added_by_deliverer & destination.interests)
        i_t = tag_incentive(self.params, paid_tags)
        multiplier = self.reputation.book(destination.node_id).award_multiplier(
            deliverer.node_id, message.path_ratings.values()
        )
        award = multiplier * (promise + i_t)
        if self.class_multipliers is not None:
            award *= self.class_multipliers.get(
                self.node_class(deliverer.node_id), 1.0
            )
        return award

    # ------------------------------------------------------------------
    # Exchange
    # ------------------------------------------------------------------
    def select_messages(self, sender_id, receiver_id):
        """The substrate's selection, re-ordered by priority then quality.

        The paper's experiment F: "our approach prioritizes messages
        based on the quality as well as the assigned priority" — under
        short contacts the ordering decides which messages make it
        across, so the incentive scheme pushes HIGH priority (and higher
        quality) messages to the front of the transfer queue.
        """
        selected = self.substrate.select_messages(sender_id, receiver_id)
        if not selected:
            return selected
        return sorted(
            selected,
            key=lambda pair: (
                pair[1] != "destination",      # destinations first
                int(pair[0].priority),         # HIGH(1) before LOW(3)
                -pair[0].quality,
            ),
        )

    def _exchange(self, link: Link) -> None:
        self._expire_stale_holds()
        # RTSR+DR module: reputations travel with the interest exchange.
        self.reputation.exchange(link.a, link.b)
        for sender_id in link.pair:
            receiver_id = link.peer_of(sender_id)
            for message, role in self.select_messages(sender_id, receiver_id):
                self._offer(link, sender_id, receiver_id, message, role)

    def _hold_expiry(self) -> Optional[float]:
        if self.escrow_timeout is None:
            return None
        return self.world.now + self.escrow_timeout

    def _expire_stale_holds(self) -> None:
        """Reclaim escrow whose timeout lapsed (fault safety valve)."""
        if self.escrow_timeout is None:
            return
        reclaimed = self.ledger.expire_holds(self.world.now)
        if reclaimed > 0:
            self.world.metrics.on_escrow_reclaimed(reclaimed)

    def _offer(
        self,
        link: Link,
        sender_id: int,
        receiver_id: int,
        message: Message,
        role: str,
    ) -> Optional[Transfer]:
        sender = self.world.node(sender_id)
        receiver = self.world.node(receiver_id)
        self.ensure_account(sender_id)
        self.ensure_account(receiver_id)
        if not self.world.can_send(link, sender_id, message):
            return None
        if role == "destination":
            return self._offer_to_destination(link, sender, receiver, message)
        return self._offer_to_relay(link, sender, receiver, message)

    def _offer_to_destination(
        self, link: Link, sender: Node, receiver: Node, message: Message
    ) -> Optional[Transfer]:
        """Settle the award, then transfer (Section 3.3 data flow)."""
        award = self.compute_award(sender, receiver, message, link)
        if not self.ledger.can_pay(receiver.node_id, award):
            self.world.metrics.on_blocked_no_tokens()
            if self._trace.enabled:
                self._trace.emit({
                    "type": "offer-declined", "t": self.world.now,
                    "uuid": message.uuid, "sender": sender.node_id,
                    "receiver": receiver.node_id, "role": "destination",
                    "reason": "no-tokens",
                })
            return None
        transfer = self.world.send_message(link, sender.node_id, message)
        if transfer is None:  # pragma: no cover - guarded by can_send
            return None
        if self._trace.enabled:
            self._trace.emit({
                "type": "offer", "t": self.world.now, "uuid": message.uuid,
                "sender": sender.node_id, "receiver": receiver.node_id,
                "role": "destination", "award": award,
            })
        if award > 0:
            hold = self.ledger.escrow(
                receiver.node_id, award,
                time=self.world.now, reason="delivery-award",
                expires_at=self._hold_expiry(),
            )
            self._pending_payments[id(transfer)] = (
                hold, sender.node_id, award,
                f"award:{message.uuid}:{receiver.node_id}",
            )
        self.substrate.on_copy_sent(
            transfer, sender.node_id, message, "destination"
        )
        return transfer

    def _offer_to_relay(
        self, link: Link, sender: Node, receiver: Node, message: Message
    ) -> Optional[Transfer]:
        """Forward to a relay, pre-paying above the relay threshold."""
        if self.best_relay_only and not self._is_best_relay(
            sender.node_id, receiver.node_id, message
        ):
            if self._trace.enabled:
                self._trace.emit({
                    "type": "offer-declined", "t": self.world.now,
                    "uuid": message.uuid, "sender": sender.node_id,
                    "receiver": receiver.node_id, "role": "relay",
                    "reason": "not-best-relay",
                })
            return None
        promise = self.compute_promise(
            sender, receiver, message, link, deliverer_is_relay=True
        )
        trust = self.substrate.relay_trust(receiver.node_id, message)
        prepay = 0.0
        if trust > self.params.relay_threshold:
            prepay = self.params.relay_prepay_fraction * promise
            if not self.ledger.can_pay(receiver.node_id, prepay):
                self.world.metrics.on_blocked_no_tokens()
                if self._trace.enabled:
                    self._trace.emit({
                        "type": "offer-declined", "t": self.world.now,
                        "uuid": message.uuid, "sender": sender.node_id,
                        "receiver": receiver.node_id, "role": "relay",
                        "reason": "no-tokens",
                    })
                return None
        transfer = self.world.send_message(link, sender.node_id, message)
        if transfer is None:  # pragma: no cover - guarded by can_send
            return None
        if self._trace.enabled:
            self._trace.emit({
                "type": "offer", "t": self.world.now, "uuid": message.uuid,
                "sender": sender.node_id, "receiver": receiver.node_id,
                "role": "relay", "promise": promise, "prepay": prepay,
            })
        self._transfer_promises[id(transfer)] = promise
        if prepay > 0:
            hold = self.ledger.escrow(
                receiver.node_id, prepay,
                time=self.world.now, reason="relay-prepay",
                expires_at=self._hold_expiry(),
            )
            self._pending_payments[id(transfer)] = (
                hold, sender.node_id, prepay,
                f"prepay:{message.uuid}:{receiver.node_id}",
            )
        self.substrate.on_copy_sent(
            transfer, sender.node_id, message, "relay"
        )
        return transfer

    def _is_best_relay(
        self, sender_id: int, candidate_id: int, message: Message
    ) -> bool:
        """Operator *DecideBestRelay*: is the candidate the strongest
        currently-connected relay for this message?"""
        candidate_sum = self.substrate.relay_affinity(candidate_id, message)
        world = self.world
        node = world.node
        relay_affinity = self.substrate.relay_affinity
        uuid = message.uuid
        for link in world.open_links(sender_id):
            peer_id = link.b if link.a == sender_id else link.a
            if peer_id == candidate_id:
                continue
            if node(peer_id).has_seen(uuid):
                continue
            if relay_affinity(peer_id, message) > candidate_sum:
                return False
        return True

    # ------------------------------------------------------------------
    # World hooks (layer first, then the substrate's custody hooks)
    # ------------------------------------------------------------------
    def on_message_created(self, node_id: int, message: Message) -> None:
        self.substrate.on_message_created(node_id, message)

    def on_contact_start(self, link: Link) -> None:
        quiet = self._substrate_quiet
        if quiet and link.pair in quiet:
            quiet.remove(link.pair)
        else:
            self.substrate.prepare_contact(link)
        self._exchange(link)

    def on_contact_end(self, link: Link) -> None:
        self.substrate.on_contact_end(link)

    # Batched contact hooks: the substrate plans its decay phase and
    # says which pairs need their hook, then the layer plans its own
    # gossip exchange across the tick's pairs (offers still run per
    # pair from on_contact_start, through the payment pipeline
    # unchanged).
    def prepare_contact_batch(self, pairs) -> np.ndarray:
        """The substrate's mask plus the pairs the layer needs.

        A pair the substrate leaves out offers nothing either way, so
        only its gossip could be observed.  The reputation planner
        writes every merge no award reads at plan time
        (``exchange_batch_rounds``) and adds the pairs whose merge must
        wait for their exchange point.  Every pair keeps its hook when
        the layer records (each exchange emits a ``gossip`` record in
        admission order), when escrow holds expire (the expiry time is
        visible at settlement) or when the reputation system has no
        planner (its pairs merge at the exchange itself).
        """
        keep = self.substrate.prepare_contact_batch(pairs)
        plan = getattr(self.reputation, "exchange_batch_rounds", None)
        if plan is None:
            calls = np.ones(len(pairs), dtype=bool)
        elif self._trace.enabled or self.escrow_timeout is not None:
            calls = plan(pairs)
        else:
            calls = plan(pairs, keep)
        self._substrate_quiet = set(compress(pairs, (calls & ~keep).tolist()))
        return calls

    def contact_end_batch(self, links) -> None:
        self.substrate.contact_end_batch(links)

    def on_message_received(self, transfer: Transfer, link: Link) -> None:
        pending = self._pending_payments.pop(id(transfer), None)
        if pending is not None:
            hold, payee, amount, settlement_key = pending
            # The hold may have timed out and been reclaimed by
            # expire_holds; the payee then goes unpaid for this (very
            # late) landing.  Checked explicitly so a genuinely broken
            # hold id raises instead of being swallowed.
            if self.ledger.hold_exists(hold):
                transaction = self.ledger.capture(
                    hold, payee,
                    time=self.world.now, settlement_key=settlement_key,
                )
                if transaction is not None:
                    self.world.metrics.on_payment(amount)
        promise = self._transfer_promises.pop(id(transfer), 0.0)
        receiver = self.world.node(transfer.receiver)
        message = transfer.message
        message.record_hop(receiver.node_id)
        self.ensure_account(receiver.node_id)
        role = self.classify(receiver.node_id, message)
        rng = self._rng()

        if role == "destination":
            delivered = self.world.deliver(receiver, message)
            if delivered and rng.random() < self.destination_rating_probability:
                self._rate_as_recipient(receiver, message, rng)
            accepted = False
            if self.destinations_also_relay:
                accepted = self.world.accept_relay(receiver, message)
                if accepted and promise > 0:
                    self._promises[(receiver.node_id, message.uuid)] = promise
            self.substrate.on_copy_received(
                transfer, receiver.node_id, message, "destination", accepted
            )
        else:
            accepted = self.world.accept_relay(receiver, message)
            self.substrate.on_copy_received(
                transfer, receiver.node_id, message, "relay", accepted
            )
            if not accepted:
                return
            # A zero promise is not stored: compute_award then derives a
            # fresh promise when this node later delivers (a destination
            # re-serving other destinations must still charge them).
            if promise > 0:
                self._promises[(receiver.node_id, message.uuid)] = promise
            self._enrich(receiver, message, rng)
            if rng.random() < self.relay_rating_probability:
                rating = self._rate_as_recipient(receiver, message, rng)
                if rating is not None:
                    message.attach_rating(receiver.node_id, rating)
        self._forward_onward(receiver.node_id, message)

    def _enrich(
        self, relay: Node, message: Message, rng: np.random.Generator
    ) -> None:
        """Operator *Enrich*: the relay may add tags to its copy."""
        if self.enrichment is None:
            return
        malicious = bool(
            relay.behavior is not None
            and getattr(relay.behavior, "malicious", False)
        )
        for keyword in self.enrichment.tags_for(message, malicious, rng):
            if message.annotate(keyword, relay.node_id, self.world.now):
                self.world.metrics.on_enrichment(
                    relevant=message.is_relevant(keyword)
                )
                if self._trace.enabled:
                    self._trace.emit({
                        "type": "enrichment", "t": self.world.now,
                        "uuid": message.uuid, "node": relay.node_id,
                        "keyword": keyword,
                        "relevant": message.is_relevant(keyword),
                    })

    def _is_malicious(self, node_id: int) -> bool:
        behavior = self.world.node(node_id).behavior
        return bool(behavior is not None
                    and getattr(behavior, "malicious", False))

    def _rate_as_recipient(
        self, recipient: Node, message: Message, rng: np.random.Generator
    ) -> Optional[float]:
        """Operators *RateMessage* / *RateNode* on reception.

        Returns:
            The overall message rating (to ride along with the copy), or
            ``None`` when the recipient skipped rating.
        """
        book = self.reputation.book(recipient.node_id)
        malicious_rater = bool(
            recipient.behavior is not None
            and getattr(recipient.behavior, "malicious", False)
        )
        if malicious_rater:
            if self.collusion and self._is_malicious(message.source):
                # Collusive praise: attackers vouch for each other.
                rating = self.params.max_rating
            else:
                # A malicious rater pollutes the DRM with random ratings.
                rating = float(rng.uniform(0.0, self.params.max_rating))
            if message.source != recipient.node_id:
                book.rate_message(message.source, rating)
            if self.collusion:
                for annotator in {
                    a.added_by for a in message.added_tags()
                    if a.added_by != recipient.node_id
                }:
                    if self._is_malicious(annotator):
                        book.rate_message(annotator, self.params.max_rating)
            return rating
        if message.source != recipient.node_id:
            source_rating = self.rating_model.rate_source(message, rng)
            book.rate_message(message.source, source_rating)
        else:
            source_rating = None
        annotators = {
            a.added_by for a in message.added_tags()
            if a.added_by != recipient.node_id
        }
        for annotator in sorted(annotators):
            rating = self.rating_model.rate_intermediate(
                message, annotator, rng
            )
            book.rate_message(annotator, rating)
        return source_rating

    def _forward_onward(self, holder_id: int, message: Message) -> None:
        """Incentive-aware re-offer on the holder's other active links.

        Iterates the world's zero-copy open-link view: offers only
        queue transfers (battery/link bookkeeping happens in transfer
        callbacks, not here), so nothing mutates the link set while we
        walk it — and this runs once per received copy, so the
        ``active_links`` list build it replaced was a real cost.
        """
        world = self.world
        holder = world.node(holder_id)
        uuid = message.uuid
        if uuid not in holder.buffer:
            return
        node = world.node
        classify = self.substrate.classify
        wants_as_relay = self.substrate.wants_as_relay
        offer = self._offer
        for link in world.open_links(holder_id):
            peer_id = link.b if link.a == holder_id else link.a
            if node(peer_id).has_seen(uuid):
                continue
            role = classify(peer_id, message)
            if role == "destination":
                offer(link, holder_id, peer_id, message, role)
            elif wants_as_relay(holder_id, peer_id, message):
                offer(link, holder_id, peer_id, message, "relay")

    # ------------------------------------------------------------------
    # Custody loss: promises die with the copy they rode on
    # ------------------------------------------------------------------
    def on_message_expired(self, node_id: int, message: Message) -> None:
        self._promises.pop((node_id, message.uuid), None)
        self.substrate.on_message_expired(node_id, message)

    def on_message_dropped(self, node_id: int, message: Message) -> None:
        self._promises.pop((node_id, message.uuid), None)
        self.substrate.on_message_dropped(node_id, message)

    def on_node_subscribed(self, node_id: int, keywords) -> None:
        self.substrate.on_node_subscribed(node_id, keywords)

    def on_node_wiped(self, node_id: int) -> None:
        # The layer's own per-copy state (promises) already drained
        # through on_message_dropped while the world emptied the
        # buffer; accounts and reputation books survive a wipe by
        # design (they model the replicated ledger layer).  Only the
        # substrate's volatile protocol state remains to reset.
        self.substrate.on_node_wiped(node_id)

    # ------------------------------------------------------------------
    # Aborts: refund settled payments for transfers that never landed
    # ------------------------------------------------------------------
    def on_transfer_aborted(self, transfer: Transfer, link: Link) -> None:
        self._transfer_promises.pop(id(transfer), None)
        pending = self._pending_payments.pop(id(transfer), None)
        if pending is not None:
            hold, _payee, _amount, _key = pending
            # A hold reclaimed by the escrow timeout was already
            # refunded; releasing it again would pay the payer twice.
            # The explicit existence check (rather than swallowing
            # LedgerError) also lets genuine double-release bugs raise.
            if self.ledger.hold_exists(hold):
                self.ledger.release(
                    hold, time=self.world.now, cause="abort"
                )
        # The substrate reclaims custody state (spray copies) and may
        # schedule a retransmission; a retry re-enters the payment
        # pipeline through the substrate context's send_message.
        self.substrate.on_transfer_aborted(transfer, link)

    def offer_from_substrate(
        self, link: Link, sender_id: int, message: Message
    ) -> Optional[Transfer]:
        """A substrate-initiated send, routed through the pipeline.

        ChitChat's retransmission path lands here via the substrate
        context: the prior attempt's escrow was released on abort, so
        the retry re-escrows under the *same* settlement key — if the
        payment meanwhile settled via another path, the idempotent
        capture refunds it instead of double-paying.
        """
        receiver_id = link.peer_of(sender_id)
        role = self.classify(receiver_id, message)
        return self._offer(link, sender_id, receiver_id, message, role)

    def _reoffer(
        self, link: Link, sender_id: int, receiver_id: int, message: Message
    ) -> Optional[Transfer]:
        """Retransmission runs the full payment pipeline again."""
        role = self.classify(receiver_id, message)
        return self._offer(link, sender_id, receiver_id, message, role)

    # ------------------------------------------------------------------
    # End of run: drain escrow so conservation is exact
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Release every outstanding hold back to its payer.

        With no faults injected there is nothing left to release (every
        transfer completed or aborted and settled its own escrow), so
        this is a no-op for golden runs; under fault mixes it guarantees
        ``escrowed_total`` drains to exactly zero.
        """
        reclaimed = self.ledger.release_all(time=now)
        if reclaimed > 0:
            self.world.metrics.on_escrow_reclaimed(reclaimed)
        self._pending_payments.clear()
        self._transfer_promises.clear()
        self.substrate.finalize(now)
