"""The simulation world: mobility, links, transfers, workload, TTL.

``World`` is the substrate every routing scheme runs on.  It consumes a
contact trace (from :mod:`repro.mobility`), manages link lifecycles and
bandwidth-limited transfers, injects the message workload, enforces TTL,
applies node behaviours (a selfish node's radio is off for most
encounters), charges radio energy, and feeds every observable event to
the :class:`~repro.metrics.collector.MetricsCollector`.

Routers receive hooks (contact start/end, message received/aborted) and
call back into :meth:`send_message`, :meth:`deliver` and
:meth:`accept_relay`; see :class:`repro.routing.base.Router`.

Per-node scalar state (radio energy, batteries) lives in one
:class:`~repro.network.world_state.WorldState` of NumPy arrays indexed
by node id: a world's ids are exactly ``0..n-1``.  The contact trace
is loaded as **per-scan-tick batches**: one heap event per
``(time, up/down)`` tick instead of one per pair.  The batches come
straight from the trace's columns (:meth:`ContactTrace.ticks`: one
lexsort over the event keys, cut at every change of time or kind), so
no :class:`~repro.mobility.trace.Contact` object is built between
detection and the engine.  Every router takes the same two tick
handlers, and the batching is exact:

* **Batch order.** A tick holds every event of one ``(time, kind)`` in
  ``(a, b)`` order, and ticks come in ``(time, down-before-up)``
  order — the order of the per-pair events ``ContactTrace.events()``
  flattens them into.  A tick's batch fires at priority 0 (down) / 1
  (up) and runs its pairs in trace order; runtime-scheduled events
  (transfers, TTL sweeps, churn re-arms) always carry larger sequences
  than every load-time event, so they never split a tick.
* **Hook order.** An up tick admits all its pairs, hands them to
  ``prepare_contact_batch``, then opens them one by one, calling
  ``on_contact_start`` on the pairs whose mask the router set; a down
  tick closes its links, then hands them to ``contact_end_batch``.  The
  base hooks plan nothing, ask for every pair and replay
  ``on_contact_end`` per link, which is exactly a per-pair loop:
  transfers and ratings settle at later engine events, and no contact
  hook draws the behaviour stream or drains a battery.
* **One close site.** Churn crashes and battery blackouts close a
  node's links the way a down tick does (:meth:`World._close_contact`
  per link, then one ``contact_end_batch``), so the link maps only
  ever hold open links.
* **RNG order.** Behaviour draws (``contact_enabled``) happen in the
  per-pair admission check, in trace order, so the behaviour stream is
  consumed exactly as a per-pair loop would.  Admission is deliberately
  *not* vectorised for this reason.
* **Float order.** Energy and battery updates stay one scalar operation
  per (node, transfer) in event order — the arrays change the storage,
  not the arithmetic.

``tests/golden/trace_digests.json`` pins the resulting event trace
record by record.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import BufferError_, ConfigurationError, SimulationError
from repro.faults import FaultConfig, FaultInjector
from repro.messages.generator import MessageGenerator
from repro.messages.message import Message
from repro.metrics.collector import MetricsCollector
from repro.mobility.trace import ContactTrace
from repro.network.energy import EnergyModel
from repro.network.link import Link, Transfer
from repro.network.node import Node
from repro.network.world_state import WorldState
from repro.population import DEFAULT_CLASS
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RandomStreams
from repro.trace.recorder import NULL_RECORDER, TraceRecorder

__all__ = ["World"]

#: Shared empty result for :meth:`World.open_links` on unknown nodes.
_NO_LINKS: List[Link] = []


class World:
    """Wires nodes, contacts, transfers and a router into one simulation.

    Args:
        engine: The discrete-event engine driving the run.
        nodes: The node population, in any order.  Its ids must be
            exactly ``0..n-1``: they index the per-node arrays.
        router: The routing protocol under test.
        link_speed: Transfer speed in bytes/second (Table 5.1: 250 kBps).
        streams: Named RNG streams (behaviour draws, workload, ...).
        metrics: Metrics sink; a fresh collector is created when omitted.
        energy: Radio energy model; a default Friis model when omitted.
        ttl: Optional message time-to-live in seconds.
        ttl_check_interval: How often buffers are swept for expiry.
        nominal_distance: Distance (metres) assumed between connected
            devices for energy purposes.  The contact trace abstracts
            exact geometry away, so the transmission radius is the
            conservative stand-in (documented in DESIGN.md).
        battery_capacity: Optional per-node battery in joules.  When
            set, radio energy drains the battery and a node whose
            battery is empty stops forming contacts — the resource
            scarcity the paper names as the *reason* nodes turn selfish.
            ``None`` (the default, and the paper's evaluation setting)
            models mains-refreshed devices.
        resume_partial_transfers: DTN *reactive fragmentation*: bytes
            moved before a contact broke are remembered, and the next
            transfer of the same message to the same receiver only moves
            the remainder.  Off by default — ONE's (and the paper's)
            baseline behaviour restarts aborted transfers from zero.
        faults: Optional :class:`~repro.faults.FaultConfig`.  When set
            and enabled, a :class:`~repro.faults.FaultInjector` drives
            link-layer loss/corruption, node churn, and battery
            recharge against this world.  ``None`` (or an all-zero
            config) is bit-identical to the pre-fault behaviour: no
            fault RNG streams are created and no events scheduled.
        trace: Optional event-trace recorder (see :mod:`repro.trace`).
            Shared with the engine, links, fault injector, and (via the
            router's ``bind``) the ledger and reputation layers.  The
            default no-op recorder keeps untraced runs bit-identical
            and nearly free.
        population: The run's :class:`~repro.population.PopulationMap`
            (node ids ``0..n-1``), one class or several.  When given,
            it replaces ``link_speed``, ``nominal_distance`` and
            ``battery_capacity``: a link runs at the *slower*
            endpoint's class link speed over the *larger* endpoint's
            class radius (energy distance), and batteries, recharge
            amounts and :meth:`node_class` come from each node's
            class.  ``None`` (hand-built worlds) puts every node in one
            ``"default"`` class made of those scalar arguments.
    """

    def __init__(
        self,
        engine: Engine,
        nodes: Sequence[Node],
        router: "Router",
        *,
        link_speed: float = 250_000.0,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[MetricsCollector] = None,
        energy: Optional[EnergyModel] = None,
        ttl: Optional[float] = None,
        ttl_check_interval: float = 300.0,
        nominal_distance: float = 100.0,
        battery_capacity: Optional[float] = None,
        resume_partial_transfers: bool = False,
        faults: Optional[FaultConfig] = None,
        trace: Optional[TraceRecorder] = None,
        population=None,
    ):
        if not (link_speed > 0 and math.isfinite(link_speed)):
            raise ConfigurationError(
                f"link_speed must be finite and > 0, got {link_speed!r}"
            )
        if not (nominal_distance >= 0 and math.isfinite(nominal_distance)):
            raise ConfigurationError(
                f"nominal_distance must be finite and >= 0, "
                f"got {nominal_distance!r}"
            )
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(f"ttl must be > 0, got {ttl!r}")
        # ``not > 0`` also rejects NaN; ``inf`` (mains power) stays legal.
        if battery_capacity is not None and not battery_capacity > 0:
            raise ConfigurationError(
                f"battery_capacity must be > 0, got {battery_capacity!r}"
            )
        self.engine = engine
        # Set before the fault injector is built — it reads world.trace.
        self.trace = trace if trace is not None else NULL_RECORDER
        engine.trace = self.trace
        self._nodes: Dict[int, Node] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ConfigurationError(
                    f"duplicate node id {node.node_id}"
                )
            self._nodes[node.node_id] = node
        n = len(self._nodes)
        missing = next((i for i in range(n) if i not in self._nodes), None)
        if missing is not None:
            raise ConfigurationError(
                f"node ids must be exactly 0..{n - 1}, but id {missing} "
                f"is missing"
            )
        self.router = router
        self.streams = streams if streams is not None else RandomStreams(0)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.energy = energy if energy is not None else EnergyModel()
        self.ttl = ttl
        self.population = population
        if population is None:
            self._class_of = [0] * n
            self._class_names = [DEFAULT_CLASS]
            radios = [(float(link_speed), float(nominal_distance))]
            capacities = battery_capacity
        else:
            self._class_of = population.class_id.tolist()
            self._class_names = [c.name for c in population.classes]
            radios = [
                (c.link_speed, c.transmission_radius)
                for c in population.classes
            ]
            capacities = population.battery_capacities
        # (speed, distance) per class pair: the slower radio bottlenecks
        # the transfer, and energy is billed at the larger radius (the
        # conservative stand-in for the unknown contact distance).
        self._link_params = [
            [(min(speed_a, speed_b), max(radius_a, radius_b))
             for speed_b, radius_b in radios]
            for speed_a, radius_a in radios
        ]
        # Only a mix stamps classes on its trace records (schema v2).
        self._trace_classes = (
            population is not None and population.heterogeneous
        )
        self.state = WorldState(n, battery_capacity=capacities)
        self.energy.attach(self.state)
        self._build_interest_matrix()

        self.resume_partial_transfers = bool(resume_partial_transfers)
        # (receiver, uuid) -> bytes already moved in an aborted attempt.
        self._partial_bytes: Dict[Tuple[int, str], float] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._links_by_node: Dict[int, List[Link]] = {
            node_id: [] for node_id in self._nodes
        }
        self._in_flight: Set[Tuple[int, str]] = set()
        self._generator: Optional[MessageGenerator] = None

        # Fault injection: only instantiated when a fault process is
        # actually enabled, so fault-free runs schedule no extra events
        # and create no extra RNG streams (bit-identical behaviour).
        self.faults: Optional[FaultInjector] = None
        if faults is not None and faults.enabled:
            self.faults = FaultInjector(self, faults)
            if faults.recharging and self.state.battery is not None:
                self._recharge_process = PeriodicProcess(
                    engine, faults.recharge_interval, self._recharge,
                    start_at=engine.now + faults.recharge_interval,
                    label="battery-recharge",
                )
                self._recharge_process.start()

        router.bind(self)
        if ttl is not None:
            self._ttl_process = PeriodicProcess(
                engine, ttl_check_interval, self._sweep_ttl,
                start_at=engine.now + ttl_check_interval, label="ttl-sweep",
            )
            self._ttl_process.start()

    # ------------------------------------------------------------------
    # RoutingContext interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    def schedule_in(self, delay: float, callback, *, label=""):
        """Schedule ``callback`` ``delay`` seconds from now.

        Exposed for routers (retransmission backoff timers); returns
        the engine's cancellable event handle.  ``label`` may be a
        string or a lazy zero-argument callable.
        """
        return self.engine.schedule_in(delay, callback, label=label)

    def node(self, node_id: int) -> Node:
        """The node with ``node_id``.

        Raises:
            ConfigurationError: For unknown ids.
        """
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ConfigurationError(f"unknown node id {node_id}") from None

    def node_ids(self) -> List[int]:
        """All node ids, sorted."""
        return sorted(self._nodes)

    def node_class(self, node_id: int) -> str:
        """Population class name of ``node_id`` (``"default"`` on a
        world built without a population)."""
        return self._class_names[self._class_of[node_id]]

    def nodes(self) -> List[Node]:
        """All nodes, sorted by id."""
        return [self._nodes[i] for i in self.node_ids()]

    def active_links(self, node_id: int) -> List[Link]:
        """Open links ``node_id`` currently participates in (a copy)."""
        return list(self._links_by_node.get(node_id, _NO_LINKS))

    def open_links(self, node_id: int) -> List[Link]:
        """``node_id``'s open links, zero-copy (router hot-path view).

        :meth:`_close_contact` removes a link from the per-node lists
        *before* it closes, so the internal list only ever holds open
        links.  Treat as read-only — callers that might mutate the link
        set while iterating must use :meth:`active_links`, which copies.
        """
        links = self._links_by_node.get(node_id)
        return links if links is not None else _NO_LINKS

    def link_between(self, a: int, b: int) -> Optional[Link]:
        """The open link between ``a`` and ``b``, if any."""
        return self._links.get((a, b) if a < b else (b, a))

    def can_send(self, link: Link, sender: int, message: Message) -> bool:
        """Whether :meth:`send_message` would actually start a transfer.

        Lets protocols settle payments only for transfers that will
        happen (the incentive scheme pays *before* transferring).
        """
        if link.closed:
            return False
        receiver_id = link.peer_of(sender)
        receiver = self.node(receiver_id)
        if receiver.has_seen(message.uuid):
            return False
        return (receiver_id, message.uuid) not in self._in_flight

    def send_message(
        self, link: Link, sender: int, message: Message
    ) -> Optional[Transfer]:
        """Queue a copy of ``message`` from ``sender`` over ``link``.

        The transfer is suppressed (returns ``None``) when the link is
        closed, the receiver has already seen the message, or an
        identical copy is already in flight to that receiver.
        """
        if link.closed:
            self.metrics.on_transfer_suppressed()
            return None
        receiver_id = link.peer_of(sender)
        receiver = self.node(receiver_id)
        key = (receiver_id, message.uuid)
        if receiver.has_seen(message.uuid) or key in self._in_flight:
            self.metrics.on_transfer_suppressed()
            return None
        copy = message.copy_for_transfer()
        self._in_flight.add(key)
        self.metrics.on_transfer_started(copy)
        duration = None
        if self.resume_partial_transfers:
            done = self._partial_bytes.get(key, 0.0)
            if done > 0.0:
                remaining = max(copy.size - done, 0.0)
                duration = remaining / link.speed
        return link.send(
            sender,
            copy,
            on_complete=lambda transfer: self._transfer_done(transfer, link),
            on_abort=lambda transfer: self._transfer_aborted(transfer, link),
            duration=duration,
        )

    # ------------------------------------------------------------------
    # Delivery / relay bookkeeping (called by routers)
    # ------------------------------------------------------------------
    def deliver(self, receiver: Node, message: Message) -> bool:
        """Record delivery of ``message`` to ``receiver`` as destination.

        Returns:
            ``True`` on first delivery, ``False`` on duplicates.
        """
        first = receiver.accept_delivery(message, self.now)
        if first:
            self.metrics.on_delivered(message, receiver.node_id, self.now)
        if self.trace.enabled:
            record = {
                "type": "delivery", "t": self.now, "uuid": message.uuid,
                "node": receiver.node_id, "first": first,
            }
            if self._trace_classes:
                record["node_class"] = self.node_class(receiver.node_id)
            self.trace.emit(record)
        return first

    def accept_relay(self, receiver: Node, message: Message) -> bool:
        """Buffer ``message`` at ``receiver`` for onward forwarding.

        Returns:
            ``True`` if buffered (evictions are metered), ``False`` if
            the buffer rejected the message.
        """
        if message.uuid in receiver.buffer:
            return True
        try:
            evicted = receiver.buffer.add(message, self.now)
        except BufferError_:
            return False
        receiver.seen.add(message.uuid)
        if evicted:
            self.metrics.on_buffer_evicted(len(evicted))
            for victim in evicted:
                if self.trace.enabled:
                    self.trace.emit({
                        "type": "message-drop", "t": self.now,
                        "uuid": victim.uuid, "node": receiver.node_id,
                    })
                self.router.on_message_dropped(receiver.node_id, victim)
        self.metrics.on_relayed(message, receiver.node_id)
        return True

    # ------------------------------------------------------------------
    # Contacts
    # ------------------------------------------------------------------
    def load_contact_trace(self, trace: ContactTrace) -> None:
        """Schedule the trace as one batch event per ``(time, kind)``.

        The batches are :meth:`ContactTrace.ticks`, whose pairs are all
        built before the first event fires; see the module docstring
        for why they fire in exactly the order a per-pair schedule
        would.  The events go through :meth:`Engine.schedule_many` —
        one O(n) heapify instead of n pushes.

        Raises:
            ConfigurationError: When a contact names a node this world
                does not have, naming the first such id.
        """
        n = self.state.n
        # Ids are 0..n-1 and every trace row has a < b.
        unknown = (trace.a < 0) | (trace.b >= n)
        if unknown.any():
            row = int(unknown.argmax())
            node = trace.a[row] if trace.a[row] < 0 else trace.b[row]
            raise ConfigurationError(
                f"contact {row} names node {int(node)}, but the world has "
                f"{n} nodes"
            )
        run_up = self._run_up_batch
        run_down = self._run_down_batch
        self.engine.schedule_many(
            (time, (lambda b=pairs: run_up(b)), 1, "contact-up-batch")
            if kind == "up"
            else (time, (lambda b=pairs: run_down(b)), 0, "contact-down-batch")
            for time, kind, pairs in trace.ticks()
        )

    def _run_up_batch(self, batch: List[Tuple[int, int]]) -> None:
        """One contact-up tick: admit, batch-prepare, open.

        Three phases — (1) admission for every pair in trace order
        (consuming the behaviour RNG stream exactly as a per-pair loop
        does: admission outcomes cannot be changed by earlier pairs'
        exchanges, whose transfers settle at strictly later events),
        (2) one ``prepare_contact_batch`` so the router can plan its
        pre-exchange state updates vectorised (the base hook does
        nothing) and say which pairs need their per-pair hook, then (3)
        the open/register/trace half per admitted pair in order, with
        ``on_contact_start`` where the router asked.  A pair admitted
        earlier in the batch suppresses later duplicates before their
        RNG draws — the same skip the live-link check performs per pair.
        """
        admit = self._admit_contact
        admitted: List[Tuple[int, int]] = []
        admitted_set: Set[Tuple[int, int]] = set()
        for pair in batch:
            if pair in admitted_set:
                continue
            if admit(pair):
                admitted.append(pair)
                admitted_set.add(pair)
        if not admitted:
            return
        hooked = self.router.prepare_contact_batch(admitted).tolist()
        open_contact = self._open_contact
        for pair, hook in zip(admitted, hooked):
            open_contact(pair, hook)

    def _run_down_batch(
        self, batch: List[Tuple[int, int]], reason: str = "mobility"
    ) -> None:
        """One contact-down tick: close in order, then end the batch.

        Every live pair is popped, closed and traced at its per-pair
        point (aborting in-flight transfers), and the router gets every
        closed link in one ``contact_end_batch`` call in close order.
        The base hook replays ``on_contact_end`` per link.  Close/abort
        handling never reads interest tables, so nothing between a
        growth's per-pair point and the end of the batch observes it,
        and ChitChat reconstructs each node's own growth order exactly
        via round decomposition (see ``ChitChatRouter.contact_end_batch``).
        Forced disconnects run here too, under their own ``reason``.
        """
        close = self._close_contact
        closed: List[Link] = []
        for pair in batch:
            link = close(pair, reason)
            if link is not None:
                closed.append(link)
        if closed:
            self.router.contact_end_batch(closed)

    def battery_level(self, node_id: int) -> Optional[float]:
        """Remaining battery in joules (None when batteries are off).

        Raises:
            ConfigurationError: For unknown ids, when batteries are on.
        """
        if self.state.battery is None:
            return None
        # A negative id would silently read another node's entry.
        return float(self.state.battery[self.node(node_id).node_id])

    def _battery_dead(self, node_id: int) -> bool:
        if self.state.battery is None:
            return False
        return bool(self.state.battery[node_id] <= 0.0)

    def _drain_battery(self, node_id: int, joules: float) -> None:
        battery = self.state.battery
        if battery is None:
            return
        before = float(battery[node_id])
        battery[node_id] = max(0.0, before - joules)
        # Under fault injection a depleted battery is a blackout: the
        # node drops its links on the spot instead of merely refusing
        # new contacts.  (Without the injector existing links survive.)
        if (self.faults is not None and before > 0.0
                and battery[node_id] <= 0.0):
            self._battery_blackout(node_id)

    def _battery_blackout(self, node_id: int) -> None:
        """React to a battery crossing positive -> empty (faults only)."""
        if self.trace.enabled:
            self.trace.emit({
                "type": "fault-blackout", "t": self.now, "node": node_id,
            })
        self._disconnect_node(node_id, reason="blackout")
        self.metrics.on_blackout()

    def node_available(self, node_id: int) -> bool:
        """Whether ``node_id`` exists and is up (powered, not faulted).

        The fault-state half of :meth:`_behavior_allows_contact` —
        deliberately *without* the behaviour gate, which models radio
        duty-cycling (a probabilistic per-contact coin that consumes
        the behaviour RNG stream) rather than the node being dark.
        Routers consult this before spending bounded resources, e.g. a
        retransmission attempt, on a peer that cannot receive.
        """
        if node_id not in self._nodes:
            return False
        if self._battery_dead(node_id):
            return False
        if self.faults is not None and self.faults.is_down(node_id):
            return False
        return True

    def _behavior_allows_contact(self, node: Node) -> bool:
        if self._battery_dead(node.node_id):
            return False
        if self.faults is not None and self.faults.is_down(node.node_id):
            return False
        behavior = node.behavior
        if behavior is None:
            return True
        enabled = getattr(behavior, "contact_enabled", None)
        if enabled is None:
            return True
        return bool(enabled(self.streams.get("behavior")))

    def _admit_contact(self, pair: Tuple[int, int]) -> bool:
        """The admission half of a contact-up event.

        Runs every check — duplicate live link and the behaviour gates
        (which consume the behaviour RNG stream) — but creates nothing,
        so a tick's pairs can all be admitted before any of them opens.
        Both nodes exist: :meth:`load_contact_trace` checked the ids.
        """
        a, b = pair
        if pair in self._links:
            return False
        # A selfish node's radio is usually off: the contact only forms
        # when both endpoints participate (Paper I, experiment A).
        if not self._behavior_allows_contact(self._nodes[a]):
            return False
        if not self._behavior_allows_contact(self._nodes[b]):
            return False
        return True

    def _open_contact(self, pair: Tuple[int, int], hook: bool = True) -> None:
        """The opening half: create the link, trace it and, when
        ``hook`` is set, start routing."""
        a, b = pair
        fault_hook = None
        if self.faults is not None and self.faults.config.lossy:
            fault_hook = self.faults.transfer_verdict
        class_of = self._class_of
        speed, distance = self._link_params[class_of[a]][class_of[b]]
        link = Link(
            self.engine, a, b,
            speed=speed, distance=distance,
            fault_hook=fault_hook, trace=self.trace,
        )
        self._links[pair] = link
        self._links_by_node[a].append(link)
        self._links_by_node[b].append(link)
        if self.trace.enabled:
            self.trace.emit({
                "type": "contact-up", "t": self.now, "a": a, "b": b,
            })
        if hook:
            self.router.on_contact_start(link)

    def _close_contact(
        self, pair: Tuple[int, int], reason: str
    ) -> Optional[Link]:
        """Pop, unregister, close and trace the pair's live link.

        The one place a link closes.  Returns the closed link (``None``
        when there was no live link) for the caller's
        ``contact_end_batch``.
        """
        link = self._links.pop(pair, None)
        if link is None:
            return None
        a, b = pair
        self._links_by_node[a].remove(link)
        self._links_by_node[b].remove(link)
        link.close(reason)
        if self.trace.enabled:
            self.trace.emit({
                "type": "contact-down", "t": self.now, "a": a, "b": b,
                "reason": reason,
            })
        return link

    # ------------------------------------------------------------------
    # Faults: churn, blackouts, recharge (driven by the FaultInjector)
    # ------------------------------------------------------------------
    def _disconnect_node(self, node_id: int, reason: str) -> None:
        """Force-close every link ``node_id`` participates in, as a
        down tick of those links would."""
        self._run_down_batch(
            [link.pair for link in self._links_by_node[node_id]], reason
        )

    def on_node_crashed(self, node_id: int, *, wipe_state: bool) -> None:
        """A churn crash: drop links and (optionally) volatile state.

        With ``wipe_state`` the buffer contents are lost and the dedup
        ``seen`` memory resets to what survives in durable records
        (originated and delivered messages), so a restarted node can
        re-receive relayed copies — the scenario idempotent settlement
        exists for.  Delivery receipts and reputation books are kept:
        they live in the (conceptually replicated) ledger layer.
        """
        self._disconnect_node(node_id, reason="churn")
        node = self._nodes[node_id]
        if wipe_state:
            for message in node.buffer.messages():
                node.buffer.discard(message.uuid)
                if self.trace.enabled:
                    self.trace.emit({
                        "type": "message-drop", "t": self.now,
                        "uuid": message.uuid, "node": node_id,
                    })
                self.router.on_message_dropped(node_id, message)
            node.seen = set(node.delivered) | set(node.generated)
            # Router-side volatile state (interest tables, memo caches)
            # is part of what a wipe loses; fire after the buffer drain
            # so the router saw every drop first.
            self.router.on_node_wiped(node_id)
        self.metrics.on_node_crash()

    def on_node_restarted(self, node_id: int) -> None:
        """A churn restart: the node resumes forming contacts."""
        self.metrics.on_node_restart()

    def _recharge(self, now: float) -> None:
        if self.state.battery is None or self.faults is None:
            return
        # A population recharges with a per-node amount array.
        amount = self.faults.config.recharge_amount
        if self.population is not None:
            amount = self.population.recharge_amounts(amount)
        self.state.recharge(amount)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def _transfer_done(self, transfer: Transfer, link: Link) -> None:
        self._in_flight.discard((transfer.receiver, transfer.message.uuid))
        self._partial_bytes.pop(
            (transfer.receiver, transfer.message.uuid), None
        )
        self.metrics.on_transfer_completed(transfer.message)
        if self.trace.enabled:
            self.trace.emit({
                "type": "transfer-complete", "t": self.now,
                "uuid": transfer.message.uuid,
                "sender": transfer.sender, "receiver": transfer.receiver,
            })
        # Energy: transmitter pays P_t * t; receiver pays the Friis
        # received power at the nominal contact distance times t.
        tx_energy = self.energy.transmit_energy(transfer.duration)
        rx_energy = self.energy.receive_energy(
            transfer.duration, link.distance
        )
        self.energy.charge(transfer.sender, tx_energy)
        self.energy.charge(transfer.receiver, rx_energy)
        self._drain_battery(transfer.sender, tx_energy)
        self._drain_battery(transfer.receiver, rx_energy)
        self.router.on_message_received(transfer, link)

    def _transfer_aborted(self, transfer: Transfer, link: Link) -> None:
        key = (transfer.receiver, transfer.message.uuid)
        self._in_flight.discard(key)
        faulted = transfer.abort_reason in ("loss", "corruption")
        if (
            self.resume_partial_transfers
            and transfer.started_at is not None
            and not faulted
        ):
            # Reactive fragmentation only credits bytes that actually
            # survived: a lost/corrupt frame leaves nothing to resume.
            elapsed = max(self.now - transfer.started_at, 0.0)
            moved_now = min(elapsed * link.speed, float(transfer.message.size))
            already = self._partial_bytes.get(key, 0.0)
            self._partial_bytes[key] = min(
                already + moved_now, float(transfer.message.size)
            )
        if faulted:
            # The full transfer duration elapsed before the fault was
            # detected, so both radios spent the energy regardless.
            tx_energy = self.energy.transmit_energy(transfer.duration)
            rx_energy = self.energy.receive_energy(
                transfer.duration, link.distance
            )
            self.energy.charge(transfer.sender, tx_energy)
            self.energy.charge(transfer.receiver, rx_energy)
            self._drain_battery(transfer.sender, tx_energy)
            self._drain_battery(transfer.receiver, rx_energy)
            if transfer.abort_reason == "loss":
                self.metrics.on_transfer_lost()
            else:
                self.metrics.on_transfer_corrupted()
        self.metrics.on_transfer_aborted(transfer.message)
        if self.trace.enabled:
            self.trace.emit({
                "type": "transfer-abort", "t": self.now,
                "uuid": transfer.message.uuid,
                "sender": transfer.sender, "receiver": transfer.receiver,
                "reason": transfer.abort_reason or "unknown",
            })
        self.router.on_transfer_aborted(transfer, link)

    # ------------------------------------------------------------------
    # Interests and workload
    # ------------------------------------------------------------------
    def _build_interest_matrix(self) -> None:
        """Dense (n, keywords) interest incidence for fast fan-out.

        Columns cover the union of node interests in sorted order;
        message keywords outside the union interest nobody and simply
        contribute no column.
        """
        keywords = sorted(
            {kw for node in self._nodes.values() for kw in node.interests}
        )
        self._interest_columns: Dict[str, int] = {
            kw: col for col, kw in enumerate(keywords)
        }
        matrix = np.zeros((len(self._nodes), len(keywords)), dtype=bool)
        for node in self._nodes.values():
            for kw in node.interests:
                matrix[node.node_id, self._interest_columns[kw]] = True
        self._interest_matrix = matrix

    def subscribe(self, node_id: int, keywords: Iterable[str]) -> None:
        """Add direct interests to ``node_id``: it becomes an intended
        destination of every later message carrying one of them, and
        the router adds them to its own per-node state.  The one
        subscription path."""
        keywords = list(keywords)
        node = self.node(node_id)
        node.interests = frozenset(node.interests) | frozenset(keywords)
        self._build_interest_matrix()
        self.router.on_node_subscribed(node_id, keywords)

    def _intended_destinations(self, message: Message) -> Set[int]:
        """Node ids with a direct interest in ``message`` (source excluded)."""
        cols = [
            self._interest_columns[kw]
            for kw in message.keywords
            if kw in self._interest_columns
        ]
        if not cols:
            return set()
        mask = self._interest_matrix[:, cols].any(axis=1)
        mask[message.source] = False
        return set(np.flatnonzero(mask).tolist())

    def use_generator(self, generator: MessageGenerator) -> None:
        """Attach the workload generator used by :meth:`schedule_workload`."""
        self._generator = generator

    def schedule_workload(self, plan: Iterable[Tuple[float, int]]) -> None:
        """Schedule message creations from ``(time, source)`` pairs."""
        if self._generator is None:
            raise SimulationError(
                "call use_generator() before schedule_workload()"
            )
        create = self._create_scheduled_message
        self.engine.schedule_many(
            (time, (lambda s=source: create(s)), 2, "create-message")
            for time, source in plan
        )

    def _create_scheduled_message(self, source: int) -> None:
        if self.faults is not None and self.faults.is_down(source):
            # A crashed device originates nothing; the message simply
            # never exists (it is not counted against MDR).
            self.metrics.on_creation_skipped_offline()
            return
        node = self.node(source)
        low_quality = False
        behavior = node.behavior
        if behavior is not None:
            creates_low = getattr(behavior, "creates_low_quality", None)
            if creates_low is not None:
                low_quality = bool(creates_low(self.streams.get("behavior")))
        message = self._generator.create_message(
            source, self.now, low_quality=low_quality
        )
        self.inject_message(message)

    def inject_message(self, message: Message) -> None:
        """Originate ``message`` at its source and register metrics."""
        node = self.node(message.source)
        intended = self._intended_destinations(message)
        if self.trace.enabled:
            self.trace.emit({
                "type": "message-created", "t": self.now,
                "uuid": message.uuid, "source": message.source,
                "size": message.size, "priority": int(message.priority),
                "quality": float(message.quality),
                "intended": len(intended),
            })
        try:
            node.originate(message, self.now)
        except BufferError_:
            # Source buffer full even after creation: the message dies at
            # birth but still counts against MDR, as in ONE.
            self.metrics.on_message_created(message, intended)
            return
        self.metrics.on_message_created(message, intended)
        self.router.on_message_created(message.source, message)

    # ------------------------------------------------------------------
    # TTL
    # ------------------------------------------------------------------
    def _sweep_ttl(self, now: float) -> None:
        if self.ttl is None:
            return
        for node in self._nodes.values():
            expired = node.buffer.expire(now, self.ttl)
            if expired:
                self.metrics.on_expired(len(expired))
                for message in expired:
                    if self.trace.enabled:
                        self.trace.emit({
                            "type": "message-expiry", "t": now,
                            "uuid": message.uuid, "node": node.node_id,
                        })
                    self.router.on_message_expired(node.node_id, message)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> MetricsCollector:
        """Run the simulation for ``duration`` seconds and return metrics."""
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration!r}")
        self.engine.run_until(self.engine.now + duration)
        return self.metrics


# Imported late to avoid a circular reference in type checking; Router
# only needs World at runtime through the RoutingContext protocol.
from repro.routing.base import Router  # noqa: E402  (documentation import)
