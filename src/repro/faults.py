"""Deterministic fault injection for robustness studies.

The paper evaluates its incentive mechanism on *ideal* contacts: every
transfer that fits in a contact window succeeds, every delivery receipt
settles exactly once, and nodes never crash.  Real DTNs are defined by
the opposite regime — lossy links, devices that die and come back, and
batteries that run dry — and a credit/reputation layer is only
trustworthy if it degrades gracefully under those faults instead of
leaking tokens or double-paying.

This module provides that adversarial substrate.  All fault processes
are driven by dedicated named RNG streams (``"fault-loss"``,
``"fault-churn"``) derived from the run's master seed, so fault
scenarios are exactly as reproducible as fault-free ones, and a
:class:`FaultConfig` whose every knob is zero is *bit-identical* to no
fault injection at all (no streams are created, no events scheduled).

Three fault processes are modelled:

* **Link-layer loss / corruption** — each transfer that would complete
  independently fails with ``loss_probability`` or arrives corrupted
  with ``corruption_probability``.  Both are decided at the instant the
  transfer would finish (the bytes were sent; the frame was lost or
  mangled in flight), so energy is still spent and the abort is
  distinguishable from a mobility abort via
  :attr:`~repro.network.link.Transfer.abort_reason`.
* **Node churn** — each node alternates exponential uptime/downtime
  windows.  A crashed node tears down its links (abort reason
  ``"churn"``), forms no contacts, and originates no messages while
  down.  The state policy decides what a restart recovers:
  ``"wipe"`` clears the buffer and the dedup ``seen`` set (delivery
  receipts and reputation books survive, as they live in the
  distributed ledger abstraction), ``"persist"`` models flash-backed
  storage that survives the outage.
* **Energy blackouts** — when the world runs with finite batteries, a
  node whose battery depletes drops its links (abort reason
  ``"blackout"``) and stops participating; the optional recharge
  process tops batteries back up so blacked-out nodes eventually
  rejoin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Set

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.link import Transfer
    from repro.network.world import World

__all__ = ["FaultConfig", "FaultInjector", "CHURN_POLICIES"]

#: Valid crash/restart state policies.
CHURN_POLICIES = ("wipe", "persist")


@dataclass(frozen=True)
class FaultConfig:
    """Knobs for every fault process, all off by default.

    Attributes:
        loss_probability: Chance each completing transfer is lost in
            flight (aborted with reason ``"loss"``).
        corruption_probability: Chance each completing transfer arrives
            corrupted and is discarded (reason ``"corruption"``).
            ``loss_probability + corruption_probability`` must be <= 1.
        mean_uptime: Mean of the exponential uptime window between node
            crashes, seconds; ``0`` disables churn.
        mean_downtime: Mean of the exponential outage window, seconds.
        churn_policy: What a restart recovers — ``"wipe"`` loses the
            buffer and dedup memory, ``"persist"`` keeps both.
        recharge_interval: Period of the battery recharge process,
            seconds; ``0`` disables recharging.  Only meaningful when
            the world runs with ``battery_capacity`` set.
        recharge_amount: Joules restored per recharge tick (capped at
            the battery capacity).
    """

    loss_probability: float = 0.0
    corruption_probability: float = 0.0
    mean_uptime: float = 0.0
    mean_downtime: float = 600.0
    churn_policy: str = "wipe"
    recharge_interval: float = 0.0
    recharge_amount: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_probability", "corruption_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value!r}"
                )
        if self.loss_probability + self.corruption_probability > 1.0:
            raise ConfigurationError(
                "loss_probability + corruption_probability must be <= 1, "
                f"got {self.loss_probability + self.corruption_probability!r}"
            )
        for name in ("mean_uptime", "mean_downtime", "recharge_interval",
                     "recharge_amount"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )
        if self.mean_uptime > 0 and self.mean_downtime <= 0:
            raise ConfigurationError(
                "mean_downtime must be > 0 when churn is enabled"
            )
        if self.churn_policy not in CHURN_POLICIES:
            raise ConfigurationError(
                f"churn_policy must be one of {CHURN_POLICIES}, "
                f"got {self.churn_policy!r}"
            )

    @property
    def lossy(self) -> bool:
        """Whether any per-transfer fault can fire."""
        return self.loss_probability > 0.0 or self.corruption_probability > 0.0

    @property
    def churning(self) -> bool:
        """Whether node churn is enabled."""
        return self.mean_uptime > 0.0

    @property
    def recharging(self) -> bool:
        """Whether the battery recharge process is enabled."""
        return self.recharge_interval > 0.0 and self.recharge_amount > 0.0

    @property
    def enabled(self) -> bool:
        """Whether any fault process is active.

        An all-zero config is equivalent to no fault injection at all;
        the world skips the injector entirely, keeping fault-free runs
        bit-identical to pre-fault-subsystem behaviour.
        """
        return self.lossy or self.churning or self.recharging


class FaultInjector:
    """Drives the configured fault processes against one :class:`World`.

    Created by the world when its scenario carries an enabled
    :class:`FaultConfig`; never instantiated for fault-free runs.  All
    randomness comes from the world's named streams so fault draws do
    not perturb mobility, workload, or behaviour draws.
    """

    def __init__(self, world: "World", config: FaultConfig):
        self.config = config
        self._world = world
        self._down: Set[int] = set()
        if config.lossy:
            self._loss_rng = world.streams.get("fault-loss")
        if config.churning:
            self._churn_rng = world.streams.get("fault-churn")
            # Seed every node's first crash in sorted-id order so the
            # draw sequence is independent of dict iteration order.
            for node_id in world.node_ids():
                self._schedule_crash(node_id)

    # ------------------------------------------------------------------
    # Link-layer loss / corruption
    # ------------------------------------------------------------------
    def transfer_verdict(self, transfer: "Transfer") -> Optional[str]:
        """Fault verdict for a transfer about to complete.

        Returns ``"loss"``, ``"corruption"``, or ``None`` (success).
        Installed as the link's fault hook only when the config is
        lossy, so fault-free links never draw.
        """
        draw = self._loss_rng.random()
        if draw < self.config.loss_probability:
            return "loss"
        if draw < (self.config.loss_probability
                   + self.config.corruption_probability):
            return "corruption"
        return None

    # ------------------------------------------------------------------
    # Node churn
    # ------------------------------------------------------------------
    def is_down(self, node_id: int) -> bool:
        """Whether ``node_id`` is currently crashed."""
        return node_id in self._down

    def _schedule_crash(self, node_id: int) -> None:
        delay = float(
            self._churn_rng.exponential(self.config.mean_uptime)
        )
        self._world.engine.schedule_in(
            delay,
            lambda: self._crash(node_id),
            priority=0,
            label=f"node-crash {node_id}",
        )

    def _schedule_restart(self, node_id: int) -> None:
        delay = float(
            self._churn_rng.exponential(self.config.mean_downtime)
        )
        self._world.engine.schedule_in(
            delay,
            lambda: self._restart(node_id),
            priority=1,
            label=f"node-restart {node_id}",
        )

    def _crash(self, node_id: int) -> None:
        if node_id in self._down:  # pragma: no cover - defensive
            return
        self._down.add(node_id)
        trace = self._world.trace
        if trace.enabled:
            trace.emit({
                "type": "fault-crash", "t": self._world.engine.now,
                "node": node_id,
                "wiped": self.config.churn_policy == "wipe",
            })
        self._world.on_node_crashed(
            node_id, wipe_state=self.config.churn_policy == "wipe"
        )
        self._schedule_restart(node_id)

    def _restart(self, node_id: int) -> None:
        self._down.discard(node_id)
        trace = self._world.trace
        if trace.enabled:
            trace.emit({
                "type": "fault-restart", "t": self._world.engine.now,
                "node": node_id,
            })
        self._world.on_node_restarted(node_id)
        self._schedule_crash(node_id)
