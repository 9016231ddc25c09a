"""Minority-game participation over the ChitChat substrate.

Relaying in a DTN is a congestion game: when almost everyone relays,
buffers and contacts are saturated and the marginal relay mostly burns
energy; when almost nobody does, a willing relay is very valuable.
That is the classic *minority game* (Challet & Zhang's El Farol
formalisation), and the adaptive strategy is the standard stochastic
one: each node keeps a participation probability, redraws its choice
every epoch, and reinforces whichever choice ended up on the minority
side.

:class:`MinorityGameChitChat` layers that per-epoch participate/defect
decision over :class:`~repro.routing.chitchat.ChitChatRouter`:

* every ``epoch_length`` seconds each node redraws participate/defect
  from its own probability (one vectorised draw on the dedicated
  ``"minority-game"`` RNG stream — exactly ``n_nodes`` variates per
  epoch regardless of traffic, so mobility/workload streams never
  shift);
* the *minority* side is reinforced: nodes on it move their
  probability toward the choice they just made by ``learning_rate``,
  nodes on the majority side move away, clipped to
  ``[p_floor, p_ceiling]`` so nobody locks in forever;
* defectors sit relaying out for the epoch — they refuse relay
  custody, advertise zero relay affinity, and are offered no relay
  copies — but destination deliveries still flow both ways (a
  defector still wants its own content; defection only withdraws the
  altruistic act).

Composed under the :class:`~repro.core.incentive_layer.IncentiveLayer`
(the ``minority-game`` scheme), participation gates which offers reach
the payment pipeline, so the ledger/conservation audits cover the game
automatically.  On worlds without a scheduler or RNG streams (unit-test
stubs) the game never starts and the router degrades to plain ChitChat.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.routing.chitchat import ChitChatRouter

__all__ = ["MinorityGameChitChat"]

#: Name of the dedicated RNG stream the per-epoch draws consume.
STREAM_NAME = "minority-game"


class MinorityGameChitChat(ChitChatRouter):
    """ChitChat with minority-game participate/defect epochs.

    Args:
        epoch_length: Seconds between redraws of every node's
            participate/defect choice.
        learning_rate: Probability step applied after each epoch
            (toward the repeated choice on the minority side, away
            from it on the majority side).
        p_floor: Lower clip for the participation probability.
        p_ceiling: Upper clip for the participation probability.
        **chitchat_kwargs: Forwarded to
            :class:`~repro.routing.chitchat.ChitChatRouter`.
    """

    name = "minority-game-chitchat"

    def __init__(
        self,
        *,
        epoch_length: float = 600.0,
        learning_rate: float = 0.05,
        p_floor: float = 0.1,
        p_ceiling: float = 0.9,
        **chitchat_kwargs,
    ):
        super().__init__(**chitchat_kwargs)
        if epoch_length <= 0:
            raise ConfigurationError(
                f"epoch_length must be > 0, got {epoch_length!r}"
            )
        if not 0.0 < learning_rate < 1.0:
            raise ConfigurationError(
                f"learning_rate must be in (0, 1), got {learning_rate!r}"
            )
        if not 0.0 < p_floor < p_ceiling < 1.0:
            raise ConfigurationError(
                "need 0 < p_floor < p_ceiling < 1, got "
                f"p_floor={p_floor!r}, p_ceiling={p_ceiling!r}"
            )
        self.epoch_length = float(epoch_length)
        self.learning_rate = float(learning_rate)
        self.p_floor = float(p_floor)
        self.p_ceiling = float(p_ceiling)
        #: Participation probability per node (index order of
        #: ``_node_index``); None until the game starts.
        self._p: Optional[np.ndarray] = None
        #: This epoch's participate/defect choices; None → everyone
        #: participates (the plain-ChitChat degradation).
        self._choices: Optional[np.ndarray] = None
        self._node_index: Dict[int, int] = {}
        #: Epochs completed so far (observability / tests).
        self.epochs_played: int = 0

    # ------------------------------------------------------------------
    # Epoch machinery
    # ------------------------------------------------------------------
    def bind(self, world) -> None:
        super().bind(world)
        self._p = None
        self._choices = None
        self._node_index = {}
        self.epochs_played = 0
        schedule = getattr(world, "schedule_in", None)
        streams = getattr(world, "streams", None)
        if schedule is None or streams is None:
            # Stub worlds (unit tests) have no scheduler/streams: the
            # game never starts and the router is plain ChitChat.
            return
        node_ids = sorted(world.node_ids())
        self._node_index = {nid: i for i, nid in enumerate(node_ids)}
        self._p = np.full(len(node_ids), 0.5, dtype=np.float64)
        self._draw_choices()
        schedule(
            self.epoch_length, self._epoch_tick, label="minority-game-epoch"
        )

    def _draw_choices(self) -> None:
        # Exactly n draws per epoch, whatever happened in between.
        rng = self.world.streams.get(STREAM_NAME)
        self._choices = rng.random(self._p.size) < self._p

    def _epoch_tick(self) -> None:
        choices = self._choices
        participants = int(np.count_nonzero(choices))
        # Strict minority; a tie rewards the defectors (relaying costs
        # energy, so indifference resolves to thrift).
        participants_minority = 2 * participants < choices.size
        rewarded = choices == participants_minority
        # Minority side repeats its choice, majority side moves away:
        # the update direction is (toward participate if chosen else
        # away) flipped when the choice lost.
        direction = np.where(choices, 1.0, -1.0) * np.where(
            rewarded, 1.0, -1.0
        )
        np.clip(
            self._p + self.learning_rate * direction,
            self.p_floor,
            self.p_ceiling,
            out=self._p,
        )
        self.epochs_played += 1
        self._draw_choices()
        self.world.schedule_in(
            self.epoch_length, self._epoch_tick, label="minority-game-epoch"
        )

    def participates(self, node_id: int) -> bool:
        """Whether ``node_id`` relays during the current epoch."""
        if self._choices is None:
            return True
        index = self._node_index.get(node_id)
        if index is None:
            return True
        return bool(self._choices[index])

    def participation_rate(self) -> float:
        """Fraction of nodes participating this epoch (1.0 pre-game)."""
        if self._choices is None:
            return 1.0
        return float(np.count_nonzero(self._choices)) / self._choices.size

    def on_node_wiped(self, node_id: int) -> None:
        super().on_node_wiped(node_id)
        # A churn crash loses the learned strategy with the rest of the
        # node's state; the current epoch's choice stands (the radio
        # restarted, the decision period did not).
        index = self._node_index.get(node_id)
        if index is not None and self._p is not None:
            self._p[index] = 0.5

    # ------------------------------------------------------------------
    # Participation gates over the ChitChat hooks
    # ------------------------------------------------------------------
    def wants_as_relay(
        self, sender_id: int, receiver_id: int, message: Message
    ) -> bool:
        if not (
            self.participates(sender_id) and self.participates(receiver_id)
        ):
            return False
        return super().wants_as_relay(sender_id, receiver_id, message)

    def relay_affinity(self, node_id: int, message: Message) -> float:
        if not self.participates(node_id):
            return 0.0
        return super().relay_affinity(node_id, message)

    def select_messages(
        self, sender_id: int, receiver_id: int
    ) -> List[Tuple[Message, str]]:
        selected = super().select_messages(sender_id, receiver_id)
        if self.participates(sender_id) and self.participates(receiver_id):
            return selected
        # Defection withdraws relaying only: destination deliveries
        # keep flowing.
        return [pair for pair in selected if pair[1] == "destination"]
