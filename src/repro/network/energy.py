"""Radio energy model based on the Friis transmission equation.

The paper's hardware incentive factor compensates nodes for the energy
spent transmitting and receiving.  It computes the received power with
the Friis free-space equation::

    P_r = P_t / L_v,      L_v = (4 * pi * R / lambda)^2

where ``R`` is the distance between the devices and ``lambda`` the
carrier wavelength.  (The paper's symbol table calls lambda "bandwidth";
in the Friis equation it is the wavelength — we derive it from a carrier
frequency, default 2.4 GHz, the Bluetooth/Wi-Fi band used by the demo
app.)

Energy is power times time: a transmitter spends ``P_t * t`` over a
transfer of duration ``t``; per the paper, the receiver side is charged
the (distance-dependent) received power ``P_r * t``.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.errors import ConfigurationError

__all__ = ["EnergyModel", "SPEED_OF_LIGHT"]

#: Speed of light in vacuum, m/s.
SPEED_OF_LIGHT = 299_792_458.0


class EnergyModel:
    """Friis-equation energy accounting.

    Args:
        transmit_power: Radio transmit power in watts (> 0).
        frequency_hz: Carrier frequency in Hz (> 0); default 2.4 GHz.
        reference_distance: Minimum distance used in the path-loss
            computation, metres.  Friis diverges as R -> 0; distances
            below this are clamped (near-field cutoff).

    Example:
        >>> model = EnergyModel(transmit_power=0.1)
        >>> model.path_loss(100.0) > 1.0
        True
    """

    def __init__(
        self,
        transmit_power: float = 0.1,
        *,
        frequency_hz: float = 2.4e9,
        reference_distance: float = 1.0,
    ):
        if transmit_power <= 0:
            raise ConfigurationError(
                f"transmit_power must be > 0, got {transmit_power!r}"
            )
        if frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency_hz must be > 0, got {frequency_hz!r}"
            )
        if reference_distance <= 0:
            raise ConfigurationError(
                f"reference_distance must be > 0, got {reference_distance!r}"
            )
        self._p_t = float(transmit_power)
        self._wavelength = SPEED_OF_LIGHT / float(frequency_hz)
        self._ref = float(reference_distance)
        #: The :class:`~repro.network.world_state.WorldState` holding
        #: the consumption counters (see :meth:`attach`).
        self._state: Optional[Any] = None

    @property
    def transmit_power(self) -> float:
        """Transmit power P_t in watts."""
        return self._p_t

    @property
    def wavelength(self) -> float:
        """Carrier wavelength lambda in metres."""
        return self._wavelength

    # ------------------------------------------------------------------
    # Friis equation
    # ------------------------------------------------------------------
    def path_loss(self, distance: float) -> float:
        """Free-space path loss ``L_v = (4*pi*R/lambda)^2`` (linear)."""
        if distance < 0:
            raise ConfigurationError(f"distance must be >= 0, got {distance!r}")
        effective = max(distance, self._ref)
        factor = 4.0 * math.pi * effective / self._wavelength
        return factor * factor

    def received_power(self, distance: float) -> float:
        """Received power ``P_r = P_t / L_v`` in watts."""
        return self._p_t / self.path_loss(distance)

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def transmit_energy(self, duration: float) -> float:
        """Energy (joules) spent transmitting for ``duration`` seconds."""
        if duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {duration!r}")
        return self._p_t * duration

    def receive_energy(self, duration: float, distance: float) -> float:
        """Energy (joules) charged to a receiver at ``distance`` metres."""
        if duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {duration!r}")
        return self.received_power(distance) * duration

    def attach(self, state: Any) -> None:
        """Keep the consumption counters in ``state.energy``.

        ``state`` is the world's
        :class:`~repro.network.world_state.WorldState`; the world
        attaches it at construction.
        """
        self._state = state

    def charge(self, node: int, joules: float) -> None:
        """Accumulate ``joules`` against ``node``'s consumption counter.

        Raises:
            ConfigurationError: For negative joules, or before
                :meth:`attach`.
        """
        if joules < 0:
            raise ConfigurationError(f"joules must be >= 0, got {joules!r}")
        state = self._state
        if state is None:
            raise ConfigurationError("energy model is not attached to a world")
        state.energy[node] += joules

    def consumed(self, node: int) -> float:
        """Total joules charged to ``node`` so far (0 for unknown ids)."""
        if self._state is None or not 0 <= node < self._state.n:
            return 0.0
        return float(self._state.energy[node])

    def total_consumed(self) -> float:
        """Total joules charged across all nodes."""
        if self._state is None:
            return 0.0
        return float(self._state.energy.sum())
