"""Struct-of-arrays per-node world state.

:class:`WorldState` holds the per-node scalar state the
:class:`~repro.network.world.World` updates on every transfer — radio
energy consumed and remaining battery — as one NumPy array per field,
indexed by node id (a world's ids are exactly ``0..n-1``).  The
:class:`~repro.network.energy.EnergyModel` keeps its consumption
counters in :attr:`WorldState.energy`.

Updates stay one scalar operation per (node, transfer) in event order:
the arrays change the storage, not the arithmetic, so the floats are
exactly those of a per-node loop (float addition is not associative).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["WorldState"]


class WorldState:
    """Contiguous per-node scalar state for nodes ``0..n-1``.

    Args:
        n: Number of nodes; entry ``k`` of every array is node ``k``'s.
        battery_capacity: Optional battery endowment in joules; when
            ``None`` the battery array is absent (mains-refreshed
            devices, the paper's evaluation setting).  Heterogeneous
            populations may pass an ``(n,)`` per-node array instead
            (``inf`` entries model mains power).

    Attributes:
        energy: ``(n,)`` float64 cumulative radio joules consumed.
        battery: ``(n,)`` float64 remaining joules, or ``None``.
    """

    def __init__(self, n: int, *, battery_capacity=None):
        if isinstance(battery_capacity, np.ndarray):
            if battery_capacity.shape != (n,):
                raise ConfigurationError(
                    f"battery_capacity array must have shape ({n},), "
                    f"got {battery_capacity.shape}"
                )
            if not (battery_capacity > 0).all():
                raise ConfigurationError(
                    "per-node battery_capacity entries must be > 0"
                )
        elif battery_capacity is not None and not battery_capacity > 0:
            raise ConfigurationError(
                f"battery_capacity must be > 0, got {battery_capacity!r}"
            )
        self.energy = np.zeros(n, dtype=np.float64)
        self.battery_capacity = battery_capacity
        if isinstance(battery_capacity, np.ndarray):
            self.battery: Optional[np.ndarray] = np.array(
                battery_capacity, dtype=np.float64
            )
        else:
            self.battery = (
                np.full(n, float(battery_capacity), dtype=np.float64)
                if battery_capacity is not None else None
            )

    @property
    def n(self) -> int:
        """Number of nodes."""
        return int(self.energy.size)

    def __len__(self) -> int:
        return self.n

    def recharge(self, amount) -> None:
        """Add ``amount`` joules (a scalar or an ``(n,)`` array) to every
        battery, capped at capacity."""
        if self.battery is None:
            return
        np.minimum(
            self.battery + amount, self.battery_capacity, out=self.battery
        )
