"""Struct-of-arrays per-node world state.

:class:`WorldState` holds the per-node scalar state the
:class:`~repro.network.world.World` updates on every transfer — radio
energy consumed and remaining battery — as one NumPy array per field,
indexed by *slot* (a dense ``0..n-1`` renumbering of node ids).  The
:class:`~repro.network.energy.EnergyModel` keeps its consumption
counters in :attr:`WorldState.energy`.

Updates stay one scalar operation per (node, transfer) in event order:
the arrays change the storage, not the arithmetic, so the floats are
exactly those of a per-node loop (float addition is not associative).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["WorldState"]


class WorldState:
    """Contiguous per-node scalar state for ``n`` nodes.

    Args:
        node_ids: The node population, in slot order.  Ids must be
            unique non-negative integers; slot ``k`` holds the state of
            ``node_ids[k]``.
        battery_capacity: Optional battery endowment in joules; when
            ``None`` the battery array is absent (mains-refreshed
            devices, the paper's evaluation setting).  Heterogeneous
            populations may pass an ``(n,)`` per-node array instead
            (``inf`` entries model mains power).

    Attributes:
        energy: ``(n,)`` float64 cumulative radio joules consumed.
        battery: ``(n,)`` float64 remaining joules, or ``None``.
    """

    def __init__(self, node_ids: Sequence[int], *, battery_capacity=None):
        ids = [int(i) for i in node_ids]
        if any(i < 0 for i in ids):
            raise ConfigurationError("node ids must be >= 0")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("node ids must be unique")
        n = len(ids)
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
        elif battery_capacity is not None and battery_capacity <= 0:
            raise ConfigurationError(
                f"battery_capacity must be > 0, got {battery_capacity!r}"
            )
        self._node_ids = np.asarray(ids, dtype=np.int64)
        #: node id -> slot.  Dense identity populations (the runner's)
        #: hit the fast path in :meth:`slot_of`.
        self._slots: Dict[int, int] = {nid: k for k, nid in enumerate(ids)}
        self._identity = bool(ids == list(range(n)))

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
        """Number of slots."""
        return int(self._node_ids.size)

    @property
    def node_ids(self) -> np.ndarray:
        """Node ids in slot order (read-only view)."""
        view = self._node_ids.view()
        view.flags.writeable = False
        return view

    def slot_of(self, node_id: int) -> int:
        """The slot holding ``node_id``'s state.

        Raises:
            ConfigurationError: For unknown ids.
        """
        if self._identity and 0 <= node_id < self._node_ids.size:
            return node_id
        try:
            return self._slots[node_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown node id {node_id}"
            ) from None

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
