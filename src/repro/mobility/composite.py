"""Per-class composite mobility for node populations.

Each node class gets its own sub-model (its own kind, speed/pause
ranges and RNG stream, see :func:`repro.population.stream_name`); the
composite scatters the sub-models' positions into one global ``(n, 2)``
array after every advance, so contact detection and the world see a
single interface.

Stream discipline: a one-class population's sub-model draws from the
shared ``"mobility"`` stream, so it is the scalar scenario's model.
With several classes, each sub-model draws only from its class's
stream, so editing one class's mobility leaves every other class's
trajectory untouched (the isolation property pinned by
``tests/test_population.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import MobilityError
from repro.mobility.base import MobilityModel
from repro.mobility.manhattan import ManhattanGrid
from repro.mobility.random_walk import RandomWalk
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.stationary import Stationary
from repro.population import stream_name

__all__ = ["CompositePopulationModel", "make_model", "make_population_model"]


def make_model(
    kind: str,
    n_nodes: int,
    area: Tuple[float, float],
    rng: np.random.Generator,
    *,
    speed_range: Tuple[float, float] = (0.5, 1.5),
    pause_range: Tuple[float, float] = (0.0, 120.0),
    manhattan_block: float = 100.0,
) -> MobilityModel:
    """Build a mobility model by name (the runner's factory)."""
    if kind == "random-waypoint":
        return RandomWaypoint(
            n_nodes, area, rng,
            speed_min=speed_range[0], speed_max=speed_range[1],
            pause_min=pause_range[0], pause_max=pause_range[1],
        )
    if kind == "random-walk":
        return RandomWalk(
            n_nodes, area, rng,
            speed_min=speed_range[0], speed_max=speed_range[1],
        )
    if kind == "manhattan":
        return ManhattanGrid(
            n_nodes, area, rng,
            block_size=manhattan_block,
            speed_min=speed_range[0], speed_max=speed_range[1],
        )
    if kind == "static":
        return Stationary(n_nodes, area, rng)
    raise MobilityError(f"unknown mobility model {kind!r}")


class CompositePopulationModel(MobilityModel):
    """Scatters per-class sub-model positions into one global array.

    Args:
        area: Arena ``(width, height)`` in metres.
        submodels: One mobility model per class.
        members: For each class, the ascending global node ids of its
            members; together the index arrays partition ``0..n-1``.
    """

    def __init__(
        self,
        area: Tuple[float, float],
        submodels: Sequence[MobilityModel],
        members: Sequence[np.ndarray],
    ):
        n_nodes = sum(m.size for m in members)
        # The base class wants an rng; the composite itself never draws.
        super().__init__(n_nodes, area, np.random.default_rng(0))
        self._submodels = list(submodels)
        self._members = [np.asarray(m, dtype=np.int64) for m in members]
        self._scatter()

    def _scatter(self) -> None:
        for model, member_ids in zip(self._submodels, self._members):
            self._positions[member_ids] = model.positions

    def advance(self, dt: float) -> None:
        dt = self._check_dt(dt)
        for model in self._submodels:
            model.advance(dt)
        self._scatter()


def make_population_model(
    config, streams, population
) -> MobilityModel:
    """Mobility for a resolved population: one sub-model per class.

    When one class holds every node its sub-model is returned as is:
    wrapping it would only copy every position after each advance.

    Args:
        config: The :class:`~repro.experiments.config.ScenarioConfig`.
        streams: The run's :class:`~repro.sim.rng.RandomStreams`.
        population: The run's :class:`~repro.population.PopulationMap`.
    """
    submodels: List[MobilityModel] = []
    members: List[np.ndarray] = []
    for index, cls in enumerate(population.classes):
        member_ids = population.members(index)
        if member_ids.size == 0:
            # A fraction small enough to round to zero seats: nothing
            # to place, and the class's stream stays untouched.
            continue
        submodels.append(
            make_model(
                cls.mobility,
                int(member_ids.size),
                config.area,
                streams.get(stream_name("mobility", cls, population.classes)),
                speed_range=cls.speed_range,
                pause_range=cls.pause_range,
                manhattan_block=config.manhattan_block,
            )
        )
        members.append(member_ids)
    if len(submodels) == 1:
        return submodels[0]
    return CompositePopulationModel(config.area, submodels, members)
