"""Heterogeneous node populations: first-class node classes.

The paper evaluates one homogeneous pedestrian population (Table 5.1),
but the incentive literature it sits in is about *heterogeneous* DTNs:
El-Azouzi et al. tune rewards per node class (arXiv:1704.02948) and
Chahin et al.'s minority-game activation presumes classes that differ
in cost and capability (arXiv:1207.6760).  This module is the single
source of truth for that heterogeneity.  Every scenario is a
population: the homogeneous one is the one-class case and takes the
same code path as a mix.

* :class:`NodeClassSpec` — a declarative per-class override bundle
  (speed/pause, mobility kind, radio radius and link speed, buffer,
  battery and recharge, interests, behaviour mix, reward multiplier).
  ``ScenarioConfig.population`` is a tuple of these; the empty tuple
  (the default) means one ``"default"`` class made of the scalars.
* :func:`resolve_population` — fills every unset override from the
  config's scalar fields, so the scalars remain *validated views onto
  the default class* and every pre-population config keeps working.
* :func:`stream_name` — the one rule that depends on the class count:
  which RNG stream a class draws from.  One class draws from the shared
  ``mobility``, ``interests`` and ``behavior-assignment`` streams, so a
  single-class scenario gets the draws of the scalars it resolves to;
  several classes draw from ``{stream}:{class name}``.
* :func:`assign_classes` — deterministic membership.  Class sizes come
  from largest-remainder apportionment of the fractions (no RNG); every
  class but the last then draws its members from the remaining pool
  (so one class draws nothing).  Because streams are keyed by class
  *name* (derived from the master seed only, independent of creation
  order; see :mod:`repro.sim.rng`), editing one class never perturbs
  the draws of classes listed before it.
* :class:`PopulationMap` — the resolved classes and each node's class,
  which every lower layer reads: the contact detector's per-node radii,
  the world's per-class link speed, radius, battery and recharge, and
  the runner's per-class buffers, interests and behaviour mix.
* The ``pedestrian`` / ``vehicular`` / ``infrastructure`` preset
  catalog and :func:`mixed_population`, the 3-class mix used by
  ``repro-dtn hetero`` and the CI hetero-smoke job.

Nothing here imports the experiment or network layers, so config,
mobility, world and routing code can all depend on it freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "NodeClassSpec",
    "ResolvedClass",
    "PopulationMap",
    "resolve_population",
    "assign_classes",
    "class_counts",
    "stream_name",
    "PRESET_CLASSES",
    "mixed_population",
    "preset_rows",
]

#: Name of the default class a scalar-only config resolves to.
DEFAULT_CLASS = "default"

#: Tolerance when checking that population fractions sum to one.
_FRACTION_TOL = 1e-9


def _check_range(
    name: str, field_name: str, value: Tuple[float, float], *, low: float
) -> None:
    lo, hi = value
    if not (low <= lo <= hi):
        raise ConfigurationError(
            f"population[{name}].{field_name} must satisfy "
            f"{low} <= min <= max, got {value!r}"
        )


def _check_positive(name: str, field_name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(
            f"population[{name}].{field_name} must be > 0, got {value!r}"
        )


@dataclass(frozen=True)
class NodeClassSpec:
    """One node class: a fraction of the population plus its overrides.

    Every override defaults to ``None`` meaning "inherit the scenario's
    scalar field" — a population of ``(NodeClassSpec("default", 1.0),)``
    is therefore exactly the scenario with no population set.

    Attributes:
        name: Class name; in a population of several classes it also
            keys the class's RNG streams (see :func:`stream_name`).
        fraction: Share of the population in ``[0, 1]``; all fractions
            in a population must sum to 1.  Integer class sizes come
            from largest-remainder apportionment (ties to the earlier
            class), so they are deterministic and total ``n_nodes``.
        mobility: Mobility model kind for this class (``None`` inherits
            the scenario's; ``"static"`` for fixed infrastructure).
        speed_range: ``(min, max)`` speed in m/s.
        pause_range: ``(min, max)`` pause in seconds.
        transmission_radius: Radio range in metres.  Two nodes are in
            contact when within ``max(r_a, r_b)`` — the stronger radio
            carries the pair (see DESIGN.md §11).
        link_speed: Transfer speed in bytes/second; a mixed link runs at
            ``min`` of the endpoints (the slower radio bottlenecks).
        buffer_capacity: Buffer size in bytes.
        battery_capacity: Battery in joules; inherits the scenario
            scalar when ``None`` (mains classes in a battery-mixed
            population get an infinite-capacity battery that never
            empties).
        recharge_amount: Joules restored per fault-config recharge tick
            (``None`` inherits the fault config's amount).
        interests_per_node: Interest keywords sampled per node.
        selfish_fraction: Share of this class that is selfish (``None``
            inherits the scenario fraction).
        malicious_fraction: Share of this class that is malicious.
        reward_multiplier: Per-class pricing knob consumed by
            class-aware incentive schemes (El-Azouzi-style class-tuned
            rewards): delivery awards earned by this class's nodes are
            scaled by it.  ``1.0`` is neutral.
        doc: One-line description for the generated preset table.
    """

    name: str
    fraction: float
    mobility: Optional[str] = None
    speed_range: Optional[Tuple[float, float]] = None
    pause_range: Optional[Tuple[float, float]] = None
    transmission_radius: Optional[float] = None
    link_speed: Optional[float] = None
    buffer_capacity: Optional[int] = None
    battery_capacity: Optional[float] = None
    recharge_amount: Optional[float] = None
    interests_per_node: Optional[int] = None
    selfish_fraction: Optional[float] = None
    malicious_fraction: Optional[float] = None
    reward_multiplier: float = 1.0
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"population class name must be a non-empty string, "
                f"got {self.name!r}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(
                f"population[{self.name}].fraction must be in [0, 1], "
                f"got {self.fraction!r}"
            )
        if self.mobility is not None and self.mobility not in (
            "random-waypoint", "random-walk", "manhattan", "static",
        ):
            raise ConfigurationError(
                f"population[{self.name}].mobility is unknown: "
                f"{self.mobility!r}"
            )
        if self.speed_range is not None:
            _check_range(self.name, "speed_range", self.speed_range, low=0.0)
            if self.speed_range[1] <= 0 and (self.mobility or "") != "static":
                raise ConfigurationError(
                    f"population[{self.name}].speed_range max must be > 0 "
                    f"for mobile classes, got {self.speed_range!r}"
                )
        if self.pause_range is not None:
            _check_range(self.name, "pause_range", self.pause_range, low=0.0)
        for field_name in (
            "transmission_radius", "link_speed", "buffer_capacity",
            "battery_capacity", "recharge_amount", "interests_per_node",
        ):
            value = getattr(self, field_name)
            if value is not None:
                _check_positive(self.name, field_name, value)
        # An infinite battery models mains power; an infinite radio
        # runs silently wrong (see ScenarioConfig).
        for field_name in ("transmission_radius", "link_speed"):
            value = getattr(self, field_name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(
                    f"population[{self.name}].{field_name} must be "
                    f"finite, got {value!r}"
                )
        for field_name in ("selfish_fraction", "malicious_fraction"):
            value = getattr(self, field_name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"population[{self.name}].{field_name} must be in "
                    f"[0, 1], got {value!r}"
                )
        _check_positive(self.name, "reward_multiplier", self.reward_multiplier)


@dataclass(frozen=True)
class ResolvedClass:
    """A :class:`NodeClassSpec` with every override filled in."""

    name: str
    fraction: float
    mobility: str
    speed_range: Tuple[float, float]
    pause_range: Tuple[float, float]
    transmission_radius: float
    link_speed: float
    buffer_capacity: int
    battery_capacity: Optional[float]
    recharge_amount: Optional[float]
    interests_per_node: int
    selfish_fraction: float
    malicious_fraction: float
    reward_multiplier: float


def resolve_population(config) -> Tuple[ResolvedClass, ...]:
    """Fill every unset class override from ``config``'s scalar fields.

    An empty ``config.population`` resolves to one ``"default"`` class
    carrying exactly the scalars.
    """
    specs: Sequence[NodeClassSpec] = config.population or (
        NodeClassSpec(DEFAULT_CLASS, 1.0),
    )

    def pick(spec: NodeClassSpec, field_name: str):
        value = getattr(spec, field_name)
        return value if value is not None else getattr(config, field_name)

    return tuple(
        ResolvedClass(
            name=spec.name,
            fraction=spec.fraction,
            mobility=pick(spec, "mobility"),
            speed_range=pick(spec, "speed_range"),
            pause_range=pick(spec, "pause_range"),
            transmission_radius=float(pick(spec, "transmission_radius")),
            link_speed=float(pick(spec, "link_speed")),
            buffer_capacity=int(pick(spec, "buffer_capacity")),
            battery_capacity=pick(spec, "battery_capacity"),
            recharge_amount=spec.recharge_amount,
            interests_per_node=int(pick(spec, "interests_per_node")),
            selfish_fraction=float(pick(spec, "selfish_fraction")),
            malicious_fraction=float(pick(spec, "malicious_fraction")),
            reward_multiplier=float(spec.reward_multiplier),
        )
        for spec in specs
    )


def class_counts(n_nodes: int, fractions: Sequence[float]) -> List[int]:
    """Integer class sizes by largest-remainder apportionment.

    Deterministic (no RNG): floors first, then the leftover seats go to
    the largest fractional remainders, ties resolved toward the earlier
    class.  The counts always sum to ``n_nodes``.
    """
    raw = [float(f) * n_nodes for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    leftover = n_nodes - sum(counts)
    remainders = sorted(
        range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def stream_name(
    stream: str, cls: ResolvedClass, classes: Sequence[ResolvedClass]
) -> str:
    """The RNG stream ``cls`` draws ``stream`` from within ``classes``.

    A lone class draws from the shared stream itself, so a one-class
    population consumes exactly the draws of the scalar scenario it
    resolves to.  With several classes each class draws from its own
    ``{stream}:{class name}`` stream.
    """
    return stream if len(classes) == 1 else f"{stream}:{cls.name}"


def assign_classes(
    n_nodes: int, classes: Sequence[ResolvedClass], streams
) -> np.ndarray:
    """Per-node class index array, deterministic given ``(seed, classes)``.

    Each class except the last draws its members from the sorted
    remaining pool on its ``population`` stream (:func:`stream_name`);
    the last class takes the remainder without drawing, so a single
    class consumes no RNG at all.  Because streams are derived from the
    master seed by *name*, the draws of a class are untouched by edits
    to classes listed after it — the isolation property pinned by
    ``tests/test_population.py``.
    """
    counts = class_counts(n_nodes, [c.fraction for c in classes])
    class_id = np.empty(n_nodes, dtype=np.int64)
    pool = np.arange(n_nodes, dtype=np.int64)
    for index, cls in enumerate(classes[:-1]):
        rng = streams.get(stream_name("population", cls, classes))
        picks = rng.choice(pool.size, size=counts[index], replace=False)
        picks.sort()
        class_id[pool[picks]] = index
        pool = np.delete(pool, picks)
    class_id[pool] = len(classes) - 1
    return class_id


class PopulationMap:
    """Resolved per-node population arrays, indexed by node id.

    Node ids are the contiguous ``0 .. n_nodes-1`` range the runner
    builds, so plain arrays serve as the id -> value maps every layer
    gathers from.
    """

    def __init__(
        self, classes: Tuple[ResolvedClass, ...], class_id: np.ndarray
    ):
        self.classes = classes
        self.class_id = class_id
        self.n_nodes = int(class_id.size)

    @classmethod
    def build(cls, config, streams) -> "PopulationMap":
        """Resolve ``config``'s population and assign classes."""
        classes = resolve_population(config)
        class_id = assign_classes(config.n_nodes, classes, streams)
        return cls(classes, class_id)

    @property
    def heterogeneous(self) -> bool:
        """More than one class: the runs that report per-node classes."""
        return len(self.classes) > 1

    def name_of(self, node_id: int) -> str:
        """Class name of ``node_id``."""
        return self.classes[int(self.class_id[node_id])].name

    def members(self, index: int) -> np.ndarray:
        """Ascending node ids belonging to class ``index``."""
        return np.nonzero(self.class_id == index)[0]

    def names_by_node(self) -> Dict[int, str]:
        """``{node_id: class name}`` for metrics and trace records."""
        names = [c.name for c in self.classes]
        return {
            node_id: names[cid]
            for node_id, cid in enumerate(self.class_id.tolist())
        }

    @property
    def radii(self) -> np.ndarray:
        """Per-node transmission radius in metres."""
        values = np.array(
            [c.transmission_radius for c in self.classes], dtype=np.float64
        )
        return values[self.class_id]

    @property
    def battery_capacities(self) -> Optional[np.ndarray]:
        """Per-node battery in joules, or ``None`` when no class has one.

        In a mixed population, classes without a battery get ``inf`` —
        a battery that drains on paper but never empties, i.e. mains
        power — so the battery machinery stays one uniform array.
        """
        if all(c.battery_capacity is None for c in self.classes):
            return None
        values = np.array(
            [
                c.battery_capacity if c.battery_capacity is not None
                else np.inf
                for c in self.classes
            ],
            dtype=np.float64,
        )
        return values[self.class_id]

    def recharge_amounts(self, default: float) -> np.ndarray:
        """Per-node recharge joules per fault-config recharge tick."""
        values = np.array(
            [
                c.recharge_amount if c.recharge_amount is not None
                else default
                for c in self.classes
            ],
            dtype=np.float64,
        )
        return values[self.class_id]

    def reward_multipliers(self) -> Dict[str, float]:
        """``{class name: award multiplier}`` for class-aware pricing."""
        return {c.name: c.reward_multiplier for c in self.classes}


def validate_population(specs: Sequence[NodeClassSpec]) -> None:
    """Config-construction validation of a population tuple.

    Raises:
        ConfigurationError: On non-spec entries, duplicate class names,
            or fractions that do not sum to 1 (each named explicitly).
    """
    seen = set()
    for spec in specs:
        if not isinstance(spec, NodeClassSpec):
            raise ConfigurationError(
                f"population entries must be NodeClassSpec, got {spec!r}"
            )
        if spec.name in seen:
            raise ConfigurationError(
                f"population[{spec.name}] is defined twice"
            )
        seen.add(spec.name)
    total = sum(spec.fraction for spec in specs)
    if specs and abs(total - 1.0) > _FRACTION_TOL:
        raise ConfigurationError(
            f"population fractions must sum to 1, got {total!r}"
        )


def spec_as_dict(spec: NodeClassSpec) -> Dict[str, object]:
    """A JSON-stable dict of ``spec`` (tuples become lists)."""
    out: Dict[str, object] = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------
#: The three-class catalog backing ``repro-dtn hetero`` and the docs
#: preset table.  ``pedestrian`` carries no overrides: it *is* the
#: paper's Table 5.1 population, so an all-pedestrian mix is exactly
#: the scalar scenario.  Reward multipliers follow the El-Azouzi
#: class-tuned-reward argument: the more capable (cheaper-per-delivery)
#: a class, the smaller the award needed to keep it participating.
PRESET_CLASSES: Dict[str, NodeClassSpec] = {
    "pedestrian": NodeClassSpec(
        "pedestrian", 1.0,
        reward_multiplier=1.0,
        doc="Table 5.1 walkers: inherits every scenario scalar.",
    ),
    "vehicular": NodeClassSpec(
        "vehicular", 1.0,
        speed_range=(8.0, 14.0),
        pause_range=(0.0, 30.0),
        transmission_radius=150.0,
        link_speed=500_000.0,
        buffer_capacity=500_000_000,
        reward_multiplier=0.75,
        doc="Vehicles: 8-14 m/s, 150 m radio, 500 kBps, 500 MB buffers.",
    ),
    "infrastructure": NodeClassSpec(
        "infrastructure", 1.0,
        mobility="static",
        speed_range=(0.0, 0.0),
        pause_range=(0.0, 0.0),
        transmission_radius=200.0,
        link_speed=1_000_000.0,
        buffer_capacity=1_000_000_000,
        reward_multiplier=0.5,
        doc="Fixed kiosks: static, 200 m radio, 1 MBps, 1 GB buffers.",
    ),
}


def mixed_population(
    pedestrian: float = 0.6,
    vehicular: float = 0.3,
    infrastructure: float = 0.1,
) -> Tuple[NodeClassSpec, ...]:
    """The 3-class preset mix with the given fractions (must sum to 1)."""
    import dataclasses

    mix = []
    for name, fraction in (
        ("pedestrian", pedestrian),
        ("vehicular", vehicular),
        ("infrastructure", infrastructure),
    ):
        if fraction > 0:
            mix.append(
                dataclasses.replace(PRESET_CLASSES[name], fraction=fraction)
            )
    specs = tuple(mix)
    validate_population(specs)
    return specs


def preset_rows() -> List[Tuple[str, str, str, str, str, str]]:
    """Rows for the generated preset table in EXPERIMENTS.md/README.md."""
    rows = []
    for name, spec in PRESET_CLASSES.items():
        rows.append(
            (
                name,
                spec.mobility or "(scenario)",
                (
                    f"{spec.speed_range[0]:g}-{spec.speed_range[1]:g} m/s"
                    if spec.speed_range is not None else "(scenario)"
                ),
                (
                    f"{spec.transmission_radius:g} m"
                    if spec.transmission_radius is not None else "(scenario)"
                ),
                (
                    f"{spec.buffer_capacity // 1_000_000} MB"
                    if spec.buffer_capacity is not None else "(scenario)"
                ),
                f"{spec.reward_multiplier:g}x",
            )
        )
    return rows
