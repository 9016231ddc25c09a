"""Scenario configuration mirroring the paper's Table 5.1.

``ScenarioConfig.paper_scale()`` reproduces the table exactly: 500
participants, a 200-keyword pool with 20 interests per node, 250 kBps
links, 100 m radius, 250 MB buffers, ~1 MB messages, a 5 km² area,
24 simulated hours, relay threshold 0.8 and 200 initial tokens.

Benchmarks and tests default to :meth:`ScenarioConfig.small` — the same
physics with fewer nodes, a smaller area and a shorter clock — because
the paper's comparisons are *relative* between schemes on a shared
scenario, so the shapes survive downscaling (see EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.agents.roles import RoleHierarchy
from repro.core.incentive import IncentiveParams
from repro.errors import ConfigurationError
from repro.faults import FaultConfig
from repro.messages.generator import DEFAULT_PROFILES, MessageProfile
from repro.population import (
    NodeClassSpec,
    mixed_population,
    resolve_population,
    validate_population,
)

__all__ = ["ScenarioConfig"]


def _named(spec: Optional[NodeClassSpec], field_name: str) -> str:
    """``field_name`` as an error names it: under its class when the
    value is that class's override, else the scenario field."""
    if spec is not None and getattr(spec, field_name) is not None:
        return f"population[{spec.name}].{field_name}"
    return field_name


@dataclass(frozen=True)
class ScenarioConfig:
    """One complete simulation scenario.

    Attributes mirror Table 5.1 plus the knobs the experiments sweep
    (selfish / malicious fractions, initial tokens, user counts).
    """

    # Population & space (Table 5.1)
    n_nodes: int = 500
    area: Tuple[float, float] = (math.sqrt(5e6), math.sqrt(5e6))  # 5 km²
    duration: float = 86_400.0  # 24 hours
    keyword_pool: int = 200
    interests_per_node: int = 20

    # Radio & storage (Table 5.1)
    transmission_radius: float = 100.0
    link_speed: float = 250_000.0  # 250 kBps
    buffer_capacity: int = 250_000_000  # 250 MB

    # Mobility (paper: Random Waypoint at pedestrian speeds; the other
    # models support sensitivity studies)
    mobility: str = "random-waypoint"  # |"random-walk"|"manhattan"
    speed_range: Tuple[float, float] = (0.5, 1.5)
    pause_range: Tuple[float, float] = (0.0, 120.0)
    manhattan_block: float = 100.0
    scan_interval: float = 10.0

    # Workload
    message_interval: float = 30.0  # one new message per interval
    content_keywords: Tuple[int, int] = (4, 8)
    annotated_fraction: float = 0.6
    profiles: Tuple[MessageProfile, ...] = DEFAULT_PROFILES
    ttl: Optional[float] = 21_600.0  # 6 hours
    #: Optional per-node battery (joules); None = mains-refreshed, the
    #: paper's evaluation setting.
    battery_capacity: Optional[float] = None
    #: Reactive fragmentation (resume aborted transfers); off matches
    #: ONE's restart-from-zero behaviour.
    resume_partial_transfers: bool = False

    # Behaviours
    selfish_fraction: float = 0.0
    malicious_fraction: float = 0.0
    participation_probability: float = 0.1  # paper: on 1 of 10 encounters
    low_quality_probability: float = 0.8

    # Roles (battlefield example: few sergeants, many soldiers)
    role_levels: Tuple[str, ...] = ("sergeant", "soldier")
    role_fractions: Tuple[float, ...] = (0.1, 0.9)

    # Incentive mechanism (Table 5.1: threshold 0.8, 200 tokens)
    incentive: IncentiveParams = field(default_factory=IncentiveParams)

    # Protocol knobs
    chitchat_beta: float = 0.01
    chitchat_growth_scale: float = 0.01
    enrichment_enabled: bool = True
    honest_enrich_probability: float = 0.3
    malicious_enrich_probability: float = 0.8
    best_relay_only: bool = True

    # Robustness knobs (all off by default: fault-free runs stay
    # bit-identical to the committed golden results)
    #: Fault-injection configuration; ``None`` (or an all-zero config)
    #: disables the fault subsystem entirely.
    faults: Optional[FaultConfig] = None
    #: Retry budget per (receiver, message) for loss/corruption aborts.
    max_retransmissions: int = 0
    #: Base backoff before the first retry, seconds (doubles per retry).
    retransmit_backoff: float = 30.0

    # Observability
    #: Write a JSONL event trace of each run here (see
    #: :mod:`repro.trace`).  Multi-run commands derive one file per run
    #: via :func:`repro.trace.derive_trace_path`.  ``None`` (default)
    #: disables tracing; results are bit-identical either way.
    trace_path: Optional[str] = None

    # Scheme
    #: Pin the scenario to one registered scheme;
    #: :func:`~repro.experiments.runner.run_scenario` uses it when no
    #: scheme argument is given.  Validated against the scheme registry
    #: at construction time, so a typo fails when the config is built,
    #: not mid-run.  Excluded from mobility/trace-cache keys.
    scheme: Optional[str] = None

    # Population
    #: Node classes (see :mod:`repro.population`).  The empty tuple —
    #: the default — means one ``"default"`` class made of the scalar
    #: fields above, which therefore remain *validated views onto the
    #: default class*.  Every scenario runs the same per-class code;
    #: a one-class population draws on the shared RNG streams, so it
    #: gives exactly the results of the scalars it inherits.  Class
    #: overrides left as ``None`` inherit the matching scalar; set
    #: ones apply whether the population has one class or several.
    population: Tuple[NodeClassSpec, ...] = ()

    def __post_init__(self) -> None:
        # Every invalid field fails here, named, instead of mid-run
        # under a downstream component's parameter name.
        if self.n_nodes < 2:
            raise ConfigurationError("n_nodes must be >= 2")
        if not 0 <= self.interests_per_node <= self.keyword_pool:
            raise ConfigurationError(
                f"interests_per_node must be in [0, keyword_pool="
                f"{self.keyword_pool}], got {self.interests_per_node!r}"
            )
        if self.mobility not in (
            "random-waypoint", "random-walk", "manhattan", "static",
        ):
            raise ConfigurationError(
                f"unknown mobility model {self.mobility!r}"
            )
        if not (self.area[0] > 0 and self.area[1] > 0):
            raise ConfigurationError(
                f"area sides must be > 0, got {self.area!r}"
            )
        for range_field in ("speed_range", "pause_range"):
            lo, hi = getattr(self, range_field)
            if not 0.0 <= lo <= hi:
                raise ConfigurationError(
                    f"{range_field} must satisfy 0 <= min <= max, got "
                    f"{(lo, hi)!r}"
                )
        for radio_field in ("transmission_radius", "link_speed"):
            # inf runs silently wrong: 0-s, 0-J transfers (speed), an
            # MDR of 0 with no energy spent (radius).
            value = getattr(self, radio_field)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(
                    f"{radio_field} must be finite and > 0, got {value!r}"
                )
        for positive_field in (
            "duration", "message_interval", "scan_interval",
            "buffer_capacity", "manhattan_block", "chitchat_beta",
            "chitchat_growth_scale", "retransmit_backoff", "ttl",
            "battery_capacity",
        ):
            value = getattr(self, positive_field)
            # ttl and battery_capacity are optional (None = off).
            if value is not None and not value > 0:
                raise ConfigurationError(
                    f"{positive_field} must be > 0, got {value!r}"
                )
        for fraction_field in (
            "selfish_fraction", "malicious_fraction",
            "participation_probability", "low_quality_probability",
            "honest_enrich_probability", "malicious_enrich_probability",
        ):
            value = getattr(self, fraction_field)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{fraction_field} must be in [0, 1], got {value!r}"
                )
        # The message generator's rules, under this config's names.
        lo, hi = self.content_keywords
        if not 1 <= lo <= hi <= self.keyword_pool:
            raise ConfigurationError(
                f"content_keywords must satisfy 1 <= min <= max <= "
                f"keyword_pool={self.keyword_pool}, got "
                f"{self.content_keywords!r}"
            )
        if not 0.0 < self.annotated_fraction <= 1.0:
            raise ConfigurationError(
                f"annotated_fraction must be in (0, 1], got "
                f"{self.annotated_fraction!r}"
            )
        total = sum(profile.fraction for profile in self.profiles)
        if not self.profiles or abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"profiles must be non-empty with fractions summing to 1, "
                f"got {len(self.profiles)} profile(s) summing to {total!r}"
            )
        try:
            RoleHierarchy(self.role_levels, self.role_fractions)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"role_levels/role_fractions: {exc}"
            ) from None
        if self.max_retransmissions < 0:
            raise ConfigurationError("max_retransmissions must be >= 0")
        validate_population(self.population)
        # Rules the mobility models and the interest sampler enforce,
        # checked on every resolved class.
        specs = self.population or (None,)
        for spec, cls in zip(specs, resolve_population(self)):
            if cls.mobility != "static" and not cls.speed_range[0] > 0:
                raise ConfigurationError(
                    f"{_named(spec, 'speed_range')} min must be > 0 for a "
                    f"moving class, got {cls.speed_range!r}"
                )
            if cls.mobility == "manhattan" and (
                self.manhattan_block > min(self.area)
            ):
                raise ConfigurationError(
                    f"manhattan_block {self.manhattan_block!r} exceeds the "
                    f"shorter area side {min(self.area)!r} (class "
                    f"{cls.name} moves on the manhattan grid)"
                )
            if cls.interests_per_node > self.keyword_pool:
                raise ConfigurationError(
                    f"{_named(spec, 'interests_per_node')} must be <= "
                    f"keyword_pool={self.keyword_pool}, got "
                    f"{cls.interests_per_node!r}"
                )
            # The behaviour assigner's rule, with its tolerance.
            if cls.selfish_fraction + cls.malicious_fraction > 1.0 + 1e-9:
                raise ConfigurationError(
                    f"{_named(spec, 'selfish_fraction')} + "
                    f"{_named(spec, 'malicious_fraction')} must be <= 1, "
                    f"got {cls.selfish_fraction!r} + "
                    f"{cls.malicious_fraction!r}"
                )
        if self.scheme is not None:
            # Imported lazily: repro.schemes pulls in the router catalog,
            # which this config module must not depend on at import time.
            from repro.schemes import resolve_scheme

            resolve_scheme(self.scheme)  # raises ConfigurationError

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_scale(cls, **overrides) -> "ScenarioConfig":
        """Table 5.1 exactly (500 nodes, 5 km², 24 h).  Heavy: minutes
        of wall-clock per run."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides) -> "ScenarioConfig":
        """A laptop-friendly scenario with the same physics.

        Node density is kept near the paper's (100 nodes per km²):
        60 nodes in ~0.6 km², two simulated hours, a 60-keyword pool.
        Buffers and token endowments shrink with the workload so the
        same pressure points (buffer churn, token exhaustion) appear.
        """
        defaults = dict(
            n_nodes=60,
            area=(800.0, 800.0),
            duration=7_200.0,
            keyword_pool=60,
            interests_per_node=8,
            buffer_capacity=25_000_000,
            message_interval=40.0,
            ttl=3_600.0,
            # 100 tokens (~22 average awards): scaled so honest nodes
            # ride out payment/earning timing variance while persistent
            # net consumers (selfish nodes) exhaust their endowment
            # within the two simulated hours — the regime the paper's
            # 200-token/24-hour economy operates in.
            incentive=IncentiveParams(initial_tokens=100.0),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def tiny(cls, **overrides) -> "ScenarioConfig":
        """A seconds-fast scenario for tests."""
        defaults = dict(
            n_nodes=20,
            area=(400.0, 400.0),
            duration=1_800.0,
            keyword_pool=30,
            interests_per_node=6,
            buffer_capacity=10_000_000,
            message_interval=60.0,
            ttl=1_800.0,
            incentive=IncentiveParams(initial_tokens=50.0),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def hetero(
        cls,
        *,
        pedestrian: float = 0.6,
        vehicular: float = 0.3,
        infrastructure: float = 0.1,
        **overrides,
    ) -> "ScenarioConfig":
        """The :meth:`small` scenario over the 3-class preset mix.

        Pedestrians inherit every scalar (Table 5.1 walkers);
        vehicular and infrastructure classes override speed, radio and
        buffers per :data:`repro.population.PRESET_CLASSES`.  Class
        fractions must sum to 1; a fraction of 0 drops that class.
        """
        defaults = dict(
            population=mixed_population(
                pedestrian=pedestrian,
                vehicular=vehicular,
                infrastructure=infrastructure,
            ),
        )
        defaults.update(overrides)
        return cls.small(**defaults)

    # ------------------------------------------------------------------
    # Derived values & helpers
    # ------------------------------------------------------------------
    @property
    def area_km2(self) -> float:
        """Area in square kilometres."""
        return self.area[0] * self.area[1] / 1e6

    @property
    def node_density(self) -> float:
        """Nodes per square kilometre."""
        return self.n_nodes / self.area_km2

    def replace(self, **overrides) -> "ScenarioConfig":
        """A copy with ``overrides`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **overrides)

    def resolved_population(self):
        """The population with every class override filled from the
        scalars (one ``"default"`` class when ``population`` is empty)."""
        return resolve_population(self)

    def with_tokens(self, initial_tokens: float) -> "ScenarioConfig":
        """A copy whose incentive endowment is ``initial_tokens``."""
        return self.replace(
            incentive=dataclasses.replace(
                self.incentive, initial_tokens=float(initial_tokens)
            )
        )

    def table_rows(self) -> list:
        """Rows matching the paper's Table 5.1 for report printing."""
        return [
            ("Number of Participants", self.n_nodes),
            ("Pool of Social Interest Keywords", self.keyword_pool),
            ("No of Defined Social Interests", f"{self.interests_per_node} per node"),
            ("Transmission speed", f"{self.link_speed / 1000:.0f} kBps"),
            ("Transmission radius", f"{self.transmission_radius:.0f} meters"),
            ("Buffer capacity", f"{self.buffer_capacity // 1_000_000} MB"),
            ("Message Size", "~1 MB (profile mix)"),
            ("Area", f"{self.area_km2:.2f} sq.km."),
            ("Simulated time", f"{self.duration / 3600:.1f} hours"),
            ("Threshold for relay", self.incentive.relay_threshold),
            ("Number of initial tokens",
             f"{self.incentive.initial_tokens:.0f} per node"),
        ]
