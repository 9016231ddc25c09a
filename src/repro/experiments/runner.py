"""Scenario runners.

``run_scenario`` builds a full simulation (mobility -> contact trace ->
world -> router) from a :class:`ScenarioConfig` and executes it.
``run_comparison`` runs several schemes over the *same* contact trace
and workload plan — the paper's methodology for "ours vs ChitChat"
comparisons — and ``run_averaged`` repeats over seeds, as the paper
averages five simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.agents.behaviors import assign_behaviors
from repro.agents.roles import RoleHierarchy
from repro.core.incentive_layer import IncentiveLayer
from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, execute_runs
from repro.experiments.trace_cache import TraceCache, get_default_cache
from repro.messages.generator import MessageGenerator
from repro.messages.keywords import KeywordUniverse
from repro.metrics.analysis import merge_summaries
from repro.metrics.collector import MetricsCollector
from repro.mobility.composite import make_population_model
from repro.mobility.contact import detect_contacts
from repro.mobility.trace import ContactTrace
from repro.network.buffer import DropPolicy
from repro.network.node import Node
from repro.network.world import World
from repro.population import PopulationMap, stream_name
from repro.routing.base import Router
from repro.schemes import resolve_scheme, scheme_names
from repro.sim.engine import Engine
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RandomStreams
from repro.trace.recorder import JsonlTraceRecorder

__all__ = [
    "SCHEMES",
    "RunResult",
    "build_contact_trace",
    "make_router",
    "run_scenario",
    "run_comparison",
    "run_averaged",
]

#: Scheme names accepted by :func:`run_scenario`, derived from the
#: scheme registry (see ``repro/schemes/``) in registration order.
SCHEMES: Tuple[str, ...] = scheme_names()


@dataclass
class RunResult:
    """Everything a figure generator needs from one run."""

    scheme: str
    seed: int
    config: ScenarioConfig
    metrics: MetricsCollector
    router: Router
    malicious_ids: Set[int] = field(default_factory=set)
    selfish_ids: Set[int] = field(default_factory=set)
    honest_ids: Set[int] = field(default_factory=set)
    #: Where this run's event trace was written (None when untraced).
    trace_path: Optional[str] = None
    #: ``{node_id: class name}`` for populations of several classes
    #: (``None`` on one-class runs, keeping their results' shape).
    node_classes: Optional[Dict[int, str]] = None

    @property
    def mdr(self) -> float:
        """Message delivery ratio of this run."""
        return self.metrics.message_delivery_ratio()

    @property
    def traffic(self) -> int:
        """Completed transfers (the paper's traffic measure)."""
        return self.metrics.transfers_completed

    def summary(self) -> Dict[str, float]:
        """Headline metrics plus token statistics where applicable."""
        data = self.metrics.summary()
        ledger = getattr(self.router, "ledger", None)
        if ledger is not None and ledger.total_endowment() > 0:
            balances = ledger.balances()
            data["token_supply"] = ledger.total_supply()
            data["exhausted_accounts"] = float(
                sum(1 for b in balances.values() if b < 1e-9)
            )
        return data

    def class_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-class delivery/cost/balance metrics (hetero runs only).

        Raises:
            ConfigurationError: When the run had no heterogeneous
                population (``node_classes`` is ``None``).
        """
        if self.node_classes is None:
            raise ConfigurationError(
                "class_breakdown() requires a heterogeneous population "
                "(config.population with more than one class)"
            )
        breakdown = self.metrics.class_breakdown(self.node_classes)
        ledger = getattr(self.router, "ledger", None)
        if ledger is not None and ledger.total_endowment() > 0:
            balances = ledger.balances()
            for name, row in breakdown.items():
                members = [
                    node_id for node_id, cls in self.node_classes.items()
                    if cls == name
                ]
                held = [balances.get(node_id, 0.0) for node_id in members]
                row["mean_balance"] = (
                    sum(held) / len(held) if held else 0.0
                )
                row["exhausted_accounts"] = float(
                    sum(1 for b in held if b < 1e-9)
                )
        return breakdown

    def fault_summary(self) -> Dict[str, float]:
        """Robustness counters, kept separate from :meth:`summary`.

        Fault-free runs must stay bit-identical to the committed golden
        summaries, so fault/ledger-integrity counters live here:
        everything from
        :meth:`~repro.metrics.collector.MetricsCollector.fault_summary`
        plus, for token schemes, the stranded escrow left after
        finalize (must be 0), the duplicate settlements blocked by
        idempotence keys, and the conservation error of the total
        supply (must be 0).
        """
        data = self.metrics.fault_summary()
        ledger = getattr(self.router, "ledger", None)
        if ledger is not None and ledger.total_endowment() > 0:
            data["stranded_escrow"] = ledger.escrowed_total()
            data["duplicate_settlements"] = float(
                ledger.duplicate_settlements
            )
            data["supply_error"] = (
                ledger.total_supply() - ledger.total_endowment()
            )
            # Actual double-payments: settlement keys that paid out more
            # than once.  The idempotence machinery exists to pin this
            # at exactly zero under every fault mix.
            keyed = [
                t.settlement_key for t in ledger.transactions
                if t.settlement_key is not None
            ]
            data["double_payments"] = float(len(keyed) - len(set(keyed)))
        return data


def build_contact_trace(
    config: ScenarioConfig,
    seed: int,
    *,
    cache: Optional["TraceCache"] = None,
) -> ContactTrace:
    """Generate the scenario's contact trace under its mobility model.

    Args:
        config: The scenario (only its mobility-relevant fields matter).
        seed: Master seed; each class moves on its ``mobility`` stream
            (:func:`~repro.population.stream_name`).
        cache: A :class:`~repro.experiments.trace_cache.TraceCache` to
            consult before detecting contacts (and to populate after).
            Defaults to the process-wide cache configured via
            ``REPRO_TRACE_CACHE`` / ``--trace-cache``; no caching when
            neither is set.
    """
    if cache is None:
        cache = get_default_cache()
    if cache is not None:
        cached = cache.get(config, seed)
        if cached is not None:
            return cached
    streams = RandomStreams(seed)
    population = PopulationMap.build(config, streams)
    trace = detect_contacts(
        make_population_model(config, streams, population),
        radius=config.transmission_radius,
        duration=config.duration,
        scan_interval=config.scan_interval,
        radii=population.radii,
    )
    if cache is not None:
        cache.put(config, seed, trace)
    return trace


def make_router(
    scheme: str, config: ScenarioConfig, universe: KeywordUniverse
) -> Router:
    """Instantiate the router for ``scheme`` via the scheme registry.

    Raises:
        ConfigurationError: For unknown scheme names (from
            :func:`~repro.schemes.resolve_scheme`, which names every
            registered scheme).
    """
    return resolve_scheme(scheme).builder(config, universe)


def _build_population(
    config: ScenarioConfig,
    streams: RandomStreams,
    universe: KeywordUniverse,
    *,
    drop_policy: DropPolicy = DropPolicy.DROP_OLDEST,
    population: Optional[PopulationMap] = None,
) -> Tuple[List[Node], Dict[int, object]]:
    """Build the node objects and behaviour assignment for one run.

    Each class samples its members' behaviours and interests, in
    ascending id order, from its own streams
    (:func:`~repro.population.stream_name`): a one-class population
    draws on the shared ``"behavior-assignment"`` and ``"interests"``
    streams, and several classes never perturb one another.  Roles stay
    global (the hierarchy is an organisational overlay, not a device
    property).
    """
    if population is None:
        population = PopulationMap.build(config, streams)
    classes = population.classes
    hierarchy = RoleHierarchy(config.role_levels, config.role_fractions)
    ranks = hierarchy.assign(range(config.n_nodes), streams.get("roles"))
    behaviors: Dict[int, object] = {}
    interests: List[object] = [None] * config.n_nodes
    for index, cls in enumerate(classes):
        members = population.members(index).tolist()
        if not members:
            continue
        behaviors.update(
            assign_behaviors(
                members,
                streams.get(stream_name("behavior-assignment", cls, classes)),
                selfish_fraction=cls.selfish_fraction,
                malicious_fraction=cls.malicious_fraction,
                participation_probability=config.participation_probability,
                low_quality_probability=config.low_quality_probability,
            )
        )
        interest_rng = streams.get(stream_name("interests", cls, classes))
        for node_id in members:
            interests[node_id] = universe.sample_interests(
                interest_rng, cls.interests_per_node
            )
    # One capacity object per class, shared by its nodes.
    capacities = [cls.buffer_capacity for cls in classes]
    class_of = population.class_id.tolist()
    nodes = [
        Node(
            node_id,
            interests[node_id],
            role=ranks[node_id],
            buffer_capacity=capacities[class_of[node_id]],
            drop_policy=drop_policy,
            behavior=behaviors[node_id],
        )
        for node_id in range(config.n_nodes)
    ]
    return nodes, behaviors


def run_scenario(
    config: ScenarioConfig,
    scheme: Optional[str] = None,
    seed: int = 0,
    *,
    trace: Optional[ContactTrace] = None,
    sample_ratings: bool = False,
    rating_sample_interval: float = 600.0,
    trace_path: Optional[str] = None,
) -> RunResult:
    """Build and execute one simulation run.

    Args:
        config: The scenario.
        scheme: One of :data:`SCHEMES`.  Defaults to ``config.scheme``
            when the scenario pins one, else ``"incentive"``.
        seed: Master seed; population, workload and behaviour draws all
            derive from it.
        trace: Reuse a pre-built contact trace (for same-contacts
            comparisons); built from ``(config, seed)`` when omitted.
        sample_ratings: Periodically record the average rating of
            malicious nodes among honest observers (Fig. 5.4 series).
        rating_sample_interval: Sampling period in seconds.
        trace_path: Write a JSONL event trace of the run here; overrides
            ``config.trace_path``.  Tracing never changes results.

    Returns:
        The :class:`RunResult` with metrics and the router (whose ledger
        and reputation system remain inspectable).
    """
    if scheme is None:
        scheme = config.scheme if config.scheme is not None else "incentive"
    # Resolve up front: an unknown name fails here, before any
    # simulation state (or a trace file) is created.
    spec = resolve_scheme(scheme)
    effective_trace_path = trace_path if trace_path is not None else (
        config.trace_path
    )
    recorder = None
    if effective_trace_path is not None:
        recorder = JsonlTraceRecorder(
            effective_trace_path,
            meta={
                "scheme": scheme,
                "seed": seed,
                "n_nodes": config.n_nodes,
                "duration": config.duration,
            },
        )
    try:
        streams = RandomStreams(seed)
        universe = KeywordUniverse(config.keyword_pool)
        population = PopulationMap.build(config, streams)
        # Under the incentive schemes, custody of a high-priority
        # message is worth more tokens, so rational nodes evict
        # low-priority messages first; baselines keep ONE's drop-oldest
        # buffers.  The policy is part of the scheme's registration.
        nodes, behaviors = _build_population(
            config, streams, universe, drop_policy=spec.drop_policy,
            population=population,
        )
        router = spec.builder(config, universe)
        engine = Engine()
        world = World(
            engine,
            nodes,
            router,
            streams=streams,
            ttl=config.ttl,
            resume_partial_transfers=config.resume_partial_transfers,
            faults=config.faults,
            trace=recorder,
            population=population,
        )
        generator = MessageGenerator(
            universe,
            streams.get("workload"),
            profiles=config.profiles,
            content_keywords=config.content_keywords,
            annotated_fraction=config.annotated_fraction,
        )
        world.use_generator(generator)
        plan = generator.schedule(
            list(range(config.n_nodes)),
            duration=config.duration,
            interval=config.message_interval,
        )
        world.schedule_workload(plan)
        if trace is None:
            trace = build_contact_trace(config, seed)
        world.load_contact_trace(trace)

        malicious_ids = {i for i, b in behaviors.items() if b.malicious}
        selfish_ids = {i for i, b in behaviors.items() if b.selfish}
        honest_ids = set(range(config.n_nodes)) - malicious_ids - selfish_ids

        if sample_ratings and isinstance(router, IncentiveLayer):
            observers = sorted(set(range(config.n_nodes)) - malicious_ids)

            def _sample(now: float) -> None:
                ratings = {
                    subject: router.reputation.average_score_of(
                        subject, observers
                    )
                    for subject in sorted(malicious_ids)
                }
                world.metrics.sample_ratings(now, ratings)

            sampler = PeriodicProcess(
                engine, rating_sample_interval, _sample,
                start_at=0.0, label="rating-sampler",
            )
            sampler.start()

        metrics = world.run(config.duration)
        # Settle the books: any escrow still held by transfers the fault
        # processes orphaned goes back to its payer (no-op fault-free).
        router.finalize(world.now)
        if recorder is not None:
            end = {
                "type": "run-end", "t": world.now,
                "events": engine.events_fired,
            }
            if population.heterogeneous:
                end["node_classes"] = {
                    str(node_id): name
                    for node_id, name in population.names_by_node().items()
                }
            ledger = getattr(router, "ledger", None)
            if ledger is not None and ledger.trace is recorder:
                # Only trace-wired ledgers (the incentive protocol's)
                # snapshot balances: an untraced ledger's flows never
                # appeared in the file, so the auditor could not
                # reconcile them.
                end.update(
                    supply=ledger.total_supply(),
                    endowment=ledger.total_endowment(),
                    escrow=ledger.escrowed_total(),
                    token_payments=metrics.token_payments,
                    tokens_moved=metrics.tokens_moved,
                    balances={
                        str(node): balance
                        for node, balance in ledger.balances().items()
                    },
                )
            recorder.emit(end)
    finally:
        if recorder is not None:
            recorder.close()
    return RunResult(
        scheme=scheme,
        seed=seed,
        config=config,
        metrics=metrics,
        router=router,
        malicious_ids=malicious_ids,
        selfish_ids=selfish_ids,
        honest_ids=honest_ids,
        trace_path=(
            str(recorder.path) if recorder is not None else None
        ),
        node_classes=(
            population.names_by_node() if population.heterogeneous else None
        ),
    )


def run_comparison(
    config: ScenarioConfig,
    schemes: Sequence[str],
    seed: int = 0,
    *,
    workers: Optional[int] = 1,
    trace_cache: Optional[TraceCache] = None,
    **kwargs,
):
    """Run several schemes over the same contact trace and seed.

    Args:
        config: The scenario.
        schemes: Schemes to compare (each sees identical contacts).
        seed: Shared master seed.
        workers: ``1`` (default) runs in-process and returns full
            :class:`RunResult` objects; any other value fans the schemes
            out over a process pool and returns picklable
            :class:`~repro.experiments.parallel.RunDigest` objects
            (``mdr``, ``traffic`` and ``summary()`` behave identically).
        trace_cache: Optional trace cache overriding the default.
        **kwargs: Forwarded to :func:`run_scenario`.  A ``trace_path``
            (or ``config.trace_path``) is a base path: each scheme writes
            ``<base>.<scheme>.s<seed>.jsonl``.
    """
    runs = execute_runs(
        [RunSpec(config, scheme, seed, kwargs) for scheme in schemes],
        workers=workers,
        cache=trace_cache,
    )
    return dict(zip(schemes, runs))


def run_averaged(
    config: ScenarioConfig,
    scheme: str,
    seeds: Sequence[int],
    *,
    workers: Optional[int] = 1,
    trace_cache: Optional[TraceCache] = None,
    **kwargs,
) -> Dict[str, float]:
    """Mean of the headline metrics over repeated seeded runs.

    Both execution modes collect one summary per seed, in seed order,
    and average through :func:`~repro.metrics.analysis.merge_summaries`,
    so ``workers=4`` is bit-identical to ``workers=1``.

    Args:
        config: The scenario.
        scheme: One of :data:`SCHEMES`.
        seeds: Master seeds to average over.
        workers: ``1`` (default) runs in-process; ``None`` uses every
            core; ``N`` fans seeds out over ``N`` worker processes.
        trace_cache: Optional trace cache overriding the default.
        **kwargs: Forwarded to :func:`run_scenario`; a trace path is a
            base path, as in :func:`run_comparison`.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("seeds must be non-empty")
    runs = execute_runs(
        [RunSpec(config, scheme, seed, kwargs) for seed in seeds],
        workers=workers,
        cache=trace_cache,
    )
    return merge_summaries([run.summary() for run in runs])
