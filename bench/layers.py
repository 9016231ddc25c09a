"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` replaces public functions and methods of the
simulator with wrappers for the duration of one job, then restores them.
A *span* wrapper times each call and keeps the stack of open spans in
memory, so a span's self time is its duration minus the time covered by
the spans nested inside it.  A *count* wrapper only counts calls, for
functions too hot or too small to time.  Nothing inside ``src/`` knows
about the tracer: the spans sit at the calls into each layer.

:data:`LAYER_METRICS` turns the recorded spans into the benchmark's
per-layer metrics; README.md maps each one to the end-to-end metric and
the workloads it should move.  A hooked function that no longer exists
is reported under ``absent_hooks`` and every metric that needs it is
``None`` — never 0, so a rename cannot silently zero a metric.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Hook:
    """A public function or method to wrap.

    Attributes:
        module: Importable module that defines it.
        path: ``"function"`` or ``"Class.method"`` inside ``module``.
        span: Time each call (``True``) or only count calls.
        size_arg: Positional index of a sized argument whose lengths
            are summed into the hook's ``items``.
    """

    module: str
    path: str
    span: bool = True
    size_arg: Optional[int] = None


_WORLD = "repro.network.world"
_LAYER = "repro.core.incentive_layer"
_CHITCHAT = "repro.routing.chitchat"
_REPUTATION = "repro.core.reputation"
_LEDGER = "repro.core.ledger"

#: Router hooks the world calls; their spans carve the world's own
#: dispatch/admission/link/energy/TTL bookkeeping out of ``World.run``.
_ROUTER_HOOKS = (
    "on_contact_start", "on_contact_end", "prepare_contact_batch",
    "contact_end_batch", "on_message_created", "on_message_received",
    "on_transfer_aborted", "on_message_expired", "on_message_dropped",
    "on_node_wiped",
)

HOOKS: Dict[str, Hook] = {
    "mobility.detect": Hook("repro.experiments.runner", "build_contact_trace"),
    "world.run": Hook(_WORLD, "World.run"),
    "world.send_message": Hook(_WORLD, "World.send_message", span=False),
    **{
        f"layer.{name}": Hook(_LAYER, f"IncentiveLayer.{name}")
        for name in _ROUTER_HOOKS
    },
    "layer.compute_promise": Hook(_LAYER, "IncentiveLayer.compute_promise"),
    "layer.compute_award": Hook(_LAYER, "IncentiveLayer.compute_award"),
    "chitchat.prepare_contact_batch": Hook(
        _CHITCHAT, "ChitChatRouter.prepare_contact_batch", size_arg=1
    ),
    "chitchat.select_messages": Hook(
        _CHITCHAT, "ChitChatRouter.select_messages"
    ),
    "chitchat.contact_end_batch": Hook(
        _CHITCHAT, "ChitChatRouter.contact_end_batch"
    ),
    "chitchat.on_contact_end": Hook(_CHITCHAT, "ChitChatRouter.on_contact_end"),
    "chitchat.interest_sum": Hook(
        _CHITCHAT, "ChitChatRouter.interest_sum", span=False
    ),
    "store.batch_decay": Hook(_CHITCHAT, "InterestStore.batch_decay"),
    "store.batch_grow_pairs": Hook(_CHITCHAT, "InterestStore.batch_grow_pairs"),
    "table.decay": Hook(_CHITCHAT, "InterestTable.decay"),
    "reputation.exchange_batch_rounds": Hook(
        _REPUTATION, "ReputationSystem.exchange_batch_rounds"
    ),
    "reputation.record_gossip": Hook(
        _REPUTATION, "ReputationSystem.record_gossip"
    ),
    "reputation.exchange": Hook(_REPUTATION, "ReputationSystem.exchange"),
    **{
        f"ledger.{name}": Hook(_LEDGER, f"TokenLedger.{name}")
        for name in ("escrow", "capture", "release", "transfer", "expire_holds")
    },
    "trace.emit": Hook("repro.trace.recorder", "JsonlTraceRecorder.emit"),
    "trace.replay": Hook("repro.trace.audit", "replay_trace"),
}

#: The only hook an untraced round installs: its first entry stamps the
#: end of set-up (one call per run, so it costs nothing measurable).
SETUP_HOOKS: Dict[str, Hook] = {"world.run": HOOKS["world.run"]}


class _Stat:
    __slots__ = ("calls", "self_time", "items", "first_start")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.items = 0
        self.first_start: Optional[float] = None


class LayerTracer:
    """Wraps :data:`HOOKS` (or a subset) while used as a context manager.

    Single-threaded by design: the open-span stack is shared by every
    wrapper, which is exact because the simulator runs in one thread.
    """

    def __init__(self, hooks: Dict[str, Hook]):
        self.hooks = dict(hooks)
        self.stats: Dict[str, _Stat] = {name: _Stat() for name in self.hooks}
        self.absent: List[str] = []
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for name, hook in self.hooks.items():
            try:
                owner, attr = _resolve(hook)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, hook, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, hook: Hook, fn: Callable) -> Callable:
        stat = self.stats[name]
        size_arg = hook.size_arg
        if not hook.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if size_arg is not None:
                stat.items += len(args[size_arg])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.self_time += elapsed - children
                if stat.first_start is None:
                    stat.first_start = start
                if stack:
                    stack[-1] += elapsed
        return spanned

    def first_start(self, name: str) -> Optional[float]:
        """``perf_counter`` at the first entry into span ``name``."""
        return self.stats[name].first_start

    def self_seconds(self) -> float:
        """Sum of every span's self time."""
        return sum(s.self_time for s in self.stats.values())


def _resolve(hook: Hook) -> Tuple[object, str]:
    owner: object = importlib.import_module(hook.module)
    *parents, attr = hook.path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric.

    Attributes:
        name: Metric name as printed.
        unit: Unit as printed.
        better: ``"lower"`` or ``"higher"``.
        hooks: :data:`HOOKS` entries the metric reads (empty for values
            the job reports itself).
        compute: ``(stats, job) -> value`` where ``stats`` maps hook
            name to its :class:`_Stat` and ``job`` holds the job-level
            values (``contacts``, ``events``, ``transfers``,
            ``trace_mb``); ``None`` for a metric the orchestrator
            computes across rounds.
    """

    name: str
    unit: str
    better: str
    hooks: Tuple[str, ...]
    compute: Optional[Callable[[Dict[str, _Stat], Dict[str, float]], float]]


def _self(*names: str):
    return lambda stats, job: sum(stats[n].self_time for n in names)


def _calls(name: str):
    return lambda stats, job: stats[name].calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed(name: str, *hooks: str) -> LayerMetric:
    """Self time summed over ``hooks``."""
    return LayerMetric(name, "s", "lower", hooks, _self(*hooks))


def _counted(name: str, hook: str) -> LayerMetric:
    """Calls of ``hook``."""
    return LayerMetric(name, "count", "lower", (hook,), _calls(hook))


_GROWTH = (
    "chitchat.contact_end_batch", "store.batch_grow_pairs",
    "chitchat.on_contact_end",
)
_LEDGER_OPS = tuple(
    f"ledger.{n}"
    for n in ("escrow", "capture", "release", "transfer", "expire_holds")
)

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    _timed("mobility.detect_s", "mobility.detect"),
    LayerMetric("mobility.contacts", "count", "lower", (),
                lambda stats, job: job["contacts"]),
    LayerMetric("sim.events", "count", "lower", (),
                lambda stats, job: job["events"]),
    _timed("network.world.self_s", "world.run"),
    _counted("network.world.sends", "world.send_message"),
    LayerMetric("network.world.transfer_yield", "ratio", "higher",
                ("world.send_message",),
                lambda stats, job: _ratio(
                    job["transfers"], stats["world.send_message"].calls)),
    _timed("routing.chitchat.batch_plan_s", "chitchat.prepare_contact_batch"),
    _timed("routing.chitchat.batch_decay_s", "store.batch_decay"),
    _timed("routing.chitchat.seq_decay_s", "table.decay"),
    _counted("routing.chitchat.seq_decay_sides", "table.decay"),
    LayerMetric("routing.chitchat.seq_decay_share", "ratio", "lower",
                ("table.decay", "chitchat.prepare_contact_batch"),
                lambda stats, job: _ratio(
                    stats["table.decay"].calls,
                    2 * stats["chitchat.prepare_contact_batch"].items)),
    _timed("routing.chitchat.select_s", "chitchat.select_messages"),
    _counted("routing.chitchat.select_calls", "chitchat.select_messages"),
    _timed("routing.chitchat.growth_s", *_GROWTH),
    _counted("routing.chitchat.interest_sum_calls", "chitchat.interest_sum"),
    _timed("core.reputation.gossip_batch_s",
           "reputation.exchange_batch_rounds"),
    _timed("core.reputation.gossip_replay_s", "reputation.record_gossip"),
    _counted("core.reputation.gossip_seq_pairs", "reputation.exchange"),
    _timed("core.incentive_layer.offer_s", "layer.on_contact_start"),
    _timed("core.incentive_layer.promise_s", "layer.compute_promise"),
    _counted("core.incentive_layer.promise_calls", "layer.compute_promise"),
    _timed("core.incentive_layer.award_s", "layer.compute_award"),
    _counted("core.incentive_layer.award_calls", "layer.compute_award"),
    _timed("core.incentive_layer.settle_s", "layer.on_message_received"),
    _timed("core.incentive_layer.abort_s", "layer.on_transfer_aborted"),
    _timed("core.ledger.self_s", *_LEDGER_OPS),
    _counted("core.ledger.escrows", "ledger.escrow"),
    _counted("core.ledger.captures", "ledger.capture"),
    _counted("core.ledger.releases", "ledger.release"),
    LayerMetric("core.ledger.capture_ratio", "ratio", "higher",
                ("ledger.capture", "ledger.escrow"),
                lambda stats, job: _ratio(
                    stats["ledger.capture"].calls,
                    stats["ledger.escrow"].calls)),
    _timed("trace.emit_s", "trace.emit"),
    _counted("trace.records", "trace.emit"),
    _timed("trace.audit_s", "trace.replay"),
    LayerMetric("trace.file_mb", "MB", "lower", (),
                lambda stats, job: job["trace_mb"]),
)

#: Computed by the orchestrator from a traced and the untraced rounds:
#: traced wall over untraced ``wall_s``, the cost of this tracer.
TRACE_OVERHEAD = LayerMetric("bench.trace_overhead", "ratio", "lower", (), None)


def layer_metrics(
    tracer: LayerTracer, job: Dict[str, float], time_scale: float = 1.0
) -> Dict[str, Optional[float]]:
    """Every :data:`LAYER_METRICS` value of one traced job, times in
    seconds multiplied by ``time_scale``."""
    absent = set(tracer.absent)
    values: Dict[str, Optional[float]] = {}
    for metric in LAYER_METRICS:
        if absent.intersection(metric.hooks):
            values[metric.name] = None
            continue
        value = metric.compute(tracer.stats, job)
        values[metric.name] = value * time_scale if metric.unit == "s" else value
    return values
