"""Parallel experiment execution.

Every figure in the paper's evaluation averages five seeded runs, and
the sweeps behind Figs. 5.1-5.6 multiply that by a parameter grid and
several schemes.  Individual runs are completely independent — each one
derives all of its randomness from its own
:class:`~repro.sim.rng.RandomStreams` master seed — so they fan out over
a :class:`~concurrent.futures.ProcessPoolExecutor` without changing a
single draw: parallel results are **bit-identical** to serial ones.

The unit of work is a picklable :class:`RunSpec`.  Workers return a
:class:`RunDigest` — the run's summary dict plus the per-priority MDR
split and rating samples the figure generators need — rather than the
full :class:`~repro.experiments.runner.RunResult`, whose router graph is
not worth shipping across process boundaries.  A crashed worker returns
a :class:`RunFailure` naming the ``(scheme, seed)`` that died instead of
poisoning the pool; :func:`ensure_success` turns failures into one
:class:`~repro.errors.ExperimentError` listing every casualty.

Every multi-run experiment (comparisons, seed averages, sweeps and the
figure generators) builds its list of specs once and hands it to one
executor, :func:`execute_runs`.  ``workers=1`` (the default everywhere)
runs the list in-process and returns full results, because the router
graph a figure may inspect never crosses a process boundary; any other
value runs it over the pool through :func:`run_specs` and returns
digests (``workers=None`` means ``os.cpu_count()``).  Both modes give
each run its own trace file, share contact traces the same way and
read the same trace cache.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback as traceback_module
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.errors import ExperimentError
from repro.experiments.config import ScenarioConfig
from repro.experiments.trace_cache import (
    TraceCache,
    get_default_cache,
    set_default_cache,
    trace_cache_key,
)
from repro.messages.message import Priority
from repro.trace.recorder import derive_trace_path

__all__ = [
    "RunSpec",
    "MetricsDigest",
    "RunDigest",
    "RunFailure",
    "run_specs",
    "ensure_success",
    "resolve_workers",
]


@dataclass(frozen=True)
class RunSpec:
    """One picklable unit of work: a single ``(config, scheme, seed)`` run.

    Attributes:
        config: The scenario to simulate.
        scheme: One of :data:`~repro.experiments.runner.SCHEMES`.
        seed: Master seed for the run's :class:`RandomStreams`.
        run_kwargs: Extra keyword arguments forwarded to
            :func:`~repro.experiments.runner.run_scenario` (for example a
            pre-built ``trace`` or ``sample_ratings=True``).
    """

    config: ScenarioConfig
    scheme: str
    seed: int
    run_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Human-readable tag used in failure reports."""
        return f"({self.scheme}, seed={self.seed})"


@dataclass(frozen=True)
class MetricsDigest:
    """The picklable slice of a run's metrics that experiments consume.

    Mirrors the :class:`~repro.metrics.collector.MetricsCollector`
    accessors the figure generators call, so digests and full results
    are interchangeable in aggregation code.
    """

    summary_data: Dict[str, float]
    mdr_by_priority_data: Dict[Priority, float]
    rating_samples: Tuple[Tuple[float, Dict[int, float]], ...] = ()
    fault_summary_data: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        """The run's headline metrics (a fresh copy)."""
        return dict(self.summary_data)

    def fault_summary(self) -> Dict[str, float]:
        """Robustness counters (``RunResult.fault_summary`` mirror)."""
        return dict(self.fault_summary_data)

    def mdr_by_priority(self) -> Dict[Priority, float]:
        """MDR split by priority class (Fig. 5.6)."""
        return dict(self.mdr_by_priority_data)

    def message_delivery_ratio(self) -> float:
        """The run's overall MDR."""
        return self.summary_data["mdr"]


@dataclass(frozen=True)
class RunDigest:
    """A completed run, reduced to what crosses process boundaries.

    Attributes:
        attempts: How many executions this digest took (1 = first try;
            2 or 3 mean the run initially failed and a retry succeeded).
    """

    scheme: str
    seed: int
    metrics: MetricsDigest
    attempts: int = 1
    #: Where the run's event trace was written (None when untraced);
    #: lets callers collect the per-run trace files after a sweep.
    trace_path: Optional[str] = None

    @property
    def mdr(self) -> float:
        """Message delivery ratio of this run."""
        return self.metrics.summary_data["mdr"]

    @property
    def traffic(self) -> int:
        """Completed transfers (the paper's traffic measure)."""
        return int(self.metrics.summary_data["transfers_completed"])

    def summary(self) -> Dict[str, float]:
        """Headline metrics, identical to ``RunResult.summary()``."""
        return self.metrics.summary()

    def fault_summary(self) -> Dict[str, float]:
        """Robustness counters, identical to ``RunResult.fault_summary()``."""
        return self.metrics.fault_summary()


@dataclass(frozen=True)
class RunFailure:
    """A run that raised instead of completing.

    Attributes:
        scheme: The failing scheme.
        seed: The failing seed.
        error: ``"ExceptionType: message"`` of the failure.
        traceback: Full worker-side traceback for debugging.
        attempts: Total executions tried (including retries) before
            giving up.
    """

    scheme: str
    seed: int
    error: str
    traceback: str = ""
    attempts: int = 1

    @property
    def label(self) -> str:
        """Human-readable tag used in failure reports."""
        return f"({self.scheme}, seed={self.seed})"


def digest_of(result) -> RunDigest:
    """Reduce a :class:`RunResult` to its picklable digest."""
    return RunDigest(
        scheme=result.scheme,
        seed=result.seed,
        metrics=MetricsDigest(
            summary_data=result.summary(),
            mdr_by_priority_data=result.metrics.mdr_by_priority(),
            rating_samples=tuple(
                (time, dict(ratings))
                for time, ratings in result.metrics.rating_samples
            ),
            fault_summary_data=result.fault_summary(),
        ),
        trace_path=result.trace_path,
    )


def _result_of(spec: RunSpec):
    """Run one spec in this process and return its full result.

    The executor's in-process mode and :func:`execute_spec` both run
    specs here.  A run that brings no contact trace builds it through
    the default cache, which the caller has set to the call's cache.
    """
    from repro.experiments.runner import run_scenario

    return run_scenario(
        spec.config, spec.scheme, spec.seed, **spec.run_kwargs
    )


def execute_spec(spec: RunSpec) -> Union[RunDigest, RunFailure]:
    """Execute one spec, catching any failure into a :class:`RunFailure`.

    This is the worker entry point; it must stay a module-level function
    so the pool can pickle it.
    """
    try:
        return digest_of(_result_of(spec))
    except Exception as exc:
        return RunFailure(
            scheme=spec.scheme,
            seed=spec.seed,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
        )


@contextmanager
def _cache_installed(cache: Optional[TraceCache]) -> Iterator[None]:
    """Make ``cache`` this process's default trace cache for the block.

    In-process runs then read the call's cache the way pool workers do:
    the pool installs it as each worker's default.  ``None`` keeps the
    current default.
    """
    if cache is None:
        yield
        return
    previous = get_default_cache()
    set_default_cache(cache)
    try:
        yield
    finally:
        set_default_cache(previous)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: None means ``os.cpu_count()``."""
    if workers is None:
        return os.cpu_count() or 1
    count = int(workers)
    if count < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers!r}")
    return count


def _result_or_failure(future, spec: RunSpec) -> Union[RunDigest, RunFailure]:
    """Unwrap a future, mapping pool plumbing errors to RunFailure."""
    try:
        return future.result()
    except Exception as exc:
        # execute_spec never raises, so this is pool plumbing:
        # a worker died hard or the spec failed to pickle.
        return RunFailure(
            scheme=spec.scheme,
            seed=spec.seed,
            error=f"{type(exc).__name__}: {exc}",
        )


@contextmanager
def _round_runner(
    worker_count: int, spec_count: int, cache: Optional[TraceCache]
) -> Iterator[Callable]:
    """Yield the function that executes one round of specs, in order.

    One worker (or at most one spec) maps :func:`execute_spec` in this
    process under ``cache``; otherwise every round is submitted to one
    pool that lives across the retry rounds.
    """
    if worker_count == 1 or spec_count <= 1:
        with _cache_installed(cache):
            yield lambda batch: [execute_spec(spec) for spec in batch]
        return
    with ProcessPoolExecutor(
        max_workers=min(worker_count, spec_count),
        initializer=set_default_cache,
        initargs=(cache,),
    ) as pool:

        def submit(batch: List[RunSpec]):
            futures = [pool.submit(execute_spec, spec) for spec in batch]
            return [
                _result_or_failure(future, spec)
                for future, spec in zip(futures, batch)
            ]

        yield submit


#: Extra executions :func:`run_specs` allows a failing spec.
MAX_RETRIES = 2
#: Sleep before :func:`run_specs`' first retry, seconds; doubles each
#: further round.
RETRY_BACKOFF = 0.5


def run_specs(
    specs: Sequence[RunSpec],
    *,
    workers: Optional[int] = None,
    cache: Optional[TraceCache] = None,
) -> List[Union[RunDigest, RunFailure]]:
    """Execute ``specs``, preserving order, optionally in parallel.

    Failed specs are retried up to :data:`MAX_RETRIES` times with
    exponential backoff from :data:`RETRY_BACKOFF` — transient
    breakage (a worker killed by the OOM killer, a torn cache entry)
    heals on a clean re-run, while a deterministic bug simply fails
    again and is reported once retries are exhausted.  Each outcome
    records how many executions it took in its ``attempts`` field.

    Each traced run writes its own file (see :func:`_with_trace_files`):
    two runs of one traced config never share a trace file.

    Args:
        specs: Units of work; results come back in the same order.
        workers: Process count; ``1`` runs in-process (no pool, no
            pickling), ``None`` uses every core.
        cache: Trace cache for runs that bring no contact trace, in
            this process and in the workers alike; defaults to the
            process-wide cache (``REPRO_TRACE_CACHE``).

    Returns:
        One :class:`RunDigest` or :class:`RunFailure` per spec.
    """
    specs = _with_trace_files(specs)
    worker_count = resolve_workers(workers)
    if cache is None:
        cache = get_default_cache()
    outcomes: List[Union[RunDigest, RunFailure, None]] = [None] * len(specs)
    attempts = [0] * len(specs)
    pending = list(range(len(specs)))
    with _round_runner(worker_count, len(specs), cache) as run_round:
        for round_index in range(MAX_RETRIES + 1):
            if round_index:
                time.sleep(RETRY_BACKOFF * 2 ** (round_index - 1))
            batch = run_round([specs[i] for i in pending])
            for i, outcome in zip(pending, batch):
                outcomes[i] = outcome
                attempts[i] += 1
            pending = [
                i for i in pending if isinstance(outcomes[i], RunFailure)
            ]
            if not pending:
                break
    return [
        dataclasses.replace(outcome, attempts=count)
        for outcome, count in zip(outcomes, attempts)
    ]


def ensure_success(
    outcomes: Sequence[Union[RunDigest, RunFailure]]
) -> List[RunDigest]:
    """Return the digests, raising if any outcome is a failure.

    Raises:
        ExperimentError: Listing every failing ``(scheme, seed)``.
    """
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    if failures:
        details = "; ".join(f"{f.label}: {f.error}" for f in failures)
        raise ExperimentError(
            f"{len(failures)} of {len(outcomes)} runs failed: {details}"
        )
    return list(outcomes)  # type: ignore[arg-type]


def _with_trace_files(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Give each traced run its own trace file.

    A traced run writes to :func:`~repro.trace.derive_trace_path` of its
    base path (its ``trace_path`` keyword, else its config's), so
    ``run.jsonl`` becomes ``run.<scheme>.s<seed>.jsonl``.  Runs that
    would still share a file, such as a sweep's grid points, get
    ``.p<k>`` before the extension, ``k`` counting them in list order.
    :func:`run_specs` and the executor's in-process mode both name
    their runs here, and nothing else does, so no name is derived twice.
    """
    paths = []
    for spec in specs:
        base = spec.run_kwargs.get("trace_path") or spec.config.trace_path
        paths.append(base and derive_trace_path(
            base, scheme=spec.scheme, seed=spec.seed
        ))
    counts: Counter = Counter(paths)
    numbered: Counter = Counter()
    named = []
    for spec, path in zip(specs, paths):
        if path and counts[path] > 1:
            point = numbered[path]
            numbered[path] += 1
            name = Path(path)
            path = str(name.with_name(f"{name.stem}.p{point}{name.suffix}"))
        named.append(dataclasses.replace(
            spec, run_kwargs=dict(spec.run_kwargs, trace_path=path)
        ))
    return named


def _with_shared_traces(
    specs: Sequence[RunSpec], cache: Optional[TraceCache]
) -> List[RunSpec]:
    """Build each contact trace that several runs need once.

    A contact trace (mobility fields and seed) that two or more runs
    without a ``trace`` need is built once, through ``cache``, and
    passed to them; a trace only one run needs is built where that run
    executes, so pool workers detect such traces in parallel.
    """
    from repro.experiments.runner import build_contact_trace

    keys = [
        None if spec.run_kwargs.get("trace") is not None
        else trace_cache_key(spec.config, spec.seed)
        for spec in specs
    ]
    counts: Counter = Counter(keys)
    traces: Dict[str, object] = {}
    prepared = []
    for spec, key in zip(specs, keys):
        if key and counts[key] > 1:
            if key not in traces:
                traces[key] = build_contact_trace(
                    spec.config, spec.seed, cache=cache
                )
            spec = dataclasses.replace(
                spec, run_kwargs=dict(spec.run_kwargs, trace=traces[key])
            )
        prepared.append(spec)
    return prepared


def execute_runs(
    specs: Sequence[RunSpec],
    *,
    workers: Optional[int],
    cache: Optional[TraceCache] = None,
) -> list:
    """Run ``specs`` in order: the executor behind every multi-run caller.

    Package-internal: :func:`~repro.experiments.runner.run_comparison`,
    :func:`~repro.experiments.runner.run_averaged` and
    :func:`~repro.experiments.sweeps.sweep` (which the fault sweep and
    the figure generators use) build their run list and hand it here.
    Both modes share contact traces through :func:`_with_shared_traces`
    and name trace files through :func:`_with_trace_files`.

    Args:
        specs: The runs, in the order the results come back.
        workers: ``1`` runs in this process and returns full
            :class:`~repro.experiments.runner.RunResult` objects; a run's
            exception propagates.  Any other value runs the list through
            :func:`run_specs` and returns :class:`RunDigest` objects,
            raising :class:`~repro.errors.ExperimentError` if a run still
            fails after its retries.
        cache: Trace cache overriding the process default.
    """
    specs = _with_shared_traces(specs, cache)
    if workers == 1:
        with _cache_installed(cache):
            return [_result_of(spec) for spec in _with_trace_files(specs)]
    return ensure_success(run_specs(specs, workers=workers, cache=cache))
