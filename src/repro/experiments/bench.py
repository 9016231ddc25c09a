"""Benchmark-trajectory harness.

``repro-dtn bench`` times the simulator's hot paths (contact detection,
event dispatch, the ChitChat weight exchange) plus an end-to-end
paper-scale probe, and writes the results to ``BENCH_<label>.json`` so
the performance trajectory is tracked across PRs: every optimisation PR
commits a before/after pair and CI compares fresh numbers against the
committed baseline.

Wall-clock times are machine-dependent, so each result file also records
a *calibration* number — the time of a fixed pure-Python workload on the
measuring machine.  :func:`compare` divides every benchmark mean by its
file's calibration before computing regression ratios, which makes the
2x CI gate meaningful across runner generations.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "BenchRecord",
    "Regression",
    "run_suite",
    "save_report",
    "load_report",
    "compare",
    "speedups",
]

#: Bumped when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchRecord:
    """Timing summary for one benchmark.

    Attributes:
        name: Stable benchmark identifier (comparison key across files).
        mean: Mean wall-clock seconds per round.
        stddev: Sample standard deviation (0 for a single round).
        best: Fastest observed round.
        rounds: Number of timed rounds.
    """

    name: str
    mean: float
    stddev: float
    best: float
    rounds: int

    def to_json(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "stddev": self.stddev,
            "best": self.best,
            "rounds": self.rounds,
        }


@dataclass(frozen=True)
class Regression:
    """One benchmark that got slower than the gate allows.

    ``ratio`` is calibration-normalised: ``(stat/cal)_now divided by
    (stat/cal)_baseline``, where the statistic is best-of-N (falling
    back to the mean for reports written before ``best`` existed).
    ``current_mean``/``baseline_mean`` carry the compared statistic.
    """

    name: str
    ratio: float
    current_mean: float
    baseline_mean: float


#: Warmup calls before timing starts.  Two, not one: the second call
#: runs with the allocator and branch predictors already shaped by the
#: first, which on the churn-heavy benchmarks (``engine_cancel_churn``,
#: ``detector_scan``) cuts round-to-round stddev roughly in half.
WARMUP_ROUNDS = 2


def _time_rounds(
    fn: Callable[[], object],
    rounds: int,
    *,
    warmups: int = WARMUP_ROUNDS,
) -> BenchRecord:
    """Run ``fn`` ``rounds`` times (after ``warmups`` warmups) and
    summarise."""
    for _ in range(warmups):  # warmup: imports, allocator, caches
        fn()
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return BenchRecord(
        name="",
        mean=statistics.fmean(samples),
        stddev=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        best=min(samples),
        rounds=rounds,
    )


def calibration_seconds() -> float:
    """Time a fixed pure-Python workload (best of 3).

    The absolute value is meaningless; the *ratio* between two machines'
    calibrations approximates their relative interpreter speed, which is
    what :func:`compare` normalises by.
    """
    def workload() -> int:
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


def machine_info() -> Dict[str, Union[str, int, float]]:
    """Provenance block recorded in every report."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "calibration_seconds": calibration_seconds(),
    }


# ----------------------------------------------------------------------
# The tracked benchmarks
# ----------------------------------------------------------------------
def _bench_pairs_in_range_500() -> Tuple[str, Callable[[], object]]:
    from repro.mobility.contact import pairs_in_range

    rng = np.random.default_rng(2)
    positions = rng.uniform(0.0, 2236.0, size=(500, 2))
    return "pairs_in_range_500", lambda: pairs_in_range(positions, 100.0)


def _bench_detector_scan_500() -> Tuple[str, Callable[[], object]]:
    """20 incremental scans over evolving 500-node snapshots."""
    from repro.mobility.contact import ContactDetector

    rng = np.random.default_rng(7)
    base = rng.uniform(0.0, 2236.0, size=(500, 2))
    snapshots = []
    positions = base
    for _ in range(20):
        positions = np.clip(
            positions + rng.normal(0.0, 25.0, size=positions.shape),
            0.0, 2236.0,
        )
        snapshots.append(positions)

    def run() -> int:
        detector = ContactDetector(100.0)
        for step, snap in enumerate(snapshots):
            detector.scan(float(step * 10), snap)
        return len(detector.finish(200.0))

    return "detector_scan_500x20", run


def _bench_engine_throughput() -> Tuple[str, Callable[[], object]]:
    from repro.sim.engine import Engine

    def run() -> int:
        engine = Engine()
        callback = lambda: None  # noqa: E731 - hot-loop constant
        for tick in range(10_000):
            engine.schedule_at(float(tick), callback)
        engine.run()
        return engine.events_fired

    return "engine_throughput_10k", run


def _bench_engine_cancel_churn() -> Tuple[str, Callable[[], object]]:
    """Retransmission-style churn: most scheduled events are cancelled."""
    from repro.sim.engine import Engine

    def run() -> int:
        engine = Engine()
        callback = lambda: None  # noqa: E731 - hot-loop constant
        handles = []
        for tick in range(10_000):
            handles.append(engine.schedule_at(float(tick), callback))
            if tick % 10 != 0:
                handles[-1].cancel()
        engine.run()
        return engine.events_fired

    return "engine_cancel_churn_10k", run


def _batched_interest_setup():
    """Workload for the fused-store decay benchmark.

    256 nodes, 8 direct keywords each over a 64-keyword universe — the
    paper's shape: tables are small, so one vectorised call over every
    row replaces per-table ufunc dispatch.  Direct-only so
    weights sit at the 0.5 fixed point and every round performs an
    identical amount of work (the decay arithmetic still runs in full;
    nothing prunes).
    """
    rng = np.random.default_rng(17)
    universe = np.array([f"kw{i:03d}" for i in range(64)])
    interests = [
        rng.choice(universe, size=8, replace=False).tolist()
        for _ in range(256)
    ]
    return universe, interests


def _bench_interest_decay_fused() -> Tuple[str, Callable[[], object]]:
    """Fused-store decay: the same 256 tables, one vectorized call."""
    from repro.routing.chitchat import InterestStore, KeywordIndex

    universe, interests = _batched_interest_setup()
    index = KeywordIndex(universe.tolist())
    store = InterestStore(index, rows=256)
    for direct in interests:
        store.create_table(direct, created_at=0.0)
    rows = np.arange(256, dtype=np.intp)
    connected = np.zeros((256, store.columns), dtype=bool)
    state = {"now": 0.0}

    def run() -> float:
        state["now"] += 100.0
        store.batch_decay(rows, connected, state["now"], beta=0.01)
        return state["now"]

    return "interest_decay_fused_256x8", run


def _batched_gossip_setup():
    """Shared workload for the gossip-merge pair.

    600 fully-overlapping subjects, so both variants run the pure EWMA
    merge with no membership churn and constant per-round work.
    """
    rng = np.random.default_rng(23)
    subjects = np.sort(
        rng.choice(5_000, size=600, replace=False)
    ).astype(np.int64)
    values = rng.uniform(1.0, 5.0, size=600)
    peer_values = rng.uniform(1.0, 5.0, size=600)
    return subjects, values, peer_values


def _bench_gossip_merge_legacy() -> Tuple[str, Callable[[], object]]:
    """Per-subject ``merge_opinion`` loop — the historical dict pass."""
    from repro.core.incentive import IncentiveParams
    from repro.core.reputation import ReputationBook

    subjects, values, peer_values = _batched_gossip_setup()
    receiver = ReputationBook(0, IncentiveParams())
    for subject, value in zip(subjects.tolist(), values.tolist()):
        receiver.merge_opinion(subject, value)
    heard = list(zip(subjects.tolist(), peer_values.tolist()))

    def run() -> float:
        merge = receiver.merge_opinion
        for subject, value in heard:
            merge(subject, value)
        return receiver.score(heard[0][0])

    return "gossip_merge_legacy_600", run


def _bench_gossip_merge_fused() -> Tuple[str, Callable[[], object]]:
    """Whole-book array merge — one searchsorted plus ufuncs."""
    from repro.core.incentive import IncentiveParams
    from repro.core.reputation import ReputationSystem

    subjects, values, peer_values = _batched_gossip_setup()
    alpha = IncentiveParams().alpha
    merge = ReputationSystem._merge_arrays

    def run() -> int:
        _s, _v, merged = merge(
            subjects, values, subjects, peer_values,
            alpha, 1.0 - alpha, -1, -2,
        )
        return merged

    return "gossip_merge_fused_600", run


def _paper_probe(duration: float) -> Callable[[], object]:
    """End-to-end Table 5.1 run (500 nodes), including trace detection."""
    from repro.experiments import trace_cache
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import run_scenario

    config = ScenarioConfig.paper_scale(duration=duration, ttl=duration)

    def run() -> float:
        # The probe must time contact detection too, so the default
        # on-disk trace cache is suspended for its duration.
        previous = trace_cache.get_default_cache()
        trace_cache.set_default_cache(None)
        try:
            return run_scenario(config, "incentive", seed=1).mdr
        finally:
            trace_cache.set_default_cache(previous)

    return run


#: name -> (factory, full_rounds, quick_rounds)
MICROBENCHMARKS: Tuple[Tuple[Callable[[], Tuple[str, Callable[[], object]]],
                             int, int], ...] = (
    (_bench_pairs_in_range_500, 50, 15),
    (_bench_detector_scan_500, 10, 3),
    (_bench_engine_throughput, 10, 3),
    (_bench_engine_cancel_churn, 10, 3),
    (_bench_interest_decay_fused, 20, 5),
    (_bench_gossip_merge_legacy, 30, 10),
    (_bench_gossip_merge_fused, 30, 10),
)


def run_suite(
    *,
    quick: bool = False,
    rounds: Optional[int] = None,
    include_paper: bool = True,
) -> Dict[str, object]:
    """Run every tracked benchmark and return the report dict.

    Args:
        quick: Fewer rounds and a 10-simulated-minute paper probe
            (stable names differ, so quick and full paper probes are
            never cross-compared).
        rounds: Override the per-benchmark round count (tests).
        include_paper: Skip the end-to-end probe entirely when False.
    """
    records: Dict[str, Dict[str, float]] = {}
    for factory, full_rounds, quick_rounds in MICROBENCHMARKS:
        name, fn = factory()
        n = rounds if rounds is not None else (
            quick_rounds if quick else full_rounds
        )
        record = _time_rounds(fn, n)
        records[name] = record.to_json()
    if include_paper:
        duration = 600.0 if quick else 3_600.0
        name = "paper_smoke_10min" if quick else "paper_smoke_1h"
        records[name] = _time_rounds(_paper_probe(duration), 1).to_json()
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "machine": machine_info(),
        "benchmarks": records,
    }


def save_report(report: Dict[str, object], out_dir: Union[str, Path],
                label: str) -> Path:
    """Write ``report`` to ``<out_dir>/BENCH_<label>.json``."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{label}.json"
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_report(path: Union[str, Path]) -> Dict[str, object]:
    """Read a report written by :func:`save_report`."""
    source = Path(path)
    try:
        report = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{source}: unreadable bench report: {exc}")
    if not isinstance(report, dict) or "benchmarks" not in report:
        raise ConfigurationError(f"{source}: not a bench report")
    return report


def compare(
    current: Dict[str, object],
    baseline: Dict[str, object],
    *,
    threshold: float = 2.0,
    name_prefix: Optional[str] = None,
) -> List[Regression]:
    """Benchmarks (by shared name) slower than ``threshold`` x baseline.

    The compared statistic is **best-of-N**, not the mean: the fastest
    round is the one least polluted by scheduler noise, GC pauses and
    co-tenant load, so its run-to-run variance is a fraction of the
    mean's (``detector_scan_500x20`` and ``engine_cancel_churn_10k``
    show mean stddevs of 40-50%, which flaked the 2x gate).  Reports
    written before ``best`` was recorded fall back to ``mean``.

    Times are divided by each report's machine calibration first, so a
    uniformly slower machine does not trip the gate; only a benchmark
    that got disproportionately slower does.

    Args:
        threshold: Calibrated slowdown factor that counts as a
            regression (must be > 1).
        name_prefix: Restrict the comparison to benchmarks whose name
            starts with this (e.g. ``"paper_"`` to gate only the
            end-to-end probes, at a tighter threshold).
    """
    if threshold <= 1.0:
        raise ConfigurationError(
            f"threshold must be > 1, got {threshold!r}"
        )
    current_cal = float(current["machine"]["calibration_seconds"])
    baseline_cal = float(baseline["machine"]["calibration_seconds"])
    regressions: List[Regression] = []
    for name, base in sorted(baseline["benchmarks"].items()):
        if name_prefix is not None and not name.startswith(name_prefix):
            continue
        now = current["benchmarks"].get(name)
        if now is None:
            continue
        base_mean = float(base.get("best", base["mean"]))
        now_mean = float(now.get("best", now["mean"]))
        if base_mean <= 0.0:
            continue
        ratio = (now_mean / current_cal) / (base_mean / baseline_cal)
        if ratio > threshold:
            regressions.append(Regression(
                name=name, ratio=ratio,
                current_mean=now_mean, baseline_mean=base_mean,
            ))
    return regressions


def speedups(
    current: Dict[str, object],
    baseline: Dict[str, object],
    *,
    name_prefix: Optional[str] = None,
) -> Dict[str, float]:
    """Calibrated speedup factor per shared benchmark name.

    The inverse view of :func:`compare`: ``baseline/current`` after
    dividing both by their machine calibrations, on the same best-of-N
    statistic.  A value of 2.5 means the current report is 2.5x faster.
    Used by ``repro-dtn bench scale --min-speedup`` to *require* an
    optimisation PR's gain instead of merely tolerating no regression.
    """
    current_cal = float(current["machine"]["calibration_seconds"])
    baseline_cal = float(baseline["machine"]["calibration_seconds"])
    gains: Dict[str, float] = {}
    for name, base in sorted(baseline["benchmarks"].items()):
        if name_prefix is not None and not name.startswith(name_prefix):
            continue
        now = current["benchmarks"].get(name)
        if now is None:
            continue
        base_best = float(base.get("best", base["mean"]))
        now_best = float(now.get("best", now["mean"]))
        if base_best <= 0.0 or now_best <= 0.0:
            continue
        gains[name] = (base_best / baseline_cal) / (now_best / current_cal)
    return gains
