"""Scale benchmark suite: end-to-end throughput at 10k/100k/1M nodes.

``repro-dtn bench scale`` times full incentive-scheme runs on
constant-density blow-ups of the paper's Table 5.1 scenario (100 nodes
per km², the paper's density) and writes ``BENCH_scale.json``.  The
report uses the same schema as the micro suite
(:mod:`repro.experiments.bench`), so the same calibrated
:func:`~repro.experiments.bench.compare` gate CI already runs for the
micro benchmarks gates scale regressions too.

Tiers
-----
``1k``
    1,000 nodes, ten simulated minutes — the CI smoke tier: cheap
    enough to run per PR with ``--audit``, gating the batched contact
    path on a clean conservation replay.
``10k``
    10,000 nodes, one simulated hour — the PR-gating tier.  Also the
    tier the conservation audit replays (``--audit``): the run is
    repeated with a JSONL trace and every settlement is checked against
    the ledger invariants.
``100k``
    100,000 nodes, ten simulated minutes — the contact-path stress
    tier.  Too heavy for per-PR CI; run when touching detection or the
    world core.
``1m``
    1,000,000 nodes, one simulated minute — opt-in smoke proving the
    array-backed world survives seven figures.  Expect minutes of wall
    clock and several GB of RSS.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.bench import SCHEMA_VERSION, machine_info

__all__ = [
    "SCALE_TIERS",
    "scale_config",
    "scale_probe",
    "run_scale_suite",
]

#: Square metres per node at the paper's density (500 nodes / 5 km²).
_M2_PER_NODE = 1e4

#: tier name -> (n_nodes, simulated seconds, benchmark name)
SCALE_TIERS: Dict[str, Tuple[int, float, str]] = {
    "1k": (1_000, 600.0, "scale_1k_10min"),
    "10k": (10_000, 3_600.0, "scale_10k_1h"),
    "100k": (100_000, 600.0, "scale_100k_10min"),
    "1m": (1_000_000, 60.0, "scale_1m_smoke"),
}


def scale_config(n_nodes: int, duration: float):
    """Table 5.1 physics at ``n_nodes``, density held at the paper's.

    The arena grows with the population (10,000 m² per node), keeping
    per-node contact rates — and therefore per-node work — comparable
    across tiers, which is what makes throughput-per-node a meaningful
    cross-tier number.
    """
    from repro.experiments.config import ScenarioConfig

    side = math.sqrt(n_nodes * _M2_PER_NODE)
    return ScenarioConfig.paper_scale(
        n_nodes=n_nodes,
        area=(side, side),
        duration=duration,
        ttl=duration,
    )


def scale_probe(
    n_nodes: int,
    duration: float,
    *,
    scheme: str = "incentive",
    seed: int = 1,
    trace_path: Optional[str] = None,
) -> Dict[str, float]:
    """Time one full run; return wall clock and throughput numbers.

    The default on-disk trace cache is suspended so contact detection
    is always timed (the same fairness rule as the micro suite's paper
    probe).

    Returns keys: ``wall_seconds``, ``mdr``, ``n_nodes``,
    ``sim_seconds``, ``node_sim_seconds_per_wall_second`` (the
    throughput the tiers gate).
    """
    from repro.experiments import trace_cache
    from repro.experiments.runner import run_scenario

    config = scale_config(n_nodes, duration)
    previous = trace_cache.get_default_cache()
    trace_cache.set_default_cache(None)
    try:
        start = time.perf_counter()
        result = run_scenario(
            config, scheme, seed=seed, trace_path=trace_path
        )
        wall = time.perf_counter() - start
    finally:
        trace_cache.set_default_cache(previous)
    return {
        "wall_seconds": wall,
        "mdr": result.mdr,
        "n_nodes": float(n_nodes),
        "sim_seconds": duration,
        "node_sim_seconds_per_wall_second": n_nodes * duration / wall,
    }


def run_scale_suite(
    *,
    tiers: Sequence[str] = ("10k",),
    audit: bool = False,
    audit_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run the requested tiers and build the ``BENCH_scale.json`` dict.

    Args:
        tiers: Tier names from :data:`SCALE_TIERS`, run in the given
            order.
        audit: Re-run the first tier with a JSONL trace and replay it
            through the conservation auditor; the verdict lands in the
            report's ``audit`` block.
        audit_dir: Keep the audit trace in this directory (a deleted
            scratch directory when ``None``).

    Returns:
        A report dict in the micro suite's schema plus ``scale`` and
        ``audit`` blocks.
    """
    unknown = [t for t in tiers if t not in SCALE_TIERS]
    if unknown:
        raise ConfigurationError(
            f"unknown scale tiers {unknown!r}; "
            f"known: {sorted(SCALE_TIERS)}"
        )
    if not tiers:
        raise ConfigurationError("at least one tier is required")

    benchmarks: Dict[str, Dict[str, float]] = {}
    scale: Dict[str, Dict[str, float]] = {}
    for tier in tiers:
        n_nodes, duration, name = SCALE_TIERS[tier]
        probe = scale_probe(n_nodes, duration)
        benchmarks[name] = {
            "mean": probe["wall_seconds"],
            "stddev": 0.0,
            "best": probe["wall_seconds"],
            "rounds": 1,
        }
        scale[name] = probe

    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "quick": False,
        "machine": machine_info(),
        "benchmarks": benchmarks,
        "scale": scale,
    }

    if audit:
        report["audit"] = _run_audit_tier(tiers[0], audit_dir=audit_dir)
    return report


def _run_audit_tier(
    tier: str, *, audit_dir: Optional[str]
) -> Dict[str, object]:
    """Trace the tier's run and replay the conservation auditor."""
    import os
    import tempfile

    from repro.trace.audit import replay_trace

    n_nodes, duration, name = SCALE_TIERS[tier]
    directory = audit_dir or tempfile.mkdtemp(prefix="bench_scale_audit_")
    trace_path = os.path.join(directory, f"{name}.jsonl")
    probe = scale_probe(n_nodes, duration, trace_path=trace_path)
    audit_report = replay_trace(trace_path)
    verdict: Dict[str, object] = {
        "tier": name,
        "ok": bool(audit_report.ok),
        "records": int(audit_report.records_read),
        "trace_path": trace_path,
        "wall_seconds_traced": probe["wall_seconds"],
    }
    if audit_dir is None:
        # Scratch trace: can be hundreds of MB at 10k nodes.
        try:
            os.remove(trace_path)
            os.rmdir(directory)
        except OSError:
            pass
        verdict["trace_path"] = None
    return verdict
