"""Robustness sweeps: the paper's comparison under injected faults.

The evaluation in the paper assumes ideal contacts; these sweeps rerun
the central "incentive vs plain ChitChat" comparison while dialing up
link-layer loss and node churn (see :mod:`repro.faults`), asking two
questions the paper leaves open:

1. **Graceful degradation** — how fast does the delivery ratio fall,
   and does bounded retransmission buy any of it back?
2. **Ledger integrity** — under every fault mix, the token supply must
   be exactly conserved, escrow must drain to zero by the end of the
   run, and no settlement key may ever pay out twice
   (``double_payments == 0``); ``duplicate_settlements`` counts the
   duplicate attempts the idempotence machinery *blocked*, which is the
   interesting signal, not a failure.

Each sweep record carries the seed-averaged delivery ratio and overhead
plus the worst-case integrity counters across its seeds, so a single
``assert record["double_payments"] == 0`` covers the whole grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.sweeps import sweep
from repro.experiments.trace_cache import TraceCache
from repro.faults import FaultConfig
from repro.schemes import tagged

__all__ = ["fault_grid_configs", "fault_sweep"]


def fault_grid_configs(
    base: ScenarioConfig,
    loss_levels: Sequence[float],
    *,
    corruption_fraction: float = 0.0,
    churn_mean_uptime: float = 0.0,
    churn_mean_downtime: float = 600.0,
    churn_policy: str = "wipe",
    max_retransmissions: int = 0,
    retransmit_backoff: float = 30.0,
) -> List[ScenarioConfig]:
    """One scenario per loss level, with shared churn/retry settings.

    Args:
        base: Base scenario; its mobility fields are untouched, so all
            grid points share one cached contact trace per seed.
        loss_levels: Total per-transfer fault probabilities to sweep
            (``0.0`` yields a genuinely fault-free config).
        corruption_fraction: Portion of each level attributed to
            corruption rather than loss (``0.3`` at level ``0.2`` means
            14% loss + 6% corruption).
        churn_mean_uptime: Mean exponential uptime, seconds; ``0``
            disables churn at every grid point.
        churn_mean_downtime: Mean exponential outage, seconds.
        churn_policy: ``"wipe"`` or ``"persist"`` (see
            :class:`~repro.faults.FaultConfig`).
        max_retransmissions: Retry budget forwarded to the routers.
        retransmit_backoff: Base retry backoff, seconds.
    """
    if not 0.0 <= corruption_fraction <= 1.0:
        raise ConfigurationError(
            f"corruption_fraction must be in [0, 1], got {corruption_fraction!r}"
        )
    configs = []
    for level in loss_levels:
        if not 0.0 <= level <= 1.0:
            raise ConfigurationError(
                f"loss levels must be in [0, 1], got {level!r}"
            )
        faults = FaultConfig(
            loss_probability=level * (1.0 - corruption_fraction),
            corruption_probability=level * corruption_fraction,
            mean_uptime=churn_mean_uptime,
            mean_downtime=churn_mean_downtime,
            churn_policy=churn_policy,
        )
        configs.append(
            base.replace(
                faults=faults if faults.enabled else None,
                max_retransmissions=max_retransmissions,
                retransmit_backoff=retransmit_backoff,
            )
        )
    return configs


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def fault_sweep(
    base: ScenarioConfig,
    *,
    loss_levels: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    schemes: Sequence[str] = tagged("paper-comparison"),
    seeds: Sequence[int] = (0,),
    corruption_fraction: float = 0.0,
    churn_mean_uptime: float = 0.0,
    churn_mean_downtime: float = 600.0,
    churn_policy: str = "wipe",
    max_retransmissions: int = 0,
    retransmit_backoff: float = 30.0,
    workers: Optional[int] = 1,
    trace_cache: Optional[TraceCache] = None,
) -> List[Dict[str, object]]:
    """Delivery and ledger integrity vs fault intensity, per scheme.

    Returns:
        One record per ``(loss_level, scheme)``:

        * ``value`` / ``scheme`` — the grid point;
        * ``mdr`` / ``overhead`` — seed-averaged delivery ratio and
          relay transmissions per delivery (the cost of robustness);
        * ``transfers_lost`` / ``transfers_corrupted`` /
          ``node_crashes`` / ``retransmissions`` — seed-averaged fault
          activity, to confirm the injector actually fired;
        * ``stranded_escrow`` / ``supply_error`` / ``double_payments``
          — worst case across seeds; all must be exactly 0 for token
          schemes (and are reported as 0 for ledgerless schemes);
        * ``duplicate_settlements`` — total blocked duplicates across
          seeds (informational);
        * ``results`` — the per-seed
          :class:`~repro.experiments.runner.RunResult` or
          :class:`~repro.experiments.parallel.RunDigest` objects.
    """
    configs = fault_grid_configs(
        base,
        loss_levels,
        corruption_fraction=corruption_fraction,
        churn_mean_uptime=churn_mean_uptime,
        churn_mean_downtime=churn_mean_downtime,
        churn_policy=churn_policy,
        max_retransmissions=max_retransmissions,
        retransmit_backoff=retransmit_backoff,
    )
    points = iter(sweep(
        base, lambda _, config: config, configs,
        schemes=schemes, seeds=seeds, workers=workers,
        trace_cache=trace_cache,
    ))
    records: List[Dict[str, object]] = []
    for level in loss_levels:
        for scheme in schemes:
            results = next(points)["results"]
            summaries = [r.summary() for r in results]
            fault_summaries = [r.fault_summary() for r in results]
            delivered = [s["delivered_pairs"] for s in summaries]
            relayed = [s["relay_receptions"] for s in summaries]
            overhead = _mean([
                relays / max(pairs, 1.0)
                for relays, pairs in zip(relayed, delivered)
            ])
            records.append(
                {
                    "value": float(level),
                    "scheme": scheme,
                    "mdr": _mean([s["mdr"] for s in summaries]),
                    "overhead": overhead,
                    "transfers_lost": _mean(
                        [f["transfers_lost"] for f in fault_summaries]
                    ),
                    "transfers_corrupted": _mean(
                        [f["transfers_corrupted"] for f in fault_summaries]
                    ),
                    "node_crashes": _mean(
                        [f["node_crashes"] for f in fault_summaries]
                    ),
                    "retransmissions": _mean(
                        [f["retransmissions"] for f in fault_summaries]
                    ),
                    "escrow_reclaimed": _mean(
                        [f["escrow_reclaimed"] for f in fault_summaries]
                    ),
                    "stranded_escrow": max(
                        f.get("stranded_escrow", 0.0)
                        for f in fault_summaries
                    ),
                    "supply_error": max(
                        (abs(f.get("supply_error", 0.0))
                         for f in fault_summaries),
                    ),
                    "double_payments": sum(
                        f.get("double_payments", 0.0)
                        for f in fault_summaries
                    ),
                    "duplicate_settlements": sum(
                        f.get("duplicate_settlements", 0.0)
                        for f in fault_summaries
                    ),
                    "results": results,
                }
            )
    return records
