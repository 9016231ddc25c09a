"""Heterogeneous-population comparison sweep.

The population layer's headline experiment: run the same 3-class
scenario (pedestrian / vehicular / infrastructure preset mix) under
several schemes and break every run's delivery, cost and token-balance
metrics down *per class* — who gets served, who does the relaying, and
who ends up holding the tokens.  Every traced run is replayed through
the conservation auditor, so a scheme whose class-tuned pricing leaks
tokens fails the sweep rather than producing a quietly wrong figure.

``repro-dtn hetero`` is a thin CLI wrapper around :func:`hetero_sweep`.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, TraceError
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, execute_runs
from repro.trace.audit import replay_trace

__all__ = ["HETERO_SCHEMES", "hetero_sweep", "breakdown_rows"]

#: Default scheme line-up: the paper's scheme as the homogeneous-pricing
#: baseline, plus both class-aware schemes the population layer added.
HETERO_SCHEMES = ("incentive", "incentive-chitchat-hetero", "minority-game")


def hetero_sweep(
    base: Optional[ScenarioConfig] = None,
    *,
    schemes: Sequence[str] = HETERO_SCHEMES,
    seeds: Sequence[int] = (0,),
    trace_dir: Optional[str] = None,
    audit: bool = True,
) -> List[Dict[str, object]]:
    """Run ``schemes x seeds`` over one heterogeneous scenario.

    Args:
        base: The scenario; defaults to :meth:`ScenarioConfig.hetero`
            (the small scenario over the 3-class preset mix).  Must
            resolve to more than one class.
        schemes: Schemes to compare on identical contacts.
        seeds: Seeds to run per scheme.
        trace_dir: Directory for the JSONL event traces, one file per
            run, ``hetero.<scheme>.s<seed>.jsonl`` (a temporary
            directory when omitted and ``audit`` is on).
        audit: Replay every trace through the conservation auditor and
            attach the verdict; any violation raises.  A seed's runs
            are audited before the next seed's start.

    Returns:
        One record per ``(scheme, seed)``:
        ``{"scheme", "seed", "result", "summary", "per_class",
        "audit_ok"}`` where ``per_class`` is the
        :meth:`~repro.experiments.runner.RunResult.class_breakdown`
        mapping.

    Raises:
        ConfigurationError: When ``base`` is not heterogeneous or
            ``schemes``/``seeds`` is empty.
        TraceError: When a replayed trace violates conservation.
    """
    if base is None:
        base = ScenarioConfig.hetero()
    if len(base.resolved_population()) < 2:
        raise ConfigurationError(
            "hetero_sweep needs a heterogeneous population; "
            "use ScenarioConfig.hetero() or set config.population"
        )
    if not schemes:
        raise ConfigurationError("schemes must be non-empty")
    if not seeds:
        raise ConfigurationError("seeds must be non-empty")

    records: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = None
        if audit or trace_dir is not None:
            directory = trace_dir if trace_dir is not None else scratch
            trace_path = os.path.join(directory, "hetero.jsonl")
        # One executor call per seed: its schemes share the seed's one
        # contact trace, like the paper's figures, and each run writes
        # its own trace file.  Auditing a seed before the next starts
        # keeps one seed's contacts in memory and fails on the first
        # violation.
        for seed in seeds:
            results = execute_runs(
                [
                    RunSpec(base, scheme, seed, {"trace_path": trace_path})
                    for scheme in schemes
                ],
                workers=1,
            )
            for result in results:
                audit_ok = None
                if audit and result.trace_path is not None:
                    verdict = replay_trace(result.trace_path)
                    if not verdict.ok:
                        raise TraceError(
                            f"{result.scheme} seed {result.seed}: trace "
                            f"audit found {len(verdict.violations)} "
                            f"violation(s); first: {verdict.violations[0]}"
                        )
                    audit_ok = True
                records.append(
                    {
                        "scheme": result.scheme,
                        "seed": result.seed,
                        "result": result,
                        "summary": result.summary(),
                        "per_class": result.class_breakdown(),
                        "audit_ok": audit_ok,
                    }
                )
    return records


def breakdown_rows(records: Sequence[Dict[str, object]]) -> List[tuple]:
    """Flatten sweep records into ``(scheme, seed, class, metric rows)``.

    A printing/figure helper: one tuple per ``(record, class)`` with the
    headline per-class numbers in a stable order.
    """
    rows: List[tuple] = []
    for record in records:
        for name, metrics in sorted(record["per_class"].items()):
            rows.append(
                (
                    record["scheme"],
                    record["seed"],
                    name,
                    int(metrics["nodes"]),
                    metrics["mdr"],
                    int(metrics["delivered"]),
                    int(metrics["intended"]),
                    metrics["average_delay"],
                    metrics.get("mean_balance"),
                )
            )
    return rows
