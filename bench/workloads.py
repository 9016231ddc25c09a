"""The benchmark's workloads: one scenario each, at a full and a smoke size.

Every workload runs the paper's token scheme end to end.  They differ in
which layers do the work, so that an optimisation of one layer has a
workload that exercises it and one that bypasses it (see README.md).

Full sizes are chosen so that one round of every workload fits the
benchmark's 30-second run at least twice on a loaded 2-core machine;
smoke sizes run in about a second for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

SIZES = ("full", "smoke")

#: Square metres per node at the paper's density (500 nodes / 5 km²).
_M2_PER_NODE = 1e4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name, as passed to ``--workload``.
        scheme: Registered scheme the run uses.
        audit: Write the JSONL event trace and replay it through the
            conservation auditor as part of the timed job.
        build: ``size -> ScenarioConfig`` (imports :mod:`repro` lazily,
            so the orchestrating process never needs it).
    """

    name: str
    scheme: str
    audit: bool
    build: Callable[[str], object]

    def config(self, size: str):
        """The scenario at ``size`` (``"full"`` or ``"smoke"``)."""
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; known: {SIZES}")
        return self.build(size)


def _square(n_nodes: int):
    side = math.sqrt(n_nodes * _M2_PER_NODE)
    return (side, side)


def _paper(size: str, **overrides):
    from repro.experiments import ScenarioConfig

    n_nodes, duration = (500, 3_600.0) if size == "full" else (100, 600.0)
    return ScenarioConfig.paper_scale(
        n_nodes=n_nodes, area=_square(n_nodes),
        duration=duration, ttl=duration, **overrides,
    )


def _city10k(size: str):
    from repro.experiments.bench_scale import scale_config

    if size == "full":
        # The tier's first 10 sim-minutes: its start-up transient, not
        # its 1 h steady state (README.md, "Measured seq_decay_share").
        return scale_config(10_000, 600.0)
    return scale_config(1_000, 300.0)


def _faults(size: str):
    from repro.faults import FaultConfig

    return _paper(
        size,
        faults=FaultConfig(
            loss_probability=0.15,
            corruption_probability=0.05,
            mean_uptime=1_800.0,
            mean_downtime=300.0,
            churn_policy="wipe",
        ),
        max_retransmissions=2,
        selfish_fraction=0.2,
        malicious_fraction=0.1,
    )


def _hetero(size: str):
    from repro.experiments import ScenarioConfig

    n_nodes, duration = (500, 900.0) if size == "full" else (100, 300.0)
    return ScenarioConfig.hetero(
        n_nodes=n_nodes, area=_square(n_nodes),
        duration=duration, ttl=duration,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper", "incentive", False, _paper),
        Workload("city10k", "incentive", False, _city10k),
        Workload("faults", "incentive", False, _faults),
        Workload("hetero_audit", "incentive-chitchat-hetero", True, _hetero),
    )
}
