"""Constant-density blow-ups of the paper's Table 5.1 scenario.

:func:`scale_config` grows the arena with the population so the node
density stays at the paper's 100 nodes per km² (Table 5.1: 500 nodes on
5 km²).  The repository benchmark's ``city10k`` workload
(``bench/workloads.py``) is ``scale_config(10_000, 600.0)``; the full
10,000-node, one-hour tier is ``scale_config(10_000, 3_600.0)``::

    import time
    from repro.experiments import run_scenario, scale_config

    start = time.perf_counter()
    result = run_scenario(scale_config(10_000, 3_600.0), "incentive", 1)
    print(f"{time.perf_counter() - start:.1f} s, mdr {result.mdr:.4f}")
"""

from __future__ import annotations

import math

__all__ = ["scale_config"]

#: Square metres per node at the paper's density (500 nodes / 5 km²).
_M2_PER_NODE = 1e4


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
