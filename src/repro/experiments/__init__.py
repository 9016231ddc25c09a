"""Experiment harness: scenario configuration, runners (serial and
multiprocess), a contact-trace cache, and one generator per paper
figure/table."""

from repro.experiments.bench_scale import scale_config
from repro.experiments.config import ScenarioConfig
from repro.experiments.faults import fault_grid_configs, fault_sweep
from repro.experiments.parallel import (
    MetricsDigest,
    RunDigest,
    RunFailure,
    RunSpec,
    ensure_success,
    run_specs,
)
from repro.experiments.runner import (
    RunResult,
    build_contact_trace,
    run_averaged,
    run_comparison,
    run_scenario,
)
from repro.experiments.trace_cache import (
    TraceCache,
    get_default_cache,
    set_default_cache,
    trace_cache_key,
)
from repro.experiments.figures import (
    FigureResult,
    fig5_1_mdr_vs_selfish,
    fig5_2_traffic_reduction,
    fig5_3_initial_tokens,
    fig5_4_malicious_ratings,
    fig5_5_mdr_vs_users,
    fig5_6_priority_mdr,
    table5_1_parameters,
)
from repro.experiments.sweeps import sweep

__all__ = [
    "ScenarioConfig",
    "scale_config",
    "RunResult",
    "build_contact_trace",
    "run_scenario",
    "run_comparison",
    "run_averaged",
    "sweep",
    "fault_grid_configs",
    "fault_sweep",
    "RunSpec",
    "RunDigest",
    "RunFailure",
    "MetricsDigest",
    "run_specs",
    "ensure_success",
    "TraceCache",
    "trace_cache_key",
    "get_default_cache",
    "set_default_cache",
    "FigureResult",
    "fig5_1_mdr_vs_selfish",
    "fig5_2_traffic_reduction",
    "fig5_3_initial_tokens",
    "fig5_4_malicious_ratings",
    "fig5_5_mdr_vs_users",
    "fig5_6_priority_mdr",
    "table5_1_parameters",
]
