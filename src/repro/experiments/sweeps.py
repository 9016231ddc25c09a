"""Generic parameter sweeps over scenarios."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import RunSpec, execute_runs
from repro.experiments.trace_cache import TraceCache
from repro.schemes import tagged

__all__ = ["sweep"]


def sweep(
    base: ScenarioConfig,
    vary: Callable[[ScenarioConfig, object], ScenarioConfig],
    values: Iterable[object],
    *,
    schemes: Sequence[str] = tagged("paper-comparison"),
    seeds: Sequence[int] = (0,),
    workers: Optional[int] = 1,
    trace_cache: Optional[TraceCache] = None,
    **run_kwargs,
) -> List[Dict[str, object]]:
    """Run a grid of ``values x schemes x seeds`` scenarios.

    Args:
        base: Base scenario configuration.
        vary: Function applying one sweep value to the base config, e.g.
            ``lambda cfg, v: cfg.replace(selfish_fraction=v)``.
        values: Sweep grid.
        schemes: Schemes to run at every grid point.
        seeds: Seeds to average over at every grid point.
        workers: ``1`` (default) runs the grid serially in-process; any
            other value fans the *whole* grid out over a process pool.
            In that mode the per-record ``results`` entries are
            :class:`~repro.experiments.parallel.RunDigest` objects
            (``mdr``/``traffic``/``summary()`` behave identically to
            :class:`~repro.experiments.runner.RunResult`).
        trace_cache: Optional trace cache overriding the default.  Grid
            points that only differ in non-mobility fields (selfish
            fractions, token endowments, ...) share each seed's contact
            trace in either case.
        **run_kwargs: Forwarded to
            :func:`~repro.experiments.runner.run_scenario`.  A traced
            config writes one file per run,
            ``<base>.<scheme>.s<seed>.p<k>.jsonl`` for grid point ``k``
            (no ``.p<k>`` on a one-point grid).

    Returns:
        One record per ``(value, scheme)`` with the seed-averaged MDR
        and traffic, plus the individual per-seed results.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("seeds must be non-empty")
    values = list(values)
    configs = [vary(base, value) for value in values]
    runs = iter(execute_runs(
        [
            RunSpec(config, scheme, seed, run_kwargs)
            for config in configs
            for scheme in schemes
            for seed in seeds
        ],
        workers=workers,
        cache=trace_cache,
    ))
    records: List[Dict[str, object]] = []
    for value in values:
        for scheme in schemes:
            results = [next(runs) for _ in seeds]
            records.append(
                {
                    "value": value,
                    "scheme": scheme,
                    "mdr": sum(r.mdr for r in results) / len(results),
                    "traffic": sum(r.traffic for r in results) / len(results),
                    "results": results,
                }
            )
    return records
