"""One generator per table/figure in the paper's evaluation (Paper I §5).

Every function returns a :class:`FigureResult` holding the same series
the paper plots; ``format()`` renders them as aligned text tables.  All
generators accept a ``base`` scenario so benchmarks can run a scaled
grid (:meth:`ScenarioConfig.small`) while ``--paper-scale`` runs Table
5.1 exactly.  Results are seed-averaged, as the paper averages five
simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.sweeps import sweep
from repro.messages.message import Priority
from repro.metrics.reports import ascii_chart, format_series, format_table
from repro.schemes import tagged

__all__ = [
    "FigureResult",
    "fig5_1_mdr_vs_selfish",
    "fig5_2_traffic_reduction",
    "fig5_3_initial_tokens",
    "fig5_4_malicious_ratings",
    "fig5_5_mdr_vs_users",
    "fig5_6_priority_mdr",
    "table5_1_parameters",
]

DEFAULT_SEEDS: Tuple[int, ...] = (1, 2, 3)

#: The paper's head-to-head pair, from the registry's tag — sorted so
#: the baseline (ChitChat) series always precedes the proposed scheme,
#: matching the paper's figure legends.
PAPER_PAIR: Tuple[str, ...] = tuple(sorted(tagged("paper-comparison")))
BASELINE_SCHEME, INCENTIVE_SCHEME = PAPER_PAIR


@dataclass
class FigureResult:
    """The data behind one reproduced figure.

    Attributes:
        figure_id: Paper artefact id, e.g. ``"5.1"``.
        title: The paper's caption.
        x_label: X axis meaning.
        y_label: Y axis meaning.
        series: Series name -> list of ``(x, y)`` points.
        notes: Free-form remarks (scaling caveats etc.).
    """

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""

    def format(self) -> str:
        """Render every series as an aligned text table plus a chart."""
        blocks = [f"Figure {self.figure_id}: {self.title}"]
        if self.notes:
            blocks.append(f"  note: {self.notes}")
        for name in sorted(self.series):
            blocks.append(
                format_series(
                    name, self.series[name],
                    x_label=self.x_label, y_label=self.y_label,
                )
            )
        populated = {
            name: points for name, points in self.series.items() if points
        }
        if populated:
            blocks.append(
                ascii_chart(
                    populated,
                    title=f"{self.y_label} by {self.x_label}",
                )
            )
        return "\n\n".join(blocks)

    def series_values(self, name: str) -> List[float]:
        """The y values of one series (in x order)."""
        return [y for _, y in self.series[name]]


def _with_selfish(config: ScenarioConfig, fraction: float) -> ScenarioConfig:
    return config.replace(selfish_fraction=fraction)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Figure 5.1 — MDR vs percentage of selfish nodes
# ----------------------------------------------------------------------
def fig5_1_mdr_vs_selfish(
    base: Optional[ScenarioConfig] = None,
    *,
    selfish_grid: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: Optional[int] = 1,
) -> FigureResult:
    """MDR for the incentive scheme vs ChitChat as selfishness rises.

    Expected shape (paper): both fall with the selfish fraction; the
    incentive scheme sits slightly below ChitChat (token exhaustion);
    neither hits zero at 100 % because a selfish radio is still on for
    one in ten encounters.
    """
    config = base if base is not None else ScenarioConfig.small()
    result = FigureResult(
        figure_id="5.1",
        title="MDR vs Percentage of Selfish Nodes",
        x_label="selfish %",
        y_label="MDR",
        series={scheme: [] for scheme in PAPER_PAIR},
    )
    for record in sweep(
        config, _with_selfish, selfish_grid,
        schemes=PAPER_PAIR, seeds=seeds, workers=workers,
    ):
        result.series[record["scheme"]].append(
            (record["value"] * 100.0, record["mdr"])
        )
    return result


# ----------------------------------------------------------------------
# Figure 5.2 — traffic reduction over ChitChat
# ----------------------------------------------------------------------
def fig5_2_traffic_reduction(
    base: Optional[ScenarioConfig] = None,
    *,
    selfish_grid: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: Optional[int] = 1,
) -> FigureResult:
    """Percentage of traffic saved by the incentive scheme.

    Expected shape (paper): the saving grows with the selfish fraction —
    selfish nodes burn their endowment and stop generating transfers.
    """
    config = base if base is not None else ScenarioConfig.small()
    result = FigureResult(
        figure_id="5.2",
        title="Percentage of Reduced Traffic over ChitChat",
        x_label="selfish %",
        y_label="traffic reduction %",
        series={"reduction": []},
    )
    records = sweep(
        config, _with_selfish, selfish_grid,
        schemes=PAPER_PAIR, seeds=seeds, workers=workers,
    )
    # PAPER_PAIR is (baseline, incentive): records alternate the two.
    for chitchat, incentive in zip(records[0::2], records[1::2]):
        base_traffic = chitchat["traffic"]
        reduction = (
            100.0 * (base_traffic - incentive["traffic"]) / base_traffic
            if base_traffic > 0 else 0.0
        )
        result.series["reduction"].append(
            (chitchat["value"] * 100.0, reduction)
        )
    return result


# ----------------------------------------------------------------------
# Figure 5.3 — MDR vs initial tokens
# ----------------------------------------------------------------------
def fig5_3_initial_tokens(
    base: Optional[ScenarioConfig] = None,
    *,
    token_grid: Sequence[float] = (10.0, 30.0, 60.0, 120.0, 240.0),
    selfish_levels: Sequence[float] = (0.2, 0.4),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: Optional[int] = 1,
) -> FigureResult:
    """MDR of the incentive scheme as the endowment varies.

    Expected shape (paper): MDR rises with initial tokens (endowments
    stop exhausting) and falls with the selfish fraction.
    """
    config = base if base is not None else ScenarioConfig.small()
    result = FigureResult(
        figure_id="5.3",
        title="Initial Tokens' Variance",
        x_label="initial tokens",
        y_label="MDR",
        series={
            f"{INCENTIVE_SCHEME} selfish={selfish:.0%}": []
            for selfish in selfish_levels
        },
    )
    for record in sweep(
        config,
        lambda cfg, point: _with_selfish(cfg, point[0]).with_tokens(point[1]),
        [(selfish, tokens) for selfish in selfish_levels
         for tokens in token_grid],
        schemes=(INCENTIVE_SCHEME,), seeds=seeds, workers=workers,
    ):
        selfish, tokens = record["value"]
        result.series[f"{INCENTIVE_SCHEME} selfish={selfish:.0%}"].append(
            (float(tokens), record["mdr"])
        )
    return result


# ----------------------------------------------------------------------
# Figure 5.4 — recognising malicious nodes
# ----------------------------------------------------------------------
def fig5_4_malicious_ratings(
    base: Optional[ScenarioConfig] = None,
    *,
    malicious_levels: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    seeds: Sequence[int] = (1, 2),
    sample_interval: Optional[float] = None,
    workers: Optional[int] = 1,
) -> FigureResult:
    """Average rating of malicious nodes among non-malicious observers.

    Expected shape (paper): the average falls over time as the DRM
    spreads bad ratings, and falls *faster* with more malicious nodes
    (more chances to encounter and expose one).
    """
    config = base if base is not None else ScenarioConfig.small()
    interval = (
        sample_interval if sample_interval is not None
        else max(config.duration / 12.0, 1.0)
    )
    result = FigureResult(
        figure_id="5.4",
        title="Average Rating of Malicious Nodes in Non-Malicious Nodes vs Time",
        x_label="time (s)",
        y_label="average rating (0-5)",
        notes="rating ceiling r_m = 5; unknown nodes default to "
              f"{config.incentive.default_rating}",
    )
    for record in sweep(
        config, lambda cfg, level: cfg.replace(malicious_fraction=level),
        malicious_levels, schemes=(INCENTIVE_SCHEME,), seeds=seeds,
        workers=workers, sample_ratings=True, rating_sample_interval=interval,
    ):
        per_time: Dict[float, List[float]] = {}
        for run in record["results"]:
            for time, ratings in run.metrics.rating_samples:
                if ratings:
                    per_time.setdefault(time, []).append(
                        _mean(list(ratings.values()))
                    )
        result.series[f"malicious={record['value']:.0%}"] = [
            (time, _mean(values))
            for time, values in sorted(per_time.items())
        ]
    return result


# ----------------------------------------------------------------------
# Figure 5.5 — MDR vs number of users
# ----------------------------------------------------------------------
def fig5_5_mdr_vs_users(
    base: Optional[ScenarioConfig] = None,
    *,
    user_grid: Sequence[int] = (30, 60, 90),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: Optional[int] = 1,
) -> FigureResult:
    """MDR as the population grows in a fixed area.

    Expected shape (paper): both schemes improve with density, and the
    ChitChat-vs-incentive gap narrows as carriers multiply (the paper's
    gap nearly vanishes at 1500 users).
    """
    config = base if base is not None else ScenarioConfig.small()
    result = FigureResult(
        figure_id="5.5",
        title="MDR vs Number of Users",
        x_label="users",
        y_label="MDR",
        series={scheme: [] for scheme in PAPER_PAIR},
    )
    for record in sweep(
        config, lambda cfg, users: cfg.replace(n_nodes=int(users)),
        user_grid, schemes=PAPER_PAIR, seeds=seeds, workers=workers,
    ):
        result.series[record["scheme"]].append(
            (float(record["value"]), record["mdr"])
        )
    return result


# ----------------------------------------------------------------------
# Figure 5.6 — priority-segmented MDR
# ----------------------------------------------------------------------
def fig5_6_priority_mdr(
    base: Optional[ScenarioConfig] = None,
    *,
    selfish_levels: Sequence[float] = (0.2, 0.4),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: Optional[int] = 1,
) -> FigureResult:
    """MDR per priority class at 20 % and 40 % selfish nodes.

    Expected shape (paper): the incentive scheme delivers a larger share
    of HIGH-priority messages than ChitChat (bigger promises attract
    forwarders), at the cost of the LOW class.
    """
    config = base if base is not None else ScenarioConfig.small()
    result = FigureResult(
        figure_id="5.6",
        title="Priority Segmented MDR vs Selfish Percent of Nodes",
        x_label="priority (1=high, 3=low)",
        y_label="MDR",
    )
    for record in sweep(
        config, _with_selfish, selfish_levels,
        schemes=PAPER_PAIR, seeds=seeds, workers=workers,
    ):
        by_priority: Dict[Priority, List[float]] = {p: [] for p in Priority}
        for run in record["results"]:
            for priority, value in run.metrics.mdr_by_priority().items():
                by_priority[priority].append(value)
        name = f"{record['scheme']} selfish={record['value']:.0%}"
        result.series[name] = [
            (float(int(priority)), _mean(values))
            for priority, values in sorted(by_priority.items())
        ]
    return result


# ----------------------------------------------------------------------
# Table 5.1 — simulation parameters
# ----------------------------------------------------------------------
def table5_1_parameters(config: Optional[ScenarioConfig] = None) -> str:
    """Render the scenario parameters in the paper's Table 5.1 layout."""
    scenario = config if config is not None else ScenarioConfig.paper_scale()
    return format_table(
        ["Configuration", "Default Values"],
        [list(row) for row in scenario.table_rows()],
        title="Table 5.1. Simulation Parameters",
    )
