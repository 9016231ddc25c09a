"""Statistical analysis of simulation results.

The paper reports bare averages of five runs; a credible open-source
release should also quantify uncertainty and fairness.  This module adds:

* seed-series summaries with Student-t confidence intervals,
* Welch's t-test for scheme comparisons ("is the MDR gap real?"),
* delivery-latency percentiles and an MDR-vs-time curve from the raw
  delivery records,
* the Gini coefficient of final token balances — how unequal the credit
  economy ends up (selfish populations drive it up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector

__all__ = [
    "SeriesSummary",
    "merge_summaries",
    "summarize",
    "welch_t_test",
    "delivery_latencies",
    "latency_percentiles",
    "mdr_over_time",
    "gini",
]


def merge_summaries(
    summaries: Sequence[Dict[str, float]]
) -> Dict[str, float]:
    """Mean of per-run summary dicts (the paper's five-run averages).

    Each key is summed where present and divided by the total number of
    runs, so keys that only some runs report (``token_supply`` exists
    only for incentive schemes) are treated as zero elsewhere.  Both the
    serial and the multiprocess experiment runners aggregate through
    this single function, in seed order, which keeps their results
    bit-identical (floating-point addition is order-sensitive).

    Raises:
        ConfigurationError: For an empty sequence of summaries.
    """
    if not summaries:
        raise ConfigurationError("cannot merge an empty list of summaries")
    totals: Dict[str, float] = {}
    for summary in summaries:
        for key, value in summary.items():
            totals[key] = totals.get(key, 0.0) + value
    count = len(summaries)
    return {key: value / count for key, value in totals.items()}


@dataclass(frozen=True)
class SeriesSummary:
    """Mean and confidence interval of a repeated measurement.

    Attributes:
        mean: Sample mean.
        std: Sample standard deviation (ddof=1; 0 for a single sample).
        count: Number of samples.
        ci_low: Lower bound of the confidence interval.
        ci_high: Upper bound.
        confidence: The confidence level used.
    """

    mean: float
    std: float
    count: int
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half-width of the confidence interval."""
        return (self.ci_high - self.ci_low) / 2.0


def summarize(
    values: Sequence[float], *, confidence: float = 0.95
) -> SeriesSummary:
    """Mean with a Student-t confidence interval.

    Raises:
        ConfigurationError: For an empty sample or a bad confidence.
    """
    if not values:
        raise ConfigurationError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence!r}"
        )
    data = np.asarray(values, dtype=float)
    mean = float(data.mean())
    count = int(data.size)
    if count == 1:
        return SeriesSummary(mean, 0.0, 1, mean, mean, confidence)
    std = float(data.std(ddof=1))
    if std == 0.0:
        return SeriesSummary(mean, 0.0, count, mean, mean, confidence)
    # scipy.stats costs tens of MB and most of a second to import; only
    # the two statistics functions need it, so simulations never load it.
    from scipy import stats as scipy_stats

    sem = std / math.sqrt(count)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=count - 1))
    half = t_crit * sem
    return SeriesSummary(
        mean, std, count, mean - half, mean + half, confidence
    )


def welch_t_test(
    a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float]:
    """Welch's unequal-variance t-test between two seed series.

    Returns:
        ``(t_statistic, p_value)``; a small p-value means the means
        differ beyond seed noise.
    """
    if len(a) < 2 or len(b) < 2:
        raise ConfigurationError(
            "Welch's t-test needs at least two samples per side"
        )
    from scipy import stats as scipy_stats

    result = scipy_stats.ttest_ind(
        np.asarray(a, dtype=float),
        np.asarray(b, dtype=float),
        equal_var=False,
    )
    return float(result.statistic), float(result.pvalue)


def delivery_latencies(metrics: MetricsCollector) -> List[float]:
    """Creation-to-delivery delays for all intended deliveries."""
    latencies: List[float] = []
    for record in metrics.messages:
        for delivered_at in record.delivered_to.values():
            latencies.append(delivered_at - record.created_at)
    return latencies


def latency_percentiles(
    metrics: MetricsCollector,
    percentiles: Sequence[float] = (50.0, 90.0, 99.0),
) -> Dict[float, float]:
    """Latency percentiles in seconds (empty metrics -> all zero)."""
    latencies = delivery_latencies(metrics)
    if not latencies:
        return {p: 0.0 for p in percentiles}
    data = np.asarray(latencies, dtype=float)
    return {
        p: float(np.percentile(data, p)) for p in percentiles
    }


def mdr_over_time(
    metrics: MetricsCollector, *, horizon: float, points: int = 20
) -> List[Tuple[float, float]]:
    """Cumulative MDR as a function of time.

    Args:
        metrics: A completed run's collector.
        horizon: The run duration in seconds.
        points: Number of evenly spaced samples.

    Returns:
        ``(time, cumulative MDR)`` pairs; the final point equals the
        run's overall MDR.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")
    if points < 1:
        raise ConfigurationError(f"points must be >= 1, got {points!r}")
    denominator = metrics.intended_pairs()
    times = sorted(
        delivered_at
        for record in metrics.messages
        for delivered_at in record.delivered_to.values()
    )
    curve: List[Tuple[float, float]] = []
    index = 0
    for step in range(1, points + 1):
        cutoff = horizon * step / points
        while index < len(times) and times[index] <= cutoff:
            index += 1
        ratio = index / denominator if denominator else 0.0
        curve.append((cutoff, ratio))
    return curve


def gini(values: Iterable[float]) -> float:
    """The Gini coefficient of a non-negative distribution.

    0 means perfect equality (everyone holds the same balance); values
    toward 1 mean a few nodes hold everything.  Empty or all-zero inputs
    return 0.

    Raises:
        ConfigurationError: If any value is negative.
    """
    data = np.asarray(sorted(values), dtype=float)
    if data.size == 0:
        return 0.0
    if (data < 0).any():
        raise ConfigurationError("gini requires non-negative values")
    total = data.sum()
    if total == 0.0:
        return 0.0
    n = data.size
    # Standard formula over sorted data:
    # G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n, i starting at 1.
    indexed = np.arange(1, n + 1)
    return float((2.0 * (indexed * data).sum()) / (n * total) - (n + 1) / n)
