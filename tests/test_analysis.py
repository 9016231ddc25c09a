"""Unit tests for the statistical analysis helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import make_message
from repro.errors import ConfigurationError
from repro.metrics.analysis import (
    delivery_latencies,
    gini,
    latency_percentiles,
    mdr_over_time,
    summarize,
    welch_t_test,
)
from repro.metrics.collector import MetricsCollector


#: Imports every entry point a simulation goes through, then lists the
#: scipy modules that came with them.
_IMPORT_PROBE = (
    "import sys\n"
    "import repro, repro.experiments, repro.cli, repro.trace.audit\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def test_importing_the_simulator_does_not_load_scipy():
    # scipy.stats costs tens of MB of resident memory per process; only
    # summarize and welch_t_test may load it, on first call.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def collector_with_deliveries():
    metrics = MetricsCollector()
    message = make_message(created_at=0.0)
    metrics.on_message_created(message, intended={1, 2, 3, 4})
    metrics.on_delivered(message, 1, now=10.0)
    metrics.on_delivered(message, 2, now=50.0)
    metrics.on_delivered(message, 3, now=90.0)
    return metrics


class TestSummarize:
    def test_mean_and_ci(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == pytest.approx(3.0)
        assert summary.count == 5
        assert summary.ci_low < 3.0 < summary.ci_high
        # 95% t interval for this sample: 3 +/- 1.963...
        assert summary.half_width == pytest.approx(1.9634, abs=1e-3)

    def test_single_sample_has_zero_width(self):
        summary = summarize([7.0])
        assert summary.mean == 7.0
        assert summary.ci_low == summary.ci_high == 7.0

    def test_constant_sample_has_zero_width(self):
        summary = summarize([2.0, 2.0, 2.0])
        assert summary.std == 0.0
        assert summary.half_width == 0.0

    def test_wider_confidence_wider_interval(self):
        data = [1.0, 2.0, 3.0, 4.0]
        narrow = summarize(data, confidence=0.80)
        wide = summarize(data, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])
        with pytest.raises(ConfigurationError):
            summarize([1.0], confidence=1.0)


class TestWelch:
    def test_identical_series_not_significant(self):
        t_stat, p_value = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t_stat == pytest.approx(0.0)
        assert p_value == pytest.approx(1.0)

    def test_separated_series_significant(self):
        t_stat, p_value = welch_t_test(
            [0.90, 0.91, 0.92, 0.93], [0.60, 0.61, 0.62, 0.63],
        )
        assert p_value < 0.001
        assert t_stat > 0

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            welch_t_test([1.0], [1.0, 2.0])


class TestLatency:
    def test_latencies_extracted(self):
        metrics = collector_with_deliveries()
        assert sorted(delivery_latencies(metrics)) == [10.0, 50.0, 90.0]

    def test_percentiles(self):
        metrics = collector_with_deliveries()
        result = latency_percentiles(metrics, percentiles=(50.0,))
        assert result[50.0] == pytest.approx(50.0)

    def test_empty_collector_gives_zeros(self):
        assert latency_percentiles(MetricsCollector()) == {
            50.0: 0.0, 90.0: 0.0, 99.0: 0.0,
        }


class TestMdrOverTime:
    def test_curve_is_cumulative_and_ends_at_mdr(self):
        metrics = collector_with_deliveries()
        curve = mdr_over_time(metrics, horizon=100.0, points=10)
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(
            metrics.message_delivery_ratio()
        )
        # After 50s two of four intended pairs were served.
        assert dict(curve)[50.0] == pytest.approx(0.5)

    def test_invalid_inputs_rejected(self):
        metrics = MetricsCollector()
        with pytest.raises(ConfigurationError):
            mdr_over_time(metrics, horizon=0.0)
        with pytest.raises(ConfigurationError):
            mdr_over_time(metrics, horizon=10.0, points=0)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_total_inequality_approaches_one(self):
        value = gini([0.0] * 99 + [100.0])
        assert value == pytest.approx(0.99, abs=1e-6)

    def test_known_value(self):
        # For [1, 3]: G = (|1-3| + |3-1|) / (2 * n^2 * mean) = 0.25.
        assert gini([1.0, 3.0]) == pytest.approx(0.25)

    def test_empty_and_zero_inputs(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            gini([-1.0, 2.0])

    def test_trading_economy_develops_inequality(self):
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario

        result = run_scenario(ScenarioConfig.tiny(), "incentive", seed=1)
        balances = result.router.ledger.balances().values()
        value = gini(balances)
        # Everyone starts equal (gini 0); a run's worth of awards must
        # spread the distribution without leaving the [0, 1] range.
        assert 0.0 < value < 1.0
