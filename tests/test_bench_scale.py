"""Tests for the scale benchmark suite (repro-dtn bench scale)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.bench_scale import (
    SCALE_TIERS,
    scale_config,
    scale_probe,
)


class TestScaleConfig:
    def test_density_matches_paper(self):
        for n in (500, 10_000, 100_000):
            config = scale_config(n, 600.0)
            assert config.n_nodes == n
            assert config.node_density == pytest.approx(100.0)

    def test_500_nodes_is_table_51_area(self):
        config = scale_config(500, 3600.0)
        assert config.area_km2 == pytest.approx(5.0)


class TestScaleProbe:
    def test_probe_reports_throughput(self):
        probe = scale_probe(50, 60.0, seed=1)
        assert probe["wall_seconds"] > 0.0
        assert probe["n_nodes"] == 50.0
        assert probe["sim_seconds"] == 60.0
        assert probe["node_sim_seconds_per_wall_second"] == (
            pytest.approx(50 * 60.0 / probe["wall_seconds"])
        )
        assert 0.0 <= probe["mdr"] <= 1.0

    def test_tier_table_shape(self):
        for tier, (n, duration, name) in SCALE_TIERS.items():
            # 1k is the CI audit-smoke tier; everything else is 10k+.
            assert n >= 1_000
            assert duration > 0
            assert name.startswith("scale_")
        assert "1k" in SCALE_TIERS  # the CI conservation-audit smoke


class TestSuiteValidation:
    def test_unknown_tier_rejected(self):
        from repro.experiments.bench_scale import run_scale_suite

        with pytest.raises(ConfigurationError):
            run_scale_suite(tiers=["10k", "galactic"])

    def test_empty_tiers_rejected(self):
        from repro.experiments.bench_scale import run_scale_suite

        with pytest.raises(ConfigurationError):
            run_scale_suite(tiers=[])
