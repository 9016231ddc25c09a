"""Tests for the constant-density scale scenarios (``scale_config``)."""

import pytest

from repro.experiments import scale_config


class TestScaleConfig:
    def test_density_matches_paper(self):
        for n in (500, 10_000, 100_000):
            config = scale_config(n, 600.0)
            assert config.n_nodes == n
            assert config.node_density == pytest.approx(100.0)

    def test_500_nodes_is_table_51_area(self):
        config = scale_config(500, 3600.0)
        assert config.area_km2 == pytest.approx(5.0)
