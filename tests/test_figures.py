"""Tests for the figure generators (tiny scale — shapes, not numbers)."""

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import (
    fig5_1_mdr_vs_selfish,
    fig5_2_traffic_reduction,
    fig5_3_initial_tokens,
    fig5_4_malicious_ratings,
    fig5_5_mdr_vs_users,
    fig5_6_priority_mdr,
    table5_1_parameters,
)


@pytest.fixture(scope="module")
def tiny():
    return ScenarioConfig.tiny()


class TestFig51:
    def test_series_and_shape(self, tiny):
        figure = fig5_1_mdr_vs_selfish(
            tiny, selfish_grid=(0.0, 0.8), seeds=(1,),
        )
        assert set(figure.series) == {"chitchat", "incentive"}
        for series in figure.series.values():
            assert [x for x, _ in series] == [0.0, 80.0]
            assert all(0.0 <= y <= 1.0 for _, y in series)
        # MDR falls as selfishness rises, for both schemes.
        for name in figure.series:
            values = figure.series_values(name)
            assert values[0] > values[-1]

    def test_format_renders(self, tiny):
        figure = fig5_1_mdr_vs_selfish(tiny, selfish_grid=(0.0,), seeds=(1,))
        text = figure.format()
        assert "Figure 5.1" in text
        assert "chitchat" in text


class TestFig52:
    def test_reduction_series(self, tiny):
        # Grid stops at 40%: beyond ~80% selfish the network itself
        # collapses (radios mostly off) and the ratio of two tiny traffic
        # counts is pure noise at this scale (see EXPERIMENTS.md).
        figure = fig5_2_traffic_reduction(
            tiny, selfish_grid=(0.0, 0.4), seeds=(1, 2, 3),
        )
        series = figure.series["reduction"]
        assert len(series) == 2
        # Traffic reduction grows with the selfish share (paper's shape);
        # averaged over three seeds to suppress tiny-scale noise.
        assert series[-1][1] >= series[0][1]
        assert series[0][1] > -100.0  # sanity: a finite percentage


class TestFig53:
    def test_more_tokens_more_mdr(self, tiny):
        figure = fig5_3_initial_tokens(
            tiny, token_grid=(2.0, 200.0), selfish_levels=(0.4,), seeds=(1,),
        )
        (name,) = figure.series
        values = figure.series_values(name)
        assert values[-1] >= values[0]


class TestWorkers:
    """The process pool gives the same series as in-process runs."""

    def test_fig5_1_pool_matches_in_process(self, tiny):
        kwargs = dict(selfish_grid=(0.0, 0.5), seeds=(1,))
        assert (
            fig5_1_mdr_vs_selfish(tiny, workers=2, **kwargs).series
            == fig5_1_mdr_vs_selfish(tiny, workers=1, **kwargs).series
        )

    def test_fig5_4_pool_matches_in_process(self, tiny):
        kwargs = dict(malicious_levels=(0.1, 0.3), seeds=(1, 2))
        assert (
            fig5_4_malicious_ratings(tiny, workers=2, **kwargs).series
            == fig5_4_malicious_ratings(tiny, workers=1, **kwargs).series
        )


class TestFig54:
    def test_rating_declines_over_time(self, tiny):
        figure = fig5_4_malicious_ratings(
            tiny, malicious_levels=(0.3,), seeds=(1,),
        )
        (series,) = figure.series.values()
        assert len(series) >= 5
        start = series[0][1]
        end = series[-1][1]
        assert end < start  # the DRM exposes malicious nodes


class TestFig55:
    def test_mdr_grows_with_users(self, tiny):
        # The span 6 -> 30 users crosses from a sparse to a dense regime,
        # so the density effect dominates single-seed noise.
        figure = fig5_5_mdr_vs_users(
            tiny, user_grid=(6, 30), seeds=(1, 2),
        )
        for name in ("chitchat", "incentive"):
            values = figure.series_values(name)
            assert values[-1] >= values[0]


class TestFig56:
    def test_priority_series_structure(self, tiny):
        figure = fig5_6_priority_mdr(
            tiny, selfish_levels=(0.4,), seeds=(1,),
        )
        assert set(figure.series) == {
            "chitchat selfish=40%", "incentive selfish=40%",
        }
        for series in figure.series.values():
            assert [x for x, _ in series] == [1.0, 2.0, 3.0]


class TestTable51:
    def test_table_contains_paper_values(self):
        text = table5_1_parameters()
        assert "Table 5.1" in text
        assert "500" in text
        assert "250 kBps" in text
        assert "100 meters" in text
        assert "0.8" in text
