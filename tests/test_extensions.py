"""Tests for substrate extensions: mobility dispatch, batteries,
promise cleanup, and ASCII charts."""

import pytest

from tests.helpers import contact, make_message, make_world, trace_of
from repro.core.incentive import IncentiveParams
from repro.core.protocol import IncentiveChitChatRouter
from repro.core.reputation import RatingModel
from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_contact_trace, run_scenario
from repro.metrics.reports import ascii_chart
from repro.network.node import Node
from repro.network.world import World
from repro.routing.epidemic import EpidemicRouter
from repro.sim.engine import Engine


class TestMobilityDispatch:
    @pytest.mark.parametrize(
        "mobility", ["random-waypoint", "random-walk", "manhattan"],
    )
    def test_all_models_build_traces(self, mobility):
        config = ScenarioConfig.tiny(mobility=mobility)
        trace = build_contact_trace(config, seed=1)
        assert len(trace) > 0
        assert trace.duration() <= config.duration

    def test_unknown_mobility_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.tiny(mobility="teleport")

    def test_scenarios_run_under_alternate_mobility(self):
        config = ScenarioConfig.tiny(mobility="manhattan")
        result = run_scenario(config, "incentive", seed=1)
        assert 0.0 <= result.mdr <= 1.0


class TestBattery:
    def _world(self, capacity):
        return make_world_with_battery(capacity)

    def test_batteries_drain_with_transfers(self):
        world = make_world_with_battery(capacity=1.0)
        message = make_message(source=0, size=10_000, keywords=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(contact(10.0, 100.0, 0, 1)))
        world.run(200.0)
        assert world.battery_level(0) < 1.0

    def test_dead_battery_stops_contacts(self):
        # A tiny battery dies after the first transfer; the second
        # contact then never forms, so the second message stays put.
        world = make_world_with_battery(capacity=0.5)
        first = make_message(source=0, size=10_000, keywords=("flood",))
        second = make_message(source=0, size=10_000, keywords=("flood",))
        world.inject_message(first)
        world.load_contact_trace(trace_of(
            contact(10.0, 100.0, 0, 1),
            contact(200.0, 300.0, 0, 1),
        ))
        world.engine.schedule_at(150.0, lambda: world.inject_message(second))
        world.run(400.0)
        assert first.uuid in world.node(1).delivered
        assert world.battery_level(0) == 0.0
        assert second.uuid not in world.node(1).delivered

    @pytest.mark.parametrize("node_id", [-1, 2])
    def test_unknown_node_battery_rejected(self, node_id):
        world = make_world_with_battery(capacity=1.0)
        with pytest.raises(ConfigurationError, match="unknown node id"):
            world.battery_level(node_id)

    def test_battery_off_by_default(self):
        world = make_world_with_battery(capacity=None)
        assert world.battery_level(0) is None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            make_world_with_battery(capacity=0.0)

    def test_config_plumbs_battery_through(self):
        config = ScenarioConfig.tiny(battery_capacity=1e9)
        result = run_scenario(config, "chitchat", seed=1)
        assert 0.0 <= result.mdr <= 1.0


def make_world_with_battery(capacity):
    nodes = [
        Node(0, [], buffer_capacity=1_000_000),
        Node(1, ["flood"], buffer_capacity=1_000_000),
    ]
    return World(
        Engine(), nodes, EpidemicRouter(),
        link_speed=1_000.0, battery_capacity=capacity,
    )


class TestPromiseCleanup:
    def _protocol(self):
        params = IncentiveParams(initial_tokens=100.0)
        return IncentiveChitChatRouter(
            params=params,
            rating_model=RatingModel(params, noise=0.0, confidence_low=1.0),
        )

    def test_expired_message_clears_promise(self):
        router = self._protocol()
        world = make_world({0: [], 1: [], 2: ["flood"]}, router, ttl=200.0)
        message = make_message(source=0, size=100, keywords=("flood",),
                               content=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(
            contact(10.0, 100.0, 1, 2),
            contact(110.0, 150.0, 0, 1),
        ))
        world.run(1_000.0)
        # The relayed copy expired, and the promise died with it.
        assert message.uuid not in world.node(1).buffer
        assert router.promise_held(1, message.uuid) == 0.0

    def test_evicted_message_clears_promise(self):
        router = self._protocol()
        world = make_world(
            {0: [], 1: [], 2: ["flood"]}, router, buffer_capacity=1_500,
        )
        first = make_message(source=0, size=1_000, keywords=("flood",),
                             content=("flood",))
        second = make_message(source=0, size=1_000, keywords=("flood",),
                              content=("flood",))
        world.inject_message(first)
        world.load_contact_trace(trace_of(
            contact(10.0, 200.0, 1, 2),
            contact(300.0, 400.0, 0, 1),
            contact(500.0, 600.0, 0, 1),
        ))
        world.engine.schedule_at(450.0, lambda: world.inject_message(second))
        world.run(1_000.0)
        # The second relay copy evicted the first from node 1's buffer.
        if first.uuid not in world.node(1).buffer:
            assert router.promise_held(1, first.uuid) == 0.0


class TestAsciiChart:
    def test_basic_rendering(self):
        chart = ascii_chart(
            {"mdr": [(0.0, 0.5), (20.0, 1.0)]}, width=10, y_max=1.0,
        )
        lines = chart.splitlines()
        assert "[a] mdr" in lines[0]
        assert "|#####.....|" in chart
        assert "|##########|" in chart

    def test_multiple_series_get_distinct_markers(self):
        chart = ascii_chart({
            "alpha": [(0.0, 1.0)],
            "beta": [(0.0, 2.0)],
        })
        assert "[a] alpha" in chart
        assert "[b] beta" in chart

    def test_values_clamped_to_width(self):
        chart = ascii_chart(
            {"s": [(0.0, 5.0)]}, width=10, y_max=1.0,
        )
        assert "|##########|" in chart

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"s": [(0.0, 1.0)]}, width=0)

    def test_figure_format_includes_chart(self):
        from repro.experiments.figures import FigureResult

        figure = FigureResult(
            figure_id="9.9", title="demo", x_label="x", y_label="y",
            series={"s": [(0.0, 0.5)]},
        )
        text = figure.format()
        assert "y by x" in text
        assert "|" in text
