"""Unit tests for the simulation world."""

import pytest

from tests.helpers import contact, make_message, make_world, trace_of
from repro.agents.behaviors import BehaviorProfile
from repro.errors import ConfigurationError, SimulationError
from repro.messages.generator import MessageGenerator
from repro.messages.keywords import KeywordUniverse
from repro.network.node import Node
from repro.network.world import World
from repro.routing.epidemic import EpidemicRouter
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


def _world(interests=None, **kwargs):
    interests = interests if interests is not None else {0: [], 1: ["flood"]}
    return make_world(interests, EpidemicRouter(), **kwargs)


class _RecordingEpidemic(EpidemicRouter):
    """Epidemic that logs every contact hook the world calls."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def prepare_contact_batch(self, pairs):
        self.calls.append(("prepare", self.world.now, list(pairs)))
        return super().prepare_contact_batch(pairs)

    def on_contact_start(self, link):
        self.calls.append(("start", self.world.now, link.pair))
        super().on_contact_start(link)

    def contact_end_batch(self, links):
        assert all(link.closed for link in links)
        self.calls.append(
            ("end-batch", self.world.now, [link.pair for link in links])
        )
        super().contact_end_batch(links)

    def on_contact_end(self, link):
        self.calls.append(("end", self.world.now, link.pair))
        super().on_contact_end(link)


class TestConstruction:
    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            World(Engine(), [Node(0, []), Node(0, [])], EpidemicRouter())

    def test_unknown_node_lookup_rejected(self):
        world = _world()
        with pytest.raises(ConfigurationError):
            world.node(99)

    def test_node_ids_sorted(self):
        nodes = [Node(2, []), Node(0, []), Node(1, [])]
        world = World(Engine(), nodes, EpidemicRouter())
        assert world.node_ids() == [0, 1, 2]

    def test_non_dense_node_ids_rejected(self):
        # Ids index the per-node arrays, so they must be exactly 0..n-1.
        with pytest.raises(ConfigurationError, match="id 0 is missing"):
            _world({1: [], 3: [], 5: []})

    def test_nan_battery_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="battery_capacity"):
            World(
                Engine(), [Node(0, [])], EpidemicRouter(),
                battery_capacity=float("nan"),
            )

    def test_infinite_battery_capacity_accepted(self):
        world = World(
            Engine(), [Node(0, []), Node(1, [])], EpidemicRouter(),
            battery_capacity=float("inf"),
        )
        assert world.battery_level(1) == float("inf")

    def test_invalid_link_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            World(Engine(), [Node(0, [])], EpidemicRouter(), link_speed=0.0)

    @pytest.mark.parametrize("argument, value", [
        ("link_speed", float("nan")),
        ("link_speed", float("inf")),
        ("nominal_distance", -1.0),
        ("nominal_distance", float("nan")),
        ("nominal_distance", float("inf")),
    ])
    def test_invalid_radio_values_rejected(self, argument, value):
        with pytest.raises(ConfigurationError, match=argument):
            World(
                Engine(), [Node(0, [])], EpidemicRouter(),
                **{argument: value},
            )


class TestContacts:
    def test_contact_creates_and_destroys_link(self):
        world = _world()
        seen = {}

        def probe(now):
            seen[now] = world.link_between(0, 1) is not None

        world.engine.schedule_at(15.0, lambda: probe(15.0))
        world.engine.schedule_at(60.0, lambda: probe(60.0))
        world.load_contact_trace(trace_of(contact(10.0, 50.0, 0, 1)))
        world.run(100.0)
        assert seen == {15.0: True, 60.0: False}

    def test_active_links_tracking(self):
        world = _world({0: [], 1: [], 2: []})
        counts = []
        world.engine.schedule_at(
            15.0, lambda: counts.append(len(world.active_links(0)))
        )
        world.load_contact_trace(trace_of(
            contact(10.0, 50.0, 0, 1), contact(10.0, 50.0, 0, 2)
        ))
        world.run(100.0)
        assert counts == [2]

    def test_selfish_behavior_suppresses_contacts(self):
        never = BehaviorProfile(selfish=True, participation_probability=0.0)
        world = _world(behaviors={0: never})
        message = make_message(source=0, size=100, keywords=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(contact(10.0, 50.0, 0, 1)))
        world.run(100.0)
        assert world.metrics.transfers_completed == 0
        assert message.uuid not in world.node(1).delivered

    def test_contact_naming_an_unknown_node_fails_at_load(self):
        world = _world()
        with pytest.raises(ConfigurationError, match=(
            r"contact 1 names node 7, but the world has 2 nodes"
        )):
            world.load_contact_trace(trace_of(
                contact(10.0, 50.0, 0, 1), contact(20.0, 50.0, 1, 7)
            ))

    def test_run_rejects_a_trace_beyond_the_population(self):
        from repro.experiments import ScenarioConfig, run_scenario

        with pytest.raises(ConfigurationError, match=(
            r"names node 25, but the world has 20 nodes"
        )):
            run_scenario(
                ScenarioConfig.tiny(), "incentive", 1,
                trace=trace_of(contact(1.0, 50.0, 0, 25)),
            )

    def test_contact_down_without_up_is_harmless(self):
        world = _world()
        world.engine.schedule_at(5.0, lambda: world._run_down_batch([(0, 1)]))
        world.run(10.0)


class TestBatchedHooks:
    """Every router takes the two tick handlers; the base hooks replay
    the per-link ``on_contact_end``."""

    def _calls(self, crash_at=None):
        never = BehaviorProfile(selfish=True, participation_probability=0.0)
        router = _RecordingEpidemic()
        world = make_world(
            {0: [], 1: [], 2: [], 3: []}, router, behaviors={3: never}
        )
        if crash_at is not None:
            world.engine.schedule_at(
                crash_at, lambda: world.on_node_crashed(1, wipe_state=False)
            )
        world.load_contact_trace(trace_of(
            contact(10.0, 50.0, 0, 1),
            contact(10.0, 50.0, 0, 3),
            contact(10.0, 50.0, 1, 2),
        ))
        world.run(100.0)
        return router.calls

    def test_ticks_reach_the_router_through_the_batch_hooks(self):
        # Node 3 never participates, so (0, 3) is not admitted.
        assert self._calls() == [
            ("prepare", 10.0, [(0, 1), (1, 2)]),
            ("start", 10.0, (0, 1)),
            ("start", 10.0, (1, 2)),
            ("end-batch", 50.0, [(0, 1), (1, 2)]),
            ("end", 50.0, (0, 1)),
            ("end", 50.0, (1, 2)),
        ]

    def test_churn_crash_ends_its_links_in_one_batch(self):
        calls = self._calls(crash_at=20.0)
        # The down tick at t=50 finds no live link left.
        assert calls[3:] == [
            ("end-batch", 20.0, [(0, 1), (1, 2)]),
            ("end", 20.0, (0, 1)),
            ("end", 20.0, (1, 2)),
        ]


class TestTransfers:
    def test_send_suppressed_for_seen_receiver(self):
        world = _world()
        message = make_message(source=0, size=100, keywords=("flood",))
        world.inject_message(message)
        world.node(1).seen.add(message.uuid)
        world.load_contact_trace(trace_of(contact(10.0, 50.0, 0, 1)))
        world.run(100.0)
        # The router checks has_seen, so no transfer is even attempted.
        assert world.metrics.transfers_completed == 0

    def test_send_message_suppresses_duplicates_in_flight(self):
        world = _world()
        message = make_message(source=0, size=1000, keywords=("flood",))
        world.inject_message(message)
        outcomes = []

        def double_send():
            link = world.link_between(0, 1)
            # The router already queued one copy at contact start; a
            # second explicit send of the same UUID must be suppressed.
            outcomes.append(world.send_message(link, 0, message))
            assert not world.can_send(link, 0, message)

        world.engine.schedule_at(11.0, double_send)
        world.load_contact_trace(trace_of(contact(10.0, 50.0, 0, 1)))
        world.run(100.0)
        assert outcomes == [None]
        assert world.metrics.transfers_suppressed >= 1
        assert world.metrics.transfers_completed == 1

    def test_energy_charged_on_completion(self):
        world = _world()
        message = make_message(source=0, size=1000, keywords=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(contact(10.0, 50.0, 0, 1)))
        world.run(100.0)
        assert world.energy.consumed(0) > 0.0
        assert world.energy.consumed(1) > 0.0
        assert world.energy.consumed(0) > world.energy.consumed(1)

    def test_aborted_transfer_counted(self):
        world = _world()
        message = make_message(source=0, size=1000, keywords=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(contact(10.0, 10.5, 0, 1)))
        world.run(100.0)
        assert world.metrics.transfers_aborted == 1
        assert world.metrics.transfers_completed == 0


class TestWorkload:
    def test_schedule_requires_generator(self):
        world = _world()
        with pytest.raises(SimulationError):
            world.schedule_workload([(1.0, 0)])

    def test_scheduled_workload_creates_messages(self):
        world = _world()
        generator = MessageGenerator(
            KeywordUniverse(30), RandomStreams(1).get("workload")
        )
        world.use_generator(generator)
        world.schedule_workload([(5.0, 0), (10.0, 1)])
        world.run(20.0)
        assert len(world.metrics.messages) == 2
        assert len(world.node(0).generated) == 1

    def test_intended_destinations_exclude_source(self):
        world = _world({0: ["flood"], 1: ["flood"], 2: []})
        message = make_message(source=0, size=100, keywords=("flood",))
        world.inject_message(message)
        record = world.metrics.record_for(message.uuid)
        assert record.intended == frozenset({1})

    def test_subscribe_makes_node_an_intended_destination(self):
        world = _world({0: ["flood"], 1: [], 2: []})
        world.subscribe(2, ["flood"])
        assert "flood" in world.node(2).interests
        message = make_message(source=0, size=100, keywords=("flood",))
        world.inject_message(message)
        record = world.metrics.record_for(message.uuid)
        assert record.intended == frozenset({2})

    def test_malicious_behavior_creates_low_quality(self):
        bad = BehaviorProfile(malicious=True, low_quality_probability=1.0)
        world = _world(behaviors={0: bad})
        generator = MessageGenerator(
            KeywordUniverse(30), RandomStreams(1).get("workload")
        )
        world.use_generator(generator)
        world.schedule_workload([(5.0, 0)])
        world.run(10.0)
        record = list(world.metrics.messages)[0]
        assert record.quality <= 0.2


class TestTtl:
    def test_expired_messages_removed(self):
        world = _world(ttl=100.0)
        message = make_message(source=0, created_at=0.0, size=100)
        world.inject_message(message)
        world.run(500.0)
        assert message.uuid not in world.node(0).buffer
        assert world.metrics.expirations == 1

    def test_fresh_messages_survive_sweep(self):
        world = _world(ttl=10_000.0)
        message = make_message(source=0, size=100)
        world.inject_message(message)
        world.run(500.0)
        assert message.uuid in world.node(0).buffer

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            _world(ttl=0.0)

    def test_invalid_run_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            _world().run(0.0)
