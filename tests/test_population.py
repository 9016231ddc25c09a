"""The population layer: heterogeneous node classes end to end.

Pins the contracts DESIGN.md §11 promises:

* spec/config validation names the offending field (satellite: config
  invariants raise :class:`ConfigurationError`, never asserts);
* class sizes come from largest-remainder apportionment, no RNG;
* assignment draws on per-class ``population:{name}`` streams, so a
  single class consumes **zero** RNG and editing one class never
  perturbs the draws of classes listed before it (stream isolation);
* the heterogeneous contact detector matches brute force under the
  ``max(r_a, r_b)`` semantics, and uniform radii take the scalar cell
  list;
* a single-class population is **bit-identical** to the scenario with
  no population set (the golden parity gate the CI hetero-smoke job
  runs, and a hypothesis property over the scenario space), and a lone
  class's overrides apply as they do in a mix;
* the 3-class preset sweep runs every class-aware scheme with a clean
  conservation audit and per-class breakdowns.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, MobilityError
from repro.experiments.config import ScenarioConfig
from repro.faults import FaultConfig
from repro.messages.keywords import KeywordUniverse
from repro.mobility.contact import hetero_pairs, pair_arrays
from repro.population import (
    NodeClassSpec,
    PopulationMap,
    PRESET_CLASSES,
    assign_classes,
    class_counts,
    mixed_population,
    preset_rows,
    resolve_population,
    stream_name,
    validate_population,
)
from repro.routing.minority_game import MinorityGameChitChat
from repro.schemes import scheme_names
from repro.sim.rng import RandomStreams
from repro.trace import iter_trace


def three_classes(fractions=(0.5, 0.3, 0.2), names=("a", "b", "c")):
    return tuple(
        NodeClassSpec(name, fraction)
        for name, fraction in zip(names, fractions)
    )


# ----------------------------------------------------------------------
# Spec and config validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty string"):
            NodeClassSpec("", 1.0)

    def test_fraction_out_of_range_names_the_class(self):
        with pytest.raises(
            ConfigurationError, match=r"population\[walkers\].fraction"
        ):
            NodeClassSpec("walkers", 1.5)

    def test_unknown_mobility_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"population\[x\].mobility"
        ):
            NodeClassSpec("x", 1.0, mobility="teleport")

    def test_inverted_speed_range_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"population\[x\].speed_range"
        ):
            NodeClassSpec("x", 1.0, speed_range=(5.0, 2.0))

    def test_zero_speed_requires_static_mobility(self):
        with pytest.raises(
            ConfigurationError, match="must be > 0 for mobile classes"
        ):
            NodeClassSpec("x", 1.0, speed_range=(0.0, 0.0))
        # The same range is fine for declared-static infrastructure.
        NodeClassSpec("x", 1.0, mobility="static", speed_range=(0.0, 0.0))

    @pytest.mark.parametrize(
        "field",
        [
            "transmission_radius",
            "link_speed",
            "buffer_capacity",
            "battery_capacity",
            "recharge_amount",
            "interests_per_node",
        ],
    )
    def test_nonpositive_override_names_the_field(self, field):
        with pytest.raises(
            ConfigurationError, match=rf"population\[x\].{field}"
        ):
            NodeClassSpec("x", 1.0, **{field: 0})

    @pytest.mark.parametrize("field", ["transmission_radius", "link_speed"])
    def test_infinite_radio_override_names_the_field(self, field):
        message = rf"population\[x\].{field} must be finite"
        with pytest.raises(ConfigurationError, match=message):
            NodeClassSpec("x", 1.0, **{field: math.inf})
        # An infinite battery models mains power and stays legal.
        NodeClassSpec("x", 1.0, battery_capacity=math.inf)

    def test_nonpositive_reward_multiplier_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"population\[x\].reward_multiplier"
        ):
            NodeClassSpec("x", 1.0, reward_multiplier=0.0)

    def test_behaviour_fraction_out_of_range_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"population\[x\].selfish_fraction"
        ):
            NodeClassSpec("x", 1.0, selfish_fraction=1.2)

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ConfigurationError, match="defined twice"):
            validate_population(
                (NodeClassSpec("a", 0.5), NodeClassSpec("a", 0.5))
            )

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            validate_population(
                (NodeClassSpec("a", 0.5), NodeClassSpec("b", 0.4))
            )

    def test_non_spec_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="NodeClassSpec"):
            validate_population(({"name": "a", "fraction": 1.0},))

    def test_scenario_config_validates_population(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            ScenarioConfig.small(
                population=(NodeClassSpec("a", 0.5), NodeClassSpec("b", 0.4))
            )

    def test_mixed_population_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            mixed_population(pedestrian=0.5, vehicular=0.5, infrastructure=0.5)

    def test_mixed_population_drops_zero_fraction_classes(self):
        specs = mixed_population(
            pedestrian=0.7, vehicular=0.3, infrastructure=0.0
        )
        assert tuple(s.name for s in specs) == ("pedestrian", "vehicular")


# ----------------------------------------------------------------------
# Resolution: scalars are validated views onto the default class
# ----------------------------------------------------------------------
class TestResolution:
    def test_empty_population_resolves_to_one_default_class(self):
        config = ScenarioConfig.small()
        (cls0,) = config.resolved_population()
        assert cls0.name == "default"
        assert cls0.fraction == 1.0
        assert cls0.transmission_radius == config.transmission_radius
        assert cls0.link_speed == config.link_speed
        assert cls0.buffer_capacity == config.buffer_capacity
        assert cls0.speed_range == config.speed_range
        assert cls0.interests_per_node == config.interests_per_node

    def test_unset_overrides_inherit_scalars(self):
        config = ScenarioConfig.small(
            population=(
                NodeClassSpec("walk", 0.5),
                NodeClassSpec("kiosk", 0.5, mobility="static",
                              transmission_radius=200.0),
            )
        )
        walk, kiosk = config.resolved_population()
        assert walk.transmission_radius == config.transmission_radius
        assert kiosk.transmission_radius == 200.0
        assert kiosk.mobility == "static"
        assert kiosk.buffer_capacity == config.buffer_capacity

    def test_preset_mix_resolves_three_classes(self):
        config = ScenarioConfig.hetero()
        classes = config.resolved_population()
        assert [c.name for c in classes] == [
            "pedestrian", "vehicular", "infrastructure",
        ]
        assert [c.reward_multiplier for c in classes] == [1.0, 0.75, 0.5]

    def test_preset_rows_cover_the_catalog(self):
        rows = preset_rows()
        assert [row[0] for row in rows] == list(PRESET_CLASSES)
        assert all(len(row) == 6 for row in rows)


# ----------------------------------------------------------------------
# Apportionment: deterministic largest-remainder sizes
# ----------------------------------------------------------------------
class TestClassCounts:
    def test_preset_mix_at_120_nodes(self):
        assert class_counts(120, [0.6, 0.3, 0.1]) == [72, 36, 12]

    def test_remainders_go_to_largest_fraction(self):
        # 10 * [0.55, 0.45] = [5.5, 4.5]: the leftover seat goes to the
        # larger remainder; a tie resolves toward the earlier class.
        assert class_counts(10, [0.55, 0.45]) == [6, 4]
        assert class_counts(5, [0.5, 0.5]) == [3, 2]

    def test_thirds_sum_exactly(self):
        assert class_counts(10, [1 / 3, 1 / 3, 1 / 3]) == [4, 3, 3]

    @given(
        n_nodes=st.integers(min_value=2, max_value=500),
        weights=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_always_total_n_nodes(self, n_nodes, weights):
        total = sum(weights)
        fractions = [w / total for w in weights]
        counts = class_counts(n_nodes, fractions)
        assert sum(counts) == n_nodes
        assert all(c >= 0 for c in counts)


# ----------------------------------------------------------------------
# Assignment: zero RNG for one class, per-class stream isolation
# ----------------------------------------------------------------------
class _ExplodingStreams:
    """A streams stand-in that fails the test if anything draws."""

    def get(self, name):
        raise AssertionError(f"unexpected RNG draw on stream {name!r}")


class TestAssignment:
    def test_single_class_consumes_zero_rng(self):
        classes = resolve_population(ScenarioConfig.small())
        class_id = assign_classes(60, classes, _ExplodingStreams())
        assert class_id.dtype == np.int64
        assert np.array_equal(class_id, np.zeros(60, dtype=np.int64))

    def test_counts_match_apportionment(self):
        classes = resolve_population(ScenarioConfig.hetero(n_nodes=120))
        class_id = assign_classes(120, classes, RandomStreams(7))
        counts = [int(np.count_nonzero(class_id == i)) for i in range(3)]
        assert counts == class_counts(120, [c.fraction for c in classes])

    def test_assignment_is_deterministic(self):
        classes = resolve_population(ScenarioConfig.hetero(n_nodes=90))
        one = assign_classes(90, classes, RandomStreams(3))
        two = assign_classes(90, classes, RandomStreams(3))
        assert np.array_equal(one, two)

    def test_stream_names_are_per_class(self):
        classes = resolve_population(ScenarioConfig.hetero())
        for cls in classes:
            for stream in ("population", "mobility", "behavior-assignment"):
                assert (
                    stream_name(stream, cls, classes)
                    == f"{stream}:{cls.name}"
                )
        (lone,) = resolve_population(
            ScenarioConfig.tiny(population=(NodeClassSpec("solo", 1.0),))
        )
        assert stream_name("mobility", lone, [lone]) == "mobility"
        assert (
            stream_name("behavior-assignment", lone, [lone])
            == "behavior-assignment"
        )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_editing_a_later_class_never_perturbs_earlier_draws(self, seed):
        """Satellite: per-class RNG stream isolation.

        Class membership is drawn on ``population:{name}`` streams keyed
        by the master seed and the class *name* alone, so renaming (=
        reseeding) the last class must leave the first two classes'
        member sets bit-identical.
        """
        n = 60
        base = resolve_population(
            ScenarioConfig.small(population=three_classes())
        )
        renamed = resolve_population(
            ScenarioConfig.small(
                population=three_classes(names=("a", "b", "zz"))
            )
        )
        before = assign_classes(n, base, RandomStreams(seed))
        after = assign_classes(n, renamed, RandomStreams(seed))
        for index in (0, 1):
            assert np.array_equal(
                np.nonzero(before == index)[0],
                np.nonzero(after == index)[0],
            )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stream_draws_independent_of_creation_order(self, seed):
        forward = RandomStreams(seed)
        reverse = RandomStreams(seed)
        a_first = forward.get("population:a").random(16)
        _ = forward.get("population:b").random(16)
        _ = reverse.get("population:b").random(16)
        a_second = reverse.get("population:a").random(16)
        assert np.array_equal(a_first, a_second)


# ----------------------------------------------------------------------
# PopulationMap: the per-node arrays the lower layers gather from
# ----------------------------------------------------------------------
class TestPopulationMap:
    def build(self, config, seed=0):
        return PopulationMap.build(config, RandomStreams(seed))

    def test_single_class_is_not_heterogeneous(self):
        pop = self.build(ScenarioConfig.small())
        assert not pop.heterogeneous
        assert pop.name_of(0) == "default"

    def test_gathered_arrays_follow_membership(self):
        config = ScenarioConfig.hetero(n_nodes=50)
        pop = self.build(config)
        assert pop.heterogeneous
        classes = pop.classes
        for node_id in range(50):
            cls = classes[int(pop.class_id[node_id])]
            assert pop.radii[node_id] == cls.transmission_radius
            assert pop.name_of(node_id) == cls.name

    def test_members_partition_the_nodes(self):
        pop = self.build(ScenarioConfig.hetero(n_nodes=40))
        all_members = np.concatenate(
            [pop.members(i) for i in range(len(pop.classes))]
        )
        assert sorted(all_members.tolist()) == list(range(40))

    def test_names_by_node_matches_name_of(self):
        pop = self.build(ScenarioConfig.hetero(n_nodes=30))
        names = pop.names_by_node()
        assert set(names) == set(range(30))
        assert all(names[n] == pop.name_of(n) for n in range(30))

    def test_batteryless_population_has_no_battery_array(self):
        pop = self.build(ScenarioConfig.hetero(n_nodes=30))
        assert pop.battery_capacities is None

    def test_mixed_batteries_give_mains_classes_infinity(self):
        config = ScenarioConfig.small(
            n_nodes=30,
            population=(
                NodeClassSpec("phone", 0.5, battery_capacity=5_000.0),
                NodeClassSpec("kiosk", 0.5, mobility="static"),
            ),
        )
        pop = self.build(config)
        batteries = pop.battery_capacities
        assert batteries is not None
        for node_id in range(30):
            if pop.name_of(node_id) == "phone":
                assert batteries[node_id] == 5_000.0
            else:
                assert np.isinf(batteries[node_id])

    def test_recharge_amounts_fill_from_default(self):
        config = ScenarioConfig.small(
            n_nodes=20,
            population=(
                NodeClassSpec("solar", 0.5, recharge_amount=250.0),
                NodeClassSpec("plain", 0.5),
            ),
        )
        pop = self.build(config)
        amounts = pop.recharge_amounts(100.0)
        for node_id in range(20):
            expected = 250.0 if pop.name_of(node_id) == "solar" else 100.0
            assert amounts[node_id] == expected

    def test_reward_multipliers_keyed_by_class_name(self):
        pop = self.build(ScenarioConfig.hetero(n_nodes=30))
        assert pop.reward_multipliers() == {
            "pedestrian": 1.0, "vehicular": 0.75, "infrastructure": 0.5,
        }


# ----------------------------------------------------------------------
# Heterogeneous contact detection
# ----------------------------------------------------------------------
def hetero_pairs_bruteforce(positions, radii):
    found = set()
    n = positions.shape[0]
    for a in range(n):
        for b in range(a + 1, n):
            limit = max(radii[a], radii[b])
            dx = positions[a, 0] - positions[b, 0]
            dy = positions[a, 1] - positions[b, 1]
            if dx * dx + dy * dy <= limit * limit:
                found.add((a, b))
    return found


class TestHeteroPairs:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_bruteforce_under_max_radius_semantics(self, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, 500.0, size=(40, 2))
        radii = rng.choice([30.0, 90.0, 200.0], size=40)
        node_a, node_b = hetero_pairs(positions, radii)
        assert set(zip(node_a.tolist(), node_b.tolist())) == (
            hetero_pairs_bruteforce(positions, radii)
        )

    def test_equal_radii_match_the_scalar_cell_list(self):
        rng = np.random.default_rng(11)
        positions = rng.uniform(0.0, 400.0, size=(60, 2))
        radii = np.full(60, 75.0)
        hetero_a, hetero_b = hetero_pairs(positions, radii)
        scalar_a, scalar_b = pair_arrays(positions, 75.0)
        assert set(zip(hetero_a.tolist(), hetero_b.tolist())) == set(
            zip(scalar_a.tolist(), scalar_b.tolist())
        )

    def test_uniform_radii_take_the_scalar_search(self, monkeypatch):
        import repro.mobility.contact as contact

        rng = np.random.default_rng(5)
        frames = rng.uniform(0.0, 400.0, size=(4, 60, 2))

        def refuse(positions, radii):
            raise AssertionError("uniform radii reached the per-pair filter")

        monkeypatch.setattr(contact, "hetero_pairs", refuse)
        uniform = contact.ContactDetector(1.0, radii=np.full(60, 75.0))
        scalar = contact.ContactDetector(75.0)
        for time, positions in enumerate(frames):
            uniform.scan(float(time), positions)
            scalar.scan(float(time), positions)
            assert uniform.open_pairs == scalar.open_pairs
        assert uniform.radius == 75.0

    def test_stronger_radio_carries_the_pair(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0]])
        # Only one endpoint reaches 100 m — still a contact.
        node_a, node_b = hetero_pairs(positions, np.array([150.0, 10.0]))
        assert node_a.tolist() == [0] and node_b.tolist() == [1]
        # Neither reaches: no contact.
        node_a, node_b = hetero_pairs(positions, np.array([50.0, 99.0]))
        assert node_a.size == 0

    def test_radii_length_mismatch_raises(self):
        with pytest.raises(MobilityError, match="one entry per node"):
            hetero_pairs(np.zeros((3, 2)), np.array([10.0, 10.0]))


# ----------------------------------------------------------------------
# Golden parity: a single-class population is the legacy scenario
# ----------------------------------------------------------------------
class TestSingleClassGoldenParity:
    def test_default_single_class_run_is_bit_identical(self):
        from repro.experiments.runner import run_scenario

        legacy = ScenarioConfig.small(n_nodes=20, duration=900.0)
        single = ScenarioConfig.small(
            n_nodes=20,
            duration=900.0,
            population=(NodeClassSpec("default", 1.0),),
        )
        before = run_scenario(legacy, "incentive", seed=1).summary()
        after = run_scenario(single, "incentive", seed=1).summary()
        assert before == after

    def test_renamed_single_class_is_still_bit_identical(self):
        # The guarantee is structural (one class, zero extra draws),
        # not tied to the "default" name.
        from repro.experiments.runner import run_scenario

        legacy = ScenarioConfig.tiny(duration=900.0)
        single = ScenarioConfig.tiny(
            duration=900.0,
            population=(NodeClassSpec("everyone", 1.0),),
        )
        before = run_scenario(legacy, "chitchat", seed=2).summary()
        after = run_scenario(single, "chitchat", seed=2).summary()
        assert before == after


# ----------------------------------------------------------------------
# One class is the one-class case of the class code: overrides apply
# ----------------------------------------------------------------------
class TestOneClassOverrides:
    def run(self, config, scheme="incentive", seed=1, **kwargs):
        from repro.experiments.runner import run_scenario

        return run_scenario(config, scheme, seed, **kwargs)

    def test_reward_multiplier_scales_delivery_awards(self):
        def moved(multiplier):
            config = ScenarioConfig.tiny(population=(
                NodeClassSpec("cheap", 1.0, reward_multiplier=multiplier),
            ))
            result = self.run(config, "incentive-chitchat-hetero")
            return result.metrics.tokens_moved

        assert moved(0.5) < 0.6 * moved(1.0)

    def test_recharge_amount_replaces_the_fault_config_amount(self):
        def run(recharge_amount, class_amount):
            return self.run(ScenarioConfig.tiny(
                battery_capacity=3.0,
                faults=FaultConfig(
                    recharge_interval=300.0, recharge_amount=recharge_amount
                ),
                population=(NodeClassSpec(
                    "solar", 1.0, recharge_amount=class_amount
                ),),
            ))

        overridden = run(0.5, 50.0)
        reference = run(50.0, None)
        assert overridden.summary() == reference.summary()
        assert overridden.fault_summary() == reference.fault_summary()
        assert overridden.summary() != run(0.5, None).summary()

    def test_router_names_a_lone_class(self):
        config = ScenarioConfig.tiny(population=(NodeClassSpec("solo", 1.0),))
        result = self.run(config)
        assert result.router.node_class(0) == "solo"
        assert result.node_classes is None

    def test_one_class_trace_carries_no_class_fields(self, tmp_path):
        config = ScenarioConfig.tiny(population=(NodeClassSpec("solo", 1.0),))
        path = tmp_path / "solo.jsonl"
        result = self.run(config, trace_path=str(path))
        records = list(iter_trace(path))
        deliveries = [r for r in records if r["type"] == "delivery"]
        assert deliveries
        assert {result.router.node_class(r["node"]) for r in deliveries} == {
            "solo"
        }
        assert not any("node_class" in r for r in deliveries)
        assert "node_classes" not in records[-1]


class TestWorldReadsClasses:
    """Buffers and links take each node's class values in a mix."""

    def test_buffers_come_from_each_nodes_class(self):
        from repro.experiments.runner import _build_population

        config = ScenarioConfig.hetero(n_nodes=30)
        streams = RandomStreams(1)
        pop = PopulationMap.build(config, streams)
        nodes, _ = _build_population(
            config, streams, KeywordUniverse(config.keyword_pool),
            population=pop,
        )
        for node in nodes:
            cls = pop.classes[int(pop.class_id[node.node_id])]
            assert node.buffer.capacity == cls.buffer_capacity

    def test_mixed_link_runs_at_the_slower_speed_over_the_larger_radius(self):
        from repro.network.node import Node
        from repro.network.world import World
        from repro.routing.epidemic import EpidemicRouter
        from repro.sim.engine import Engine

        config = ScenarioConfig.small(n_nodes=4, population=(
            NodeClassSpec("slow", 0.5, link_speed=1_000.0,
                          transmission_radius=50.0),
            NodeClassSpec("fast", 0.5, link_speed=9_000.0,
                          transmission_radius=200.0),
        ))
        pop = PopulationMap.build(config, RandomStreams(0))
        world = World(
            Engine(), [Node(i, []) for i in range(4)], EpidemicRouter(),
            population=pop,
        )
        slow, fast = (pop.members(i).tolist() for i in range(2))
        for a, b, speed, distance in (
            (*slow, 1_000.0, 50.0),
            (*fast, 9_000.0, 200.0),
            (slow[0], fast[0], 1_000.0, 200.0),
        ):
            pair = (min(a, b), max(a, b))
            world._open_contact(pair)
            link = world.link_between(*pair)
            assert (link.speed, link.distance) == (speed, distance)
            assert world.node_class(a) == pop.name_of(a)


def _same(one, other):
    """Dict equality that counts NaN equal to NaN."""
    return one.keys() == other.keys() and all(
        one[k] == other[k] or (one[k] != one[k] and other[k] != other[k])
        for k in one
    )


@st.composite
def _scenario_draws(draw):
    battery = draw(st.none() | st.floats(1.0, 20.0))
    return dict(
        name=draw(st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)),
        scheme=draw(st.sampled_from(scheme_names())),
        duration=draw(st.sampled_from([300.0, 600.0, 900.0])),
        mobility=draw(st.sampled_from(
            ["random-waypoint", "random-walk", "manhattan", "static"]
        )),
        transmission_radius=draw(st.floats(30.0, 150.0)),
        link_speed=draw(st.floats(50_000.0, 1_000_000.0)),
        buffer_capacity=draw(st.integers(2_000_000, 20_000_000)),
        battery_capacity=battery,
        recharge=draw(st.none() | st.tuples(
            st.floats(60.0, 600.0), st.floats(0.1, 20.0)
        )),
        selfish_fraction=draw(st.floats(0.0, 0.5)),
        malicious_fraction=draw(st.floats(0.0, 0.5)),
        interests_per_node=draw(st.integers(1, 30)),
    )


_CLASS_FIELDS = (
    "mobility", "transmission_radius", "link_speed", "buffer_capacity",
    "battery_capacity", "selfish_fraction", "malicious_fraction",
    "interests_per_node",
)


class TestScalarPopulationParity:
    """A run with no population set equals the explicit one-class one.

    The drawn values sit first in the scalars, then in one class of any
    name inheriting them, then in that class's overrides (the recharge
    amount too, with the fault config carrying another); all three
    runs must give equal summaries and fault summaries.
    """

    @given(draws=_scenario_draws())
    @settings(max_examples=50, deadline=None)
    @example(draws=dict(
        name="solar", scheme="incentive", duration=900.0,
        mobility="random-waypoint", transmission_radius=100.0,
        link_speed=250_000.0, buffer_capacity=10_000_000,
        battery_capacity=3.0, recharge=(300.0, 50.0),
        selfish_fraction=0.0, malicious_fraction=0.0, interests_per_node=6,
    ))
    def test_scalars_equal_one_class_equal_overrides(self, draws):
        from repro.experiments.runner import run_scenario

        def faults(amount):
            if draws["recharge"] is None:
                return None
            return FaultConfig(
                recharge_interval=draws["recharge"][0], recharge_amount=amount
            )

        amount = draws["recharge"][1] if draws["recharge"] else None
        scalar = ScenarioConfig.tiny(
            duration=draws["duration"], faults=faults(amount),
            **{name: draws[name] for name in _CLASS_FIELDS},
        )
        named = scalar.replace(population=(NodeClassSpec(draws["name"], 1.0),))
        moved = ScenarioConfig.tiny(
            duration=draws["duration"],
            faults=faults(amount and amount / 100),
            population=(NodeClassSpec(
                draws["name"], 1.0, recharge_amount=amount,
                **{name: draws[name] for name in _CLASS_FIELDS},
            ),),
        )
        runs = [
            run_scenario(config, draws["scheme"], 1)
            for config in (scalar, named, moved)
        ]
        for run in runs[1:]:
            assert _same(run.summary(), runs[0].summary())
            assert _same(run.fault_summary(), runs[0].fault_summary())


# ----------------------------------------------------------------------
# The 3-class sweep: class-aware schemes, audits, breakdowns
# ----------------------------------------------------------------------
class TestHeteroSweep:
    @pytest.fixture(scope="class")
    def records(self):
        from repro.experiments.hetero import hetero_sweep

        config = ScenarioConfig.hetero(n_nodes=30, duration=600.0)
        return hetero_sweep(
            config,
            schemes=("incentive", "incentive-chitchat-hetero",
                     "minority-game"),
            seeds=(1,),
        )

    def test_every_scheme_ran_with_a_clean_audit(self, records):
        assert [r["scheme"] for r in records] == [
            "incentive", "incentive-chitchat-hetero", "minority-game",
        ]
        assert all(r["audit_ok"] for r in records)

    def test_per_class_breakdowns_cover_all_classes(self, records):
        for record in records:
            per_class = record["per_class"]
            assert set(per_class) == {
                "pedestrian", "vehicular", "infrastructure",
            }
            assert sum(row["nodes"] for row in per_class.values()) == 30
            for row in per_class.values():
                assert 0.0 <= row["mdr"] <= 1.0
                assert "mean_balance" in row

    def test_breakdown_rows_flatten_every_class(self, records):
        from repro.experiments.hetero import breakdown_rows

        rows = breakdown_rows(records)
        assert len(rows) == 3 * 3  # schemes x classes
        assert {row[0] for row in rows} == {r["scheme"] for r in records}

    def test_node_classes_reach_the_run_result(self, records):
        result = records[0]["result"]
        assert result.node_classes is not None
        assert set(result.node_classes.values()) == {
            "pedestrian", "vehicular", "infrastructure",
        }

    def test_sweep_requires_a_heterogeneous_base(self):
        from repro.experiments.hetero import hetero_sweep

        with pytest.raises(ConfigurationError, match="heterogeneous"):
            hetero_sweep(ScenarioConfig.small(), seeds=(1,))


# ----------------------------------------------------------------------
# Minority game mechanics
# ----------------------------------------------------------------------
class _GameWorld:
    """The minimal scheduler/streams surface the game binds to."""

    def __init__(self, n=10, seed=0):
        self._ids = list(range(n))
        self.streams = RandomStreams(seed)
        self.scheduled = []

    def node_ids(self):
        return list(self._ids)

    def schedule_in(self, delay, callback, label=None):
        self.scheduled.append((delay, callback, label))


class TestMinorityGame:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="epoch_length"):
            MinorityGameChitChat(epoch_length=0.0)
        with pytest.raises(ConfigurationError, match="learning_rate"):
            MinorityGameChitChat(learning_rate=1.0)
        with pytest.raises(ConfigurationError, match="p_floor"):
            MinorityGameChitChat(p_floor=0.6, p_ceiling=0.4)

    def test_degrades_to_plain_chitchat_on_stub_worlds(self):
        class Stub:
            def node_ids(self):
                return [0, 1]

        router = MinorityGameChitChat()
        router.bind(Stub())
        assert router.participates(0)
        assert router.participation_rate() == 1.0
        assert router.epochs_played == 0

    def test_bind_draws_choices_and_schedules_the_first_epoch(self):
        world = _GameWorld(n=8, seed=5)
        router = MinorityGameChitChat(epoch_length=300.0)
        router.bind(world)
        assert router._choices is not None
        assert router._choices.size == 8
        (delay, _callback, label), = world.scheduled
        assert delay == 300.0
        assert label == "minority-game-epoch"

    def test_minority_side_is_reinforced(self):
        world = _GameWorld(n=10, seed=1)
        router = MinorityGameChitChat(learning_rate=0.1)
        router.bind(world)
        # Force a known split: 3 participants vs 7 defectors.
        router._choices = np.array([True] * 3 + [False] * 7)
        router._epoch_tick()
        assert router.epochs_played == 1
        # Participation won (strict minority): the minority repeats its
        # choice and the majority moves away from its own — in a binary
        # game both drift toward participating.
        assert np.all(router._p > 0.5)
        # A fresh epoch was drawn and the next tick scheduled.
        assert router._choices.size == 10
        assert len(world.scheduled) == 2

    def test_tie_rewards_the_defectors(self):
        world = _GameWorld(n=10, seed=2)
        router = MinorityGameChitChat(learning_rate=0.1)
        router.bind(world)
        router._choices = np.array([True] * 5 + [False] * 5)
        router._epoch_tick()
        # Defection won the tie (relaying costs energy): everyone
        # drifts toward defecting.
        assert np.all(router._p < 0.5)

    def test_probabilities_stay_clipped(self):
        world = _GameWorld(n=6, seed=3)
        router = MinorityGameChitChat(
            learning_rate=0.4, p_floor=0.2, p_ceiling=0.8
        )
        router.bind(world)
        for _ in range(10):
            router._choices = np.array([True] + [False] * 5)
            router._epoch_tick()
        assert np.all(router._p >= 0.2)
        assert np.all(router._p <= 0.8)

    def test_exactly_n_draws_per_epoch(self):
        world = _GameWorld(n=12, seed=4)
        router = MinorityGameChitChat()
        router.bind(world)
        # Replaying the stream: bind + one tick = exactly 2n variates.
        router._epoch_tick()
        shadow = RandomStreams(4).get("minority-game")
        shadow.random(2 * 12)
        live = world.streams.get("minority-game")
        assert np.array_equal(shadow.random(5), live.random(5))

    def test_defectors_refuse_relay_custody(self):
        world = _GameWorld(n=4, seed=6)
        router = MinorityGameChitChat()
        router.bind(world)
        router._choices = np.array([True, False, True, True])
        assert not router.participates(1)
        assert router.relay_affinity(1, None) == 0.0
        assert router.participation_rate() == 0.75

    def test_wiped_node_forgets_its_strategy(self):
        world = _GameWorld(n=5, seed=7)
        router = MinorityGameChitChat(learning_rate=0.2)
        router.bind(world)
        router._choices = np.array([True, False, False, False, False])
        router._epoch_tick()
        assert router._p[0] != 0.5
        router.on_node_wiped(0)
        assert router._p[0] == 0.5


# ----------------------------------------------------------------------
# Registry exposure of the class-aware schemes
# ----------------------------------------------------------------------
class TestClassAwareSchemes:
    def test_hetero_scheme_declares_class_multipliers(self):
        from repro.schemes.registry import resolve_scheme

        spec = resolve_scheme("incentive-chitchat-hetero")
        assert dict(spec.class_multipliers) == {
            "pedestrian": 1.0, "vehicular": 0.75, "infrastructure": 0.5,
        }

    def test_minority_game_scheme_builds_the_game_router(self):
        from repro.experiments.runner import make_router
        from repro.messages.keywords import KeywordUniverse

        config = ScenarioConfig.tiny()
        layer = make_router(
            "minority-game", config, KeywordUniverse(config.keyword_pool)
        )
        assert isinstance(layer.substrate, MinorityGameChitChat)

    def test_config_multipliers_override_the_preset(self):
        from repro.schemes.catalog import _hetero_multipliers

        vehicular = dataclasses.replace(
            PRESET_CLASSES["vehicular"], fraction=0.5, reward_multiplier=0.9
        )
        pedestrian = dataclasses.replace(
            PRESET_CLASSES["pedestrian"], fraction=0.5
        )
        config = ScenarioConfig.small(population=(pedestrian, vehicular))
        merged = _hetero_multipliers(config)
        assert merged["vehicular"] == 0.9
        assert merged["pedestrian"] == 1.0
        # Preset classes absent from the config keep their defaults.
        assert merged["infrastructure"] == 0.5
