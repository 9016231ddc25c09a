"""Unit tests for scenario configuration."""

import math
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ScenarioConfig
from repro.messages.generator import DEFAULT_PROFILES
from repro.population import NodeClassSpec


class TestDefaults:
    def test_paper_scale_matches_table_5_1(self):
        config = ScenarioConfig.paper_scale()
        assert config.n_nodes == 500
        assert config.keyword_pool == 200
        assert config.interests_per_node == 20
        assert config.link_speed == 250_000.0
        assert config.transmission_radius == 100.0
        assert config.buffer_capacity == 250_000_000
        assert config.duration == 86_400.0
        assert config.area_km2 == pytest.approx(5.0)
        assert config.incentive.relay_threshold == 0.8
        assert config.incentive.initial_tokens == 200.0

    def test_small_preserves_density_order(self):
        small = ScenarioConfig.small()
        paper = ScenarioConfig.paper_scale()
        # Same order of magnitude of nodes per km^2.
        assert 0.3 <= small.node_density / paper.node_density <= 3.0

    def test_tiny_is_fast_scale(self):
        tiny = ScenarioConfig.tiny()
        assert tiny.n_nodes <= 25
        assert tiny.duration <= 3_600.0

    def test_presets_accept_overrides(self):
        config = ScenarioConfig.small(selfish_fraction=0.4)
        assert config.selfish_fraction == 0.4


class TestValidation:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_nodes=1)

    def test_pool_smaller_than_interests_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(keyword_pool=10, interests_per_node=20)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(selfish_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(malicious_fraction=-0.1)

    @pytest.mark.parametrize("field_name, value", [
        ("area", (0.0, 100.0)),
        ("manhattan_block", 0.0),
        ("ttl", 0.0),
        ("battery_capacity", -1.0),
        ("chitchat_beta", 0.0),
        ("chitchat_growth_scale", 0.0),
        ("honest_enrich_probability", 1.5),
        ("malicious_enrich_probability", -0.1),
        ("role_fractions", (1.0,)),  # one fraction for two levels
        ("role_fractions", (0.5, 0.4)),  # does not sum to 1
        ("content_keywords", (0, 4)),
        ("content_keywords", (4, 201)),  # beyond the 200-keyword pool
        ("annotated_fraction", 0.0),
        ("interests_per_node", -1),
        ("profiles", ()),
        ("profiles", DEFAULT_PROFILES[:1]),  # fractions sum to 0.5
        ("speed_range", (0.0, 1.0)),  # a moving class must move
        ("population[walker].speed_range", {"population": (
            NodeClassSpec("walker", 1.0, speed_range=(0.0, 2.0)),
        )}),
        ("manhattan_block", {  # wider than the 2,236 m area
            "mobility": "manhattan", "manhattan_block": 10_000.0,
        }),
        ("population[walker].interests_per_node", {"population": (
            NodeClassSpec("walker", 1.0, interests_per_node=10_000),
        )}),
        ("selfish_fraction", {
            "selfish_fraction": 0.7, "malicious_fraction": 0.6,
        }),
        ("population[walker].selfish_fraction", {"population": (
            NodeClassSpec(
                "walker", 1.0, selfish_fraction=0.7, malicious_fraction=0.6,
            ),
        )}),
        ("role_fractions", (0.5, math.nan)),  # NaN slips past `< 0`
        # inf ran silently wrong: 0-s transfers, or no contacts at all.
        ("link_speed", math.inf),
        ("transmission_radius", math.inf),
    ])
    def test_invalid_field_fails_at_construction(self, field_name, value):
        # Each of these used to construct and then fail inside
        # run_scenario, often under another component's parameter name.
        # A dict value is a set of fields, for a value that is only
        # invalid beside another field or as a class override.
        overrides = value if isinstance(value, dict) else {field_name: value}
        with pytest.raises(ConfigurationError, match=re.escape(field_name)):
            ScenarioConfig(**overrides)

    def test_boundary_values_accepted(self):
        ScenarioConfig(
            interests_per_node=0,
            annotated_fraction=1.0,
            content_keywords=(1, 200),
            ttl=None,
            battery_capacity=None,
            honest_enrich_probability=0.0,
            malicious_enrich_probability=1.0,
            role_levels=("private",),
            role_fractions=(1.0,),
        )
        # An infinite battery models mains power.
        ScenarioConfig(battery_capacity=math.inf)
        # Standing still is fine for static nodes.
        ScenarioConfig(mobility="static", speed_range=(0.0, 0.0))
        ScenarioConfig.hetero()  # its infrastructure class is static


class TestHelpers:
    def test_replace_returns_modified_copy(self):
        base = ScenarioConfig.small()
        changed = base.replace(n_nodes=99)
        assert changed.n_nodes == 99
        assert base.n_nodes != 99

    def test_with_tokens(self):
        config = ScenarioConfig.small().with_tokens(42.0)
        assert config.incentive.initial_tokens == 42.0
        # Other incentive parameters survive the update.
        assert config.incentive.relay_threshold == 0.8

    def test_table_rows_cover_table_5_1(self):
        rows = dict(ScenarioConfig.paper_scale().table_rows())
        assert rows["Number of Participants"] == 500
        assert rows["Pool of Social Interest Keywords"] == 200
        assert rows["Threshold for relay"] == 0.8
        assert "200" in rows["Number of initial tokens"]
        assert len(rows) == 11  # the table has 11 entries
