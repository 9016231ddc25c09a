"""Tests for the struct-of-arrays per-node world state.

* **Construction** — degenerate populations (0 and 1 nodes) and
  battery validation; entry ``k`` of every array is node ``k``'s.
* **Recharge** — batteries refill up to, never past, capacity.
* **Settlement conservation** — a traced run's token settlements replay
  cleanly through the conservation auditor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.network.world_state import WorldState

finite_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestConstruction:
    def test_zero_nodes(self):
        state = WorldState(0)
        assert state.n == 0
        assert len(state) == 0
        assert state.energy.shape == (0,)
        assert state.battery is None

    def test_one_node(self):
        state = WorldState(1, battery_capacity=5.0)
        assert state.n == 1
        assert state.battery.tolist() == [5.0]

    def test_zero_battery_rejected(self):
        with pytest.raises(ConfigurationError):
            WorldState(2, battery_capacity=0.0)

    @pytest.mark.parametrize("capacity", [
        float("nan"), np.array([5.0, float("nan"), 1.0]),
    ])
    def test_nan_battery_rejected(self, capacity):
        # NaN passes a ``<= 0`` test; it would stay NaN through recharge.
        with pytest.raises(ConfigurationError, match="battery_capacity"):
            WorldState(3, battery_capacity=capacity)

    def test_infinite_battery_is_mains_power(self):
        state = WorldState(2, battery_capacity=float("inf"))
        state.battery[:] = [1.0, 2.0]
        state.recharge(3.0)
        assert state.battery.tolist() == [4.0, 5.0]


class TestAccumulationOrder:
    @given(amount=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_recharge_caps_at_capacity(self, amount):
        state = WorldState(4, battery_capacity=100.0)
        state.battery[:] = [0.0, 25.0, 99.0, 100.0]
        state.recharge(amount)
        assert np.all(state.battery <= 100.0)
        assert np.all(
            state.battery >= np.minimum([0.0, 25.0, 99.0, 100.0], 100.0)
        )


class TestSettlementConservation:
    def test_soa_run_settlements_replay_clean(self, tmp_path):
        """End-to-end: a traced run passes the conservation audit.

        The auditor replays every settlement record against the ledger
        invariants (supply constant modulo mint/burn, escrow balanced),
        so a clean replay proves the batched contact path never created
        or destroyed tokens.
        """
        from repro.experiments import ScenarioConfig, run_scenario
        from repro.trace.audit import replay_trace

        path = tmp_path / "settlement.jsonl"
        config = ScenarioConfig.tiny()
        run_scenario(config, "incentive", seed=3, trace_path=str(path))
        report = replay_trace(str(path))
        assert report.ok, report
