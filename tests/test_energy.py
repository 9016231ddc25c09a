"""Unit tests for the Friis energy model."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.network.energy import SPEED_OF_LIGHT, EnergyModel
from repro.network.world_state import WorldState


class TestFriis:
    def test_wavelength_from_frequency(self):
        model = EnergyModel(frequency_hz=2.4e9)
        assert model.wavelength == pytest.approx(SPEED_OF_LIGHT / 2.4e9)

    def test_path_loss_formula(self):
        model = EnergyModel(frequency_hz=2.4e9)
        distance = 100.0
        expected = (4 * math.pi * distance / model.wavelength) ** 2
        assert model.path_loss(distance) == pytest.approx(expected)

    def test_path_loss_grows_quadratically(self):
        model = EnergyModel()
        assert model.path_loss(200.0) == pytest.approx(
            4.0 * model.path_loss(100.0)
        )

    def test_received_power_is_pt_over_loss(self):
        model = EnergyModel(transmit_power=0.2)
        distance = 50.0
        assert model.received_power(distance) == pytest.approx(
            0.2 / model.path_loss(distance)
        )

    def test_near_field_clamped_to_reference_distance(self):
        model = EnergyModel(reference_distance=1.0)
        assert model.path_loss(0.0) == model.path_loss(1.0)
        assert model.received_power(0.5) == model.received_power(1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel().path_loss(-1.0)


class TestEnergyAccounting:
    def test_transmit_energy(self):
        model = EnergyModel(transmit_power=0.1)
        assert model.transmit_energy(4.0) == pytest.approx(0.4)

    def test_receive_energy_scales_with_distance(self):
        model = EnergyModel()
        near = model.receive_energy(4.0, 10.0)
        far = model.receive_energy(4.0, 100.0)
        assert near > far > 0.0

    def test_charge_accumulates_per_node(self):
        model = EnergyModel()
        model.attach(WorldState(4))
        model.charge(1, 0.5)
        model.charge(1, 0.25)
        model.charge(2, 1.0)
        assert model.consumed(1) == pytest.approx(0.75)
        assert model.consumed(2) == pytest.approx(1.0)
        assert model.consumed(3) == 0.0
        assert model.total_consumed() == pytest.approx(1.75)

    def test_negative_charge_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel().charge(1, -0.1)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(transmit_power=0.0)
        with pytest.raises(ConfigurationError):
            EnergyModel(frequency_hz=0.0)
        with pytest.raises(ConfigurationError):
            EnergyModel(reference_distance=0.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel().transmit_energy(-1.0)
        with pytest.raises(ConfigurationError):
            EnergyModel().receive_energy(-1.0, 10.0)
