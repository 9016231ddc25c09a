"""Unit tests for the incentive formulas (Algorithm 3 and friends)."""

import dataclasses
import math

import pytest

from repro.core.incentive import (
    IncentiveParams,
    hardware_incentive,
    software_incentive,
    tag_incentive,
    total_promise,
)
from repro.errors import ConfigurationError
from repro.messages.message import Priority


@pytest.fixture
def params():
    return IncentiveParams(max_incentive=10.0, hardware_constant=0.5,
                           tag_fraction=0.1, tag_cap=3.0)


class TestParams:
    def test_defaults_match_paper(self):
        params = IncentiveParams()
        assert params.relay_threshold == 0.8  # Table 5.1
        assert params.max_rating == 5.0  # experiment D
        assert params.initial_tokens == 200.0  # Table 5.1
        assert params.alpha > 0.5  # Section 3.3 requirement

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_incentive", 0.0),
            ("tag_fraction", 0.0),
            ("tag_fraction", 1.0),
            ("relay_threshold", 1.5),
            ("alpha", 0.5),
            ("alpha", 1.1),
            ("max_rating", 0.0),
            ("default_rating", 6.0),
            ("initial_tokens", -1.0),
            ("hardware_constant", -0.1),
            ("tag_cap", -1.0),
            ("relay_prepay_fraction", 1.5),
        ],
    )
    def test_invalid_params_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            IncentiveParams(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "5"])
    @pytest.mark.parametrize(
        "field", [spec.name for spec in dataclasses.fields(IncentiveParams)]
    )
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            IncentiveParams(**{field: value})


class TestSoftwareIncentive:
    def base_kwargs(self, **overrides):
        kwargs = dict(
            sender_role=1,
            receiver_role=2,
            priority=Priority.MEDIUM,
            interest_ratio=0.5,
            size=500,
            max_size=1_000,
            quality=0.4,
            max_quality=0.8,
        )
        kwargs.update(overrides)
        return kwargs

    def test_first_branch_promises_maximum(self, params):
        # P_v == 0, senior sender, high priority -> I_m.
        value = software_incentive(
            params, **self.base_kwargs(
                interest_ratio=0.0, priority=Priority.HIGH,
                sender_role=1, receiver_role=2,
            )
        )
        assert value == params.max_incentive

    def test_first_branch_requires_high_priority(self, params):
        value = software_incentive(
            params, **self.base_kwargs(
                interest_ratio=0.0, priority=Priority.MEDIUM,
            )
        )
        assert value == 0.0

    def test_first_branch_requires_senior_sender(self, params):
        value = software_incentive(
            params, **self.base_kwargs(
                interest_ratio=0.0, priority=Priority.HIGH,
                sender_role=2, receiver_role=2,
            )
        )
        assert value == 0.0

    def test_else_branch_formula(self, params):
        # I_s = (1/4*(S/S_m + Q/Q_m) + 1/2*(P_v/(R_u*P_s))) * I_m
        value = software_incentive(params, **self.base_kwargs())
        expected = (0.25 * (0.5 + 0.5) + 0.5 * (0.5 / (1 * 2))) * 10.0
        assert value == pytest.approx(expected)

    def test_never_exceeds_maximum(self, params):
        value = software_incentive(
            params, **self.base_kwargs(
                interest_ratio=1.0, size=1_000, quality=0.8,
                priority=Priority.HIGH, sender_role=1,
            )
        )
        assert value <= params.max_incentive

    def test_bigger_message_earns_more(self, params):
        small = software_incentive(params, **self.base_kwargs(size=100))
        large = software_incentive(params, **self.base_kwargs(size=900))
        assert large > small

    def test_higher_quality_earns_more(self, params):
        low = software_incentive(params, **self.base_kwargs(quality=0.1))
        high = software_incentive(params, **self.base_kwargs(quality=0.8))
        assert high > low

    def test_higher_priority_earns_more(self, params):
        low = software_incentive(
            params, **self.base_kwargs(priority=Priority.LOW))
        high = software_incentive(
            params, **self.base_kwargs(priority=Priority.HIGH))
        assert high > low

    def test_senior_sender_earns_more(self, params):
        junior = software_incentive(params, **self.base_kwargs(sender_role=3))
        senior = software_incentive(params, **self.base_kwargs(sender_role=1))
        assert senior > junior

    @pytest.mark.parametrize("ratio", [0.0, 1e-12, 1e-10, 1e-9])
    def test_near_zero_interest_takes_the_zero_branch(self, params, ratio):
        # Regression: P_v values within the validator's rounding slop of
        # zero (e.g. 1e-12 from a float division) must be treated as "no
        # interest" — before the fix only an exact 0.0 was, so a
        # rounding-noise P_v slipped into the formula branch and earned
        # an epsilon-interest receiver a sizeable data-term promise.
        value = software_incentive(
            params, **self.base_kwargs(
                interest_ratio=ratio, priority=Priority.HIGH,
                sender_role=1, receiver_role=2,
            )
        )
        assert value == params.max_incentive
        value = software_incentive(
            params, **self.base_kwargs(
                interest_ratio=ratio, priority=Priority.MEDIUM,
            )
        )
        assert value == 0.0

    def test_just_above_threshold_takes_the_formula_branch(self, params):
        value = software_incentive(
            params, **self.base_kwargs(interest_ratio=2e-9)
        )
        expected = (0.25 * (0.5 + 0.5) + 0.5 * (2e-9 / (1 * 2))) * 10.0
        assert value == pytest.approx(expected)
        assert value > 0.0

    def test_invalid_inputs_rejected(self, params):
        with pytest.raises(ConfigurationError):
            software_incentive(params, **self.base_kwargs(sender_role=0))
        with pytest.raises(ConfigurationError):
            software_incentive(params, **self.base_kwargs(interest_ratio=1.5))
        with pytest.raises(ConfigurationError):
            software_incentive(params, **self.base_kwargs(size=2_000))
        with pytest.raises(ConfigurationError):
            software_incentive(params, **self.base_kwargs(quality=0.9,
                                                          max_quality=0.8))


class TestHardwareIncentive:
    def test_source_paid_for_transmission_only(self, params):
        value = hardware_incentive(
            params, transmit_power=0.1, received_power=0.05,
            transfer_time=4.0, is_relay=False,
        )
        assert value == pytest.approx(0.5 * 0.1 * 4.0)

    def test_relay_paid_for_both_directions(self, params):
        value = hardware_incentive(
            params, transmit_power=0.1, received_power=0.05,
            transfer_time=4.0, is_relay=True,
        )
        assert value == pytest.approx(0.5 * 0.15 * 4.0)

    def test_invalid_inputs_rejected(self, params):
        with pytest.raises(ConfigurationError):
            hardware_incentive(params, transmit_power=-0.1,
                               received_power=0.0, transfer_time=1.0,
                               is_relay=False)
        with pytest.raises(ConfigurationError):
            hardware_incentive(params, transmit_power=0.1,
                               received_power=0.0, transfer_time=-1.0,
                               is_relay=False)


class TestTagIncentive:
    def test_per_tag_value(self, params):
        assert tag_incentive(params, 1) == pytest.approx(1.0)  # z * I_m
        assert tag_incentive(params, 2) == pytest.approx(2.0)

    def test_cap_applies(self, params):
        assert tag_incentive(params, 10) == params.tag_cap

    def test_zero_tags(self, params):
        assert tag_incentive(params, 0) == 0.0

    def test_negative_rejected(self, params):
        with pytest.raises(ConfigurationError):
            tag_incentive(params, -1)


class TestTotalPromise:
    def test_sums_below_cap(self, params):
        assert total_promise(params, 3.0, 2.0) == 5.0

    def test_caps_at_max_incentive(self, params):
        assert total_promise(params, 8.0, 5.0) == params.max_incentive

    def test_negative_terms_rejected(self, params):
        with pytest.raises(ConfigurationError):
            total_promise(params, -1.0, 0.0)
