"""Incentive calculation (Paper I Section 3.2, Algorithm 3).

The promise a sender attaches when forwarding combines:

* **Software factors** — message size and quality (data-centric), the
  receiver's interest level ``P_v``, the sender's role ``R_u`` and the
  source-set priority ``P_s`` (user-centric)::

      if P_v == 0 and R_u < R_v and P_s == HIGH:  I_s = I_m
      elif P_v != 0:
          I_s = (1/4 * (S/S_m + Q/Q_m) + 1/2 * (P_v / (R_u * P_s))) * I_m

  (The thesis writes ``P_u`` in the denominator but its symbol table
  only defines ``P_s``; we use ``P_s`` — see DESIGN.md.)

* **Hardware factors** — Friis-equation energy: a source delivering
  directly earns ``c * P_t * t``; a relay earns ``c * (P_t + P_r) * t``
  because it both received and retransmitted the message.

* **Tag incentives** — ``I_t = min(sum_k z * I_m, I_c)`` for the added
  tags a destination actually pays for.

The total promise is capped at the maximum incentive:
``I = min(I_s + I_h, I_m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

from repro.errors import ConfigurationError
from repro.messages.message import Priority

__all__ = [
    "IncentiveParams",
    "software_incentive",
    "hardware_incentive",
    "tag_incentive",
    "total_promise",
]


@dataclass(frozen=True)
class IncentiveParams:
    """All tunables of the incentive mechanism.

    Attributes:
        max_incentive: ``I_m`` — the per-message incentive ceiling.
        hardware_constant: ``c`` — tokens per joule-equivalent in the
            hardware term.
        tag_fraction: ``z`` in (0, 1) — per-tag reward as a fraction of
            ``I_m``.
        tag_cap: ``I_c`` — ceiling on the total added-tag reward.
        relay_threshold: Average tag weight above which a receiving
            relay pre-pays (Table 5.1: 0.8).
        relay_prepay_fraction: Fraction of the promise the receiving
            relay pays up front (DESIGN.md: default 0.2).
        alpha: DRM own-observation weight (must exceed 0.5).
        max_rating: ``r_m`` — the rating scale ceiling (paper: 5).
        default_rating: Rating assumed for nodes never rated yet.
        initial_tokens: Endowment per node (Table 5.1: 200).
    """

    max_incentive: float = 10.0
    hardware_constant: float = 0.5
    tag_fraction: float = 0.1
    tag_cap: float = 3.0
    relay_threshold: float = 0.8
    relay_prepay_fraction: float = 0.2
    alpha: float = 0.7
    max_rating: float = 5.0
    default_rating: float = 3.0
    initial_tokens: float = 200.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not (isinstance(value, Real) and math.isfinite(value)):
                raise ConfigurationError(
                    f"{spec.name} must be finite, got {value!r}"
                )
        if self.max_incentive <= 0:
            raise ConfigurationError("max_incentive must be > 0")
        if self.hardware_constant < 0:
            raise ConfigurationError("hardware_constant must be >= 0")
        if not 0.0 < self.tag_fraction < 1.0:
            raise ConfigurationError("tag_fraction z must satisfy 0 < z < 1")
        if self.tag_cap < 0:
            raise ConfigurationError("tag_cap must be >= 0")
        if not 0.0 <= self.relay_threshold <= 1.0:
            raise ConfigurationError("relay_threshold must be in [0, 1]")
        if not 0.0 <= self.relay_prepay_fraction <= 1.0:
            raise ConfigurationError(
                "relay_prepay_fraction must be in [0, 1]"
            )
        if not 0.5 < self.alpha <= 1.0:
            raise ConfigurationError(
                "alpha must be in (0.5, 1] — the paper requires alpha > 0.5"
            )
        if self.max_rating <= 0:
            raise ConfigurationError("max_rating must be > 0")
        if not 0.0 <= self.default_rating <= self.max_rating:
            raise ConfigurationError(
                "default_rating must be within [0, max_rating]"
            )
        if self.initial_tokens < 0:
            raise ConfigurationError("initial_tokens must be >= 0")


def software_incentive(
    params: IncentiveParams,
    *,
    sender_role: int,
    receiver_role: int,
    priority: Priority,
    interest_ratio: float,
    size: int,
    max_size: int,
    quality: float,
    max_quality: float,
) -> float:
    """``I_s`` from Algorithm 3.

    Args:
        params: Mechanism tunables (supplies ``I_m``).
        sender_role: ``R_u`` — sender's hierarchy rank (1 = top).
        receiver_role: ``R_v`` — receiver's rank.
        priority: ``P_s`` — source-set priority of the message.
        interest_ratio: ``P_v`` — the receiver's interest-weight sum for
            the message over the maximum such sum among the sender's
            currently connected devices, in [0, 1].
        size: ``S`` — message size in bytes.
        max_size: ``S_m`` — largest message size at the sender (>= size).
        quality: ``Q`` — message quality.
        max_quality: ``Q_m`` — highest quality among the sender's
            messages (>= quality, > 0).

    Returns:
        The software-factor promise, in ``[0, I_m]``.
    """
    if sender_role < 1 or receiver_role < 1:
        raise ConfigurationError("roles must be >= 1")
    if not 0.0 <= interest_ratio <= 1.0 + 1e-9:
        raise ConfigurationError(
            f"interest_ratio P_v must be in [0, 1], got {interest_ratio!r}"
        )
    if size <= 0 or max_size < size:
        raise ConfigurationError(
            f"need 0 < size <= max_size, got size={size}, max_size={max_size}"
        )
    if quality < 0 or max_quality <= 0 or quality > max_quality + 1e-9:
        raise ConfigurationError(
            f"need 0 <= quality <= max_quality, got quality={quality!r}, "
            f"max_quality={max_quality!r}"
        )
    if interest_ratio <= 1e-9:
        # The receiver cannot deliver right now; promise the maximum only
        # when a senior user pushes a high-priority message through it.
        # The threshold matches the validator's slop above: a P_v within
        # rounding noise of zero (e.g. 1e-12 from a float division) is
        # "no interest", not an epsilon-sized user term.
        if sender_role < receiver_role and priority is Priority.HIGH:
            return params.max_incentive
        return 0.0
    data_term = 0.25 * (size / max_size + quality / max_quality)
    user_term = 0.5 * (
        min(interest_ratio, 1.0) / (sender_role * int(priority))
    )
    return (data_term + user_term) * params.max_incentive


def hardware_incentive(
    params: IncentiveParams,
    *,
    transmit_power: float,
    received_power: float,
    transfer_time: float,
    is_relay: bool,
) -> float:
    """``I_h`` — the energy compensation term.

    A source delivering its own message is compensated for transmission
    only (``c * P_t * t``); a relay is also compensated for the power it
    spent receiving the message (``c * (P_t + P_r) * t``).
    """
    if transmit_power < 0 or received_power < 0:
        raise ConfigurationError("powers must be >= 0")
    if transfer_time < 0:
        raise ConfigurationError("transfer_time must be >= 0")
    power = transmit_power + (received_power if is_relay else 0.0)
    return params.hardware_constant * power * transfer_time


def tag_incentive(params: IncentiveParams, relevant_tags: int) -> float:
    """``I_t = min(sum_k z * I_m, I_c)`` for ``relevant_tags`` paid tags."""
    if relevant_tags < 0:
        raise ConfigurationError(
            f"relevant_tags must be >= 0, got {relevant_tags}"
        )
    raw = relevant_tags * params.tag_fraction * params.max_incentive
    return min(raw, params.tag_cap)


def total_promise(
    params: IncentiveParams, software: float, hardware: float
) -> float:
    """``I = min(I_s + I_h, I_m)``."""
    if software < 0 or hardware < 0:
        raise ConfigurationError("incentive terms must be >= 0")
    return min(software + hardware, params.max_incentive)
