"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tests.helpers import make_message
from repro.core.incentive import (
    IncentiveParams,
    software_incentive,
    tag_incentive,
    total_promise,
)
from repro.core.ledger import TokenLedger
from repro.core.reputation import ReputationBook
from repro.errors import BufferError_, InsufficientTokensError
from repro.messages.message import Priority
from repro.mobility.contact import pairs_in_range
from repro.network.buffer import DropPolicy, MessageBuffer
from repro.routing.chitchat import InterestStore, KeywordIndex
from repro.sim.engine import Engine

PARAMS = IncentiveParams()


# ----------------------------------------------------------------------
# Ledger: token conservation under arbitrary operation sequences
# ----------------------------------------------------------------------
@st.composite
def ledger_operations(draw):
    n_accounts = draw(st.integers(min_value=2, max_value=5))
    endowments = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n_accounts, max_size=n_accounts,
        )
    )
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["transfer", "escrow-capture",
                                 "escrow-release"]),
                st.integers(min_value=0, max_value=n_accounts - 1),
                st.integers(min_value=0, max_value=n_accounts - 1),
                st.floats(min_value=0.0, max_value=500.0,
                          allow_nan=False, allow_infinity=False),
            ),
            max_size=30,
        )
    )
    return endowments, operations


class TestLedgerProperties:
    @given(ledger_operations())
    @settings(max_examples=100, deadline=None)
    def test_total_supply_invariant(self, scenario):
        endowments, operations = scenario
        ledger = TokenLedger()
        for node, amount in enumerate(endowments):
            ledger.open_account(node, amount)
        expected = sum(endowments)
        for kind, payer, payee, amount in operations:
            if payer == payee:
                continue
            try:
                if kind == "transfer":
                    ledger.transfer(payer, payee, amount, time=0.0)
                elif kind == "escrow-capture":
                    hold = ledger.escrow(payer, amount, time=0.0)
                    ledger.capture(hold, payee, time=1.0)
                else:
                    hold = ledger.escrow(payer, amount, time=0.0)
                    ledger.release(hold, time=1.0)
            except InsufficientTokensError:
                pass
            assert ledger.total_supply() == pytest.approx(expected)
            assert all(b >= -1e-9 for b in ledger.balances().values())


# ----------------------------------------------------------------------
# Buffer: occupancy never exceeds capacity; accounting is exact
# ----------------------------------------------------------------------
class TestBufferProperties:
    @given(
        st.integers(min_value=100, max_value=5_000),
        st.lists(st.integers(min_value=1, max_value=2_000),
                 min_size=1, max_size=40),
        st.sampled_from(list(DropPolicy)),
    )
    @settings(max_examples=100, deadline=None)
    def test_occupancy_bounded_and_exact(self, capacity, sizes, policy):
        buffer = MessageBuffer(capacity, policy)
        resident = {}
        for index, size in enumerate(sizes):
            message = make_message(size=size)
            try:
                evicted = buffer.add(message, now=float(index))
            except BufferError_:
                continue
            for victim in evicted:
                del resident[victim.uuid]
            resident[message.uuid] = size
            assert buffer.used <= capacity
            assert buffer.used == sum(resident.values())
            assert len(buffer) == len(resident)


# ----------------------------------------------------------------------
# ChitChat weights: decay/growth keep weights in [0, 1]; decay is
# monotone toward the fixed point
# ----------------------------------------------------------------------
def _seeded(store, weight, direct):
    """A store row holding one keyword ``"kw"`` at ``weight``."""
    table = store.create_table([], created_at=0.0)
    keyword_id = table._slot("kw")
    table._weight[keyword_id] = weight
    table._direct[keyword_id] = direct
    table._present[keyword_id] = True
    table._members_version += 1
    return table


class TestWeightProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.booleans(),
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_decay_bounded_and_contracting(self, weight, direct, dt, beta):
        table = _seeded(InterestStore(KeywordIndex()), weight, direct)
        table.decay(dt, set(), beta=beta, prune_below=0.0)
        new_weight = table.weight("kw")
        assert 0.0 <= new_weight <= 1.0
        fixed_point = 0.5 if direct else 0.0
        assert (
            abs(new_weight - fixed_point) <= abs(weight - fixed_point) + 1e-12
        )

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_growth_bounded_and_monotone(self, mine, peers, elapsed):
        store = InterestStore(KeywordIndex())
        table = _seeded(store, mine, False)
        peer = _seeded(store, peers, True)
        table.grow_from_arrays(*peer.snapshot_arrays(), 1.0, elapsed,
                               growth_scale=0.01, elapsed_cap=600.0)
        new_weight = table.weight("kw")
        assert mine - 1e-12 <= new_weight <= 1.0


# ----------------------------------------------------------------------
# Incentive formulas: promises bounded by I_m, monotone in quality
# ----------------------------------------------------------------------
class TestIncentiveProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(list(Priority)),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_software_incentive_bounded(
        self, sender_role, receiver_role, priority, ratio, size, quality
    ):
        value = software_incentive(
            PARAMS,
            sender_role=sender_role,
            receiver_role=receiver_role,
            priority=priority,
            interest_ratio=ratio,
            size=size,
            max_size=10_000,
            quality=quality,
            max_quality=1.0,
        )
        assert 0.0 <= value <= PARAMS.max_incentive + 1e-9

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_tag_incentive_bounded_and_monotone(self, tags):
        value = tag_incentive(PARAMS, tags)
        assert 0.0 <= value <= PARAMS.tag_cap
        assert tag_incentive(PARAMS, tags + 1) >= value

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_promise_capped(self, software, hardware):
        assert total_promise(PARAMS, software, hardware) <= PARAMS.max_incentive


# ----------------------------------------------------------------------
# Reputation: scores stay on the rating scale
# ----------------------------------------------------------------------
class TestReputationProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["rate", "merge"]),
                st.integers(min_value=1, max_value=4),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_scores_stay_on_scale(self, operations):
        book = ReputationBook(0, PARAMS)
        for kind, subject, value in operations:
            if kind == "rate":
                book.rate_message(subject, value)
            else:
                book.merge_opinion(subject, value)
            assert 0.0 <= book.score(subject) <= PARAMS.max_rating
            assert 0.0 <= book.award_multiplier(subject, []) <= 1.0


# ----------------------------------------------------------------------
# Engine: events always fire in nondecreasing time order
# ----------------------------------------------------------------------
class TestEngineProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1, max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_firing_order_is_chronological(self, times):
        engine = Engine()
        fired = []
        for time in times:
            engine.schedule_at(time, lambda t=time: fired.append(t))
        engine.run()
        assert fired == sorted(times)
        assert len(fired) == len(times)


# ----------------------------------------------------------------------
# Contact detection: grid search equals brute force
# ----------------------------------------------------------------------
class TestContactProperties:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=5.0, max_value=400.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_grid_matches_brute_force(self, seed, count, radius):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, 1000.0, size=(count, 2))
        expected = {
            (i, j)
            for i in range(count)
            for j in range(i + 1, count)
            if float(np.hypot(*(positions[i] - positions[j]))) <= radius
        }
        assert pairs_in_range(positions, radius) == expected


# ----------------------------------------------------------------------
# End-to-end token conservation: a full incentive run never leaks credit
# ----------------------------------------------------------------------
class TestEndToEndTokenConservation:
    """The credit economy is closed: tokens only move, never mint/burn.

    After any incentive run, every token must be accounted for as either
    a live balance or an unsettled escrow hold ("recorded sinks"), and
    the whole must reconcile with the initial endowment — the guard
    against silent leaks in award/escrow/refund plumbing.
    """

    @pytest.mark.parametrize(
        "seed, selfish, malicious",
        [
            (1, 0.0, 0.0),
            (2, 0.3, 0.0),
            (3, 0.0, 0.3),
            (4, 0.2, 0.2),
        ],
    )
    def test_supply_plus_sinks_reconcile_with_endowment(
        self, seed, selfish, malicious
    ):
        from repro.experiments import ScenarioConfig, run_scenario

        config = ScenarioConfig.tiny(
            selfish_fraction=selfish, malicious_fraction=malicious
        )
        result = run_scenario(config, "incentive", seed=seed)
        ledger = result.router.ledger

        # Total supply (balances + escrow) equals the endowment.
        assert ledger.total_supply() == pytest.approx(
            ledger.total_endowment(), abs=1e-6
        )
        # Accounts open lazily (a node that never joins the protocol is
        # never endowed), but every opened account starts with exactly
        # the configured endowment.
        balances = ledger.balances()
        assert 0 < len(balances) <= config.n_nodes
        for node in balances:
            assert ledger.initial_balance(node) == pytest.approx(
                config.incentive.initial_tokens
            )

        # Per-account reconciliation against the transaction log: what
        # an account holds is its endowment plus settled net flow minus
        # whatever it still has locked in escrow.
        net = {node: 0.0 for node in ledger.balances()}
        for txn in ledger.transactions:
            net[txn.payer] -= txn.amount
            net[txn.payee] += txn.amount
        held = {
            node: ledger.initial_balance(node) + net[node]
            - ledger.balance(node)
            for node in net
        }
        for node, amount in held.items():
            assert amount >= -1e-9, f"node {node} holds negative escrow"
        assert sum(held.values()) == pytest.approx(
            ledger.escrowed_total(), abs=1e-6
        )
