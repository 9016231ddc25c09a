"""Unit tests for the token ledger."""

import math

import pytest

from repro.core.ledger import TokenLedger
from repro.errors import (
    ConfigurationError,
    InsufficientTokensError,
    LedgerError,
    UnknownAccountError,
)


@pytest.fixture
def ledger():
    book = TokenLedger()
    book.open_account(1, 100.0)
    book.open_account(2, 100.0)
    return book


class TestAccounts:
    def test_open_and_balance(self, ledger):
        assert ledger.balance(1) == 100.0
        assert ledger.initial_balance(1) == 100.0
        assert ledger.has_account(1)
        assert not ledger.has_account(3)

    def test_duplicate_account_rejected(self, ledger):
        with pytest.raises(ConfigurationError):
            ledger.open_account(1, 50.0)

    def test_negative_endowment_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenLedger().open_account(1, -1.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf, "5"])
    def test_non_finite_endowment_rejected(self, amount):
        book = TokenLedger()
        with pytest.raises(
            ConfigurationError, match="^account 1: initial tokens"
        ):
            book.open_account(1, amount)
        assert not book.has_account(1)

    def test_unknown_account_raises(self, ledger):
        with pytest.raises(UnknownAccountError):
            ledger.balance(99)
        with pytest.raises(UnknownAccountError):
            ledger.initial_balance(99)

    def test_can_pay(self, ledger):
        assert ledger.can_pay(1, 100.0)
        assert not ledger.can_pay(1, 100.01)


class TestTransfers:
    def test_transfer_moves_tokens(self, ledger):
        transaction = ledger.transfer(1, 2, 30.0, time=5.0, reason="award")
        assert ledger.balance(1) == 70.0
        assert ledger.balance(2) == 130.0
        assert transaction.amount == 30.0
        assert transaction.reason == "award"
        assert transaction.time == 5.0

    def test_insufficient_tokens_raise_and_leave_state_intact(self, ledger):
        with pytest.raises(InsufficientTokensError):
            ledger.transfer(1, 2, 150.0, time=0.0)
        assert ledger.balance(1) == 100.0
        assert ledger.balance(2) == 100.0
        assert ledger.transactions == ()

    def test_negative_amount_rejected(self, ledger):
        with pytest.raises(ConfigurationError):
            ledger.transfer(1, 2, -1.0, time=0.0)

    @pytest.mark.parametrize("amount", [math.nan, math.inf])
    def test_non_finite_amount_rejected(self, ledger, amount):
        with pytest.raises(ConfigurationError, match="amount"):
            ledger.transfer(1, 2, amount, time=0.0)
        with pytest.raises(ConfigurationError, match="amount"):
            ledger.escrow(1, amount, time=0.0)
        assert ledger.balance(1) == ledger.balance(2) == 100.0
        assert ledger.escrowed_total() == 0.0

    def test_self_transfer_rejected(self, ledger):
        with pytest.raises(ConfigurationError):
            ledger.transfer(1, 1, 1.0, time=0.0)

    def test_unknown_payee_rejected(self, ledger):
        with pytest.raises(UnknownAccountError):
            ledger.transfer(1, 99, 1.0, time=0.0)

    def test_zero_transfer_recorded(self, ledger):
        ledger.transfer(1, 2, 0.0, time=0.0, reason="zero-promise")
        assert len(ledger.transactions) == 1

    def test_total_supply_is_conserved(self, ledger):
        ledger.transfer(1, 2, 25.0, time=0.0)
        ledger.transfer(2, 1, 70.0, time=1.0)
        assert ledger.total_supply() == ledger.total_endowment() == 200.0

    def test_earnings(self, ledger):
        ledger.transfer(1, 2, 25.0, time=0.0)
        assert ledger.earnings(1) == -25.0
        assert ledger.earnings(2) == 25.0

    def test_volume_by_reason(self, ledger):
        ledger.transfer(1, 2, 10.0, time=0.0, reason="award")
        ledger.transfer(1, 2, 5.0, time=1.0, reason="award")
        ledger.transfer(2, 1, 3.0, time=2.0, reason="prepay")
        assert ledger.volume_by_reason() == {"award": 15.0, "prepay": 3.0}


class TestEscrow:
    def test_escrow_debits_payer_immediately(self, ledger):
        ledger.escrow(1, 40.0, time=0.0, reason="award")
        assert ledger.balance(1) == 60.0
        assert ledger.escrowed_total() == 40.0
        assert ledger.total_supply() == 200.0

    def test_capture_pays_the_payee(self, ledger):
        hold = ledger.escrow(1, 40.0, time=0.0, reason="award")
        transaction = ledger.capture(hold, 2, time=1.0)
        assert ledger.balance(2) == 140.0
        assert ledger.escrowed_total() == 0.0
        assert transaction.payer == 1
        assert transaction.payee == 2
        assert transaction.reason == "award"

    def test_release_refunds_the_payer(self, ledger):
        hold = ledger.escrow(1, 40.0, time=0.0)
        ledger.release(hold, time=1.0)
        assert ledger.balance(1) == 100.0
        assert ledger.escrowed_total() == 0.0
        # A released hold produces no transaction record.
        assert ledger.transactions == ()

    def test_escrow_insufficient_tokens(self, ledger):
        with pytest.raises(InsufficientTokensError):
            ledger.escrow(1, 150.0, time=0.0)

    def test_double_settle_rejected(self, ledger):
        hold = ledger.escrow(1, 10.0, time=0.0)
        ledger.capture(hold, 2, time=1.0)
        with pytest.raises(LedgerError):
            ledger.capture(hold, 2, time=2.0)
        with pytest.raises(LedgerError):
            ledger.release(hold, time=2.0)

    def test_escrowed_tokens_cannot_be_spent(self, ledger):
        ledger.escrow(1, 90.0, time=0.0)
        with pytest.raises(InsufficientTokensError):
            ledger.transfer(1, 2, 20.0, time=0.0)

    def test_conservation_across_mixed_operations(self, ledger):
        hold_a = ledger.escrow(1, 30.0, time=0.0)
        hold_b = ledger.escrow(2, 20.0, time=0.0)
        ledger.capture(hold_a, 2, time=1.0)
        ledger.release(hold_b, time=1.0)
        ledger.transfer(2, 1, 5.0, time=2.0)
        assert ledger.total_supply() == pytest.approx(200.0)


class TestSettlementKeys:
    """Idempotent settlement: a key can pay out at most once."""

    def test_transfer_records_key(self, ledger):
        transaction = ledger.transfer(
            1, 2, 10.0, time=0.0, settlement_key="award:m1:2"
        )
        assert transaction.settlement_key == "award:m1:2"
        assert ledger.was_settled("award:m1:2")
        assert "award:m1:2" in ledger.settled_keys

    def test_duplicate_transfer_is_noop(self, ledger):
        ledger.transfer(1, 2, 10.0, time=0.0, settlement_key="k")
        duplicate = ledger.transfer(1, 2, 10.0, time=1.0,
                                    settlement_key="k")
        assert duplicate is None
        assert ledger.balance(1) == 90.0
        assert ledger.balance(2) == 110.0
        assert ledger.duplicate_settlements == 1
        assert len(ledger.transactions) == 1

    def test_capture_records_key(self, ledger):
        hold = ledger.escrow(1, 10.0, time=0.0)
        transaction = ledger.capture(hold, 2, time=1.0,
                                     settlement_key="prepay:m1:2")
        assert transaction.settlement_key == "prepay:m1:2"
        assert ledger.was_settled("prepay:m1:2")

    def test_duplicate_capture_refunds_payer(self, ledger):
        first = ledger.escrow(1, 10.0, time=0.0)
        ledger.capture(first, 2, time=1.0, settlement_key="k")
        # A retried delivery escrows again for the same settlement: the
        # duplicate capture must refund the payer, not pay the payee.
        second = ledger.escrow(1, 10.0, time=2.0)
        duplicate = ledger.capture(second, 2, time=3.0,
                                   settlement_key="k")
        assert duplicate is None
        assert ledger.balance(1) == 90.0
        assert ledger.balance(2) == 110.0
        assert ledger.escrowed_total() == 0.0
        assert ledger.duplicate_settlements == 1
        assert ledger.total_supply() == pytest.approx(200.0)

    def test_unkeyed_operations_unaffected(self, ledger):
        ledger.transfer(1, 2, 5.0, time=0.0)
        ledger.transfer(1, 2, 5.0, time=1.0)
        assert ledger.balance(2) == 110.0
        assert ledger.duplicate_settlements == 0

    def test_duplicate_checked_after_validation(self, ledger):
        ledger.transfer(1, 2, 5.0, time=0.0, settlement_key="k")
        with pytest.raises(UnknownAccountError):
            ledger.transfer(1, 99, 5.0, time=1.0, settlement_key="k")


class TestEscrowExpiry:
    def test_expired_hold_released(self, ledger):
        ledger.escrow(1, 25.0, time=0.0, expires_at=10.0)
        assert ledger.expire_holds(9.9) == 0.0
        assert ledger.expire_holds(10.0) == 25.0
        assert ledger.balance(1) == 100.0
        assert ledger.escrowed_total() == 0.0

    def test_unexpiring_holds_survive(self, ledger):
        ledger.escrow(1, 25.0, time=0.0)  # no expires_at
        assert ledger.expire_holds(1e9) == 0.0
        assert ledger.escrowed_total() == 25.0

    def test_expired_hold_cannot_be_captured(self, ledger):
        hold = ledger.escrow(1, 25.0, time=0.0, expires_at=10.0)
        ledger.expire_holds(10.0)
        with pytest.raises(LedgerError):
            ledger.capture(hold, 2, time=11.0)

    def test_hold_exists_tracks_the_lifecycle(self, ledger):
        hold = ledger.escrow(1, 25.0, time=0.0, expires_at=10.0)
        assert ledger.hold_exists(hold)
        ledger.expire_holds(10.0)
        assert not ledger.hold_exists(hold)

    def test_releasing_an_expired_hold_raises(self, ledger):
        # The abort path must guard with hold_exists(); a blind release
        # of a reclaimed hold is a bookkeeping bug and raises.
        hold = ledger.escrow(1, 25.0, time=0.0, expires_at=10.0)
        ledger.expire_holds(10.0)
        with pytest.raises(LedgerError):
            ledger.release(hold, time=11.0)
        assert ledger.balance(1) == 100.0  # refunded exactly once

    def test_release_all_drains_everything(self, ledger):
        ledger.escrow(1, 10.0, time=0.0)
        ledger.escrow(2, 20.0, time=0.0, expires_at=1e9)
        assert ledger.release_all(time=100.0) == 30.0
        assert ledger.escrowed_total() == 0.0
        assert ledger.balance(1) == 100.0
        assert ledger.balance(2) == 100.0
        assert ledger.release_all(time=101.0) == 0.0


class TestConservationUnderRandomFaultMixes:
    """Property-style: whatever interleaving of payments, retries,
    escrows, expiries, and releases a faulty network produces, the
    supply is conserved and no settlement key pays twice."""

    ACCOUNTS = range(10)

    def _random_workout(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        book = TokenLedger()
        for account in self.ACCOUNTS:
            book.open_account(account, 50.0)
        open_holds = []
        now = 0.0
        for step in range(400):
            now += float(rng.random())
            op = rng.integers(0, 5)
            payer, payee = rng.choice(len(self.ACCOUNTS), 2,
                                      replace=False)
            amount = float(rng.integers(1, 10))
            # Keys repeat deliberately: retried settlements are the norm
            # under faults, and only the first attempt may pay.
            key = f"settle:{int(rng.integers(0, 60))}"
            try:
                if op == 0:
                    book.transfer(int(payer), int(payee), amount,
                                  time=now, settlement_key=key)
                elif op == 1:
                    expires = (now + float(rng.integers(1, 5))
                               if rng.random() < 0.5 else None)
                    open_holds.append(
                        (book.escrow(int(payer), amount, time=now,
                                     expires_at=expires), int(payee), key)
                    )
                elif op == 2 and open_holds:
                    hold, holder, hold_key = open_holds.pop()
                    book.capture(hold, holder, time=now,
                                 settlement_key=hold_key)
                elif op == 3 and open_holds:
                    hold, _, _ = open_holds.pop()
                    book.release(hold, time=now)
                elif op == 4:
                    book.expire_holds(now)
            except InsufficientTokensError:
                pass
            except LedgerError:
                pass  # hold already expired out from under us
        book.release_all(time=now + 1.0)
        return book

    @pytest.mark.parametrize("seed", range(8))
    def test_invariants_hold(self, seed):
        book = self._random_workout(seed)
        assert book.total_supply() == pytest.approx(
            book.total_endowment(), abs=1e-9
        )
        assert book.escrowed_total() == 0.0
        assert all(b >= 0 for b in book.balances().values())
        keyed = [t.settlement_key for t in book.transactions
                 if t.settlement_key is not None]
        assert len(keyed) == len(set(keyed))

    def test_duplicates_actually_blocked(self):
        # The property is vacuous if no duplicate was ever attempted.
        total_blocked = sum(
            self._random_workout(seed).duplicate_settlements
            for seed in range(8)
        )
        assert total_blocked > 0
