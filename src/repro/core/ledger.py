"""The incentive token ledger.

Every node is assigned the same initial token endowment (Table 5.1: 200
tokens).  Tokens only ever move between accounts — nothing mints or
burns them mid-run — so the total supply is invariant, which a property
test enforces.  A node that cannot pay is simply refused: that refusal
is the paper's congestion-control lever ("a device with no incentive to
offer cannot act as a destination").

Under fault injection (lossy links, node churn) the same logical
settlement can be attempted more than once — a retransmitted delivery,
or a crashed node re-receiving a copy whose receipt it already paid
for.  *Settlement keys* make those paths idempotent: a transfer or
escrow capture tagged with a key settles at most once; a duplicate
attempt moves no tokens (a duplicate capture refunds its escrow to the
payer) and is counted in :attr:`TokenLedger.duplicate_settlements`,
which robustness sweeps assert stays at the number of *blocked*
duplicates while actual double-payments stay at zero.  Escrow holds may
also carry an expiry time so tokens promised to a transfer that never
resolves (a crashed holder, a hung exchange) are reclaimable via
:meth:`TokenLedger.expire_holds` instead of stranding forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import (
    ConfigurationError,
    InsufficientTokensError,
    LedgerError,
    UnknownAccountError,
)
from repro.trace.recorder import NULL_RECORDER

__all__ = ["Transaction", "TokenLedger"]


@dataclass(frozen=True)
class Transaction:
    """One settled token transfer.

    Attributes:
        time: Simulation time of settlement.
        payer: Paying node id.
        payee: Receiving node id.
        amount: Tokens moved (> 0).
        reason: Audit tag, e.g. ``"delivery-award"`` or ``"relay-prepay"``.
        settlement_key: Optional idempotence key this settlement was
            recorded under (``None`` for unkeyed transfers).
    """

    time: float
    payer: int
    payee: int
    amount: float
    reason: str
    settlement_key: Optional[str] = None


class TokenLedger:
    """Append-only token accounting for all nodes.

    Example:
        >>> ledger = TokenLedger()
        >>> ledger.open_account(1, 200.0)
        >>> ledger.open_account(2, 200.0)
        >>> _ = ledger.transfer(1, 2, 50.0, time=0.0, reason="award")
        >>> ledger.balance(1), ledger.balance(2)
        (150.0, 250.0)
    """

    def __init__(self) -> None:
        self._balances: Dict[int, float] = {}
        self._initial: Dict[int, float] = {}
        self._transactions: List[Transaction] = []
        self._holds: Dict[int, Tuple[int, float, str]] = {}
        self._hold_expiries: Dict[int, float] = {}
        self._next_hold = 1
        self._settled: Set[str] = set()
        #: Settlement attempts blocked by an already-settled key.
        self.duplicate_settlements = 0
        #: Event-trace sink; the world wires a real recorder in when
        #: tracing is enabled (see :meth:`IncentiveChitChatRouter.bind`).
        self.trace = NULL_RECORDER

    # ------------------------------------------------------------------
    # Accounts
    # ------------------------------------------------------------------
    def open_account(
        self, node_id: int, initial_tokens: float, *, time: float = 0.0
    ) -> None:
        """Create an account holding ``initial_tokens``.

        Args:
            time: Simulation time of the opening (trace timestamp only;
                accounts opened lazily mid-run record when they joined
                the economy).

        Raises:
            ConfigurationError: If the account exists or the endowment is
                not a number, negative or not finite.
        """
        if node_id in self._balances:
            raise ConfigurationError(f"account {node_id} already exists")
        if not (
            isinstance(initial_tokens, Real)
            and 0.0 <= initial_tokens < math.inf
        ):
            raise ConfigurationError(
                f"account {node_id}: initial tokens must be a finite "
                f"number >= 0, got {initial_tokens!r}"
            )
        self._balances[node_id] = float(initial_tokens)
        self._initial[node_id] = float(initial_tokens)
        if self.trace.enabled:
            self.trace.emit({
                "type": "account-open", "t": float(time),
                "node": node_id, "amount": float(initial_tokens),
            })

    def has_account(self, node_id: int) -> bool:
        """Whether an account exists for ``node_id``."""
        return node_id in self._balances

    def balance(self, node_id: int) -> float:
        """Current balance of ``node_id``.

        Raises:
            UnknownAccountError: If no such account exists.
        """
        try:
            return self._balances[node_id]
        except KeyError:
            raise UnknownAccountError(f"no account for node {node_id}") from None

    def initial_balance(self, node_id: int) -> float:
        """The endowment ``node_id`` started with."""
        try:
            return self._initial[node_id]
        except KeyError:
            raise UnknownAccountError(f"no account for node {node_id}") from None

    def can_pay(self, node_id: int, amount: float) -> bool:
        """Whether ``node_id`` holds at least ``amount`` tokens."""
        return self.balance(node_id) >= amount

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def was_settled(self, settlement_key: str) -> bool:
        """Whether ``settlement_key`` has already settled."""
        return settlement_key in self._settled

    @property
    def settled_keys(self) -> Tuple[str, ...]:
        """All settlement keys recorded so far (unordered snapshot)."""
        return tuple(self._settled)

    def transfer(
        self,
        payer: int,
        payee: int,
        amount: float,
        *,
        time: float,
        reason: str = "",
        settlement_key: Optional[str] = None,
    ) -> Optional[Transaction]:
        """Move ``amount`` tokens from ``payer`` to ``payee``.

        Zero-amount transfers are recorded (they document a settled
        promise of zero); negative amounts are rejected.  When
        ``settlement_key`` is given and was already settled, the
        transfer is an idempotent no-op: no tokens move, ``None`` is
        returned, and :attr:`duplicate_settlements` is incremented.

        Raises:
            InsufficientTokensError: If the payer cannot cover ``amount``.
            ConfigurationError: For negative or non-finite amounts, or
                payer == payee.
            UnknownAccountError: If either account is missing.
        """
        if not 0.0 <= amount < math.inf:
            raise ConfigurationError(
                f"amount must be finite and >= 0, got {amount!r}"
            )
        if payer == payee:
            raise ConfigurationError(
                f"payer and payee must differ, both were {payer}"
            )
        payer_balance = self.balance(payer)
        self.balance(payee)  # validate the payee account exists
        if settlement_key is not None and settlement_key in self._settled:
            self.duplicate_settlements += 1
            if self.trace.enabled:
                self.trace.emit({
                    "type": "transfer-duplicate", "t": float(time),
                    "payer": payer, "payee": payee,
                    "amount": float(amount), "key": settlement_key,
                })
            return None
        if payer_balance < amount:
            raise InsufficientTokensError(str(payer), amount, payer_balance)
        self._balances[payer] = payer_balance - amount
        self._balances[payee] += amount
        if settlement_key is not None:
            self._settled.add(settlement_key)
        transaction = Transaction(
            time=float(time), payer=payer, payee=payee,
            amount=float(amount), reason=reason,
            settlement_key=settlement_key,
        )
        self._transactions.append(transaction)
        if self.trace.enabled:
            record = {
                "type": "transfer-payment", "t": float(time),
                "payer": payer, "payee": payee,
                "amount": float(amount), "reason": reason,
            }
            if settlement_key is not None:
                record["key"] = settlement_key
            self.trace.emit(record)
        return transaction

    # ------------------------------------------------------------------
    # Escrow
    # ------------------------------------------------------------------
    def escrow(
        self,
        payer: int,
        amount: float,
        *,
        time: float,
        reason: str = "",
        expires_at: Optional[float] = None,
    ) -> int:
        """Debit ``payer`` and hold the tokens in escrow.

        The incentive protocol settles payments *before* a transfer;
        escrow keeps the tokens out of circulation until the transfer
        either completes (:meth:`capture`) or aborts (:meth:`release`),
        so a refund can never fail because the payee already spent it.

        Args:
            expires_at: Optional absolute time after which
                :meth:`expire_holds` may reclaim the hold for the
                payer — the safety valve against escrow stranded by a
                holder that died mid-exchange.

        Returns:
            A hold id for :meth:`capture` / :meth:`release`.

        Raises:
            InsufficientTokensError: If the payer cannot cover ``amount``.
            ConfigurationError: For negative or non-finite amounts.
        """
        if not 0.0 <= amount < math.inf:
            raise ConfigurationError(
                f"amount must be finite and >= 0, got {amount!r}"
            )
        balance = self.balance(payer)
        if balance < amount:
            raise InsufficientTokensError(str(payer), amount, balance)
        self._balances[payer] = balance - amount
        hold_id = self._next_hold
        self._next_hold += 1
        self._holds[hold_id] = (payer, float(amount), reason)
        if expires_at is not None:
            self._hold_expiries[hold_id] = float(expires_at)
        if self.trace.enabled:
            record = {
                "type": "escrow-hold", "t": float(time),
                "hold": hold_id, "payer": payer,
                "amount": float(amount), "reason": reason,
            }
            if expires_at is not None:
                record["expires_at"] = float(expires_at)
            self.trace.emit(record)
        return hold_id

    def capture(
        self,
        hold_id: int,
        payee: int,
        *,
        time: float,
        settlement_key: Optional[str] = None,
    ) -> Optional[Transaction]:
        """Pay escrowed tokens out to ``payee`` (the transfer landed).

        When ``settlement_key`` is given and was already settled, the
        capture is idempotent: the hold is *refunded to the payer*
        instead of paying the payee twice, ``None`` is returned, and
        :attr:`duplicate_settlements` is incremented.
        """
        payer, amount, reason = self._pop_hold(hold_id)
        self.balance(payee)  # validate the payee account exists
        if settlement_key is not None and settlement_key in self._settled:
            self._balances[payer] += amount
            self.duplicate_settlements += 1
            if self.trace.enabled:
                self.trace.emit({
                    "type": "escrow-duplicate", "t": float(time),
                    "hold": hold_id, "payer": payer, "payee": payee,
                    "amount": amount, "key": settlement_key,
                })
            return None
        self._balances[payee] += amount
        if settlement_key is not None:
            self._settled.add(settlement_key)
        transaction = Transaction(
            time=float(time), payer=payer, payee=payee,
            amount=amount, reason=reason,
            settlement_key=settlement_key,
        )
        self._transactions.append(transaction)
        if self.trace.enabled:
            record = {
                "type": "escrow-capture", "t": float(time),
                "hold": hold_id, "payer": payer, "payee": payee,
                "amount": amount, "reason": reason,
            }
            if settlement_key is not None:
                record["key"] = settlement_key
            self.trace.emit(record)
        return transaction

    def hold_exists(self, hold_id: int) -> bool:
        """Whether ``hold_id`` is still outstanding.

        The abort path checks this before releasing: a hold that
        :meth:`expire_holds` already reclaimed must not be refunded a
        second time, and an explicit check distinguishes that expected
        race from a genuine bookkeeping bug (which should raise).
        """
        return hold_id in self._holds

    def release(
        self, hold_id: int, *, time: float, cause: str = "abort"
    ) -> None:
        """Return escrowed tokens to the payer.

        Args:
            cause: Audit tag for the trace — ``"abort"`` (the transfer
                died), ``"expiry"`` (the hold timed out) or
                ``"finalize"`` (end-of-run drain).
        """
        payer, amount, _reason = self._pop_hold(hold_id)
        self._balances[payer] += amount
        if self.trace.enabled:
            self.trace.emit({
                "type": "escrow-release", "t": float(time),
                "hold": hold_id, "payer": payer,
                "amount": amount, "cause": cause,
            })

    def expire_holds(self, now: float) -> float:
        """Release every hold whose expiry time has passed.

        Returns:
            Total tokens returned to their payers.
        """
        due = sorted(
            hold_id for hold_id, expires_at in self._hold_expiries.items()
            if expires_at <= now and hold_id in self._holds
        )
        reclaimed = 0.0
        for hold_id in due:
            _payer, amount, _reason = self._holds[hold_id]
            self.release(hold_id, time=now, cause="expiry")
            reclaimed += amount
        return reclaimed

    def release_all(self, *, time: float) -> float:
        """Release every outstanding hold (end-of-run escrow drain).

        Returns:
            Total tokens returned to their payers.
        """
        reclaimed = 0.0
        for hold_id in sorted(self._holds):
            _payer, amount, _reason = self._holds[hold_id]
            self.release(hold_id, time=time, cause="finalize")
            reclaimed += amount
        return reclaimed

    def _pop_hold(self, hold_id: int) -> Tuple[int, float, str]:
        self._hold_expiries.pop(hold_id, None)
        try:
            return self._holds.pop(hold_id)
        except KeyError:
            raise LedgerError(
                f"escrow hold {hold_id} does not exist or was already settled"
            ) from None

    def escrowed_total(self) -> float:
        """Tokens currently held in escrow."""
        return sum(amount for _, amount, _ in self._holds.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """All settled transfers in order."""
        return tuple(self._transactions)

    def total_supply(self) -> float:
        """Sum of all balances plus escrow (equals the endowment sum)."""
        return sum(self._balances.values()) + self.escrowed_total()

    def total_endowment(self) -> float:
        """Sum of all initial endowments."""
        return sum(self._initial.values())

    def balances(self) -> Dict[int, float]:
        """A snapshot of every balance."""
        return dict(self._balances)

    def earnings(self, node_id: int) -> float:
        """Net tokens gained (or lost, negative) since the endowment."""
        return self.balance(node_id) - self.initial_balance(node_id)

    def volume_by_reason(self) -> Dict[str, float]:
        """Total tokens moved per audit reason."""
        volume: Dict[str, float] = {}
        for transaction in self._transactions:
            volume[transaction.reason] = (
                volume.get(transaction.reason, 0.0) + transaction.amount
            )
        return volume
