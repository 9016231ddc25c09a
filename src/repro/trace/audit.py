"""Replay a run trace into ledgers, time series and a conservation audit.

The auditor is an independent re-implementation of the token-flow
bookkeeping: it reconstructs every account balance and escrow hold from
the trace records alone and checks, **after every token event**, that

    sum(balances) + escrow == sum(endowments)

— the paper's closed-economy invariant, enforced at every timestamp
rather than just at the end of the run.  It also verifies the escrow
lifecycle is linear (every capture/release names an open hold and moves
exactly the held amount), that no balance goes negative, and that the
final replayed state matches the ``run-end`` snapshot the simulation
recorded (balances, total supply, payment count, tokens moved — the
:class:`~repro.metrics.collector.MetricsCollector` totals must be
reproduced *exactly*, which a property test locks in).

Along the way it accumulates the per-node token-flow ledgers and the
reputation time series that ``repro-dtn trace audit`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.trace.schema import iter_trace

__all__ = ["Violation", "NodeFlow", "TraceAudit", "replay_trace"]

#: Incremental float sums may drift from the per-account ledger by a few
#: ulps over hundreds of thousands of events; anything beyond this is a
#: genuine conservation break, not rounding.  Every tolerance test below
#: is written ``not (error <= tolerance)`` so that a NaN fails it.
_CONSERVATION_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One audit failure, anchored to the record that caused it."""

    time: float
    index: int  # 0-based record index in the trace
    message: str

    def __str__(self) -> str:
        return f"record {self.index} (t={self.time:.3f}): {self.message}"


@dataclass
class NodeFlow:
    """Token flows of one account, reconstructed from the trace."""

    node: int
    endowment: float = 0.0
    earned: float = 0.0  # credits from captures / transfers received
    spent: float = 0.0  # debits from captures / transfers paid
    balance: float = 0.0

    @property
    def net(self) -> float:
        """Net tokens gained (negative = net payer)."""
        return self.balance - self.endowment


@dataclass
class TraceAudit:
    """Everything :func:`replay_trace` reconstructs from one trace."""

    records_read: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    header: Dict[str, object] = field(default_factory=dict)
    #: Per-account flows, keyed by node id.
    flows: Dict[int, NodeFlow] = field(default_factory=dict)
    #: ``subject -> [(t, rater, score_after)]`` reputation series.
    reputation: Dict[int, List[Tuple[float, int, float]]] = field(
        default_factory=dict
    )
    endowment: float = 0.0
    final_supply: float = 0.0
    final_escrow: float = 0.0
    #: Protocol payments replayed (escrow captures + direct transfers);
    #: must equal the run's ``MetricsCollector.token_payments`` /
    #: ``tokens_moved`` exactly.
    token_payments: int = 0
    tokens_moved: float = 0.0
    #: Conservation checks performed (one per token-moving record).
    conservation_checks: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the replay produced no violations."""
        return not self.violations

    def to_json(self) -> dict:
        """A JSON-serialisable summary (``trace audit --json``)."""
        return {
            "ok": self.ok,
            "records": self.records_read,
            "counts": dict(sorted(self.counts.items())),
            "endowment": self.endowment,
            "final_supply": self.final_supply,
            "final_escrow": self.final_escrow,
            "token_payments": self.token_payments,
            "tokens_moved": self.tokens_moved,
            "conservation_checks": self.conservation_checks,
            "accounts": {
                str(node): {
                    "endowment": flow.endowment,
                    "earned": flow.earned,
                    "spent": flow.spent,
                    "balance": flow.balance,
                    "net": flow.net,
                }
                for node, flow in sorted(self.flows.items())
            },
            "reputation_subjects": len(self.reputation),
            "rating_events": sum(len(s) for s in self.reputation.values()),
            "violations": [str(v) for v in self.violations],
        }


def replay_trace(
    source: Union[str, Path, Iterable[dict]], *, validate: bool = True
) -> TraceAudit:
    """Replay a trace (path or record iterable) into a :class:`TraceAudit`.

    Schema validation happens per record (unless ``validate=False`` and
    ``source`` is a path, or the caller pre-validated an iterable);
    bookkeeping violations are *collected*, not raised, so one broken
    record does not hide the rest.
    """
    if isinstance(source, (str, Path)):
        records: Iterable[dict] = iter_trace(source, validate=validate)
    else:
        records = source

    audit = TraceAudit()
    balances: Dict[int, float] = {}
    holds: Dict[int, Tuple[int, float]] = {}
    balance_sum = 0.0
    escrow_sum = 0.0
    saw_run_end = False
    last_time = 0.0

    def flow(node: int) -> NodeFlow:
        entry = audit.flows.get(node)
        if entry is None:
            entry = NodeFlow(node=node)
            audit.flows[node] = entry
        return entry

    def fail(index: int, t: float, message: str) -> None:
        audit.violations.append(Violation(time=t, index=index, message=message))

    def check_conservation(index: int, t: float) -> None:
        audit.conservation_checks += 1
        drift = balance_sum + escrow_sum - audit.endowment
        if not abs(drift) <= _CONSERVATION_TOL:
            fail(
                index, t,
                f"conservation broken: balances+escrow drifted "
                f"{drift:+.9f} tokens from the {audit.endowment:.3f} endowment",
            )

    def debit(index: int, t: float, payer: int, amount: float, what: str) -> bool:
        nonlocal balance_sum
        if payer not in balances:
            fail(index, t, f"{what} debits unknown account {payer}")
            return False
        if not balances[payer] >= amount - 1e-9:
            fail(
                index, t,
                f"{what} overdraws account {payer}: "
                f"{balances[payer]:.9f} < {amount:.9f}",
            )
            return False
        balances[payer] -= amount
        balance_sum -= amount
        return True

    def credit(node: int, amount: float) -> None:
        nonlocal balance_sum
        balances[node] = balances.get(node, 0.0) + amount
        balance_sum += amount

    for index, record in enumerate(records):
        kind = record["type"]
        t = float(record["t"])
        last_time = t
        audit.records_read += 1
        audit.counts[kind] = audit.counts.get(kind, 0) + 1

        if kind == "trace-header":
            audit.header = {
                k: v for k, v in record.items() if k not in ("type", "t")
            }

        elif kind == "account-open":
            node, amount = record["node"], float(record["amount"])
            if node in balances:
                fail(index, t, f"account {node} opened twice")
                continue
            balances[node] = amount
            balance_sum += amount
            audit.endowment += amount
            entry = flow(node)
            entry.endowment = amount
            check_conservation(index, t)

        elif kind == "escrow-hold":
            hold = record["hold"]
            payer, amount = record["payer"], float(record["amount"])
            if hold in holds:
                fail(index, t, f"escrow hold {hold} created twice")
                continue
            if debit(index, t, payer, amount, f"escrow hold {hold}"):
                holds[hold] = (payer, amount)
                escrow_sum += amount
            check_conservation(index, t)

        elif kind in ("escrow-capture", "escrow-duplicate", "escrow-release"):
            hold = record["hold"]
            entry = holds.pop(hold, None)
            if entry is None:
                fail(
                    index, t,
                    f"{kind} names hold {hold}, which does not exist "
                    f"(double-settled or never created)",
                )
                continue
            held_payer, held_amount = entry
            payer = record["payer"]
            amount = float(record["amount"])
            if payer != held_payer or not abs(amount - held_amount) <= 1e-9:
                fail(
                    index, t,
                    f"{kind} on hold {hold} claims payer={payer} "
                    f"amount={amount:.9f}, but the hold was payer="
                    f"{held_payer} amount={held_amount:.9f}",
                )
                # Replay with the hold's own values to limit cascading.
                payer, amount = held_payer, held_amount
            escrow_sum -= held_amount
            if kind == "escrow-capture":
                payee = record["payee"]
                credit(payee, held_amount)
                audit.token_payments += 1
                audit.tokens_moved += amount
                flow(payee).earned += amount
                flow(payer).spent += amount
            else:
                # Duplicate-settlement refund, abort/expiry/finalize
                # release: the tokens go back to the payer.
                credit(payer, held_amount)
            check_conservation(index, t)

        elif kind == "transfer-payment":
            payer, payee = record["payer"], record["payee"]
            amount = float(record["amount"])
            if debit(index, t, payer, amount, "transfer"):
                credit(payee, amount)
                audit.token_payments += 1
                audit.tokens_moved += amount
                flow(payee).earned += amount
                flow(payer).spent += amount
            check_conservation(index, t)

        elif kind == "rating":
            subject = record["subject"]
            series = audit.reputation.setdefault(subject, [])
            series.append((t, record["rater"], float(record.get("score", 0.0))))

        elif kind == "run-end":
            saw_run_end = True
            if holds:
                fail(
                    index, t,
                    f"{len(holds)} escrow hold(s) still open at run-end "
                    f"({escrow_sum:.9f} tokens stranded): "
                    f"{sorted(holds)[:5]}...",
                )
            recorded = record.get("balances")
            if recorded is not None:
                for key, value in recorded.items():
                    node = int(key)
                    replayed = balances.get(node)
                    if replayed is None:
                        fail(index, t, f"run-end lists unknown account {node}")
                    elif not abs(replayed - float(value)) <= 1e-9:
                        fail(
                            index, t,
                            f"account {node}: replayed balance "
                            f"{replayed:.9f} != recorded {float(value):.9f}",
                        )
                missing = set(balances) - {int(k) for k in recorded}
                if missing:
                    fail(
                        index, t,
                        f"replay opened accounts absent from the run-end "
                        f"snapshot: {sorted(missing)[:5]}",
                    )
            if "token_payments" in record and (
                int(record["token_payments"]) != audit.token_payments
            ):
                fail(
                    index, t,
                    f"replayed {audit.token_payments} payments, run "
                    f"recorded {record['token_payments']}",
                )
            if "tokens_moved" in record and (
                float(record["tokens_moved"]) != audit.tokens_moved
            ):
                fail(
                    index, t,
                    f"replayed tokens_moved={audit.tokens_moved!r}, run "
                    f"recorded {record['tokens_moved']!r}",
                )
            if "supply" in record and not abs(
                float(record["supply"]) - (balance_sum + escrow_sum)
            ) <= _CONSERVATION_TOL:
                fail(
                    index, t,
                    f"replayed supply {balance_sum + escrow_sum:.9f} != "
                    f"recorded {float(record['supply']):.9f}",
                )
            check_conservation(index, t)

        # Remaining record types (contacts, transfers, offers, gossip,
        # enrichment, deliveries, faults, engine-run) carry no tokens;
        # they are counted above and surfaced by the CLI report.

    if audit.records_read == 0:
        audit.violations.append(
            Violation(time=0.0, index=0, message="trace contains no records")
        )
    elif not saw_run_end and any(
        k in audit.counts for k in ("account-open", "escrow-hold")
    ):
        fail_index = audit.records_read - 1
        audit.violations.append(Violation(
            time=last_time, index=fail_index,
            message="trace moves tokens but has no run-end snapshot "
                    "(truncated or crashed run)",
        ))

    for node, balance in balances.items():
        flow(node).balance = balance
    audit.final_supply = balance_sum + escrow_sum
    audit.final_escrow = escrow_sum
    return audit
