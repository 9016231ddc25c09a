"""Tests for the trace auditor: unit replays over hand-built records,
plus the property tests that tie the audit back to live simulations."""

import tracemalloc

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faults import FaultConfig
from repro.network.world import World
from repro.trace.audit import replay_trace
from repro.trace.recorder import JsonlTraceRecorder
from repro.trace.schema import SCHEMA_VERSION, iter_trace


def _header(**meta):
    record = {"type": "trace-header", "t": 0.0, "schema": SCHEMA_VERSION}
    record.update(meta)
    return record


def _open(node, amount, t=0.0):
    return {"type": "account-open", "t": t, "node": node, "amount": amount}


class TestReplayUnit:
    def test_clean_escrow_lifecycle(self):
        audit = replay_trace([
            _header(),
            _open(1, 100.0), _open(2, 100.0),
            {"type": "escrow-hold", "t": 1.0, "hold": 7, "payer": 1,
             "amount": 10.0},
            {"type": "escrow-capture", "t": 2.0, "hold": 7, "payer": 1,
             "payee": 2, "amount": 10.0},
            {"type": "run-end", "t": 3.0, "supply": 200.0,
             "endowment": 200.0, "escrow": 0.0, "token_payments": 1,
             "tokens_moved": 10.0,
             "balances": {"1": 90.0, "2": 110.0}},
        ])
        assert audit.ok, audit.violations
        assert audit.token_payments == 1
        assert audit.tokens_moved == 10.0
        assert audit.flows[1].spent == 10.0
        assert audit.flows[2].earned == 10.0
        assert audit.flows[1].net == -10.0
        assert audit.conservation_checks == 5  # 2 opens, hold, capture, end

    def test_release_refunds_the_payer(self):
        audit = replay_trace([
            _header(),
            _open(1, 50.0),
            {"type": "escrow-hold", "t": 1.0, "hold": 1, "payer": 1,
             "amount": 5.0},
            {"type": "escrow-release", "t": 2.0, "hold": 1, "payer": 1,
             "amount": 5.0, "cause": "expiry"},
            {"type": "run-end", "t": 3.0, "supply": 50.0,
             "token_payments": 0, "tokens_moved": 0.0,
             "balances": {"1": 50.0}},
        ])
        assert audit.ok, audit.violations
        assert audit.token_payments == 0
        assert audit.flows[1].balance == 50.0

    def test_double_settle_is_a_violation(self):
        audit = replay_trace([
            _header(),
            _open(1, 50.0), _open(2, 0.0),
            {"type": "escrow-hold", "t": 1.0, "hold": 1, "payer": 1,
             "amount": 5.0},
            {"type": "escrow-capture", "t": 2.0, "hold": 1, "payer": 1,
             "payee": 2, "amount": 5.0},
            {"type": "escrow-release", "t": 3.0, "hold": 1, "payer": 1,
             "amount": 5.0, "cause": "abort"},
        ])
        assert not audit.ok
        assert any("double-settled" in str(v) for v in audit.violations)

    def test_overdraw_is_a_violation(self):
        audit = replay_trace([
            _header(),
            _open(1, 3.0),
            {"type": "escrow-hold", "t": 1.0, "hold": 1, "payer": 1,
             "amount": 10.0},
        ])
        assert any("overdraws" in str(v) for v in audit.violations)

    def test_conservation_break_is_detected(self):
        # A transfer credits the payee without any matching debit? The
        # auditor cannot see one directly, so fake it with a run-end
        # supply claim that disagrees with the replay.
        audit = replay_trace([
            _header(),
            _open(1, 10.0),
            {"type": "run-end", "t": 1.0, "supply": 12.0,
             "balances": {"1": 10.0}},
        ])
        assert any("replayed supply" in str(v) for v in audit.violations)

    def test_open_hold_at_run_end_is_a_violation(self):
        audit = replay_trace([
            _header(),
            _open(1, 10.0),
            {"type": "escrow-hold", "t": 1.0, "hold": 1, "payer": 1,
             "amount": 2.0},
            {"type": "run-end", "t": 2.0},
        ])
        assert any("still open" in str(v) for v in audit.violations)

    def test_payment_count_mismatch_is_a_violation(self):
        audit = replay_trace([
            _header(),
            _open(1, 10.0), _open(2, 0.0),
            {"type": "transfer-payment", "t": 1.0, "payer": 1, "payee": 2,
             "amount": 1.0},
            {"type": "run-end", "t": 2.0, "token_payments": 2,
             "tokens_moved": 1.0},
        ])
        assert any("payments" in str(v) for v in audit.violations)

    def test_balance_snapshot_mismatch_is_a_violation(self):
        audit = replay_trace([
            _header(),
            _open(1, 10.0),
            {"type": "run-end", "t": 1.0, "balances": {"1": 9.0}},
        ])
        assert any("replayed balance" in str(v) for v in audit.violations)

    def test_nan_economy_fails_the_audit(self):
        # NaN compares false to everything; every tolerance test must
        # still fail on it.
        nan = float("nan")
        audit = replay_trace([
            _header(),
            _open(1, nan), _open(2, 10.0),
            {"type": "run-end", "t": 1.0, "supply": nan,
             "balances": {"1": nan, "2": 10.0}},
        ])
        assert not audit.ok
        messages = [str(v) for v in audit.violations]
        assert any("conservation broken" in m for m in messages)
        assert any("replayed supply" in m for m in messages)
        assert any("account 1: replayed balance" in m for m in messages)

    def test_nan_amounts_fail_the_audit(self):
        nan = float("nan")
        audit = replay_trace([
            _header(),
            _open(1, 10.0), _open(2, 10.0),
            {"type": "transfer-payment", "t": 1.0, "payer": 1, "payee": 2,
             "amount": nan},
            {"type": "escrow-hold", "t": 2.0, "hold": 1, "payer": 1,
             "amount": 1.0},
            {"type": "escrow-capture", "t": 3.0, "hold": 1, "payer": 1,
             "payee": 2, "amount": nan},
            {"type": "run-end", "t": 4.0, "supply": 20.0,
             "balances": {"1": 9.0, "2": 11.0}},
        ])
        messages = [str(v) for v in audit.violations]
        assert any("transfer overdraws account 1" in m for m in messages)
        assert any("escrow-capture on hold 1 claims" in m for m in messages)

    def test_double_open_is_a_violation(self):
        audit = replay_trace([_header(), _open(1, 5.0), _open(1, 5.0)])
        assert any("opened twice" in str(v) for v in audit.violations)

    def test_missing_run_end_flags_truncated_trace(self):
        audit = replay_trace([_header(), _open(1, 5.0)])
        assert any("no run-end" in str(v) for v in audit.violations)

    def test_tokenless_trace_needs_no_run_end(self):
        audit = replay_trace([
            _header(),
            {"type": "contact-up", "t": 1.0, "a": 1, "b": 2},
            {"type": "contact-down", "t": 5.0, "a": 1, "b": 2},
        ])
        assert audit.ok, audit.violations
        assert audit.counts["contact-up"] == 1

    def test_rating_series_accumulates(self):
        audit = replay_trace([
            _header(),
            {"type": "rating", "t": 1.0, "rater": 1, "subject": 2,
             "rating": 4.0, "score": 4.0},
            {"type": "rating", "t": 2.0, "rater": 3, "subject": 2,
             "rating": 2.0, "score": 3.0},
        ])
        assert audit.reputation[2] == [(1.0, 1, 4.0), (2.0, 3, 3.0)]

    def test_to_json_shape(self):
        payload = replay_trace([_header(), _open(1, 5.0),
                                {"type": "run-end", "t": 1.0}]).to_json()
        assert payload["ok"] is True
        assert payload["endowment"] == 5.0
        assert payload["accounts"]["1"]["balance"] == 5.0


def _traced_run(tmp_path, scheme, seed, *, faults=None, name="run"):
    config = ScenarioConfig.tiny(
        faults=faults,
        max_retransmissions=1 if faults is not None else 0,
    )
    path = tmp_path / f"{name}.jsonl"
    result = run_scenario(config, scheme, seed=seed, trace_path=str(path))
    return result, path


class TestReplayMemory:
    def test_replay_streams_the_file(self, tmp_path):
        # 10k-node traces run to hundreds of MB; replay must hold one
        # record at a time, not the file.
        path = tmp_path / "long.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            for node in range(4):
                recorder.emit(_open(node, 100.0))
            for i in range(16_000):
                t = float(i)
                recorder.emit({"type": "contact-up", "t": t, "a": 0, "b": 1})
                recorder.emit({
                    "type": "transfer-payment", "t": t,
                    "payer": i % 2, "payee": 1 - i % 2, "amount": 1.0,
                })
                recorder.emit({"type": "contact-down", "t": t, "a": 0, "b": 1})
            recorder.emit({"type": "run-end", "t": 16_000.0})
        tracemalloc.start()
        try:
            audit = replay_trace(path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert audit.ok and audit.records_read == 48_006
        assert peak < path.stat().st_size


class TestAuditReproducesMetrics:
    """The property the whole subsystem exists for: replaying a run's
    trace must reproduce the MetricsCollector token totals *exactly*."""

    @pytest.mark.parametrize("scheme,seed", [
        ("incentive", 1),
        ("incentive", 2),
        ("incentive-bayesian", 3),
        ("incentive-no-reputation", 4),
    ])
    def test_token_totals_reproduced_exactly(self, tmp_path, scheme, seed):
        result, path = _traced_run(tmp_path, scheme, seed)
        audit = replay_trace(path)
        assert audit.ok, audit.violations[:5]
        summary = result.summary()
        assert audit.token_payments == int(summary["token_payments"])
        assert audit.tokens_moved == summary["tokens_moved"]  # exact

    @pytest.mark.parametrize("faults", [
        FaultConfig(loss_probability=0.2),
        FaultConfig(loss_probability=0.1, corruption_probability=0.1),
        FaultConfig(mean_uptime=600.0, mean_downtime=200.0,
                    churn_policy="wipe"),
    ])
    def test_conservation_holds_under_faults(self, tmp_path, faults):
        result, path = _traced_run(
            tmp_path, "incentive", 5, faults=faults
        )
        audit = replay_trace(path)
        assert audit.ok, audit.violations[:5]
        summary = result.summary()
        assert audit.token_payments == int(summary["token_payments"])
        assert audit.tokens_moved == summary["tokens_moved"]
        assert audit.conservation_checks > 0

    def test_chitchat_trace_has_no_token_records(self, tmp_path):
        _result, path = _traced_run(tmp_path, "chitchat", 1)
        audit = replay_trace(path)
        assert audit.ok, audit.violations[:5]
        assert audit.token_payments == 0
        assert "escrow-hold" not in audit.counts

    def test_every_record_is_schema_valid(self, tmp_path):
        _result, path = _traced_run(tmp_path, "incentive", 1)
        count = sum(1 for _ in iter_trace(path))  # validates each line
        assert count > 100


class TestTracingChangesNothing:
    """Golden determinism: tracing is pure observation."""

    @pytest.mark.parametrize("scheme", ["incentive", "chitchat"])
    def test_traced_and_untraced_summaries_identical(self, tmp_path, scheme):
        config = ScenarioConfig.tiny()
        untraced = run_scenario(config, scheme, seed=7)
        traced, _ = _traced_run(tmp_path, scheme, 7)
        assert traced.summary() == untraced.summary()
        assert traced.metrics.mdr_by_priority() == \
            untraced.metrics.mdr_by_priority()

    @pytest.mark.parametrize("scheme", ["incentive", "chitchat"])
    def test_quiet_pairs_skipped_only_when_untraced(
        self, tmp_path, monkeypatch, scheme
    ):
        """Few messages, short TTL: most encounters have nothing to
        send.  An untraced run skips their contact hooks; a traced one
        calls every hook (its gossip records keep the trace in
        admission order) and still sums up alike."""
        hooks = []
        open_contact = World._open_contact

        def counting(world, pair, hook=True):
            hooks.append(hook)
            return open_contact(world, pair, hook)

        monkeypatch.setattr(World, "_open_contact", counting)
        config = ScenarioConfig.tiny(message_interval=600.0, ttl=300.0)
        untraced = run_scenario(config, scheme, seed=7)
        untraced_hooks, hooks[:] = list(hooks), []
        path = tmp_path / "quiet.jsonl"
        traced = run_scenario(config, scheme, seed=7, trace_path=str(path))
        assert traced.summary() == untraced.summary()
        assert len(hooks) == len(untraced_hooks)
        assert sum(untraced_hooks) < len(untraced_hooks) / 2
        assert all(hooks) == (scheme == "incentive")
        assert replay_trace(iter_trace(path)).ok

    def test_traced_run_under_faults_identical(self, tmp_path):
        faults = FaultConfig(loss_probability=0.15, mean_uptime=600.0,
                             mean_downtime=200.0)
        config = ScenarioConfig.tiny(faults=faults, max_retransmissions=1)
        untraced = run_scenario(config, "incentive", seed=9)
        path = tmp_path / "faulted.jsonl"
        traced = run_scenario(config, "incentive", seed=9,
                              trace_path=str(path))
        assert traced.summary() == untraced.summary()
