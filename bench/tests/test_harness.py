"""Tests of the benchmark harness at smoke sizes.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import copy
import json

import pytest

from bench import run
from bench.layers import (
    HOOKS,
    LAYER_METRICS,
    TRACE_OVERHEAD,
    Hook,
    LayerTracer,
    layer_metrics,
)
from bench.workloads import WORKLOADS


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _benchmark_json() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_suite():
    """One untraced and one traced smoke round of every workload."""
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(["--seed", "1", "--smoke", "--rounds", "1"])
    return code, buffer.getvalue()


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    better = {m.name: m.better for m in LAYER_METRICS + (TRACE_OVERHEAD,)}
    for metric in spec["per_layer"]:
        assert better[metric["name"]] == metric["better"]


def test_every_metric_is_printed_with_its_unit(smoke_suite):
    code, text = smoke_suite
    assert code == 0, text
    result = _last_json(text)
    assert result["correct"] is True
    assert result["failed"] == 0
    spec = _benchmark_json()
    for workload in WORKLOADS:
        printed = result["metrics"][workload]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            row = printed[metric["name"]]
            assert row["unit"] == metric["unit"]
            assert isinstance(row["value"], (int, float))
            assert f"{metric['name']} " in text


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_timed_run_prints_exactly_the_contract_metrics(capsys, trace, key):
    code = run.main([
        "--workload", "paper", "--seed", "2", "--smoke",
        "--seconds", "1", "--trace", str(trace),
    ])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()[key]}
    assert result["attempted"] >= 1


def test_perturbed_digest_fails_the_round(monkeypatch, capsys):
    expected = copy.deepcopy(run.load_expected())
    expected["smoke"]["paper"]["1"]["mdr"] += 1e-12
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    code = run.main([
        "--workload", "paper", "--seed", "1", "--smoke", "--rounds", "1",
        "--trace", "0",
    ])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert "expected.json" in out


def test_broken_invariant_fails_the_round():
    good = {
        "workload": "paper", "traced": False, "setup_s": 0.1,
        "digest": {"mdr": 0.5},
        "invariants": {
            "supply_error": 0.0, "stranded_escrow": 0, "double_payments": 0.0,
        },
        "audit_ok": None,
    }
    assert run.check_round(good, None, None) == []
    for key, value in (
        ("supply_error", 1e-3), ("stranded_escrow", 2.0),
        ("double_payments", 1.0),
    ):
        bad = copy.deepcopy(good)
        bad["invariants"][key] = value
        assert run.check_round(bad, None, None)
    traced = dict(good, traced=True, digest={"mdr": 0.6})
    assert run.check_round(traced, None, good["digest"])


def test_self_times_fit_inside_the_traced_wall():
    out = run.run_child("hetero_audit", 1, "smoke", True)
    assert "error" not in out, out
    assert out["absent_hooks"] == []
    assert 0 < out["raw_self_s"] <= out["raw_wall_s"]


@pytest.mark.parametrize("workload", ["faults", "hetero_audit"])
def test_layer_counters_repeat_exactly(workload):
    first = run.run_child(workload, 2, "smoke", True)
    second = run.run_child(workload, 2, "smoke", True)
    assert first["digest"] == second["digest"]
    counters = [m.name for m in LAYER_METRICS if m.unit != "s"]
    assert {k: first["layers"][k] for k in counters} == {
        k: second["layers"][k] for k in counters
    }


def test_trace_cache_environment_is_ignored(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    assert "REPRO_TRACE_CACHE" not in run.child_env()
    out = run.run_child("paper", 1, "smoke", True)
    assert "error" not in out, out
    assert out["layers"]["mobility.detect_s"] > 0
    assert list(tmp_path.iterdir()) == []


class _Fake:
    def outer(self, items):
        return self.inner() + len(items)

    def inner(self):
        return 1


def test_tracer_nests_spans_and_restores_originals():
    original = _Fake.__dict__["outer"]
    hooks = {
        "outer": Hook(__name__, "_Fake.outer", size_arg=1),
        "inner": Hook(__name__, "_Fake.inner"),
        "gone": Hook(__name__, "_Fake.renamed"),
    }
    with LayerTracer(hooks) as tracer:
        assert _Fake().outer([1, 2, 3]) == 4
    assert _Fake.__dict__["outer"] is original
    assert tracer.absent == ["gone"]
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.items, inner.calls) == (1, 3, 1)
    assert 0 <= outer.self_time
    assert tracer.self_seconds() == pytest.approx(
        outer.self_time + inner.self_time
    )


def test_absent_hook_reads_null_not_zero():
    hooks = dict(HOOKS, **{"table.decay": Hook(
        "repro.routing.chitchat", "InterestTable.renamed_decay"
    )})
    with LayerTracer(hooks) as tracer:
        pass
    values = layer_metrics(tracer, {
        "contacts": 1, "events": 1, "transfers": 1, "trace_mb": 0.0,
    })
    assert tracer.absent == ["table.decay"]
    for name in ("seq_decay_s", "seq_decay_sides", "seq_decay_share"):
        assert values[f"routing.chitchat.{name}"] is None
    assert values["routing.chitchat.select_calls"] == 0
