"""Golden event-trace digests: the simulator's frozen behaviour.

``tests/golden/trace_digests.json`` holds one sha256 per event-trace
record (its first 64 bits, which keeps the file near 2 MB) for a grid
of scenarios: 3 mobility models x 3 schemes x
{no fault, fault}, a retransmission run, a battery-blackout run, the
heterogeneous preset, a 500-node Table 5.1 run, a few tiny runs, and
the incentive layer over Epidemic, PRoPHET and Spray-and-Wait on the
tiny config, fault-free and under wipe churn plus loss.
The file was generated when the simulator still carried two world cores
(a per-object reference and the struct-of-arrays core), and generation
asserted that both cores gave identical digests, so it carries the
reference's verdict forward: any change that moves a single event,
float or token fails here and names the first divergent record.

The test classes keep the names of the differential harness that once
ran each scenario under both cores and compared the results exactly;
each now checks its scenarios against the frozen digests.

The grid runs in one child process with ``PYTHONHASHSEED=0``.  Message
keywords are string frozensets and interest sums accumulate in their
iteration order, which depends on the hash seed, so the digests are
only defined for a fixed seed (see DESIGN.md §8).

Regenerate (only for an intended behaviour change)::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.test_world_soa_differential --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "trace_digests.json"

MOBILITY_MODELS = ("random-waypoint", "random-walk", "manhattan")
SCHEMES = ("incentive", "chitchat", "epidemic")
#: The incentive layer over the flood and predictability substrates.
COMPOSITIONS = (
    "incentive-epidemic", "incentive-prophet", "incentive-spray-and-wait",
)

#: Hex characters kept of each record's sha256.
DIGEST_CHARS = 16

_UUID = re.compile(r"msg-\d+(?:-f\d+)?")
_EVENTS = re.compile(r'"events":\d+')


def grid() -> Dict[str, Tuple[object, str, int]]:
    """``case name -> (config, scheme, seed)`` for every frozen case."""
    from repro.experiments import ScenarioConfig
    from repro.faults import FaultConfig

    # Light fault mix: link-layer loss plus churn, the two fault paths
    # the world itself mediates.
    faults = FaultConfig(loss_probability=0.05, mean_uptime=1800.0)
    cases: Dict[str, Tuple[object, str, int]] = {}
    for mobility in MOBILITY_MODELS:
        for scheme in SCHEMES:
            for label, fault_config in (("no-fault", None), ("fault", faults)):
                config = ScenarioConfig.tiny(
                    mobility=mobility, faults=fault_config
                )
                cases[f"{mobility}/{scheme}/{label}"] = (config, scheme, 11)
    cases["retransmit"] = (
        ScenarioConfig.tiny(faults=faults, max_retransmissions=2),
        "incentive", 13,
    )
    cases["battery-blackout"] = (
        ScenarioConfig.tiny(
            battery_capacity=400.0,
            faults=FaultConfig(recharge_interval=600.0, recharge_amount=150.0),
        ),
        "incentive", 17,
    )
    cases["hetero"] = (
        ScenarioConfig.hetero(n_nodes=60, duration=900.0),
        "incentive-chitchat-hetero", 1,
    )
    cases["hetero-battery"] = (
        ScenarioConfig.hetero(
            n_nodes=60, duration=900.0, battery_capacity=300.0,
            faults=FaultConfig(recharge_interval=300.0, recharge_amount=100.0),
        ),
        "incentive", 2,
    )
    cases["paper-500"] = (
        ScenarioConfig.paper_scale(duration=600.0, ttl=600.0),
        "incentive", 1,
    )
    for scheme in SCHEMES:
        cases[f"tiny/{scheme}/seed-5"] = (ScenarioConfig.tiny(), scheme, 5)
    cases["tiny/incentive/seed-2"] = (ScenarioConfig.tiny(), "incentive", 2)
    cases["tiny/incentive/seed-1"] = (ScenarioConfig.tiny(), "incentive", 1)
    # Wipe churn fast enough to cut many live links, plus loss.
    churn_loss = FaultConfig(
        loss_probability=0.1, mean_uptime=600.0, mean_downtime=120.0,
    )
    for scheme in COMPOSITIONS:
        for label, fault_config in (
            ("no-fault", None), ("churn-loss", churn_loss),
        ):
            cases[f"tiny/{scheme}/{label}"] = (
                ScenarioConfig.tiny(faults=fault_config), scheme, 11,
            )
    return cases


def normalise(line: str, mapping: Dict[str, str]) -> str:
    """Rewrite message uuids to first-appearance ordinals.

    Uuids come from a process-global counter, so a run's numbering
    depends on what ran before it in the process; the order of first
    appearance does not.  The engine's raw event count is scheduler
    bookkeeping (a per-tick contact batch is one event), not behaviour,
    so it is zeroed in ``engine-run`` / ``run-end`` records.
    """
    def sub(match):
        uuid = match.group(0)
        if uuid not in mapping:
            mapping[uuid] = f"msg-{len(mapping):08d}"
        return mapping[uuid]

    line = _UUID.sub(sub, line)
    if '"type":"engine-run"' in line or '"type":"run-end"' in line:
        line = _EVENTS.sub('"events":0', line)
    return line


def trace_digests(config, scheme: str, seed: int) -> Tuple[List[str], List[str]]:
    """``(sha256 per record, type per record)`` of one traced run."""
    from repro.experiments import run_scenario

    digests: List[str] = []
    types: List[str] = []
    mapping: Dict[str, str] = {}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "events.jsonl"
        run_scenario(config, scheme, seed=seed, trace_path=str(path))
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = normalise(line.rstrip("\n"), mapping)
                digests.append(
                    hashlib.sha256(line.encode()).hexdigest()[:DIGEST_CHARS]
                )
                types.append(json.loads(line).get("type", "?"))
    return digests, types


def compute_grid() -> Dict[str, Dict[str, List[str]]]:
    """Digests and record types of every case, in grid order."""
    out = {}
    for name, (config, scheme, seed) in grid().items():
        digests, types = trace_digests(config, scheme, seed)
        out[name] = {"digests": digests, "types": types}
    return out


def first_divergence(golden: List[str], fresh: List[str]) -> int:
    """Index of the first differing record (``-1`` when equal)."""
    for index, (want, got) in enumerate(zip(golden, fresh)):
        if want != got:
            return index
    if len(golden) != len(fresh):
        return min(len(golden), len(fresh))
    return -1


def write_golden(cases: Dict[str, List[str]]) -> None:
    """Write the golden file: one line per case."""
    lines = [
        f"{json.dumps(name)}:{json.dumps(digests, separators=(',', ':'))}"
        for name, digests in cases.items()
    ]
    GOLDEN.write_text(
        '{"hash_seed":0,"cases":{\n' + ",\n".join(lines) + "\n}}\n",
        encoding="utf-8",
    )


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_TRACE_CACHE", None)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


@functools.lru_cache(maxsize=None)
def golden_grid() -> Dict[str, List[str]]:
    """``case name -> digests`` from the golden file."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


@functools.lru_cache(maxsize=None)
def fresh_grid() -> Tuple[int, str, Dict[str, Dict[str, List[str]]]]:
    """``(exit code, stderr tail, digests and types)`` of one grid run.

    The grid runs once per test session; every test reads its cases
    from the cached result.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_world_soa_differential"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        return proc.returncode, proc.stderr[-2000:], {}
    return 0, "", json.loads(proc.stdout.splitlines()[-1])


def assert_matches_golden(*names: str) -> None:
    """Fail naming the first divergent record of each mismatched case."""
    returncode, stderr, fresh = fresh_grid()
    assert returncode == 0, stderr
    golden = golden_grid()
    problems = []
    for name in names:
        want = golden[name]
        got = fresh[name]
        index = first_divergence(want, got["digests"])
        if index < 0:
            continue
        if index < len(got["types"]):
            record = f"record {index} (type {got['types'][index]!r})"
        else:
            record = f"record {index} (missing: the run ended early)"
        problems.append(
            f"{name}: first divergent {record}; "
            f"{len(want)} golden records, {len(got['digests'])} now"
        )
    assert not problems, "\n".join(problems)


class TestGoldenGrid:
    def test_case_grid_matches_golden(self):
        returncode, stderr, fresh = fresh_grid()
        assert returncode == 0, stderr
        assert list(fresh) == list(golden_grid()), "case grid changed"


class TestDifferentialMatrix:
    """3 mobility models x 3 schemes x fault/no-fault, plus the
    retransmission, battery and heterogeneous runs."""

    @pytest.mark.parametrize("mobility", MOBILITY_MODELS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("faults", ("no-fault", "fault"))
    def test_summaries_bit_identical(self, mobility, scheme, faults):
        assert_matches_golden(f"{mobility}/{scheme}/{faults}")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ledger_balances_bit_identical(self, scheme):
        """Every balance is in the trace's ``run-end`` record."""
        assert_matches_golden(f"tiny/{scheme}/seed-5")

    def test_fault_summaries_bit_identical(self):
        """Link loss and churn with a retransmission budget."""
        assert_matches_golden("retransmit")

    def test_battery_blackouts_bit_identical(self):
        """Array batteries replicate the scalar drain and recharge path."""
        assert_matches_golden("battery-blackout")

    @pytest.mark.parametrize("case", ("hetero", "hetero-battery"))
    def test_heterogeneous_bit_identical(self, case):
        assert_matches_golden(case)

    @pytest.mark.parametrize("scheme", COMPOSITIONS)
    @pytest.mark.parametrize("faults", ("no-fault", "churn-loss"))
    def test_compositions_bit_identical(self, scheme, faults):
        """The incentive layer over substrates other than ChitChat."""
        assert_matches_golden(f"tiny/{scheme}/{faults}")


class TestDifferentialEventTrace:
    """Event-for-event equivalence on the full JSONL trace."""

    def test_traces_identical_modulo_uuid_offset(self):
        assert_matches_golden("tiny/incentive/seed-2")

    def test_soa_trace_passes_conservation_audit(self, tmp_path):
        from repro.experiments import ScenarioConfig, run_scenario
        from repro.trace.audit import replay_trace

        path = tmp_path / "events.jsonl"
        run_scenario(
            ScenarioConfig.tiny(), "incentive", seed=2, trace_path=str(path)
        )
        report = replay_trace(str(path))
        assert report.ok, report


class TestFloatParity500:
    """Exact float equality at 500 nodes with the full Table 5.1
    physics, where any accumulation-order drift reaches the floats.
    A short clock keeps the run in the tier-1 budget."""

    def test_500_node_run_exact_float_equality(self):
        assert_matches_golden("paper-500")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    result = compute_grid()
    if "--write" in argv:
        write_golden({name: r["digests"] for name, r in result.items()})
        return 0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
