"""Determinism golden tests.

``run_scenario`` must be a pure function of ``(config, scheme, seed)``:
the paper's evaluation is only reproducible if every run re-derives the
exact same draws from its :class:`RandomStreams` master seed.  The
golden summary committed under ``tests/golden/`` pins the full metric
dict of one tiny incentive run, so any silent drift — a refactor that
perturbs RNG stream consumption, a change to event ordering, a metrics
accounting tweak — fails loudly here instead of quietly skewing every
figure.

If a change *intentionally* alters simulation behaviour, regenerate the
golden file (see its sibling README note below) and call the change out
in review:

    PYTHONPATH=src python -c "
    import json
    from repro.experiments import ScenarioConfig, run_scenario
    s = run_scenario(ScenarioConfig.tiny(), 'incentive', seed=1).summary()
    json.dump(s, open('tests/golden/run_scenario_tiny_incentive_seed1.json', 'w'),
              indent=2, sort_keys=True)
    "
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ScenarioConfig, run_averaged, run_scenario

GOLDEN_PATH = (
    Path(__file__).parent / "golden" / "run_scenario_tiny_incentive_seed1.json"
)


@pytest.fixture(scope="module")
def tiny():
    return ScenarioConfig.tiny()


class TestGoldenSummary:
    def test_run_scenario_matches_committed_golden(self, tiny):
        summary = run_scenario(tiny, "incentive", seed=1).summary()
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        # Exact float equality on purpose: JSON round-trips float64
        # losslessly, so any difference is real behavioural drift.
        assert summary == golden

    def test_back_to_back_runs_are_identical(self, tiny):
        first = run_scenario(tiny, "incentive", seed=1).summary()
        second = run_scenario(tiny, "incentive", seed=1).summary()
        assert first == second


class TestWorldCoreEquivalence:
    """The retired per-object world core's verdict, carried by golden files.

    The simulator once ran either a per-object core or the array core;
    the object core was held to the golden summary and froze the trace
    digests in ``tests/golden/trace_digests.json``.  The one remaining
    core must still match both.
    """

    def test_object_core_matches_golden(self):
        """Every record of the golden scenario's frozen trace matches."""
        from tests.test_world_soa_differential import assert_matches_golden

        assert_matches_golden("tiny/incentive/seed-1")

    def test_soa_core_matches_object_core(self, tiny):
        """The golden summary the object core was held to still holds."""
        summary = run_scenario(tiny, "incentive", seed=1).summary()
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert summary == golden


class TestSerialVsParallel:
    def test_run_averaged_parallel_bit_identical(self, tiny):
        """The issue's acceptance criterion: workers=4 == workers=1."""
        seeds = [1, 2, 3]
        serial = run_averaged(tiny, "incentive", seeds, workers=1)
        parallel = run_averaged(tiny, "incentive", seeds, workers=4)
        assert serial == parallel

    def test_parallel_chitchat_matches_serial(self, tiny):
        seeds = [1, 2]
        serial = run_averaged(tiny, "chitchat", seeds, workers=1)
        parallel = run_averaged(tiny, "chitchat", seeds, workers=2)
        assert serial == parallel


#: One traced run of ``ScenarioConfig.tiny()``, written to ``argv[1]``.
_TRACED_RUN = (
    "import sys\n"
    "from repro.experiments import ScenarioConfig, run_scenario\n"
    "run_scenario(ScenarioConfig.tiny(), 'incentive', seed=2,"
    " trace_path=sys.argv[1])\n"
)


def _trace_under_hash_seed(tmp_path, hash_seed):
    path = tmp_path / f"hash-seed-{hash_seed}.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(path)],
        env=env, check=True, timeout=300,
    )
    return path.read_text(encoding="utf-8").splitlines()


class TestHashSeedIndependence:
    """Known bug, pinned: results depend on the string-hash seed.

    Message keywords are a ``frozenset[str]`` and interest sums add the
    weights in that set's iteration order, which ``PYTHONHASHSEED``
    changes; the two traces first differ at record 225, an ``offer``
    award at t = 105.01 that moves in the last bit (DESIGN.md §8).
    The fix changes every committed result digest, so it is not made
    here; when it lands this strict xfail fails and must be removed.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="interest sums follow frozenset order, which depends on "
               "PYTHONHASHSEED",
    )
    def test_trace_identical_across_hash_seeds(self, tmp_path):
        first = _trace_under_hash_seed(tmp_path, "0")
        second = _trace_under_hash_seed(tmp_path, "2")
        assert first == second
