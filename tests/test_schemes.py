"""The scheme registry: resolution, tags, completeness, and the
registry-driven coverage guarantees.

Three layers of test here:

1. **Registry mechanics** — duplicate/unknown-tag rejection, the
   ``resolve_scheme`` error contract, registration order.
2. **Completeness** — every surface that enumerates schemes (CLI
   ``choices``, figure scheme lists, sweep/fault defaults, the
   EXPERIMENTS.md scheme table) is asserted equal to the registry, so a
   new registration cannot silently miss one of them.
3. **Behaviour over the whole catalog** — a smoke run of *every*
   registered scheme, golden equality for every pre-registry scheme,
   and a trace-audit/conservation property over every ``token``-tagged
   scheme.  These parametrize over the registry itself: registering a
   new scheme extends the coverage with zero test edits.
"""

import argparse
import gc
import json
import math
import pathlib
import re

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ScenarioConfig, run_scenario
from repro.experiments.runner import SCHEMES, build_contact_trace
from repro.faults import FaultConfig
from repro.network.buffer import DropPolicy
from repro.routing.two_hop_reward import TwoHopRewardRouter
from repro.schemes import (
    KNOWN_TAGS,
    all_specs,
    resolve_scheme,
    scheme_names,
    tagged,
)
from repro.schemes.registry import _REGISTRY, SchemeSpec, register
from repro.trace.audit import replay_trace

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "schemes_tiny_seed1.json"

#: The scheme list as it stood before the registry existed; the registry
#: must preserve this prefix (order included) so `SCHEMES` indexing,
#: docs and muscle memory survive the refactor.
HISTORICAL_SCHEMES = (
    "incentive",
    "incentive-no-enrichment",
    "incentive-no-reputation",
    "incentive-bayesian",
    "incentive-collusion",
    "chitchat",
    "epidemic",
    "epidemic-priority",
    "epidemic-immune",
    "direct",
    "two-hop",
    "spray-and-wait",
    "prophet",
    "nectar",
    "tit-for-tat",
    "relics",
    "two-hop-reward",
)

COMPOSED_SCHEMES = (
    "incentive-epidemic",
    "incentive-prophet",
    "incentive-spray-and-wait",
    "incentive-chitchat-hetero",
    "minority-game",
)


@pytest.fixture(scope="module")
def tiny():
    return ScenarioConfig.tiny()


@pytest.fixture(scope="module")
def contact_trace(tiny):
    # Sharing one pre-built trace across every run in this module is
    # bit-identical to letting run_scenario rebuild it (same seed, same
    # mobility fields) and dominates the module's wall-clock savings.
    return build_contact_trace(tiny, 1)


@pytest.fixture(scope="module")
def runs(tiny, contact_trace):
    """One tiny seed-1 run per registered scheme, built on demand."""
    cache = {}

    def run(scheme):
        if scheme not in cache:
            cache[scheme] = run_scenario(tiny, scheme, 1, trace=contact_trace)
        return cache[scheme]

    return run


class TestRegistryMechanics:
    def test_resolve_returns_spec(self):
        spec = resolve_scheme("incentive")
        assert isinstance(spec, SchemeSpec)
        assert spec.name == "incentive"
        assert callable(spec.builder)
        assert spec.doc

    def test_unknown_scheme_error_lists_every_name(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_scheme("no-such-scheme")
        message = str(excinfo.value)
        assert "no-such-scheme" in message
        for name in scheme_names():
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register("incentive", lambda c, u: None, doc="dup")
        # The failed registration must not have clobbered the original.
        assert resolve_scheme("incentive").doc != "dup"

    def test_unknown_tag_rejected_at_registration(self):
        with pytest.raises(ConfigurationError, match="unknown scheme tags"):
            register(
                "tag-typo-victim", lambda c, u: None,
                doc="x", tags=("tokn",),
            )
        assert "tag-typo-victim" not in scheme_names()

    def test_unknown_tag_rejected_at_query(self):
        # A misspelled tag in a test/figure must fail loudly, not
        # return an empty tuple and silently skip coverage.
        with pytest.raises(ConfigurationError, match="unknown scheme tag"):
            tagged("tokn")

    def test_registration_preserves_historical_order(self):
        names = scheme_names()
        assert names[: len(HISTORICAL_SCHEMES)] == HISTORICAL_SCHEMES
        assert names[len(HISTORICAL_SCHEMES):] == COMPOSED_SCHEMES

    def test_runner_schemes_is_the_registry(self):
        assert SCHEMES == scheme_names()

    def test_all_specs_matches_names(self):
        assert tuple(s.name for s in all_specs()) == scheme_names()

    def test_every_tag_in_vocabulary(self):
        for spec in all_specs():
            assert spec.tags <= KNOWN_TAGS, spec.name

    def test_token_schemes_prioritise_buffer_drops(self):
        # Incentive-layer schemes evict low-priority messages first
        # (custody of a high-priority message is worth more); the
        # two-hop-reward baseline keeps its historical drop-oldest.
        for name in tagged("incentive-layer"):
            assert resolve_scheme(name).drop_policy is (
                DropPolicy.DROP_LOWEST_PRIORITY
            ), name
        assert resolve_scheme("two-hop-reward").drop_policy is (
            DropPolicy.DROP_OLDEST
        )

    def test_paper_comparison_is_exactly_the_papers_pair(self):
        assert set(tagged("paper-comparison")) == {"chitchat", "incentive"}


class TestConfigValidation:
    def test_config_rejects_unknown_scheme_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            ScenarioConfig.tiny(scheme="no-such-scheme")

    def test_config_accepts_every_registered_scheme(self):
        for name in scheme_names():
            assert ScenarioConfig.tiny(scheme=name).scheme == name

    def test_run_scenario_rejects_unknown_scheme_before_building(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            run_scenario(ScenarioConfig.tiny(), "no-such-scheme", 1)


def _subparser(name):
    from repro.cli import build_parser

    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices[name]


def _choices(subcommand, flag):
    for action in _subparser(subcommand)._actions:
        if flag in action.option_strings or action.dest == flag:
            return tuple(action.choices)
    raise AssertionError(f"{subcommand} has no {flag} option")


class TestCompleteness:
    """Every scheme-enumerating surface must equal the registry."""

    def test_cli_run_choices(self):
        assert _choices("run", "--scheme") == scheme_names()

    def test_cli_compare_choices(self):
        assert _choices("compare", "schemes") == scheme_names()

    def test_cli_faults_choices(self):
        assert _choices("faults", "--schemes") == scheme_names()

    def test_figures_use_the_paper_pair(self):
        from repro.experiments.figures import (
            BASELINE_SCHEME,
            INCENTIVE_SCHEME,
            PAPER_PAIR,
        )

        assert PAPER_PAIR == tuple(sorted(tagged("paper-comparison")))
        assert (BASELINE_SCHEME, INCENTIVE_SCHEME) == ("chitchat", "incentive")

    def test_sweep_and_fault_defaults_are_tagged(self):
        import inspect

        from repro.experiments.faults import fault_sweep
        from repro.experiments.sweeps import sweep

        pair = tagged("paper-comparison")
        assert inspect.signature(sweep).parameters["schemes"].default == pair
        assert (
            inspect.signature(fault_sweep).parameters["schemes"].default
            == pair
        )

    def test_experiments_scheme_table_matches_registry(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        match = re.search(
            r"<!-- scheme-table-begin -->(.*?)<!-- scheme-table-end -->",
            text,
            re.S,
        )
        assert match, "EXPERIMENTS.md lacks the scheme-table markers"
        rows = {}
        for line in match.group(1).splitlines():
            cell = re.match(r"\| `([a-z0-9-]+)` \|", line)
            if cell:
                rows[cell.group(1)] = line
        assert tuple(rows) == scheme_names()
        for spec in all_specs():
            row = rows[spec.name]
            for tag in sorted(spec.tags):
                assert tag in row, f"{spec.name} row missing tag {tag!r}"


class TestGoldenEquality:
    """Bit-identical behaviour for every pre-registry scheme.

    The golden file was generated *before* the IncentiveLayer /
    registry refactor, so exact equality here proves the composition
    rewrite changed nothing observable for the historical catalog.
    """

    @pytest.mark.parametrize("scheme", HISTORICAL_SCHEMES)
    def test_summary_matches_golden(self, scheme, runs):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert tuple(sorted(golden)) == tuple(sorted(HISTORICAL_SCHEMES))
        assert runs(scheme).summary() == golden[scheme]


def leak_cases():
    """Every scheme fault-free and under a heavy fault mix, plus the
    heterogeneous preset and a battery-blackout run."""
    faulted = ScenarioConfig.tiny(
        faults=FaultConfig(
            loss_probability=0.15, corruption_probability=0.05,
            mean_uptime=600.0, mean_downtime=200.0, churn_policy="wipe",
        ),
        max_retransmissions=2,
        selfish_fraction=0.2,
        malicious_fraction=0.1,
    )
    cases = []
    for scheme in scheme_names():
        cases.append(pytest.param(ScenarioConfig.tiny(), scheme, id=scheme))
        cases.append(pytest.param(faulted, scheme, id=f"{scheme}-faulted"))
    cases.append(pytest.param(
        ScenarioConfig.hetero(n_nodes=60, duration=900.0),
        "incentive-chitchat-hetero", id="hetero",
    ))
    cases.append(pytest.param(
        ScenarioConfig.tiny(
            battery_capacity=400.0,
            faults=FaultConfig(recharge_interval=600.0, recharge_amount=150.0),
        ),
        "incentive", id="battery-blackout",
    ))
    return cases


class TestWholeCatalog:
    """Registry-parametrized behaviour: new registrations are covered
    here automatically, with zero test edits."""

    @pytest.mark.parametrize("config, scheme", leak_cases())
    def test_run_leaves_no_cyclic_garbage(self, config, scheme):
        # The engine pauses the cyclic collector while it runs, so
        # anything a run leaves in a reference cycle stays resident
        # until the next collection.  The collector stays off for the
        # whole call: an automatic collection after the event loop
        # would otherwise reclaim a leak before it is counted.  The
        # result is held so only unreachable objects are counted.
        gc.collect()
        gc.disable()
        try:
            result = run_scenario(config, scheme, 1)
            leaked = gc.collect()
        finally:
            gc.enable()
        assert leaked == 0, f"{leaked} objects left in reference cycles"

    @pytest.mark.parametrize("scheme", scheme_names())
    def test_scheme_runs_end_to_end(self, scheme, runs):
        result = runs(scheme)
        summary = result.summary()
        assert result.router.name  # every router self-identifies
        assert 0.0 <= summary["mdr"] <= 1.0
        for key, value in summary.items():
            if isinstance(value, float):
                assert math.isfinite(value), (scheme, key)

    @pytest.mark.parametrize("scheme", tagged("token"))
    def test_token_scheme_passes_trace_audit(
        self, scheme, tiny, contact_trace, tmp_path
    ):
        path = tmp_path / f"{scheme}.jsonl"
        result = run_scenario(
            tiny, scheme, 1, trace=contact_trace, trace_path=str(path)
        )
        audit = replay_trace(path)
        assert audit.ok, [str(v) for v in audit.violations]
        endowment = tiny.n_nodes * tiny.incentive.initial_tokens
        assert audit.endowment == pytest.approx(endowment)
        # Escrow fully drained and the closed economy intact at run end.
        assert audit.final_escrow == pytest.approx(0.0, abs=1e-9)
        assert audit.final_supply == pytest.approx(endowment)
        # The router's own ledger agrees with the independent replay.
        ledger = result.router.ledger
        assert ledger.total_supply() == pytest.approx(endowment)

    @pytest.mark.parametrize("scheme", tagged("token"))
    def test_tracing_never_changes_results(
        self, scheme, tiny, contact_trace, tmp_path, runs
    ):
        traced = run_scenario(
            tiny, scheme, 1, trace=contact_trace,
            trace_path=str(tmp_path / f"{scheme}.jsonl"),
        )
        assert traced.summary() == runs(scheme).summary()


class TestTwoHopRewardBuilder:
    """Regression for the two-hop-reward construction (it predates the
    ``(config, universe)`` builder signature)."""

    def test_builder_threads_config_parameters(self):
        config = ScenarioConfig.tiny()
        router = resolve_scheme("two-hop-reward").builder(config, None)
        assert isinstance(router, TwoHopRewardRouter)
        assert router.initial_tokens == config.incentive.initial_tokens
        assert router.reward == config.incentive.max_incentive

    def test_ledger_conserves_supply(self, tiny, contact_trace):
        result = run_scenario(tiny, "two-hop-reward", 1, trace=contact_trace)
        ledger = result.router.ledger
        endowment = tiny.n_nodes * tiny.incentive.initial_tokens
        assert ledger.total_supply() == pytest.approx(endowment)
        assert ledger.escrowed_total() == pytest.approx(0.0, abs=1e-9)


class TestRegistryIsolation:
    def test_mechanics_tests_left_no_residue(self):
        # The rejection tests above must not have mutated the registry.
        assert "tag-typo-victim" not in _REGISTRY
        assert scheme_names() == HISTORICAL_SCHEMES + COMPOSED_SCHEMES
