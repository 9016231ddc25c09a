"""Tests for the parallel experiment runner and the contact-trace cache."""

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    RunDigest,
    RunFailure,
    RunSpec,
    ScenarioConfig,
    TraceCache,
    build_contact_trace,
    ensure_success,
    fault_sweep,
    fig5_1_mdr_vs_selfish,
    run_averaged,
    run_comparison,
    run_specs,
    sweep,
    trace_cache_key,
)
from repro.experiments.parallel import execute_spec, resolve_workers
from repro.experiments import parallel as parallel_module
from repro.experiments import runner as runner_module
from repro.experiments import trace_cache as trace_cache_module
from repro.trace.audit import replay_trace


@pytest.fixture(scope="module")
def tiny():
    return ScenarioConfig.tiny()


def _trace_tuples(trace):
    return [(c.start, c.end, c.pair) for c in trace]


class TestRunSpecExecution:
    def test_spec_is_picklable(self, tiny):
        spec = RunSpec(tiny, "chitchat", 1, {"sample_ratings": True})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.scheme == "chitchat"
        assert clone.run_kwargs == {"sample_ratings": True}

    def test_execute_spec_returns_digest(self, tiny):
        digest = execute_spec(RunSpec(tiny, "direct", 1))
        assert isinstance(digest, RunDigest)
        assert 0.0 <= digest.mdr <= 1.0
        assert digest.traffic >= 0
        assert digest.summary()["mdr"] == digest.mdr

    def test_execute_spec_contains_failures(self, tiny):
        failure = execute_spec(RunSpec(tiny, "carrier-pigeon", 7))
        assert isinstance(failure, RunFailure)
        assert failure.scheme == "carrier-pigeon"
        assert failure.seed == 7
        assert "ConfigurationError" in failure.error
        assert "carrier-pigeon" in failure.traceback

    def test_digest_matches_full_result(self, tiny):
        from repro.experiments import run_scenario

        result = run_scenario(tiny, "incentive", seed=2)
        digest = execute_spec(RunSpec(tiny, "incentive", 2))
        assert digest.summary() == result.summary()
        assert digest.metrics.mdr_by_priority() == (
            result.metrics.mdr_by_priority()
        )


class TestRunSpecs:
    def test_pool_preserves_spec_order(self, tiny):
        specs = [RunSpec(tiny, "direct", seed) for seed in (3, 1, 2)]
        outcomes = run_specs(specs, workers=2)
        assert [o.seed for o in outcomes] == [3, 1, 2]

    def test_failed_spec_does_not_poison_pool(self, tiny):
        specs = [
            RunSpec(tiny, "bogus", 1),
            RunSpec(tiny, "direct", 1),
            RunSpec(tiny, "bogus", 2),
        ]
        outcomes = run_specs(specs, workers=2)
        assert isinstance(outcomes[0], RunFailure)
        assert isinstance(outcomes[1], RunDigest)
        assert isinstance(outcomes[2], RunFailure)

    def test_ensure_success_lists_every_casualty(self, tiny):
        outcomes = run_specs(
            [RunSpec(tiny, "bogus", 1), RunSpec(tiny, "bogus", 2)],
            workers=1,
        )
        with pytest.raises(ExperimentError) as excinfo:
            ensure_success(outcomes)
        message = str(excinfo.value)
        assert "(bogus, seed=1)" in message
        assert "(bogus, seed=2)" in message

    def test_run_averaged_raises_on_failure(self, tiny):
        with pytest.raises(ExperimentError):
            run_averaged(tiny, "bogus", [1, 2], workers=2)

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        with pytest.raises(ExperimentError):
            resolve_workers(0)


class TestParallelEquivalence:
    def test_run_comparison_digests_match_serial(self, tiny):
        serial = run_comparison(tiny, ["chitchat", "epidemic"], seed=1)
        parallel = run_comparison(
            tiny, ["chitchat", "epidemic"], seed=1, workers=2
        )
        for scheme in ("chitchat", "epidemic"):
            assert parallel[scheme].mdr == serial[scheme].mdr
            assert parallel[scheme].traffic == serial[scheme].traffic
            assert parallel[scheme].summary() == serial[scheme].summary()

    def test_sweep_parallel_matches_serial(self, tiny):
        def vary(cfg, value):
            return cfg.replace(selfish_fraction=value)

        serial = sweep(tiny, vary, [0.0, 0.5], schemes=["chitchat"],
                       seeds=[1], workers=1)
        parallel = sweep(tiny, vary, [0.0, 0.5], schemes=["chitchat"],
                         seeds=[1], workers=2)
        assert [(r["value"], r["scheme"], r["mdr"], r["traffic"])
                for r in serial] == [
            (r["value"], r["scheme"], r["mdr"], r["traffic"])
            for r in parallel
        ]


def _vary_selfish(cfg, value):
    return cfg.replace(selfish_fraction=value)


@pytest.fixture
def detections(monkeypatch):
    """Count contact detections, with no process-wide trace cache."""
    monkeypatch.setattr(trace_cache_module, "_default_cache", None)
    calls = []
    real_detect = runner_module.detect_contacts

    def counting_detect(*args, **kwargs):
        calls.append(1)
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(runner_module, "detect_contacts", counting_detect)
    return calls


class TestOneExecutor:
    """Every multi-run caller runs its list through one executor."""

    def test_run_averaged_in_process_fills_explicit_cache(self, tiny,
                                                          tmp_path):
        cache = TraceCache(tmp_path)
        run_averaged(tiny, "direct", [1], workers=1, trace_cache=cache)
        assert cache.get(tiny, 1) is not None

    def test_run_specs_in_process_fills_explicit_cache(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        ensure_success(
            run_specs([RunSpec(tiny, "direct", 1)], workers=1, cache=cache)
        )
        assert cache.get(tiny, 1) is not None
        # The explicit cache is installed for the call only.
        assert trace_cache_module.get_default_cache() is not cache

    @pytest.mark.parametrize("call", [
        lambda cfg: run_comparison(cfg, ["chitchat", "incentive"], seed=1),
        lambda cfg: sweep(cfg, _vary_selfish, [0.0, 0.5],
                          schemes=["chitchat", "incentive"], seeds=[1]),
        lambda cfg: fault_sweep(cfg, loss_levels=(0.0, 0.25),
                                schemes=("incentive", "chitchat"),
                                seeds=(1,)),
        lambda cfg: fig5_1_mdr_vs_selfish(cfg, selfish_grid=(0.0, 0.5),
                                          seeds=(1,)),
    ], ids=["run_comparison", "sweep", "fault_sweep", "fig5_1"])
    def test_shared_trace_detected_once(self, tiny, detections, call):
        # Four runs over one seed's contacts share one detection.
        call(tiny)
        assert len(detections) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_writes_one_trace_file_per_run(self, tiny, tmp_path,
                                                 workers):
        traced = tiny.replace(trace_path=str(tmp_path / "sweep.jsonl"))
        records = sweep(traced, _vary_selfish, [0.0, 0.5],
                        schemes=["chitchat", "incentive"], seeds=[1],
                        workers=workers)
        files = sorted(path.name for path in tmp_path.iterdir())
        assert files == [
            f"sweep.{scheme}.s1.p{point}.jsonl"
            for scheme in ("chitchat", "incentive") for point in (0, 1)
        ]
        named = [run.trace_path for r in records for run in r["results"]]
        assert sorted(named) == sorted(str(tmp_path / f) for f in files)
        for path in named:
            assert replay_trace(path).ok

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_specs_writes_one_trace_file_per_run(self, tiny, tmp_path,
                                                     workers):
        traced = tiny.replace(trace_path=str(tmp_path / "run.jsonl"))
        digests = ensure_success(run_specs(
            [RunSpec(traced, "direct", 1), RunSpec(traced, "direct", 2)],
            workers=workers,
        ))
        files = ["run.direct.s1.jsonl", "run.direct.s2.jsonl"]
        assert sorted(path.name for path in tmp_path.iterdir()) == files
        assert [d.trace_path for d in digests] == [
            str(tmp_path / name) for name in files
        ]
        for digest in digests:
            assert replay_trace(digest.trace_path).ok

    def test_averaged_runs_keep_their_trace_names(self, tiny, tmp_path):
        run_averaged(tiny, "direct", [1, 2],
                     trace_path=str(tmp_path / "run.jsonl"))
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "run.direct.s1.jsonl", "run.direct.s2.jsonl",
        ]


class TestTraceCacheKey:
    def test_key_stable_for_equal_configs(self, tiny):
        assert trace_cache_key(tiny, 1) == trace_cache_key(
            ScenarioConfig.tiny(), 1
        )

    def test_key_ignores_non_mobility_fields(self, tiny):
        behavioural = tiny.replace(
            selfish_fraction=0.4, malicious_fraction=0.2
        ).with_tokens(999.0)
        assert trace_cache_key(tiny, 1) == trace_cache_key(behavioural, 1)

    def test_key_sensitive_to_mobility_fields_and_seed(self, tiny):
        base = trace_cache_key(tiny, 1)
        assert trace_cache_key(tiny, 2) != base
        assert trace_cache_key(tiny.replace(n_nodes=21), 1) != base
        assert trace_cache_key(
            tiny.replace(transmission_radius=99.0), 1
        ) != base
        assert trace_cache_key(tiny.replace(mobility="manhattan"), 1) != base


class TestTraceCache:
    def test_round_trip_is_exact(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        built = build_contact_trace(tiny, 1, cache=cache)
        loaded = cache.get(tiny, 1)
        assert _trace_tuples(loaded) == _trace_tuples(built)

    def test_cache_hit_skips_contact_detection(self, tiny, tmp_path,
                                               monkeypatch):
        """The issue's acceptance criterion: a hit never re-detects."""
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)  # populate

        calls = []
        real_detect = runner_module.detect_contacts

        def counting_detect(*args, **kwargs):
            calls.append(1)
            return real_detect(*args, **kwargs)

        monkeypatch.setattr(
            runner_module, "detect_contacts", counting_detect
        )
        trace = build_contact_trace(tiny, 1, cache=cache)
        assert calls == []
        assert cache.hits == 1
        assert len(trace) > 0

    def test_corrupt_entry_is_rebuilt(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)
        cache.path_for(tiny, 1).write_bytes(b"not an npz file")
        assert cache.get(tiny, 1) is None
        rebuilt = build_contact_trace(tiny, 1, cache=cache)
        assert len(rebuilt) > 0
        assert cache.get(tiny, 1) is not None

    def test_lru_eviction_keeps_newest(self, tiny, tmp_path):
        import os

        cache = TraceCache(tmp_path, max_entries=2)
        for index, seed in enumerate([1, 2, 3]):
            build_contact_trace(tiny, seed, cache=cache)
            # Stamp strictly increasing mtimes: filesystem resolution
            # can be too coarse for back-to-back writes.
            os.utime(cache.path_for(tiny, seed), (index, index))
        assert len(cache) == 2
        assert cache.get(tiny, 1) is None  # oldest evicted
        assert cache.get(tiny, 3) is not None

    def test_max_entries_validated(self, tmp_path):
        with pytest.raises(ValueError):
            TraceCache(tmp_path, max_entries=0)

    def test_default_cache_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(trace_cache_module.ENV_VAR, str(tmp_path))
        trace_cache_module.set_default_cache(None)
        try:
            # Force lazy re-resolution from the (patched) environment.
            trace_cache_module._default_cache = trace_cache_module._UNSET
            cache = trace_cache_module.get_default_cache()
            assert cache is not None
            assert cache.directory == tmp_path
        finally:
            trace_cache_module.set_default_cache(None)

    def test_workers_share_cache_directory(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        outcomes = run_specs(
            [RunSpec(tiny, "direct", 1), RunSpec(tiny, "direct", 2)],
            workers=2,
            cache=cache,
        )
        ensure_success(outcomes)
        # Each worker built and published its seed's trace.
        assert cache.get(tiny, 1) is not None
        assert cache.get(tiny, 2) is not None


class TestRetries:
    """run_specs retries transient failures with exponential backoff."""

    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        """The backoff sleeps, recorded instead of slept."""
        sleeps = []
        monkeypatch.setattr(parallel_module.time, "sleep", sleeps.append)
        return sleeps

    @staticmethod
    def _budget(monkeypatch, retries, backoff=0.0):
        monkeypatch.setattr(parallel_module, "MAX_RETRIES", retries)
        monkeypatch.setattr(parallel_module, "RETRY_BACKOFF", backoff)

    def _flaky_execute(self, fail_times):
        """An execute_spec stand-in that fails the first N calls."""
        calls = []

        def fake(spec):
            calls.append(spec)
            if len(calls) <= fail_times:
                return RunFailure(
                    scheme=spec.scheme, seed=spec.seed,
                    error="RuntimeError: transient",
                )
            return execute_spec(spec)  # the real, unpatched function

        return fake, calls

    def test_transient_failure_heals(self, tiny, monkeypatch):
        fake, calls = self._flaky_execute(fail_times=1)
        monkeypatch.setattr(parallel_module, "execute_spec", fake)
        self._budget(monkeypatch, 2)
        outcomes = run_specs([RunSpec(tiny, "direct", 1)], workers=1)
        assert isinstance(outcomes[0], RunDigest)
        assert outcomes[0].attempts == 2
        assert len(calls) == 2

    def test_deterministic_failure_exhausts_budget(self, tiny, monkeypatch):
        # An unknown scheme fails identically on every attempt.
        self._budget(monkeypatch, 2)
        outcomes = run_specs(
            [RunSpec(tiny, "no-such-scheme", 1)], workers=1,
        )
        failure = outcomes[0]
        assert isinstance(failure, RunFailure)
        assert failure.attempts == 3  # initial + 2 retries

    def test_zero_retries_fails_fast(self, tiny, monkeypatch, sleeps):
        self._budget(monkeypatch, 0)
        outcomes = run_specs(
            [RunSpec(tiny, "no-such-scheme", 1)], workers=1,
        )
        assert isinstance(outcomes[0], RunFailure)
        assert outcomes[0].attempts == 1
        assert sleeps == []

    def test_success_records_single_attempt(self, tiny, sleeps):
        outcomes = run_specs([RunSpec(tiny, "direct", 1)], workers=1)
        assert outcomes[0].attempts == 1
        assert sleeps == []

    def test_backoff_is_exponential(self, tiny, monkeypatch, sleeps):
        self._budget(monkeypatch, 3, backoff=0.5)
        run_specs([RunSpec(tiny, "no-such-scheme", 1)], workers=1)
        assert sleeps == [0.5, 1.0, 2.0]

    def test_pool_path_retries_failures(self, tiny, monkeypatch):
        # Mixed batch across a real pool: the good spec succeeds on the
        # first round, the bad one is retried and keeps failing.
        self._budget(monkeypatch, 1)
        outcomes = run_specs(
            [RunSpec(tiny, "direct", 1), RunSpec(tiny, "no-such-scheme", 1)],
            workers=2,
        )
        assert isinstance(outcomes[0], RunDigest)
        assert outcomes[0].attempts == 1
        assert isinstance(outcomes[1], RunFailure)
        assert outcomes[1].attempts == 2


class TestFaultSummaryDigests:
    def test_digest_carries_fault_summary(self, tiny):
        from repro.faults import FaultConfig

        faulted = tiny.replace(
            faults=FaultConfig(loss_probability=0.3)
        )
        digest = execute_spec(RunSpec(faulted, "incentive", 1))
        fault_data = digest.fault_summary()
        assert fault_data["transfers_lost"] > 0
        assert fault_data["double_payments"] == 0.0

    def test_digest_matches_serial_run(self, tiny):
        from repro.experiments import run_scenario
        from repro.faults import FaultConfig

        faulted = tiny.replace(
            faults=FaultConfig(loss_probability=0.2)
        )
        digest = execute_spec(RunSpec(faulted, "incentive", 2))
        result = run_scenario(faulted, "incentive", 2)
        assert digest.fault_summary() == result.fault_summary()

    def test_digest_survives_pickling(self, tiny):
        from repro.faults import FaultConfig

        faulted = tiny.replace(
            faults=FaultConfig(loss_probability=0.2)
        )
        digest = execute_spec(RunSpec(faulted, "incentive", 1))
        clone = pickle.loads(pickle.dumps(digest))
        assert clone.fault_summary() == digest.fault_summary()
        assert clone.attempts == digest.attempts


class TestCacheIntegrity:
    """sha256 sidecars: corruption is detected, quarantined, rebuilt."""

    def test_put_writes_sidecar(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)
        path = cache.path_for(tiny, 1)
        sidecar = cache.digest_path_for(path)
        assert sidecar.exists()
        assert sidecar.read_text().strip() == cache._sha256_of(path)

    def test_bit_rot_quarantined_and_rebuilt(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)
        path = cache.path_for(tiny, 1)
        # Flip one byte mid-file: still a loadable npz prefix for some
        # corruptions, but the digest always catches it.
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        assert cache.get(tiny, 1) is None
        assert cache.corrupt == 1
        assert not path.exists()
        assert not cache.digest_path_for(path).exists()

        rebuilt = build_contact_trace(tiny, 1, cache=cache)
        assert len(rebuilt) > 0
        assert cache.get(tiny, 1) is not None

    def test_unparseable_entry_counts_as_corrupt(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)
        path = cache.path_for(tiny, 1)
        path.write_bytes(b"not an npz file")
        cache.digest_path_for(path).write_text(
            cache._sha256_of(path) + "\n"
        )  # digest matches, so the parse guard must catch it
        assert cache.get(tiny, 1) is None
        assert cache.corrupt == 1
        assert not path.exists()

    def test_legacy_entry_without_sidecar_accepted(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        built = build_contact_trace(tiny, 1, cache=cache)
        cache.digest_path_for(cache.path_for(tiny, 1)).unlink()
        loaded = cache.get(tiny, 1)
        assert _trace_tuples(loaded) == _trace_tuples(built)
        assert cache.corrupt == 0

    def test_sidecars_not_counted_as_entries(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)
        assert len(cache) == 1
        assert all(p.suffix == ".npz" for p in cache.entries())

    def test_clear_removes_sidecars(self, tiny, tmp_path):
        cache = TraceCache(tmp_path)
        build_contact_trace(tiny, 1, cache=cache)
        cache.clear()
        assert list(tmp_path.iterdir()) == []

    def test_prune_removes_sidecars(self, tiny, tmp_path):
        import os

        cache = TraceCache(tmp_path, max_entries=1)
        for index, seed in enumerate([1, 2]):
            build_contact_trace(tiny, seed, cache=cache)
            os.utime(cache.path_for(tiny, seed), (index, index))
        cache.prune()
        remaining = sorted(p.name for p in tmp_path.iterdir())
        assert len(remaining) == 2  # one entry + its sidecar
        assert remaining[1].endswith(".sha256")
