"""Microbenchmarks for the simulator substrate.

These are genuine timing benchmarks (multiple rounds) for the hot paths
that determine whether the paper-scale scenario (500 nodes, 24 h) is
tractable: the event engine, vectorised mobility, grid-hashed contact
detection, and the ChitChat weight exchange.
"""

import numpy as np
import pytest

from repro.mobility.contact import pairs_in_range
from repro.mobility.random_waypoint import RandomWaypoint
from repro.routing.chitchat import InterestStore, KeywordIndex
from repro.sim.engine import Engine


def test_engine_event_throughput(benchmark):
    def run_10k_events():
        engine = Engine()
        for time in range(10_000):
            engine.schedule_at(float(time), lambda: None)
        engine.run()
        return engine.events_fired

    fired = benchmark(run_10k_events)
    assert fired == 10_000


def test_random_waypoint_advance_500_nodes(benchmark):
    rng = np.random.default_rng(1)
    model = RandomWaypoint(500, (2236.0, 2236.0), rng)

    def advance():
        model.advance(10.0)
        return model.positions[0, 0]

    benchmark(advance)


def test_contact_detection_500_nodes(benchmark):
    rng = np.random.default_rng(2)
    positions = rng.uniform(0.0, 2236.0, size=(500, 2))

    pairs = benchmark(pairs_in_range, positions, 100.0)
    assert isinstance(pairs, set)


def test_chitchat_weight_exchange(benchmark):
    keywords = [f"kw{i:03d}" for i in range(200)]
    store = InterestStore(KeywordIndex())
    mine = store.create_table(keywords[:20], created_at=0.0)
    peer = store.create_table(keywords[10:30], created_at=0.0)

    def exchange():
        mine.decay(100.0, set(), beta=0.01)
        mine.grow_from_arrays(*peer.snapshot_arrays(), 100.0, 60.0,
                              growth_scale=0.01, elapsed_cap=600.0)
        return mine.sum_for(keywords[:30])

    benchmark(exchange)


def test_interest_decay_fused_store(benchmark):
    """The same 256 tables decayed in one fused-store call."""
    from repro.experiments.bench import _bench_interest_decay_fused

    _name, run = _bench_interest_decay_fused()
    benchmark(run)


def test_gossip_merge_legacy_per_subject(benchmark):
    """600 per-subject ``merge_opinion`` calls — the historical loop."""
    from repro.experiments.bench import _bench_gossip_merge_legacy

    _name, run = _bench_gossip_merge_legacy()
    benchmark(run)


def test_gossip_merge_fused_arrays(benchmark):
    """The same 600-subject merge as one whole-book array pass."""
    from repro.experiments.bench import _bench_gossip_merge_fused

    _name, run = _bench_gossip_merge_fused()
    benchmark(run)


def test_paper_scale_contact_trace_one_hour(benchmark):
    """Paper-scale mobility for one simulated hour (24x less than the
    full run, same per-second cost)."""
    from repro.mobility.contact import detect_contacts

    def build():
        rng = np.random.default_rng(3)
        model = RandomWaypoint(500, (2236.0, 2236.0), rng)
        return len(detect_contacts(
            model, radius=100.0, duration=3600.0, scan_interval=10.0,
        ))

    count = benchmark.pedantic(build, rounds=1, iterations=1)
    assert count > 0
