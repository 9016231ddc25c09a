"""Batched contact ticks & grouped gossip: equivalence and lifecycle.

Tests pinning the per-tick batched paths to their sequential
references:

* The batched up tick (``World._run_up_batch`` handing the tick to
  ``prepare_contact_batch``) must produce the same event trace as a
  ChitChat that keeps the base class's batched hooks, so every decay
  and growth runs pair by pair — on whole scenario runs (which must
  not run a single per-pair decay), on random ticks (every table state
  compared too), on the 4-node tick where hoisting a tick-start open
  peer's decay once changed an offer, and on the tick where a prune
  changes what a later decay stamps (DESIGN.md §9).
* The array planner (``ChitChatRouter._plan_decay``) must give every
  side of random ticks the round and stash decision of the per-side
  loop it replaced (``_reference_plan``), with equal store arrays,
  stashes, records and selection rows; growth rounds must equal the
  per-link loop's, and a forced disconnect's star of links must grow
  as per-pair ``run_rtsr_growth`` does (DESIGN.md §9).
* The selection kernel (``ChitChatRouter._select_sides``), over a whole
  tick or on one side, must offer what the per-message loop it
  replaced offers and leave the same memo entries, and a tick's stored
  result must not outlive the tick (DESIGN.md §10).
* The gossip merge kernel behind ``ReputationSystem.exchange``, planned
  for a whole tick by ``exchange_batch_rounds`` or run one pair at a
  time, must step every book through the states of a per-subject dict
  reference, for ids of either sign and empty books, never share
  storage between books, and leave no plan behind its tick; a tick of
  node-disjoint pairs is written whole when it is planned, and a
  ``forget`` on one book after a planned tick edits that book only.

Plus the regression tests for the three router-state lifecycle
bugfixes that ride along (retry-book pruning, churn-wipe memo
eviction, dark-receiver retransmission guard) — each fails on the
pre-fix code.

Exact ``==`` on floats and exact list equality throughout: the batched
forms evaluate the same IEEE expressions, so drift is a bug.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.incentive import IncentiveParams
from repro.core.incentive_layer import IncentiveLayer
from repro.core.reputation import RatingModel, ReputationSystem
from repro.faults import FaultConfig
from repro.experiments.bench_scale import scale_config
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.network.node import Node
from repro.network.world import World
from repro.routing import chitchat
from repro.routing.base import Router
from repro.routing.chitchat import ChitChatRouter, InterestTable
from repro.schemes import catalog
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.trace.recorder import TraceRecorder

from tests.helpers import make_message, make_world
from tests.test_fused_store_properties import _ReferenceBooks
from tests.test_world_soa_differential import normalise


# ----------------------------------------------------------------------
# Batched tick vs per-pair tick
# ----------------------------------------------------------------------
class _PerPairChitChat(ChitChatRouter):
    """ChitChat with the base class's batched hooks: every decay runs
    at its pair's ``prepare_contact`` (``InterestTable.decay``) and
    every growth at its link's ``on_contact_end``."""

    prepare_contact_batch = Router.prepare_contact_batch
    contact_end_batch = Router.contact_end_batch


class _Records(TraceRecorder):
    """Keeps every trace record in memory."""

    enabled = True

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))


def _seed_transient(table, keyword, weight, last_contact):
    """Poke one transient row, moving the version so memos refresh."""
    keyword_id = table._slot(keyword)
    table._weight[keyword_id] = weight
    table._direct[keyword_id] = False
    table._last[keyword_id] = last_contact
    table._present[keyword_id] = True
    table._members_version += 1
    table.version += 1


def _open_peer_tick(substrate):
    """The trace of one tick where ``s``'s offer reads its open peer ``q``.

    Link ``s``–``q`` is open when the tick ``[(s, v), (q, x)]`` starts.
    ``q`` holds the message's only keyword as a transient at 0.4, last
    stamped 1,000 s ago; ``v`` holds it at 0.3, fresh; ``s`` and ``x``
    hold nothing.  ``q``'s first pair comes after ``(s, v)``, so per
    pair ``(s, v)``'s offer sees ``q`` undecayed and outbid.
    """
    s, v, q, x = 0, 1, 2, 3
    params = IncentiveParams(initial_tokens=100.0)
    router = IncentiveLayer(
        substrate,
        params=params,
        rating_model=RatingModel(params, noise=0.0, confidence_low=1.0),
    )
    recorder = _Records()
    world = World(
        Engine(), [Node(i, []) for i in range(4)], router,
        link_speed=1_000.0, streams=RandomStreams(7), trace=recorder,
    )
    world.inject_message(make_message(
        source=s, size=100, keywords=("k",), content=("k",), uuid="m-open",
    ))
    world._run_up_batch([(s, q)])
    world.engine.run_until(1_000.0)
    _seed_transient(substrate.table(q), "k", 0.4, last_contact=0.0)
    _seed_transient(substrate.table(v), "k", 0.3, last_contact=1_000.0)
    world._run_up_batch([(s, v), (q, x)])
    return recorder.records


def test_open_peer_decay_stays_sequential():
    per_pair = _open_peer_tick(_PerPairChitChat())
    declined = [r for r in per_pair if r["type"] == "offer-declined"]
    assert [r["reason"] for r in declined] == ["not-best-relay"]
    assert _open_peer_tick(ChitChatRouter()) == per_pair


def _run_tick(substrate, n_nodes, interests, start, seeds, tick, message):
    """Trace records and the router of one up tick at ``t = 1000``.

    Every table is created at ``t = 0``; the ``start`` pairs open then
    and stay open.  At ``t = 1000`` each ``(node, keyword, weight,
    last_contact)`` in ``seeds`` becomes a transient row, and the
    ``tick`` pairs come up in one batch.  ``message`` is
    ``(source, keywords)``, buffered at ``t = 0``.
    """
    params = IncentiveParams(initial_tokens=100.0)
    router = IncentiveLayer(
        substrate,
        params=params,
        rating_model=RatingModel(params, noise=0.0, confidence_low=1.0),
    )
    recorder = _Records()
    world = World(
        Engine(), [Node(i, interests[i]) for i in range(n_nodes)], router,
        link_speed=1_000.0, streams=RandomStreams(7), trace=recorder,
    )
    for node in range(n_nodes):
        substrate.table(node)
    source, keywords = message
    world.inject_message(make_message(
        source=source, size=100, keywords=keywords, content=keywords,
        uuid="m-tick",
    ))
    if start:
        world._run_up_batch(start)
    world.engine.run_until(1_000.0)
    for node, keyword, weight, last_contact in seeds:
        _seed_transient(substrate.table(node), keyword, weight, last_contact)
    world._run_up_batch(tick)
    return recorder.records, substrate


def _assert_same_tables(batched, per_pair, n_nodes):
    """Equal weights, direct and present flags, and ``T_l`` on present
    cells (an absent cell's ``T_l`` is never read)."""
    for node in range(n_nodes):
        a = batched.table(node)
        b = per_pair.table(node)
        assert np.array_equal(a._weight, b._weight), node
        assert np.array_equal(a._direct, b._direct), node
        assert np.array_equal(a._present, b._present), node
        assert np.array_equal(a._last[a._present], b._last[b._present]), node


def _membership_order_tick(substrate):
    """The tick where ``p``'s prune decides what ``n``'s decay stamps.

    ``p`` holds keyword ``k`` as a transient at 5e-4, last stamped
    1,000 s ago, so its first decay (pair ``(p, x)``) divides it by 10
    and prunes it.  ``n`` holds ``k`` at 0.4, just as stale; its first
    pair is ``(p, n)``, so its decay reads ``p``'s membership after the
    prune, leaves ``k`` unstamped and divides it.  Read at tick start,
    ``p`` would still hold ``k`` and ``n``'s ``k`` would be stamped
    instead.  (``n`` cannot read ``p`` through a tick-start link: ``p``
    would then read ``n``'s ``k`` and stamp its own.)
    """
    p, n, x = 0, 1, 2
    return _run_tick(
        substrate, 3, [[], [], []], start=[],
        seeds=[(p, "k", 5e-4, 0.0), (n, "k", 0.4, 0.0)],
        tick=[(p, x), (p, n)], message=(x, ("k",)),
    )


def test_prune_orders_later_decays():
    per_pair, per_pair_router = _membership_order_tick(_PerPairChitChat())
    n_table = per_pair_router.table(1)
    assert n_table.weight("k") == 0.4 / 10.0
    assert "k" not in per_pair_router.table(0)
    batched, batched_router = _membership_order_tick(ChitChatRouter())
    assert batched == per_pair
    _assert_same_tables(batched_router, per_pair_router, 3)


_KEYWORDS = ("k0", "k1", "k2", "k3", "k4")


@st.composite
def decay_ticks(draw):
    """One up tick with repeated nodes over seeded, prune-prone rows."""
    n_nodes = draw(st.integers(min_value=5, max_value=8))
    pairs = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    interests = [
        draw(st.lists(st.sampled_from(_KEYWORDS), max_size=2, unique=True))
        for _ in range(n_nodes)
    ]
    start = draw(st.lists(st.sampled_from(pairs), max_size=5, unique=True))
    tick = draw(st.lists(
        st.sampled_from([pair for pair in pairs if pair not in start]),
        min_size=2, max_size=6, unique=True,
    ))
    nodes = [node for pair in tick for node in pair]
    assume(len(set(nodes)) < len(nodes))
    seeds = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_nodes - 1),
            st.sampled_from(_KEYWORDS),
            st.floats(min_value=2e-4, max_value=5e-3),
            st.floats(min_value=0.0, max_value=990.0),
        ),
        max_size=16,
    ))
    message = (
        draw(st.integers(min_value=0, max_value=n_nodes - 1)),
        tuple(draw(st.lists(
            st.sampled_from(_KEYWORDS), min_size=1, max_size=2, unique=True,
        ))),
    )
    return n_nodes, interests, start, seeds, tick, message


@given(decay_ticks())
@settings(max_examples=200, deadline=None)
def test_batched_tick_matches_per_pair_states(scenario):
    """Random ticks: equal trace records and equal table states."""
    n_nodes = scenario[0]
    per_pair, per_pair_router = _run_tick(_PerPairChitChat(), *scenario)
    batched, batched_router = _run_tick(ChitChatRouter(), *scenario)
    assert batched == per_pair
    _assert_same_tables(batched_router, per_pair_router, n_nodes)


def _trace_lines(path):
    mapping = {}
    with open(path, encoding="utf-8") as handle:
        return [normalise(line.rstrip("\n"), mapping) for line in handle]


@pytest.mark.parametrize("case", ("hetero", "churn-wipe", "city-start"))
def test_batched_tick_matches_per_pair_tick(case, tmp_path, monkeypatch):
    """Whole runs: the batched tick and the per-pair tick trace alike,
    the batched tick never runs a per-pair decay or a one-side
    selection, and no planned gossip outlives its up tick."""
    if case == "hetero":
        config = ScenarioConfig.hetero(n_nodes=60, duration=900.0)
        scheme = "incentive-chitchat-hetero"
    elif case == "churn-wipe":
        config = ScenarioConfig.tiny(
            faults=FaultConfig(mean_uptime=600.0, mean_downtime=120.0)
        )
        scheme = "incentive"
    else:
        # The 10k tier's start-up regime at 1k nodes: most decay sides
        # can prune.
        config = scale_config(1_000, 300.0)
        scheme = "incentive"
    decays = []
    per_pair_decay = InterestTable.decay

    def counting(table, *args, **kwargs):
        decays.append(table._row)
        return per_pair_decay(table, *args, **kwargs)

    monkeypatch.setattr(InterestTable, "decay", counting)
    one_side = []
    kernel = ChitChatRouter._select_sides

    def counting_select(router, sides, weights, *rows):
        # The one-side form reads the store; the tick's form reads the
        # side rows its plan handed over.
        if weights is router._store._w:
            one_side.extend(sides)
        return kernel(router, sides, weights, *rows)

    monkeypatch.setattr(ChitChatRouter, "_select_sides", counting_select)
    planned_left = []
    run_up = World._run_up_batch

    def checked_up(world, batch):
        run_up(world, batch)
        planned_left.append(len(world.router.reputation._planned))

    monkeypatch.setattr(World, "_run_up_batch", checked_up)
    batched = tmp_path / "batched.jsonl"
    run_scenario(config, scheme, seed=1, trace_path=str(batched))
    assert decays == []
    # Every side with a non-empty sender buffer took its batched result.
    assert one_side == []
    # Every planned gossip ran at its pair's exchange within the tick.
    assert planned_left and not any(planned_left)
    # Both schemes build their substrate through this module name.
    monkeypatch.setattr(protocol, "ChitChatRouter", _PerPairChitChat)
    per_pair = tmp_path / "per-pair.jsonl"
    result = run_scenario(config, scheme, seed=1, trace_path=str(per_pair))
    assert isinstance(result.router.substrate, _PerPairChitChat)
    lines = _trace_lines(batched)
    if case == "churn-wipe":
        assert any(
            json.loads(line).get("wiped") is True for line in lines
        ), "no churn wipe happened"
    assert _trace_lines(per_pair) == lines


# ----------------------------------------------------------------------
# Honouring the contact-hook mask vs a router asking for every pair
# ----------------------------------------------------------------------
@st.composite
def sparse_scenarios(draw):
    """A small run where most encounters have nothing to send, with or
    without faults, under the incentive layer or plain ChitChat."""
    side = draw(st.sampled_from((200.0, 300.0, 500.0)))
    faulted = draw(st.booleans())
    config = ScenarioConfig.tiny(
        n_nodes=draw(st.integers(min_value=8, max_value=24)),
        area=(side, side),
        duration=draw(st.sampled_from((600.0, 900.0))),
        message_interval=draw(st.sampled_from((60.0, 300.0, 900.0))),
        ttl=draw(st.sampled_from((120.0, 600.0))),
        faults=FaultConfig(
            loss_probability=0.2, mean_uptime=400.0, mean_downtime=100.0,
            churn_policy="wipe",
        ) if faulted else None,
        max_retransmissions=1 if faulted else 0,
        selfish_fraction=0.2 if faulted else 0.0,
        malicious_fraction=0.1 if faulted else 0.0,
    )
    scheme = draw(st.sampled_from(("incentive", "chitchat")))
    return config, scheme, draw(st.integers(min_value=1, max_value=99))


def _assert_same_run(result, reference):
    """Equal summaries, interest stores (``T_l`` on present cells),
    versions, records, books and balances.

    The per-pair tick creates a tick's tables after the earlier pairs'
    exchanges have interned their messages' keywords, the planned tick
    before them, so the same keyword may sit in another column: the
    stores are compared keyword by keyword.
    """
    assert result.summary() == reference.summary()
    layered = hasattr(result.router, "substrate")
    routers = (
        (result.router.substrate, reference.router.substrate) if layered
        else (result.router, reference.router)
    )
    store, other = (router._store for router in routers)
    assert {n: t._row for n, t in routers[0]._tables.items()} == {
        n: t._row for n, t in routers[1]._tables.items()
    }
    index, other_index = (router.keyword_index for router in routers)
    assert len(index) == len(other_index)
    columns = [other_index.get(index.name_of(i)) for i in range(len(index))]
    held = len(index)

    def padded(array):
        return np.pad(array, ((0, 0), (0, max(0, held - array.shape[1]))))

    for name in ("_w", "_d", "_p", "_l"):
        mine, theirs = getattr(store, name), getattr(other, name)
        if name == "_l":
            mine, theirs = mine * store._p, theirs * other._p
        mine, theirs = padded(mine), padded(theirs)
        assert np.array_equal(mine[:, :held], theirs[:, columns]), name
        assert not mine[:, held:].any() and not theirs[:, held:].any(), name
    for name in ("_versions", "_stamped_versions"):
        assert np.array_equal(getattr(store, name), getattr(other, name)), name
    assert np.array_equal(store._stamped_at, other._stamped_at, equal_nan=True)
    if layered:
        books, other_books = (
            router.reputation._books for router in (
                result.router, reference.router
            )
        )
        assert books.keys() == other_books.keys()
        for node, book in books.items():
            assert np.array_equal(book._subjects, other_books[node]._subjects)
            assert np.array_equal(book._values, other_books[node]._values)
        assert result.router.ledger.balances() == (
            reference.router.ledger.balances()
        )


@given(sparse_scenarios())
@settings(max_examples=30, deadline=None)
def test_mask_matches_every_hook(scenario):
    """Skipping the hooks the mask leaves out (and writing their state
    at plan time) gives the per-pair router's results, where every pair
    takes its hook and every decay, growth and gossip runs per pair."""
    config, scheme, seed = scenario
    hooks = []
    open_contact = World._open_contact

    def counting(world, pair, hook=True):
        hooks.append(hook)
        return open_contact(world, pair, hook)

    with mock.patch.object(World, "_open_contact", counting):
        result = run_scenario(config, scheme, seed=seed)
    if not all(hooks):
        event("a pair skips its hook")
    with mock.patch.object(
        protocol, "ChitChatRouter", _PerPairChitChat
    ), mock.patch.object(catalog, "ChitChatRouter", _PerPairChitChat):
        reference = run_scenario(config, scheme, seed=seed)
    substrate = getattr(reference.router, "substrate", reference.router)
    assert isinstance(substrate, _PerPairChitChat)
    _assert_same_run(result, reference)


def test_unplanned_exchange_after_skipping_tick_merges():
    """A tick whose pairs all skip their hook writes its gossip at plan
    time and leaves no plan behind, so a later unplanned exchange of one
    of its pairs merges again as a one-pair round zero."""
    params = IncentiveParams()
    router = IncentiveLayer(ChitChatRouter(), params=params)
    world = World(
        Engine(), [Node(i, []) for i in range(4)], router,
        streams=RandomStreams(7),
    )
    books = {
        0: {1: 1.0, 2: 2.0, 3: 3.0}, 1: {0: 1.5, 2: 4.0},
        2: {1: 2.5, 3: 0.5}, 3: {0: 1.0, 2: 1.0},
    }
    system = router.reputation
    reference = _ReferenceBooks(
        list(books), params.alpha, params.default_rating,
    )
    for node, scores in books.items():
        book = system.book(node)
        book._subjects = np.array(list(scores), dtype=np.int64)
        book._values = np.array(list(scores.values()), dtype=np.float64)
        reference.scores[node] = dict(scores)
    tick = [(0, 1), (2, 3), (1, 2), (0, 3)]
    assert not router.prepare_contact_batch(tick).any()
    assert system._planned == {}
    for a, b in tick:
        reference.exchange(a, b)
    for node in books:
        _assert_book(system, reference, node)
    system.exchange(1, 2)
    reference.exchange(1, 2)
    for node in books:
        _assert_book(system, reference, node)


# ----------------------------------------------------------------------
# Array planner vs the per-side loop
# ----------------------------------------------------------------------
def _reference_plan(router, pairs):
    """The per-side planning loop the array planner replaced.

    Runs the up tick's plan on ``router`` side by side: tables created
    in first-appearance order, every decay side given its round in
    per-pair order, each round run on scratch rows (sides written at
    plan time through ``InterestStore.batch_decay``, the rest stashed in
    ``_planned``).  A side is stashed when its node is in the read set
    (an endpoint of a pair with a non-empty sender buffer, or a
    tick-start open peer of a node with a non-empty buffer) and it is
    not the node's first side or an open peer's first pair comes
    earlier.  ``_planned`` keeps the busy pairs and the pairs holding a
    stashed side.  Returns ``(rounds, stashed, side_rows)``: per side
    ``(pair, slot)`` of a node not fully stamped at tick start, its
    round and whether it was stashed; and the selection rows.
    """
    planned = router._planned
    planned.clear()
    tables = router._tables
    store = router._store
    now = router.world.now
    first, count, busy, need = {}, {}, set(), {}
    for k, pair in enumerate(pairs):
        planned[pair] = [None, None]
        for slot, n in enumerate(pair):
            if n in count:
                count[n] += 1
            else:
                first[n] = k
                count[n] = 1
                router.table(n)
                if router.world.node(n).buffer._messages:
                    busy.add(n)
            if n in busy:
                need.setdefault(k, 2 * len(need))
    side_rows = store._w[[tables[n]._row for k in need for n in pairs[k]]]
    read = {n for k in need for n in pairs[k]}
    for n in first:
        for link in router.world.open_links(n):
            if link.a + link.b - n in busy:
                read.add(n)
    kept = {pairs[k] for k in need}
    nodes = list(first)
    rows = np.array([tables[n]._row for n in nodes], dtype=np.intp)
    P, L = store._p[rows], store._l[rows]
    live = (P & (L < now)).any(axis=1)
    active = []
    for n, is_live in zip(nodes, live.tolist()):
        if is_live:
            active.append(n)
        else:
            t = tables[n]
            t._stamped = (now, t.version, t._members_version)
    rounds, stashed = {}, {}
    if not active:
        for pair in pairs:
            if pair not in kept:
                del planned[pair]
        return rounds, stashed, side_rows
    n_active = len(active)
    act_rows = rows[live]
    sW, sD, sL = store._w[act_rows], store._d[act_rows], L[live]
    sV = store._versions[act_rows]
    transient = P[live] & ~sD
    wmin = np.where(transient, sW, np.inf).min(axis=1)
    lmin = np.where(transient, sL, np.inf).min(axis=1)
    denmax = np.maximum(router.beta * (now - lmin), 1.0)
    n_sides = np.array([count[n] for n in active], dtype=np.float64)
    first_prune = [0] * n_active
    for i in np.flatnonzero(wmin < 2e-3 * denmax ** n_sides).tolist():
        j = 1
        while not wmin[i] < 2e-3 * denmax[i] ** j:
            j += 1
        first_prune[i] = j
    index = {n: i for i, n in enumerate(active)}
    member_rows = act_rows.tolist()

    def member(node):
        m = index.get(node)
        if m is None:
            m = index[node] = len(member_rows)
            member_rows.append(tables[node]._row)
        return m

    sources = [[] for _ in active]
    readers = [[] for _ in active]
    seen = [0] * n_active
    last = [-1] * n_active
    prune_round = [-1] * n_active
    schedule = []
    for k, pair in enumerate(pairs):
        base = need.get(k)
        for slot in (0, 1):
            n = pair[slot]
            i = index.get(n, n_active)
            if i >= n_active:
                continue
            s = seen[i] = seen[i] + 1
            stash = s > 1
            peers = [pair[1 - slot]]
            if s == 1:
                for link in router.world.open_links(n):
                    peer = link.b if link.a == n else link.a
                    peers.append(peer)
                    if first.get(peer, k) < k:
                        stash = True
            stash = stash and n in read
            if stash:
                kept.add(pair)
            for peer in peers:
                m = member(peer)
                sources[i].append(m)
                if m < n_active and first_prune[m]:
                    readers[i].append(m)
            r = last[i] + 1
            for q in readers[i]:
                if prune_round[q] >= r:
                    r = prune_round[q] + 1
            last[i] = r
            if first_prune[i] and s >= first_prune[i]:
                prune_round[i] = r
            if r == len(schedule):
                schedule.append(([], [], [], []))
            schedule[r][stash].append((i, len(sources[i]), pair, slot))
            if base is not None:
                schedule[r][2].append(base + slot)
                schedule[r][3].append(i)
            rounds[pair, slot] = r
            stashed[pair, slot] = stash
    members = store._p[member_rows]
    for now_sides, stash_sides, handed, outputs in schedule:
        flat, starts = [], []
        for i, n_read, _, _ in now_sides + stash_sides:
            starts.append(len(flat))
            flat.extend(sources[i][:n_read])
        masks = np.bitwise_or.reduceat(
            members[flat].view(np.uint64), starts, axis=0
        ).view(bool)
        split = len(now_sides)
        if now_sides:
            idx = [side[0] for side in now_sides]
            sW[idx], sL[idx], members[idx] = store.batch_decay(
                act_rows[idx], masks[:split], now, beta=router.beta
            )
            sV[idx] = store._versions[act_rows[idx]]
        if stash_sides:
            idx = [side[0] for side in stash_sides]
            block = store._decay_block(
                sW[idx], sD[idx], members[idx], sL[idx], masks[split:],
                now, router.beta,
            )
            sW[idx], sL[idx], members[idx] = block[:3]
            sV[idx] += block[3]
            for j, (_, _, pair, slot) in enumerate(stash_sides):
                planned[pair][slot] = (
                    block[0][j], block[1][j], block[2][j],
                    sV[idx[j]].copy(), bool(block[4][j]),
                )
        if handed:
            side_rows[handed] = sW[outputs]
    for pair in pairs:
        if pair not in kept:
            del planned[pair]
    return rounds, stashed, side_rows


def _reference_growth(router, links):
    """Growth rounds as the per-link loop assigned them; runs them.

    Returns each non-zero-duration link's round, in close order."""
    now = router.world.now
    last_round, schedule, rounds = {}, [], []
    for link in links:
        clipped = min(now - link.opened_at, router.growth_elapsed_cap)
        if clipped <= 0.0:
            continue
        r = max(last_round.get(link.a, -1), last_round.get(link.b, -1)) + 1
        last_round[link.a] = last_round[link.b] = r
        rounds.append(r)
        if r == len(schedule):
            schedule.append(([], [], []))
        schedule[r][0].append(router.table(link.a)._row)
        schedule[r][1].append(router.table(link.b)._row)
        schedule[r][2].append(clipped)
    for rows_a, rows_b, effective in schedule:
        router._store.batch_grow_pairs(
            np.array(rows_a), np.array(rows_b), np.array(effective), now,
            growth_scale=router.growth_scale,
        )
    return rounds


class _Closed:
    """A closed link as ``contact_end_batch`` reads it."""

    def __init__(self, a, b, opened_at):
        self.a, self.b, self.opened_at = a, b, opened_at
        self.pair = (a, b)


def _assert_same_router(batched, reference, nodes):
    """Equal store arrays (absent cells too), versions and records."""
    for name in ("_w", "_d", "_l", "_p"):
        assert np.array_equal(
            getattr(batched._store, name), getattr(reference._store, name)
        ), name
    for node in nodes:
        a, b = batched._tables.get(node), reference._tables.get(node)
        assert (a is None) == (b is None), node
        if a is not None:
            assert a._row == b._row, node
            assert (a.version, a._members_version, a._stamped) == (
                b.version, b._members_version, b._stamped
            ), node


def _same_side(a, b):
    if a is None or b is None:
        return a is b
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@st.composite
def plan_ticks(draw):
    """One up tick, then the close of its pairs.

    Nodes repeat across pairs; some have links open at tick start, some
    tables are created by the tick itself, some are fully stamped (no
    cell older than the tick), and seeded transients near the prune
    threshold and long stale make sides that may prune.
    """
    n_nodes = draw(st.integers(min_value=4, max_value=9))
    pairs = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    interests = [
        draw(st.lists(st.sampled_from(_KEYWORDS), max_size=2, unique=True))
        for _ in range(n_nodes)
    ]
    tick = draw(st.lists(
        st.sampled_from(pairs), min_size=2, max_size=10, unique=True,
    ))
    nodes = [node for pair in tick for node in pair]
    assume(len(set(nodes)) < len(nodes))
    start = draw(st.lists(
        st.sampled_from([pair for pair in pairs if pair not in tick]),
        max_size=5, unique=True,
    )) if len(tick) < len(pairs) else []
    tabled = sorted(
        {n for pair in start for n in pair}
        | set(draw(st.lists(st.integers(0, n_nodes - 1), max_size=n_nodes)))
    )
    seeds = draw(st.lists(
        st.tuples(
            st.sampled_from(tabled) if tabled else st.nothing(),
            st.sampled_from(_KEYWORDS),
            st.sampled_from((2e-4, 6e-4, 1.5e-3, 4e-3, 0.05, 0.4)),
            st.sampled_from((0.0, 400.0, 900.0, 990.0, 1_000.0)),
        ),
        max_size=16 if tabled else 0,
    ))
    sources = draw(st.lists(
        st.integers(min_value=0, max_value=n_nodes - 1), max_size=3,
    ))
    opened = draw(st.lists(
        st.sampled_from((1_000.0, 999.0, 700.0, 0.0)),
        min_size=len(tick), max_size=len(tick),
    ))
    return n_nodes, interests, start, tabled, tick, seeds, sources, opened


def _plan_world(router, n_nodes, interests, start, tabled, seeds, sources):
    """A world at ``t = 1000`` just before the tick."""
    world = World(
        Engine(), [Node(i, interests[i]) for i in range(n_nodes)], router,
        link_speed=1_000.0, streams=RandomStreams(7),
    )
    for node in tabled:
        router.table(node)
    for i, source in enumerate(sources):
        world.inject_message(make_message(
            source=source, size=100, keywords=("k0",), uuid=f"p{i}",
        ))
    if start:
        world._run_up_batch(start)
    world.engine.run_until(1_000.0)
    for node, keyword, weight, last_contact in seeds:
        _seed_transient(router.table(node), keyword, weight, last_contact)
    return world


@given(plan_ticks())
@settings(max_examples=250, deadline=None)
def test_array_planner_matches_per_side_loop(scenario):
    """Equal rounds, stash decisions, stores, stashes, records and
    selection rows for every side of the tick, then equal growth rounds
    and states for the close of its pairs."""
    n_nodes, interests, start, tabled, tick, seeds, sources, opened = scenario
    setup = (n_nodes, interests, start, tabled, seeds, sources)
    batched, reference = ChitChatRouter(), ChitChatRouter()
    _plan_world(batched, *setup)
    _plan_world(reference, *setup)
    captured = {}
    solve, select = chitchat._rounds, ChitChatRouter._select_sides

    def solved(lower, src, dst):
        captured.setdefault("rounds", solve(lower, src, dst))
        return captured["rounds"]

    def selecting(router, sides, weights, *rows):
        captured["side_rows"] = weights.copy()
        return select(router, sides, weights, *rows)

    with mock.patch.object(chitchat, "_rounds", solved), mock.patch.object(
        ChitChatRouter, "_select_sides", selecting
    ):
        keep = batched.prepare_contact_batch(tick)
    rounds, stashed, side_rows = _reference_plan(reference, tick)
    ordinal = {}
    for (pair, slot) in rounds:
        ordinal[pair[slot]] = ordinal.get(pair[slot], -1) + 1
        if rounds[pair, slot] > ordinal[pair[slot]]:
            event("a may-prune peer delays a side")
        if stashed[pair, slot] and not ordinal[pair[slot]]:
            event("an open peer stashes a first side")
        if ordinal[pair[slot]] and not stashed[pair, slot]:
            event("an unread node's later side is written at plan time")
    if not keep.all():
        event("a pair skips its hook")
    assert captured.get("rounds", np.empty(0)).tolist() == list(
        rounds.values()
    )
    assert {
        key for key in rounds
        if batched._planned.get(key[0], (None, None))[key[1]] is not None
    } == {key for key, stash in stashed.items() if stash}
    assert batched._planned.keys() == reference._planned.keys()
    assert keep.tolist() == [pair in reference._planned for pair in tick]
    for pair, sides in reference._planned.items():
        assert all(map(_same_side, batched._planned[pair], sides)), pair
    if "side_rows" in captured:
        assert np.array_equal(captured["side_rows"], side_rows)
    _assert_same_router(batched, reference, range(n_nodes))
    links = [_Closed(a, b, t) for (a, b), t in zip(tick, opened)]
    captured.clear()
    with mock.patch.object(chitchat, "_rounds", solved):
        batched.contact_end_batch(links)
    growth = _reference_growth(reference, links)
    if "rounds" in captured:
        assert captured["rounds"].tolist() == growth
    _assert_same_router(batched, reference, range(n_nodes))


@st.composite
def star_closes(draw):
    """A forced disconnect: 1-12 links of one hub closing in order.

    Some links have zero duration; the hub and its peers hold direct
    and transient cells, and each side lacks cells the other holds.
    """
    n_peers = draw(st.integers(min_value=1, max_value=12))
    interests = [
        draw(st.lists(st.sampled_from(_KEYWORDS), max_size=2, unique=True))
        for _ in range(n_peers + 1)
    ]
    seeds = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_peers),
            st.sampled_from(_KEYWORDS),
            st.floats(min_value=1e-3, max_value=1.0),
        ),
        max_size=3 * n_peers,
    ))
    hub = draw(st.integers(min_value=0, max_value=n_peers))
    peers = draw(st.permutations([n for n in range(n_peers + 1) if n != hub]))
    opened = draw(st.lists(
        st.sampled_from((1_000.0, 999.5, 900.0, 0.0)),
        min_size=n_peers, max_size=n_peers,
    ))
    return interests, seeds, hub, peers, opened


@given(star_closes())
@settings(max_examples=200, deadline=None)
def test_star_growth_matches_per_pair_growth(scenario):
    """A batch of links sharing one node grows bit-identically to
    per-pair ``run_rtsr_growth`` in close order, versions included."""
    interests, seeds, hub, peers, opened = scenario
    routers = ChitChatRouter(), ChitChatRouter()
    for router in routers:
        world = World(
            Engine(), [Node(i, keys) for i, keys in enumerate(interests)],
            router, streams=RandomStreams(7),
        )
        world.engine.run_until(1_000.0)
        for node in range(len(interests)):
            router.table(node)
        for node, keyword, weight in seeds:
            _seed_transient(router.table(node), keyword, weight, 500.0)
    links = [
        _Closed(min(hub, peer), max(hub, peer), t)
        for peer, t in zip(peers, opened)
    ]
    batched, reference = routers
    batched.contact_end_batch(links)
    for link in links:
        reference.run_rtsr_growth(link, 1_000.0 - link.opened_at)
    _assert_same_router(batched, reference, range(len(interests)))


# ----------------------------------------------------------------------
# Selection kernel vs the per-message loop
# ----------------------------------------------------------------------
def _memo_of(router, node_id):
    """Memoised sums for the table's current version."""
    version = router.table(node_id).version
    cached = router._sum_cache.get(node_id)
    if cached is None or cached[0] != version:
        cached = router._sum_cache[node_id] = (version, {})
    return cached[1]


def _reference_select(router, sender_id, receiver_id):
    """The per-message selection loop the kernel replaced.

    Each candidate (unseen, fits the receiver's buffer) fills its cold
    memo entries from ``sum_for_ids``, and is a destination when the
    receiver's table holds one of its keywords as a direct cell; the
    offers are the destinations, then the relays with ``S_r > S_s``,
    each by ``(-S_r, uuid)``.
    """
    sender = router.world.node(sender_id)
    if len(sender.buffer) == 0:
        return []
    receiver = router.world.node(receiver_id)
    table_r = router.table(receiver_id)
    table_s = router.table(sender_id)
    sums_r = _memo_of(router, receiver_id)
    sums_s = _memo_of(router, sender_id)
    destinations, relays = [], []
    for message in sender.buffer.messages():
        if receiver.has_seen(message.uuid):
            continue
        if message.size > receiver.buffer.capacity:
            continue
        key = message._memo_key
        if key is None:
            key = router._intern_key(message)
        ids = router._message_ids(message, key)
        if key not in sums_r:
            sums_r[key] = table_r.sum_for_ids(ids)
        if key not in sums_s:
            sums_s[key] = table_s.sum_for_ids(ids)
        strength = sums_r[key]
        if any(map(table_r.is_direct, message.keywords)):
            destinations.append((strength, message))
        elif strength > sums_s[key]:
            relays.append((strength, message))
    destinations.sort(key=lambda item: (-item[0], item[1].uuid))
    relays.sort(key=lambda item: (-item[0], item[1].uuid))
    return (
        [(m, "destination") for _, m in destinations]
        + [(m, "relay") for _, m in relays]
    )


def _typed(entries):
    return {key: (value, type(value)) for key, value in entries.items()}


class _LoggedBatched(ChitChatRouter):
    """Logs every side's offers and both endpoints' memo entries."""

    def __init__(self):
        super().__init__()
        self.log = []

    def select_messages(self, sender_id, receiver_id):
        offers = self._select(sender_id, receiver_id)
        memo_s = _memo_of(self, sender_id)
        memo_r = _memo_of(self, receiver_id)
        self.log.append((
            (sender_id, receiver_id),
            [(message.uuid, role) for message, role in offers],
            _typed(memo_s), _typed(memo_r),
        ))
        return offers

    def _select(self, sender_id, receiver_id):
        return super().select_messages(sender_id, receiver_id)


class _LoggedOneSide(_LoggedBatched):
    prepare_contact_batch = Router.prepare_contact_batch
    contact_end_batch = Router.contact_end_batch


class _LoggedReference(_LoggedOneSide):
    def _select(self, sender_id, receiver_id):
        return _reference_select(self, sender_id, receiver_id)


_SELECT_KEYWORDS = ("k0", "k1", "k2", "k3")


@st.composite
def selection_ticks(draw):
    """One up tick over full buffers, read at every side.

    Nodes repeat across pairs and may have links open at tick start.
    Buffers differ in size, so some messages do not fit some
    receivers; some receivers have already seen some messages.  One
    message may carry ``far``, a keyword interned past the store's
    columns, and one may carry no keyword at all; repeated keyword
    sequences tie on strength.
    """
    n_nodes = draw(st.integers(min_value=3, max_value=6))
    pairs = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    nodes = [
        (
            draw(st.lists(
                st.sampled_from(_SELECT_KEYWORDS), max_size=2, unique=True,
            )),
            draw(st.sampled_from((1_000, 10_000))),
        )
        for _ in range(n_nodes)
    ]
    sequences = st.lists(
        st.sampled_from(_SELECT_KEYWORDS + ("far",)), max_size=3, unique=True,
    )
    messages = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_nodes - 1),
            sequences,
            st.sampled_from((100, 2_000)),
        ),
        min_size=1, max_size=8,
    ))
    # Equal sequences at one source: the strength tie goes to the uuid.
    messages.append(messages[0])
    seen = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_nodes - 1),
            st.integers(min_value=0, max_value=len(messages) - 1),
        ),
        max_size=6,
    ))
    start = draw(st.lists(
        st.sampled_from(pairs), max_size=len(pairs) - 1, unique=True,
    ))
    tick = draw(st.lists(
        st.sampled_from([pair for pair in pairs if pair not in start]),
        min_size=1, max_size=6, unique=True,
    ))
    seeds = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n_nodes - 1),
            st.sampled_from(_SELECT_KEYWORDS),
            st.sampled_from((2e-4, 0.05, 0.25, 0.5)),
            st.sampled_from((0.0, 500.0, 1_000.0)),
        ),
        min_size=2, max_size=12,
    ))
    return nodes, messages, seen, start, tick, seeds


def _selection_run(router, nodes, messages, seen, start, tick, seeds):
    """The log of every selection at the tick's time, ``t = 1000``."""
    world = World(
        Engine(),
        [
            Node(i, interests, buffer_capacity=capacity)
            for i, (interests, capacity) in enumerate(nodes)
        ],
        router, link_speed=1e9, streams=RandomStreams(7),
    )
    for node in range(len(nodes)):
        router.table(node)
    for i in range(12):
        router.keyword_index.id_of(f"filler-{i}")
    for i, (source, keywords, size) in enumerate(messages):
        if size > nodes[source][1]:
            size = 100
        world.inject_message(make_message(
            source=source, size=size, keywords=keywords, content=keywords,
            uuid=f"m{i}",
        ))
    if start:
        world._run_up_batch(start)
    world.engine.run_until(1_000.0)
    for node, index in seen:
        world.node(node).seen.add(f"m{index}")
    for node, keyword, weight, last_contact in seeds:
        _seed_transient(router.table(node), keyword, weight, last_contact)
    router.log = []
    world._run_up_batch(tick)
    return router.log


@given(selection_ticks())
@settings(max_examples=200, deadline=None)
def test_selection_kernel_matches_per_message_loop(scenario):
    """Batched and one-side kernels offer what the per-message loop
    offers, side by side, and leave equal memo entries after each call.
    The batched tick calls only the pairs it asks for, and the loop
    offers nothing on the pairs it skips."""
    reference = _selection_run(_LoggedReference(), *scenario)
    assert _selection_run(_LoggedOneSide(), *scenario) == reference
    batched = _selection_run(_LoggedBatched(), *scenario)
    called = {side for side, *_ in batched}
    if len(called) < len(reference):
        event("the tick skips a pair")
    assert [entry for entry in reference if entry[0] in called] == batched
    assert not any(
        offers for side, offers, *_ in reference if side not in called
    )


@pytest.mark.parametrize("change", ("seen", "buffer"))
def test_stored_selection_expires_with_its_tick(change):
    """A planned pair left unopened must not serve its stored selection
    once its tick is over: the call then selects from the state as it
    stands."""
    router = ChitChatRouter()
    world = make_world({0: [], 1: ["flood"], 2: [], 3: ["flood"]}, router)
    for source, uuid in ((0, "m0"), (2, "m2")):
        world.inject_message(make_message(
            source=source, size=100, keywords=("flood",), uuid=uuid,
        ))
    router.prepare_contact_batch([(0, 1), (2, 3)])
    world._open_contact((0, 1))
    assert (2, 3) in router._selected
    world.engine.run_until(10.0)
    if change == "seen":
        world.node(3).seen.add("m2")
        expected = []
    else:
        world.inject_message(make_message(
            source=2, size=100, keywords=("flood",), uuid="m2b",
        ))
        expected = [("m2", "destination"), ("m2b", "destination")]
    offers = router.select_messages(2, 3)
    assert [(m.uuid, role) for m, role in offers] == expected
    assert [
        (m.uuid, role) for m, role in _reference_select(router, 2, 3)
    ] == expected


# ----------------------------------------------------------------------
# Gossip merge kernel vs the dict reference
# ----------------------------------------------------------------------
@st.composite
def gossip_ticks(draw):
    """Books and one tick's pairs; nodes repeat across pairs, ids of
    either sign, empty books and opinions about the pair's own members
    are ordinary draws."""
    nodes = draw(st.lists(
        st.integers(min_value=-6, max_value=12),
        min_size=2, max_size=8, unique=True,
    ))
    books = {}
    for node in nodes:
        subjects = draw(st.lists(
            st.integers(min_value=-10, max_value=40), max_size=8, unique=True,
        ))
        books[node] = {
            subject: draw(st.floats(min_value=0.0, max_value=5.0))
            for subject in sorted(subjects)
        }
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes))
        if a != b and (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    return books, pairs


def _assert_book(system, reference, node):
    book = system.book(node)
    subjects = sorted(reference.scores[node])
    assert list(book.known_subjects()) == subjects, node
    assert book._values.tolist() == [
        reference.scores[node][subject] for subject in subjects
    ], node


def _seeded(books):
    """A reputation system and a dict reference holding ``books``."""
    params = IncentiveParams()
    system = ReputationSystem(params)
    reference = _ReferenceBooks(
        list(books), params.alpha, params.default_rating,
    )
    for node, scores in books.items():
        book = system.book(node)
        book._subjects = np.array(list(scores), dtype=np.int64)
        book._values = np.array(list(scores.values()), dtype=np.float64)
        reference.scores[node] = dict(scores)
    return system, reference


@given(gossip_ticks())
@settings(max_examples=150, deadline=None)
def test_exchange_batch_matches_pairwise(tick):
    """A tick of node-disjoint pairs is all round zero: planning it
    writes every book to where pairwise exchanges leave it, and the
    exchanges that follow only drain the plan."""
    books, drawn = tick
    pairs, busy = [], set()
    for a, b in drawn:
        if a not in busy and b not in busy:
            pairs.append((a, b))
            busy.update((a, b))
    system, reference = _seeded(books)
    system.exchange_batch_rounds(pairs)
    for a, b in pairs:
        reference.exchange(a, b)
    assert set(system._planned) == set(pairs)
    for node in books:
        _assert_book(system, reference, node)
    for a, b in pairs:
        system.exchange(a, b)
    assert system._planned == {}
    for node in books:
        _assert_book(system, reference, node)


def test_forget_after_batch_is_isolated():
    """A forget on one book after a planned tick, round-zero and
    later-round books alike, edits that book only."""
    system, _ = _seeded({
        0: {1: 1.0, 2: 2.0, 3: 3.0}, 1: {2: 4.0, 4: 1.5},
        2: {1: 2.5, 5: 0.5}, 3: {3: 1.0, 4: 1.0},
    })
    pairs = [(0, 1), (2, 3), (1, 2)]
    system.exchange_batch_rounds(pairs)
    for a, b in pairs:
        system.exchange(a, b)
    for node, subject in ((0, 2), (1, 5)):
        snapshot = {
            i: (system.book(i)._subjects.copy(), system.book(i)._values.copy())
            for i in range(4)
        }
        assert system.book(node).forget(subject)
        for i in range(4):
            if i != node:
                assert np.array_equal(system.book(i)._subjects, snapshot[i][0])
                assert np.array_equal(system.book(i)._values, snapshot[i][1])


@given(gossip_ticks())
@settings(max_examples=400, deadline=None)
def test_exchange_batch_rounds_matches_pairwise(tick):
    """Planned or not, every exchange leaves the pair's books where the
    per-subject dict reference does, and the tick's end state matches
    too.  Books never share storage and no plan outlives its pair."""
    books, pairs = tick
    for planned in (True, False):
        system, reference = _seeded(books)
        if planned:
            system.exchange_batch_rounds(pairs)
        for a, b in pairs:
            system.exchange(a, b)
            reference.exchange(a, b)
            _assert_book(system, reference, a)
            _assert_book(system, reference, b)
        assert system._planned == {}
        for node in books:
            _assert_book(system, reference, node)

        nodes = list(books)
        for node in nodes:
            # Own arrays, not views that would pin a round's buffer.
            assert system.book(node)._subjects.base is None
            assert system.book(node)._values.base is None
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                left_book, right_book = system.book(left), system.book(right)
                assert not np.shares_memory(
                    left_book._subjects, right_book._subjects
                )
                assert not np.shares_memory(
                    left_book._values, right_book._values
                )
        # Edits to one book, deleting and in place, leave the rest alone.
        first = system.book(nodes[0])
        known = first.known_subjects()
        if known:
            first.merge_opinion(known[-1], 5.0)
            first.forget(known[0])
            reference.merge(nodes[0], known[-1], 5.0)
            reference.scores[nodes[0]].pop(known[0])
        for node in nodes:
            _assert_book(system, reference, node)


# ----------------------------------------------------------------------
# Satellite bugfix regressions
# ----------------------------------------------------------------------
class TestRetryBookLifecycle:
    """S1: ``_retry_counts`` must drain as deliveries/expiries land."""

    def test_retry_book_empty_after_run_drains(self):
        config = ScenarioConfig.tiny(
            ttl=600.0,
            faults=FaultConfig(loss_probability=0.25),
            max_retransmissions=2,
        )
        result = run_scenario(config, "chitchat", seed=3)
        router = result.router
        # The run must actually have exercised the retry machinery,
        # else the emptiness assertion proves nothing.
        assert result.fault_summary()["retransmissions"] > 0
        # Messages created in the final TTL window outlive the run;
        # one more sweep past their deadline completes the drain.
        router.world._sweep_ttl(config.duration + config.ttl + 1.0)
        assert router._retry_counts == {}

    def test_delivery_prunes_receiver_entry(self):
        router = ChitChatRouter()
        make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        router._retry_counts["u1"] = {1: 2, 2: 1}
        router._prune_retries("u1", 1)
        assert router._retry_counts == {"u1": {2: 1}}
        router._prune_retries("u1", 2)
        assert router._retry_counts == {}

    def test_expiry_drops_whole_uuid_book(self):
        router = ChitChatRouter()
        make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        message = make_message(uuid="u2")
        router._retry_counts["u2"] = {1: 1, 3: 2}
        router.on_message_expired(0, message)
        assert router._retry_counts == {}


class _StubTransfer:
    def __init__(self, message, sender, receiver, reason):
        self.message = message
        self.sender = sender
        self.receiver = receiver
        self.abort_reason = reason


class _StubRetryWorld:
    """Just enough world for ``_maybe_retransmit`` unit tests."""

    def __init__(self, available):
        self._available = available
        self.scheduled = []

    def node_available(self, node_id):
        return self._available

    def schedule_in(self, delay, callback, *, label=""):
        self.scheduled.append(delay)


class TestDarkReceiverGuard:
    """S3: a retry toward a dark node must not consume the budget."""

    def _router(self, available):
        router = ChitChatRouter(max_retransmissions=2)
        router.bind(_StubRetryWorld(available))
        return router

    def test_budget_not_consumed_when_receiver_dark(self):
        router = self._router(available=False)
        transfer = _StubTransfer(make_message(uuid="u3"), 0, 1, "loss")
        router._maybe_retransmit(transfer)
        assert router._retry_counts == {}
        assert router.world.scheduled == []

    def test_budget_consumed_when_receiver_up(self):
        router = self._router(available=True)
        transfer = _StubTransfer(make_message(uuid="u3"), 0, 1, "loss")
        router._maybe_retransmit(transfer)
        assert router._retry_counts == {"u3": {1: 1}}
        assert len(router.world.scheduled) == 1

    def test_blackout_grid_run_stays_conservative(self):
        """End-to-end: battery blackouts + loss + retries stay sane."""
        config = ScenarioConfig.tiny(
            battery_capacity=2.0,  # joules: dies after a few transfers
            faults=FaultConfig(
                loss_probability=0.2,
                recharge_interval=300.0, recharge_amount=1.0,
            ),
            max_retransmissions=2,
        )
        result = run_scenario(config, "incentive", seed=2)
        ledger = result.router.ledger
        assert result.metrics.blackouts > 0
        assert ledger.total_supply() == pytest.approx(
            ledger.total_endowment(), abs=1e-6
        )


class TestWipeEvictsRouterState:
    """S2: churn wipe must reset tables and evict version-keyed memos."""

    def test_post_restart_sums_match_cold_computation(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        message = make_message(keywords=("power-grid",),
                               content=("power-grid",))
        table = router.table(0)
        table.add_direct("power-grid", now=0.0)  # version 0 -> 1
        warm = router.interest_sum(0, message)   # memo at version 1
        assert warm == 0.5

        world.on_node_crashed(0, wipe_state=True)
        # The wipe restarted the table: version 0, subscriptions only.
        assert router.table(0).version == 0
        assert router.table(0).weight("power-grid") == 0.0

        # Collide the version: one update brings the restarted table
        # back to version 1, where the stale memo was keyed.  Pre-fix,
        # interest_sum would serve 0.5 for weights that no longer
        # exist.
        router.table(0).add_direct("shelter", now=1.0)
        assert router.table(0).version == 1
        cold = router.table(0).sum_for_ids(
            router._message_ids(message, router._intern_key(message))
        )
        assert router.interest_sum(0, message) == cold == 0.0

    def test_wipe_only_touches_the_crashed_node(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        table_1 = router.table(1)
        table_1.add_direct("shelter", now=0.0)
        before = router.interest_sum(1, make_message(
            keywords=("shelter",), content=("shelter",)))
        world.on_node_crashed(0, wipe_state=True)
        assert router.table(1).version == table_1.version
        assert router.interest_sum(1, make_message(
            keywords=("shelter",), content=("shelter",))) == before

    def test_crash_without_wipe_keeps_state(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["rescue-team"]}, router)
        table = router.table(0)
        table.add_direct("power-grid", now=0.0)
        world.on_node_crashed(0, wipe_state=False)
        assert table.weight("power-grid") == 0.5
        assert table.version == 1
