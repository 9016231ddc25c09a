"""Unit tests for ChitChat's RTSR module and routing rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import contact, make_message, make_world, trace_of
from repro.core.operators import Operators
from repro.errors import ConfigurationError
from repro.routing.chitchat import (
    ChitChatRouter,
    InterestRecord,
    InterestStore,
    InterestTable,
    KeywordIndex,
    psi_case,
)


def _tables(*directs, created_at=0.0):
    """Interest tables over one fresh store (shared keyword index)."""
    store = InterestStore(KeywordIndex())
    return [store.create_table(d, created_at=created_at) for d in directs]


def _table(direct=(), created_at=0.0):
    return _tables(direct, created_at=created_at)[0]


def _grow(mine, peer, now, elapsed, *, growth_scale=0.01, elapsed_cap=600.0):
    """One side of Algorithm 2: ``mine`` grows from ``peer``'s snapshot."""
    mine.grow_from_arrays(
        *peer.snapshot_arrays(), now, elapsed,
        growth_scale=growth_scale, elapsed_cap=elapsed_cap,
    )


def _seed(table, keyword, weight, direct, last_contact=0.0):
    """Set one row directly, for states growth and decay cannot reach."""
    keyword_id = table._slot(keyword)
    if not table._present[keyword_id]:
        table._members_version += 1
    table._weight[keyword_id] = weight
    table._direct[keyword_id] = direct
    table._last[keyword_id] = last_contact
    table._present[keyword_id] = True


def _last_contact(table, keyword):
    return float(table._last[table.index.get(keyword)])


class TestPsiCase:
    def direct(self):
        return InterestRecord(weight=0.6, direct=True, last_contact=0.0)

    def transient(self):
        return InterestRecord(weight=0.3, direct=False, last_contact=0.0)

    def test_all_six_cases(self):
        assert psi_case(self.direct(), self.direct()) == 1
        assert psi_case(self.direct(), self.transient()) == 2
        assert psi_case(self.transient(), self.direct()) == 3
        assert psi_case(self.transient(), self.transient()) == 4
        assert psi_case(None, self.direct()) == 5
        assert psi_case(None, self.transient()) == 6


class TestInterestTable:
    def test_direct_interests_start_at_half(self):
        table = _table(["flood", "fire"])
        assert table.weight("flood") == 0.5
        assert table.is_direct("flood")
        assert table.weight("unknown") == 0.0

    def test_sum_and_average(self):
        table = _table(["flood", "fire"])
        assert table.sum_for(["flood", "fire", "x"]) == pytest.approx(1.0)
        assert table.average_for(["flood", "x"]) == pytest.approx(0.25)
        assert table.average_for([]) == 0.0

    def test_add_direct_promotes_transient(self):
        table, peer = _tables([], ["flood"])
        # delta = 0.01 * 0.5 * 200 / psi(None, direct)=5 -> 0.2
        _grow(table, peer, now=0.0, elapsed=200.0)
        assert table.weight("flood") == pytest.approx(0.2)
        table.add_direct("flood", now=1.0)
        assert table.is_direct("flood")
        assert table.weight("flood") == 0.5  # lifted to the floor

    # ---- Algorithm 1 (decay) ----
    def test_decay_direct_moves_toward_half(self):
        # Paper's worked example: w=0.6, beta=2, 5 s elapsed.  The thesis
        # reports 0.55, but its stated formula (W_p-0.5)/(beta*dt)+0.5
        # gives 0.1/10 + 0.5 = 0.51; we implement the formula.
        table, peer = _tables(["food-coupon"], ["food-coupon"])
        _grow(table, peer, now=0.0, elapsed=20.0)  # 0.5 + 0.1 at t=0
        assert table.weight("food-coupon") == pytest.approx(0.6)
        table.decay(5.0, set(), beta=2.0)
        assert table.weight("food-coupon") == pytest.approx(0.51)

    def test_decay_direct_below_half_rises_toward_half(self):
        table = _table(["flood"])
        _seed(table, "flood", 0.3, True)
        table.decay(5.0, set(), beta=2.0)
        assert 0.3 < table.weight("flood") < 0.5

    def test_decay_transient_shrinks_toward_zero(self):
        table, peer = _tables([], ["flood"])
        _grow(table, peer, now=0.0, elapsed=400.0)  # transient 0.4 at t=0
        table.decay(5.0, set(), beta=2.0)
        assert table.weight("flood") == pytest.approx(0.04)

    def test_decay_frozen_while_sharing_device_connected(self):
        table, peer = _tables(["flood"], ["flood"])
        _grow(table, peer, now=0.0, elapsed=80.0)  # 0.5 + 0.4 at t=0
        table.decay(100.0, {"flood"}, beta=2.0)
        assert table.weight("flood") == pytest.approx(0.9)
        assert _last_contact(table, "flood") == 100.0

    def test_decay_denominator_clamped_to_one(self):
        # beta * dt < 1 must not *amplify* the deviation from 0.5.
        table, peer = _tables(["flood"], ["flood"])
        _grow(table, peer, now=0.0, elapsed=80.0)
        before = table.weight("flood")
        table.decay(0.01, set(), beta=2.0)
        assert table.weight("flood") <= before

    def test_decay_prunes_dead_transients(self):
        table, peer = _tables([], ["flood"])
        _grow(table, peer, now=0.0, elapsed=0.1)  # transient 1e-4
        table.decay(100.0, set(), beta=2.0)
        assert "flood" not in table

    def test_decay_never_prunes_direct_interests(self):
        table = _table(["flood"])
        table.decay(1e9, set(), beta=2.0)
        assert "flood" in table
        assert table.weight("flood") == pytest.approx(0.5)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            _table(["x"]).decay(1.0, set(), beta=0.0)

    # ---- Algorithm 2 (growth) ----
    def test_growth_acquires_transient_interest(self):
        mine, peer = _tables([], ["flood"])
        _grow(mine, peer, now=10.0, elapsed=100.0)
        assert "flood" in mine
        assert not mine.is_direct("flood")
        # delta = 0.01 * 0.5 * 100 / psi(None, direct)=5 -> 0.1
        assert mine.weight("flood") == pytest.approx(0.1)

    def test_growth_boosts_shared_direct_interest_fastest(self):
        mine, peer = _tables(["flood"], ["flood"])
        _grow(mine, peer, now=10.0, elapsed=100.0)
        # delta = 0.01 * 0.5 * 100 / 1 = 0.5 -> 1.0 capped
        assert mine.weight("flood") == pytest.approx(1.0)

    def test_growth_capped_at_one(self):
        mine, peer = _tables(["flood"], ["flood"])
        _grow(mine, peer, now=0.0, elapsed=1e9,
              growth_scale=1.0, elapsed_cap=1e9)
        assert mine.weight("flood") == 1.0

    def test_growth_elapsed_cap_applies(self):
        mine, peer = _tables([], ["flood"])
        _grow(mine, peer, now=0.0, elapsed=1e6, elapsed_cap=100.0)
        capped = mine.weight("flood")
        assert capped == pytest.approx(0.01 * 0.5 * 100.0 / 5)

    def test_negative_elapsed_rejected(self):
        mine, peer = _tables([], ["x"])
        with pytest.raises(ConfigurationError):
            _grow(mine, peer, now=0.0, elapsed=-1.0, elapsed_cap=10.0)


class TestStoreWidth:
    def test_width_is_the_index_rounded_up_to_whole_words(self):
        # Every decay, growth and plan pass spans the full width, and
        # the planner's OR needs only whole 8-column words.
        store = InterestStore(KeywordIndex())
        table = store.create_table([], created_at=0.0)
        assert store.columns == 8
        for n in range(1, 201):
            _seed(table, f"k{n}", 0.5, True)
            assert store.columns == -(-len(store.index) // 8) * 8
        assert store.columns == 200
        assert all(table.weight(f"k{n}") == 0.5 for n in range(1, 201))


class TestRouterClassification:
    def make(self):
        router = ChitChatRouter()
        world = make_world(
            {0: ["flood"], 1: ["fire"], 2: []}, router,
        )
        return router, world

    def test_direct_interest_means_destination(self):
        router, world = self.make()
        message = make_message(keywords=("flood",))
        assert router.classify(0, message) == "destination"
        assert router.classify(1, message) == "relay"
        assert router.classify(2, message) == "relay"

    def test_routing_rule_s_v_greater_than_s_u(self):
        router, world = self.make()
        message = make_message(keywords=("fire",))
        # Node 1 has direct interest (0.5), node 2 has nothing.
        assert router.wants_as_relay(2, 1, message)
        assert not router.wants_as_relay(1, 2, message)
        assert not router.wants_as_relay(1, 1, message)

    def test_interest_sum_matches_table(self):
        router, world = self.make()
        message = make_message(keywords=("flood", "fire"))
        assert router.interest_sum(0, message) == pytest.approx(0.5)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            ChitChatRouter(beta=0.0)
        with pytest.raises(ConfigurationError):
            ChitChatRouter(growth_scale=0.0)
        with pytest.raises(ConfigurationError):
            ChitChatRouter(growth_elapsed_cap=0.0)


_CLASSIFY_KEYWORDS = ("k0", "k1", "k2", "k3")


@st.composite
def classify_runs(draw):
    """Node subscriptions and a sequence of table-changing operations:
    up and down ticks (decay, growth), waits, churn wipes, subscriptions
    and message enrichment."""
    n_nodes = draw(st.integers(min_value=3, max_value=5))
    interests = [
        draw(st.lists(
            st.sampled_from(_CLASSIFY_KEYWORDS), max_size=2, unique=True,
        ))
        for _ in range(n_nodes)
    ]
    pairs = [(a, b) for a in range(n_nodes) for b in range(a + 1, n_nodes)]
    nodes = st.integers(min_value=0, max_value=n_nodes - 1)
    keywords = st.sampled_from(_CLASSIFY_KEYWORDS)
    ticks = st.lists(st.sampled_from(pairs), min_size=1, max_size=4,
                     unique=True)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("up"), ticks),
        st.tuples(st.just("down"), ticks),
        st.tuples(st.just("wait"), st.sampled_from((1.0, 60.0, 900.0))),
        st.tuples(st.just("wipe"), nodes),
        st.tuples(st.just("subscribe"), nodes, keywords, st.booleans()),
        st.tuples(st.just("enrich"), st.integers(0, 2), keywords),
    ), max_size=16))
    return interests, ops


class TestClassifyReadsSubscriptions:
    """``classify`` reads the node's subscriptions, which equal its
    table's direct cells for the whole run (DESIGN.md section 9)."""

    def test_classify_creates_no_table(self):
        router = ChitChatRouter()
        make_world({0: ["flood"], 1: []}, router)
        message = make_message(keywords=("flood", "fire"))
        assert router.classify(0, message) == "destination"
        assert router.classify(1, message) == "relay"
        assert router._tables == {}

    @given(classify_runs())
    @settings(max_examples=100, deadline=None)
    def test_classify_equals_tables_direct_cells(self, run):
        interests, ops = run
        router = ChitChatRouter()
        world = make_world(dict(enumerate(interests)), router)
        operators = Operators(router)
        for node in range(len(interests)):
            router.table(node)
        messages = [
            make_message(keywords=keywords, content=keywords)
            for keywords in (("k0",), ("k1", "k2"), ())
        ]

        def check():
            for node in range(len(interests)):
                table = router._tables[node]
                for message in messages:
                    direct = any(map(table.is_direct, message.keywords))
                    assert router.classify(node, message) == (
                        "destination" if direct else "relay"
                    ), (node, sorted(message.keywords))

        check()
        for op in ops:
            kind = op[0]
            if kind == "up":
                world._run_up_batch(op[1])
            elif kind == "down":
                world._run_down_batch(op[1])
            elif kind == "wait":
                world.engine.run_until(world.now + op[1])
            elif kind == "wipe":
                world.on_node_crashed(op[1], wipe_state=True)
            elif kind == "subscribe":
                if op[3]:
                    operators.subscribe(op[1], [op[2]])
                else:
                    world.subscribe(op[1], [op[2]])
            else:
                messages[op[1]].annotate(op[2], 1, world.now)
            check()


class TestWorldSubscribeReachesTheRouter:
    """``World.subscribe`` is the one subscription path: the router's
    direct cells follow it, so a new destination is offered what it now
    subscribes to."""

    def test_subscribed_node_is_offered_the_message(self):
        router = ChitChatRouter()
        world = make_world({0: [], 1: [], 2: []}, router)
        for node in range(3):
            router.table(node)
        world.subscribe(2, ["fire"])
        message = make_message(
            source=0, size=100, keywords=("fire",), content=("fire",),
        )
        world.inject_message(message)
        assert world.metrics.record_for(message.uuid).intended == (
            frozenset({2})
        )
        assert router.classify(2, message) == "destination"
        assert router.table(2).is_direct("fire")
        assert [
            (m.uuid, role) for m, role in router.select_messages(0, 2)
        ] == [(message.uuid, "destination")]
        assert router.select_messages(0, 1) == []

    def test_operators_subscribe_adds_one_direct_cell(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: []}, router)
        table = router.table(1)
        version = table.version
        Operators(router).subscribe(1, ["fire"])
        assert world.node(1).interests == frozenset({"fire"})
        assert table.is_direct("fire") and table.weight("fire") == 0.5
        assert table.version == version + 1


class TestRouterEndToEnd:
    def test_direct_delivery_over_one_contact(self):
        router = ChitChatRouter()
        world = make_world({0: [], 1: ["flood"]}, router)
        message = make_message(source=0, size=100, keywords=("flood",),
                               content=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(contact(10.0, 100.0, 0, 1)))
        world.run(200.0)
        assert message.uuid in world.node(1).delivered
        assert world.metrics.delivered_pairs() == 1
        assert world.metrics.message_delivery_ratio() == 1.0

    def test_two_hop_delivery_via_transient_relay(self):
        router = ChitChatRouter()
        world = make_world({0: [], 1: [], 2: ["flood"]}, router)
        message = make_message(source=0, size=100, keywords=("flood",),
                               content=("flood",))
        world.inject_message(message)
        # 1 meets the destination 2 first (acquiring a transient interest
        # in "flood"), then meets the source 0 and relays, then meets 2
        # again to deliver.
        world.load_contact_trace(trace_of(
            contact(10.0, 200.0, 1, 2),
            contact(300.0, 500.0, 0, 1),
            contact(600.0, 800.0, 1, 2),
        ))
        world.run(1000.0)
        assert message.uuid in world.node(2).delivered

    def test_short_contact_aborts_transfer(self):
        router = ChitChatRouter()
        # 1000 B at 1000 B/s needs 1 s; the contact lasts 0.4 s.
        world = make_world({0: [], 1: ["flood"]}, router)
        message = make_message(source=0, size=1000, keywords=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(contact(10.0, 10.4, 0, 1)))
        world.run(100.0)
        assert message.uuid not in world.node(1).delivered
        assert world.metrics.transfers_aborted == 1

    def test_no_duplicate_deliveries(self):
        router = ChitChatRouter()
        world = make_world({0: [], 1: ["flood"]}, router)
        message = make_message(source=0, size=100, keywords=("flood",))
        world.inject_message(message)
        world.load_contact_trace(trace_of(
            contact(10.0, 50.0, 0, 1),
            contact(100.0, 150.0, 0, 1),
        ))
        world.run(200.0)
        assert world.metrics.delivered_pairs() == 1
        assert world.metrics.transfers_completed == 1

    def test_growth_runs_at_contact_end(self):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: []}, router)
        world.load_contact_trace(trace_of(contact(10.0, 200.0, 0, 1)))
        world.run(300.0)
        # Node 1 acquired a transient interest in "flood" from node 0.
        assert router.table(1).weight("flood") > 0.0
        assert not router.table(1).is_direct("flood")


class TestVersionTokenAndCaches:
    """The version counter drives cache invalidation for the keyword
    view and the router's memoised interest sums; every mutation path
    must bump it."""

    def test_every_mutation_bumps_version(self):
        table, peer = _tables(["flood"], ["smoke"])
        seen = {table.version}

        table.add_direct("fire", now=1.0)
        assert table.version not in seen
        seen.add(table.version)

        table.decay(10.0, set(), beta=2.0)
        assert table.version not in seen
        seen.add(table.version)

        _grow(table, peer, now=20.0, elapsed=60.0)
        assert table.version not in seen

    def test_keywords_view_tracks_mutations(self):
        table, peer = _tables([], ["flood"])
        _grow(table, peer, now=0.0, elapsed=0.1)  # transient 1e-4
        assert table.keywords == frozenset({"flood"})
        # Cached: identical object while the table is untouched.
        assert table.keywords is table.keywords
        table.add_direct("fire", now=0.0)
        assert table.keywords == frozenset({"flood", "fire"})
        table.decay(1000.0, set(), beta=2.0)  # prunes the dead transient
        assert table.keywords == frozenset({"fire"})

    def test_interest_sum_cache_sees_decay(self):
        router = ChitChatRouter()
        world = make_world({0: [], 1: ["flood"]}, router)
        # A transient interest (directs are floored at their initial
        # weight), so decay visibly shrinks the sum.
        _grow(router.table(0), router.table(1), now=0.0, elapsed=500.0)
        message = make_message(keywords=("flood",))
        before = router.interest_sum(0, message)
        assert before == pytest.approx(0.5)
        router.table(0).decay(500.0, set(), beta=2.0)
        after = router.interest_sum(0, message)
        assert after < before
        assert after == pytest.approx(router.table(0).sum_for(
            message.keywords
        ))

    def test_interest_sum_cache_sees_growth_and_new_annotations(self):
        router = ChitChatRouter()
        world = make_world({0: [], 1: ["flood", "fire"]}, router)
        message = make_message(keywords=("flood",))
        assert router.interest_sum(0, message) == 0.0
        _grow(router.table(0), router.table(1), now=10.0, elapsed=100.0)
        grown = router.interest_sum(0, message)
        assert grown > 0.0
        # Annotating the message changes its keyword sequence, which
        # must miss the memo and re-sum.
        message.annotate("fire", added_by=2, added_at=20.0)
        assert router.interest_sum(0, message) == pytest.approx(2 * grown)

    def test_snapshot_arrays_skip_zero_weights(self):
        table = _table(["flood"])
        _seed(table, "dead", 0.0, False)
        ids, weights, direct = table.snapshot_arrays()
        assert ids.tolist() == [table.index.get("flood")]
        assert weights.tolist() == [0.5]
        assert direct.tolist() == [True]


class TestFullyStampedSkip:
    """``run_rtsr_decay`` skips a decay that cannot change anything.

    Nodes 0 and 1 meet at t=100.  Every interest of node 0 is held by
    node 1, so 0's decay stamps all its rows and leaves the table fully
    stamped; node 1's "fire" row is not stamped and gets divided.
    """

    def meet(self, monkeypatch):
        router = ChitChatRouter()
        world = make_world({0: ["flood"], 1: ["flood", "fire"]}, router)
        router.table(0)
        router.table(1)
        world.engine.run_until(100.0)
        world._open_contact((0, 1))
        decayed = []
        original = InterestTable.decay

        def counting(table, *args, **kwargs):
            decayed.append(table._row)
            return original(table, *args, **kwargs)

        monkeypatch.setattr(InterestTable, "decay", counting)
        return router, world, world.link_between(0, 1), decayed

    def test_second_decay_of_stamped_table_is_skipped(self, monkeypatch):
        router, world, link, decayed = self.meet(monkeypatch)
        router.run_rtsr_decay(link)
        assert decayed == [router.table(1)._row]

    def test_skip_leaves_table_byte_identical(self, monkeypatch):
        states = []
        for skip in (True, False):
            router, world, link, decayed = self.meet(monkeypatch)
            table = router.table(0)
            if skip:
                router.run_rtsr_decay(link)
                assert table._row not in decayed
            else:
                table.decay(
                    world.now, router._connected_ids(0), beta=router.beta
                )
            present = table._present.copy()
            states.append((
                table._weight.tobytes(), present.tobytes(),
                table._last[present].tobytes(),
                table.version, table._members_version,
            ))
        assert states[0] == states[1]

    def test_divided_table_is_not_skipped(self, monkeypatch):
        router, world, link, decayed = self.meet(monkeypatch)
        table = router.table(1)
        version = table.version
        router.run_rtsr_decay(link)
        assert table._row in decayed
        assert table.version == version + 1

    @pytest.mark.parametrize("mutation", ("growth", "add_direct", "reset"))
    def test_mutation_invalidates_record(self, monkeypatch, mutation):
        router, world, link, decayed = self.meet(monkeypatch)
        table = router.table(0)
        if mutation == "growth":
            _grow(table, router.table(1), now=world.now, elapsed=50.0)
        elif mutation == "add_direct":
            table.add_direct("water", now=world.now)
        else:
            world.on_node_crashed(0, wipe_state=True)
            assert table._stamped is None
        router.run_rtsr_decay(link)
        assert table._row in decayed


class TestLeftToRightSums:
    """Every interest sum adds its weights left to right.

    Ten weights of 0.1 add up to 0.9999999999999999 one add at a time;
    builtin ``sum()`` gives 1.0 from CPython 3.12 on, because it
    compensates float sums there.  A memo entry must not depend on
    which path (scalar sum or selection kernel) filled it.
    """

    EXPECTED = 0.9999999999999999

    def test_ten_tenths_on_every_path(self):
        keywords = [f"k{i}" for i in range(10)]
        router = ChitChatRouter()
        world = make_world({0: [], 1: []}, router)
        table = router.table(1)
        for keyword in keywords:
            _seed(table, keyword, 0.1, direct=False)
        message = make_message(source=0, keywords=keywords, content=keywords)
        key = router._intern_key(message)
        assert table.sum_for(keywords) == self.EXPECTED
        assert table.sum_for_ids(router._message_ids(message, key)) == (
            self.EXPECTED
        )
        assert router.interest_sum(1, message) == self.EXPECTED
        router._sum_cache.clear()
        world.inject_message(message)
        assert [
            (m.uuid, role) for m, role in router.select_messages(0, 1)
        ] == [(message.uuid, "relay")]
        assert router._sum_cache[1][1][key] == self.EXPECTED

    def test_empty_sums_stay_integers(self):
        table = _table(["flood"])
        assert table.sum_for([]) == 0 and type(table.sum_for([])) is int
        empty = table.sum_for_ids(np.empty(0, dtype=np.int64))
        assert empty == 0 and type(empty) is int
        far = table.sum_for_ids(np.asarray([table._present.size + 3]))
        assert far == 0.0 and type(far) is float
