"""Property tests pinning the batched router state to per-row updates.

Two model-based equivalences back the tick-batched router state
(DESIGN.md "Tick-batched router state"):

* Random decay/growth/add_direct/wipe sequences applied to an
  :class:`~repro.routing.chitchat.InterestStore` through its batched
  operations, and to a second store one
  :class:`~repro.routing.chitchat.InterestTable` row at a time, produce
  **bit-identical** weights, direct flags and membership, and the same
  version, member-version and fully-stamped record arrays.  Every store
  keeps the invariants the batched kernels rely on after every
  operation, and a third store running reference kernels that rely on
  none of them holds identical arrays and versions throughout.
* Random rate/merge/exchange/forget sequences applied to the
  array-backed :class:`~repro.core.reputation.ReputationBook` and to a
  plain-dict reference model produce bit-identical scores — including
  the ``forget()`` whitewashing-erase path.

Exact ``==`` on floats throughout: the batched forms evaluate the same
IEEE expression per element, so any drift is a bug, not tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incentive import IncentiveParams
from repro.core.reputation import ReputationSystem
from repro.routing.chitchat import InterestStore, KeywordIndex
from tests.helpers import assert_store_invariants

PARAMS = IncentiveParams()

BETA = 0.01
GROWTH_SCALE = 0.01
ELAPSED_CAP = 600.0

N_NODES = 6
KEYWORDS = [f"k{i}" for i in range(6)]


# ----------------------------------------------------------------------
# Interest store vs per-node tables
# ----------------------------------------------------------------------
@st.composite
def interest_scenarios(draw):
    direct = [
        draw(st.lists(st.sampled_from(KEYWORDS), max_size=3, unique=True))
        for _ in range(N_NODES)
    ]
    n_ops = draw(st.integers(min_value=0, max_value=20))
    ops = []
    for _ in range(n_ops):
        dt = draw(st.floats(min_value=0.0, max_value=500.0,
                            allow_nan=False))
        kind = draw(st.sampled_from(["decay", "grow", "add_direct", "wipe"]))
        if kind == "decay":
            nodes = draw(st.lists(
                st.integers(min_value=0, max_value=N_NODES - 1),
                min_size=1, max_size=N_NODES, unique=True,
            ))
            connected = {
                node: draw(st.lists(st.sampled_from(KEYWORDS),
                                    max_size=4, unique=True))
                for node in nodes
            }
            ops.append(("decay", dt, nodes, connected))
        elif kind == "grow":
            order = draw(st.permutations(range(N_NODES)))
            n_pairs = draw(st.integers(min_value=1,
                                       max_value=N_NODES // 2))
            pairs = [
                (order[2 * k], order[2 * k + 1]) for k in range(n_pairs)
            ]
            elapsed = [
                draw(st.floats(min_value=0.0, max_value=900.0,
                               allow_nan=False))
                for _ in pairs
            ]
            ops.append(("grow", dt, pairs, elapsed))
        elif kind == "add_direct":
            node = draw(st.integers(min_value=0, max_value=N_NODES - 1))
            keyword = draw(st.sampled_from(KEYWORDS))
            ops.append(("add_direct", dt, node, keyword))
        else:
            node = draw(st.integers(min_value=0, max_value=N_NODES - 1))
            ops.append(("wipe", dt, node))
    return direct, ops


def _reference_decay_block(W, D, P, L, connected, now, beta, prune_below=1e-3):
    """``InterestStore._decay_block`` without the store's invariants:
    cells that are not stale are copied back from ``W``, and the prune
    skips direct cells by their flag."""
    L = np.where(connected, now, L)
    denominator = np.subtract(now, L)
    stale = denominator > 0.0
    stale &= P
    denominator *= beta
    np.maximum(denominator, 1.0, out=denominator)
    half = D * 0.5
    new_w = W - half
    new_w /= denominator
    new_w += half
    prune = new_w < prune_below
    prune &= stale
    prune &= ~D
    np.copyto(new_w, W, where=~stale)
    new_w[prune] = 0.0
    increments = np.stack(
        (stale.any(axis=1), prune.any(axis=1)), axis=1
    ).astype(np.int64)
    stale ^= prune
    return new_w, L, P & ~prune, increments, ~stale.any(axis=1)


def _reference_grow_side(self, rows, W, D, P, peer_w, peer_d, eff, now,
                         growth_scale):
    """``InterestStore._grow_side`` without the store's invariants:
    acquired, grown and inactive cells are written separately, and the
    direct flags are rewritten."""
    psi = np.where(P, np.where(D, 2.0, 4.0), 6.0)
    psi -= peer_d
    delta = growth_scale * peer_w
    delta *= eff
    delta /= psi
    active = delta > 0.0
    fresh = active & ~P
    new_w = W + delta
    np.minimum(new_w, 1.0, out=new_w)
    np.minimum(delta, 1.0, out=delta)
    np.copyto(new_w, delta, where=fresh)
    np.copyto(new_w, W, where=~active)
    self._w[rows] = new_w
    self._d[rows] = D & ~fresh
    last = self._l[rows]
    last[active] = now
    self._l[rows] = last
    self._p[rows] = P | fresh
    tables = self._tables
    for row in rows[active.any(axis=1)].tolist():
        tables[row].version += 1
    for row in rows[fresh.any(axis=1)].tolist():
        tables[row]._members_version += 1


class _ReferenceKernelStore(InterestStore):
    """A store running the reference decay and growth kernels."""

    _decay_block = staticmethod(_reference_decay_block)
    _grow_side = _reference_grow_side


def _assert_same_bookkeeping(store, other, what):
    """Equal version, member-version and fully-stamped record arrays."""
    for name in ("_versions", "_stamped_versions"):
        assert np.array_equal(
            getattr(store, name), getattr(other, name)
        ), f"{name} diverged from {what}"
    assert np.array_equal(
        store._stamped_at, other._stamped_at, equal_nan=True
    ), f"_stamped_at diverged from {what}"


def _table_state(table):
    return (
        {kw: table.weight(kw) for kw in KEYWORDS},
        {kw: table.is_direct(kw) for kw in KEYWORDS},
        set(table.keywords),
    )


class TestInterestStoreEquivalence:
    @given(interest_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_batched_store_matches_per_node_tables(self, scenario):
        direct, ops = scenario
        # A node's subscriptions: a wipe re-seeds its table from them.
        subscribed = [list(interests) for interests in direct]
        reference_store = InterestStore(KeywordIndex(), rows=4)
        reference = [
            reference_store.create_table(interests, created_at=0.0)
            for interests in direct
        ]
        fused_index = KeywordIndex()
        store = InterestStore(fused_index, rows=4)
        fused = [
            store.create_table(interests, created_at=0.0)
            for interests in direct
        ]
        ref_kernels = _ReferenceKernelStore(KeywordIndex(), rows=4)
        for interests in direct:
            ref_kernels.create_table(interests, created_at=0.0)
        batched = (store, ref_kernels)
        now = 0.0
        for op in ops:
            kind, dt = op[0], op[1]
            now += dt
            if kind == "decay":
                _, _, nodes, connected = op
                for node in nodes:
                    reference[node].decay(
                        now, set(connected[node]), beta=BETA
                    )
                mask = np.zeros((len(nodes), store.columns), dtype=bool)
                for k, node in enumerate(nodes):
                    for kw in connected[node]:
                        kid = fused_index.get(kw)
                        if kid is not None and kid < store.columns:
                            mask[k, kid] = True
                rows = np.array(
                    [fused[node]._row for node in nodes], dtype=np.intp,
                )
                for target in batched:
                    target.batch_decay(rows, mask, now, beta=BETA)
            elif kind == "grow":
                _, _, pairs, elapsed = op
                for (a, b), duration in zip(pairs, elapsed):
                    # Per-row two-sided growth: snapshot both first
                    # (run_rtsr_growth's symmetry discipline).
                    ids_a, w_a, d_a = reference[a].snapshot_arrays()
                    ids_b, w_b, d_b = reference[b].snapshot_arrays()
                    reference[a].grow_from_arrays(
                        ids_b, w_b, d_b, now, duration,
                        growth_scale=GROWTH_SCALE,
                        elapsed_cap=ELAPSED_CAP,
                    )
                    reference[b].grow_from_arrays(
                        ids_a, w_a, d_a, now, duration,
                        growth_scale=GROWTH_SCALE,
                        elapsed_cap=ELAPSED_CAP,
                    )
                live_pairs = [
                    ((a, b), min(duration, ELAPSED_CAP))
                    for (a, b), duration in zip(pairs, elapsed)
                    if min(duration, ELAPSED_CAP) > 0.0
                ]
                if live_pairs:
                    for target in batched:
                        target.batch_grow_pairs(
                            np.array([fused[a]._row
                                      for (a, _), _ in live_pairs],
                                     dtype=np.intp),
                            np.array([fused[b]._row
                                      for (_, b), _ in live_pairs],
                                     dtype=np.intp),
                            np.array([eff for _, eff in live_pairs]),
                            now,
                            growth_scale=GROWTH_SCALE,
                        )
            elif kind == "add_direct":
                _, _, node, keyword = op
                if keyword not in subscribed[node]:
                    subscribed[node].append(keyword)
                reference[node].add_direct(keyword, now)
                for target in batched:
                    target._tables[node].add_direct(keyword, now)
            else:
                _, _, node = op
                reference[node].reset(subscribed[node], now)
                for target in batched:
                    target._tables[node].reset(subscribed[node], now)
            for node in range(N_NODES):
                assert _table_state(fused[node]) == _table_state(
                    reference[node]
                ), f"node {node} diverged after {kind}"
            for target in (reference_store, store, ref_kernels):
                assert_store_invariants(target)
            for name in ("_w", "_d", "_l", "_p"):
                assert np.array_equal(
                    getattr(store, name), getattr(ref_kernels, name)
                ), f"{name} diverged from the reference kernels after {kind}"
            _assert_same_bookkeeping(
                store, reference_store, f"the per-table path after {kind}"
            )
            _assert_same_bookkeeping(
                store, ref_kernels, f"the reference kernels after {kind}"
            )


# ----------------------------------------------------------------------
# Array-backed reputation books vs a dict reference model
# ----------------------------------------------------------------------
class _ReferenceBooks:
    """Plain-dict replay of the historical per-subject reputation code."""

    def __init__(self, node_ids, alpha, default):
        self.alpha = alpha
        self.default = default
        self.scores = {node: {} for node in node_ids}
        self.own_sum = {node: {} for node in node_ids}
        self.own_count = {node: {} for node in node_ids}

    def rate(self, observer, subject, rating):
        self.own_sum[observer][subject] = (
            self.own_sum[observer].get(subject, 0.0) + rating
        )
        self.own_count[observer][subject] = (
            self.own_count[observer].get(subject, 0) + 1
        )
        self.scores[observer][subject] = (
            self.own_sum[observer][subject]
            / self.own_count[observer][subject]
        )

    def merge(self, observer, subject, heard):
        if subject == observer:
            return
        scores = self.scores[observer]
        if subject in scores:
            scores[subject] = (
                (1.0 - self.alpha) * heard + self.alpha * scores[subject]
            )
        else:
            scores[subject] = heard

    def exchange(self, a, b):
        one_minus_alpha = 1.0 - self.alpha
        snap_a = dict(self.scores[a])
        snap_b = dict(self.scores[b])
        for receiver, snapshot, peer_snap in (
            (a, snap_a, snap_b), (b, snap_b, snap_a)
        ):
            scores = self.scores[receiver]
            for subject, heard in peer_snap.items():
                if subject == a or subject == b:
                    continue
                if subject in snapshot:
                    scores[subject] = (
                        one_minus_alpha * heard
                        + self.alpha * snapshot[subject]
                    )
                else:
                    scores[subject] = heard

    def forget(self, subject):
        for node in self.scores:
            self.scores[node].pop(subject, None)
            self.own_sum[node].pop(subject, None)
            self.own_count[node].pop(subject, None)


@st.composite
def reputation_scenarios(draw):
    subjects = st.integers(min_value=0, max_value=7)
    nodes = st.integers(min_value=0, max_value=4)
    ratings = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("rate"), nodes, subjects, ratings),
            st.tuples(st.just("merge"), nodes, subjects, ratings),
            st.tuples(st.just("exchange"), nodes, nodes),
            st.tuples(st.just("forget"), subjects),
        ),
        max_size=40,
    ))
    return ops


class TestReputationBookEquivalence:
    @given(reputation_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_array_books_match_dict_reference(self, ops):
        node_ids = list(range(5))
        system = ReputationSystem(PARAMS)
        for node in node_ids:
            system.book(node)
        reference = _ReferenceBooks(
            node_ids, PARAMS.alpha, PARAMS.default_rating
        )
        for op in ops:
            if op[0] == "rate":
                _, observer, subject, rating = op
                system.book(observer).rate_message(subject, rating)
                reference.rate(observer, subject, rating)
            elif op[0] == "merge":
                _, observer, subject, heard = op
                system.book(observer).merge_opinion(subject, heard)
                reference.merge(observer, subject, heard)
            elif op[0] == "exchange":
                _, a, b = op
                if a == b:
                    continue
                system.exchange(a, b)
                reference.exchange(a, b)
            else:
                _, subject = op
                system.forget_subject(subject)
                reference.forget(subject)
            for node in node_ids:
                book = system.book(node)
                known = book.known_subjects()
                assert set(known) == set(reference.scores[node])
                # known_subjects is sorted ascending by contract.
                assert list(known) == sorted(known)
                for subject in known:
                    assert book.score(subject) == (
                        reference.scores[node][subject]
                    ), f"score diverged at observer {node}"
                for subject, count in reference.own_count[node].items():
                    assert book.own_average(subject) == (
                        reference.own_sum[node][subject] / count
                    )
