"""ChitChat routing with Real-time Transient Social Relationships (RTSR).

This is the paper's substrate (McGeehan, Lin, Madria — ICDCS 2016) as
specified in Paper I Sections 2.2-2.4:

* Every node has *direct* interests (its own subscriptions, initial
  weight 0.5) and *transient* interests acquired from encountered nodes.
* On contact, weights are first **decayed** (Algorithm 1), the decayed
  weights are exchanged, then **grown** (Algorithm 2) from the peer's
  weights with a case factor psi.
* Messages route by interest strength: ``u`` forwards message ``M`` to
  ``v`` when ``S_v > S_u`` where ``S_x`` is the sum of ``x``'s weights
  over ``M``'s keywords; a node with a *direct* interest in a tag is a
  destination and always receives the message.  That test reads the
  node's subscriptions (``Router.classify``): a table's direct cells
  equal them for the whole run (DESIGN.md section 9).

Ambiguities resolved here (see DESIGN.md section 4): the decay
denominator is clamped to >= 1 so decay never amplifies a weight; the
growth increment is scaled by ``growth_scale`` and the per-contact
elapsed time is capped, because the raw thesis formula grows without
bound in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.messages.message import Message
from repro.network.link import Link, Transfer
from repro.routing.base import Router

__all__ = [
    "InterestRecord",
    "InterestTable",
    "InterestStore",
    "KeywordIndex",
    "ChitChatRouter",
    "psi_case",
]


@dataclass
class InterestRecord:
    """State of one interest keyword at one node.

    Attributes:
        weight: Current ChitChat weight in [0, 1].
        direct: True for the node's own subscription, False for a
            transient (acquired) interest.
        last_contact: Latest time a device sharing the interest was
            connected (``T_l`` in Algorithm 1).
    """

    weight: float
    direct: bool
    last_contact: float


def psi_case(u_record: Optional[InterestRecord],
             v_record: InterestRecord) -> int:
    """The growth divisor psi in {1..6} for a keyword's (u, v) status.

    The thesis names two cases explicitly (both direct -> 1; u direct,
    v transient -> 2); the remaining four follow the same ordering:
    stronger evidence (direct on both sides) grows fastest.
    """
    v_direct = v_record.direct
    if u_record is None:
        return 5 if v_direct else 6
    if u_record.direct:
        return 1 if v_direct else 2
    return 3 if v_direct else 4


class KeywordIndex:
    """A shared keyword -> dense integer id registry.

    All interest tables created by one router share one index, so a
    keyword means the same row everywhere and peer weight exchanges move
    id arrays instead of strings.  Ids are assigned on first sight and
    never reused; tables grow their arrays to cover the index.
    """

    __slots__ = ("_ids", "_names")

    def __init__(self, keywords: Iterable[str] = ()):
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []
        for keyword in keywords:
            self.id_of(keyword)

    def id_of(self, keyword: str) -> int:
        """The id for ``keyword``, assigning a fresh one on first use."""
        existing = self._ids.get(keyword)
        if existing is None:
            existing = len(self._names)
            self._ids[keyword] = existing
            self._names.append(keyword)
        return existing

    def get(self, keyword: str) -> Optional[int]:
        """The id for ``keyword`` if already assigned, else None."""
        return self._ids.get(keyword)

    def name_of(self, keyword_id: int) -> str:
        """The keyword carrying ``keyword_id``."""
        return self._names[keyword_id]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._ids


_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: Transient weights decayed below this are pruned.  The batched decay
#: relies on it being under 0.5, where direct weights stop.
_PRUNE_BELOW = 1e-3
#: Pads ``ChitChatRouter._key_ids`` rows: past every store column.
_PAD = np.iinfo(np.int64).max
#: A receiver's role, indexed by "holds a direct interest".
_ROLES = ("relay", "destination")
_MEMO_KEY = attrgetter("_memo_key")
_UUID = attrgetter("uuid")
_SIZE = attrgetter("size")
_OPENED = attrgetter("opened_at")
_A = attrgetter("a")
_B = attrgetter("b")
_QUEUED = attrgetter("buffer._messages")


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``start, start + 1, .., start + length - 1`` per pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(
        starts - ends + lengths, lengths
    )


def _rounds(lower: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The least ``r >= lower`` with ``r[d] > r[s]`` on every edge ``s -> d``.

    Edges must form a DAG.  Every pass raises each item to one past its
    latest predecessor; the answer is the least fixed point, reached
    after as many passes as the longest chain of raises.
    """
    r = lower.copy()
    if src.size:
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        dst = dst[starts]
        while True:
            up = np.maximum.reduceat(r[src], starts) + 1
            grew = up > r[dst]
            if not grew.any():
                return r
            r[dst[grew]] = up[grew]
    return r


class InterestTable:
    """A node's keyword-weight table (direct + transient interests).

    A table is one row of an :class:`InterestStore` (create tables with
    :meth:`InterestStore.create_table`): ``_weight`` / ``_direct`` /
    ``_last`` / ``_present`` are 1-D views over that row of the store's
    2-D arrays, one element per keyword id in the shared
    :class:`KeywordIndex`, with the ``present`` mask standing in for
    dict membership.  Algorithm 1 (decay) and Algorithm 2 (growth) are
    elementwise — no cross-keyword accumulation — so the vectorised
    updates below compute bit-identical floats to per-record loops
    (each element sees the same expression, evaluated in the same
    operation order).

    The table carries a monotonically increasing :attr:`version` bumped
    by every mutating operation (decay, growth, subscription), which
    lets callers memoise derived quantities — the router caches
    per-message interest sums against it — with trivially correct
    invalidation.
    """

    def __init__(self, store: "InterestStore", row: int):
        self._store = store
        self._row = row
        self._index = store.index
        self._keywords_view: Optional[FrozenSet[str]] = None
        self._keywords_view_key: int = -1
        self._ids_view: Optional[np.ndarray] = None
        self._ids_view_key: int = -1
        self._attach()

    # The row's versions and record live in the store's arrays, so the
    # batched tick moves them with array operations.
    @property
    def version(self) -> int:
        """Bumped on every mutation; cache-invalidation token."""
        return self._store._version_cells[2 * self._row]

    @version.setter
    def version(self, value: int) -> None:
        self._store._version_cells[2 * self._row] = value

    @property
    def _members_version(self) -> int:
        """Bumped only when row *membership* changes (acquire, prune,
        subscribe).  Weight updates leave it alone, so the derived
        keyword/id views below survive ordinary decay/growth ticks."""
        return self._store._version_cells[2 * self._row + 1]

    @_members_version.setter
    def _members_version(self, value: int) -> None:
        self._store._version_cells[2 * self._row + 1] = value

    @property
    def _stamped(self) -> Optional[Tuple[float, int, int]]:
        """``(now, version, _members_version)`` when the last decay left
        the table *fully stamped* (no present row with ``T_l < now``);
        while it still matches, a decay at ``now`` is a no-op that the
        router skips (DESIGN.md §9).  ``None`` for no record."""
        store = self._store
        at = store._stamped_at.item(self._row)
        if at != at:
            return None
        version, members = store._stamped_versions[self._row].tolist()
        return at, version, members

    @_stamped.setter
    def _stamped(self, record: Optional[Tuple[float, int, int]]) -> None:
        store = self._store
        if record is None:
            store._stamped_at[self._row] = np.nan
        else:
            store._stamped_at[self._row] = record[0]
            store._stamped_versions[self._row] = record[1:]

    # ------------------------------------------------------------------
    # Row plumbing
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        """(Re)bind the array views to this table's store row."""
        store = self._store
        row = self._row
        self._weight = store._w[row]
        self._direct = store._d[row]
        self._last = store._l[row]
        self._present = store._p[row]

    @property
    def index(self) -> KeywordIndex:
        """The shared keyword registry this table's rows live in."""
        return self._index

    def _slot(self, keyword: str) -> int:
        """The column for ``keyword``, widening the store to cover it."""
        keyword_id = self._index.id_of(keyword)
        self._ensure(keyword_id)
        return keyword_id

    def _ensure(self, keyword_id: int) -> None:
        """Widen every store row to cover ``keyword_id`` (a row view
        cannot grow in place; the store re-attaches all views)."""
        if keyword_id >= self._present.size:
            self._store.ensure_columns(keyword_id)

    def _row_present(self, keyword_id: int) -> bool:
        return keyword_id < self._present.size and bool(
            self._present[keyword_id]
        )

    def __len__(self) -> int:
        return int(np.count_nonzero(self._present))

    def __contains__(self, keyword: str) -> bool:
        keyword_id = self._index.get(keyword)
        return keyword_id is not None and self._row_present(keyword_id)

    @property
    def keywords(self) -> FrozenSet[str]:
        """All keywords with a record (direct and transient).

        Cached per :attr:`version` — contact handling asks for this set
        repeatedly between mutations.
        """
        if self._keywords_view_key != self._members_version:
            name_of = self._index.name_of
            self._keywords_view = frozenset(
                name_of(int(i)) for i in self.present_ids()
            )
            self._keywords_view_key = self._members_version
        return self._keywords_view

    def present_ids(self) -> np.ndarray:
        """Ids of all present rows, ascending (cached per membership
        version, so ordinary decay/growth ticks reuse it).

        The id-space analogue of :attr:`keywords`; the router's decay
        hook unions these across connected peers.  Treat as read-only —
        membership changes replace (never mutate) the cached array, so
        outstanding references stay valid snapshots.
        """
        if self._ids_view_key != self._members_version:
            self._ids_view = np.flatnonzero(self._present)
            self._ids_view_key = self._members_version
        return self._ids_view

    def weight(self, keyword: str) -> float:
        """Current weight of ``keyword`` (0.0 when absent)."""
        keyword_id = self._index.get(keyword)
        if keyword_id is None or not self._row_present(keyword_id):
            return 0.0
        return float(self._weight[keyword_id])

    def is_direct(self, keyword: str) -> bool:
        """Whether ``keyword`` is one of the node's own subscriptions."""
        keyword_id = self._index.get(keyword)
        return (
            keyword_id is not None
            and self._row_present(keyword_id)
            and bool(self._direct[keyword_id])
        )

    def sum_for(self, keywords: Iterable[str]) -> float:
        """``S`` — the sum of weights over ``keywords``.

        Deliberately a scalar loop in caller order with explicit adds:
        float addition is not associative, and bit-identical results
        require replaying exactly the historical accumulation order
        (builtin ``sum()`` compensates float sums from CPython 3.12 on).
        """
        total = 0
        for keyword in keywords:
            total += self.weight(keyword)
        return total

    def sum_for_ids(self, ids: np.ndarray) -> float:
        """``S`` over pre-resolved keyword ids, in array order.

        Bit-identical to :meth:`sum_for` over the same keywords in the
        same order, and to the selection kernel's column adds: absent
        rows contribute exactly ``0.0``, and adding ``0.0`` never
        changes an IEEE sum (weights are never ``-0.0``), so dropping
        out-of-range ids is safe.
        """
        if ids.size == 0:
            return 0
        total = 0.0
        # Absent rows hold weight 0.0 by invariant (pruning and
        # deletion zero the row), so no presence mask is needed.
        for weight in self._weight[ids[ids < self._present.size]].tolist():
            total += weight
        return total

    def average_for(self, keywords: Iterable[str]) -> float:
        """Average weight over ``keywords`` (0 for an empty set)."""
        keys = list(keywords)
        if not keys:
            return 0.0
        return self.sum_for(keys) / len(keys)

    def reset(
        self, direct_interests: Iterable[str], created_at: float
    ) -> None:
        """Return the table to its freshly-created state.

        Used by the churn wipe path: a node that loses its volatile
        state restarts with exactly the table a brand-new node gets —
        zero rows, then its direct subscriptions re-seeded at weight
        0.5, and (crucially) :attr:`version` back at 0.  All writes are
        in place on the store row.
        """
        self._weight[:] = 0.0
        self._direct[:] = False
        self._last[:] = 0.0
        self._present[:] = False
        self.version = 0
        self._members_version = 0
        self._keywords_view = None
        self._keywords_view_key = -1
        self._ids_view = None
        self._ids_view_key = -1
        self._stamped = None
        for keyword in direct_interests:
            keyword_id = self._slot(keyword)
            self._weight[keyword_id] = 0.5
            self._direct[keyword_id] = True
            self._last[keyword_id] = created_at
            self._present[keyword_id] = True

    def add_direct(self, keyword: str, now: float) -> None:
        """Subscribe to a new keyword (operator function *Subscribe*)."""
        self.version += 1
        keyword_id = self._slot(keyword)
        if self._present[keyword_id]:
            self._direct[keyword_id] = True
            self._weight[keyword_id] = max(
                float(self._weight[keyword_id]), 0.5
            )
        else:
            self._weight[keyword_id] = 0.5
            self._direct[keyword_id] = True
            self._last[keyword_id] = now
            self._present[keyword_id] = True
            self._members_version += 1

    # ------------------------------------------------------------------
    # Algorithm 1: decay
    # ------------------------------------------------------------------
    def decay(
        self,
        now: float,
        connected_keywords: Union[Set[str], np.ndarray],
        *,
        beta: float,
        prune_below: float = _PRUNE_BELOW,
    ) -> None:
        """Decay all weights per Algorithm 1 (vectorised).

        Args:
            now: Current time ``T_c``.
            connected_keywords: Keywords shared by *currently connected*
                devices; their weights are frozen and their ``T_l``
                refreshed.  Either a set of strings or an int64 array of
                keyword ids.
            beta: Decay constant.
            prune_below: Transient records below this weight are removed
                (bounds table growth; direct interests are never pruned).

        A decay that leaves no present row with ``T_l < now`` records
        the table as fully stamped at ``now`` (see :attr:`_stamped`).
        """
        if beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {beta!r}")
        present = self._present
        capacity = present.size
        # Refresh T_l of connected rows by stamping ids directly — no
        # membership mask.  Stamping an *absent* row is harmless: its
        # ``last`` is dormant storage, unconditionally rewritten when
        # the row is acquired (grow/add_direct), and a stamped present
        # row is excluded from decay below because its elapsed is
        # exactly 0.0 (``now - now``), which is what the old explicit
        # ``~connected`` mask excluded.  Duplicate ids are harmless.
        last = self._last
        if isinstance(connected_keywords, np.ndarray):
            if connected_keywords.size:
                # The shared index may hold ids beyond this table's
                # arrays; those rows are absent here by definition.
                last[connected_keywords[connected_keywords < capacity]] = now
        else:
            get = self._index.get
            ids = [
                i
                for i in (get(k) for k in connected_keywords)
                if i is not None and i < capacity
            ]
            if ids:
                last[ids] = now
        # The updates below run compactly on the present rows only.
        # Tables are dense (seed 1, mean present rows of 200 per
        # growth round: 149.5 on city10k, 192.5 on paper; ~199 at run
        # end), so the gather skips little arithmetic; it keeps the
        # stale test exact, since absent rows hold dormant ``last``
        # stamps a full-width ``elapsed > 0`` would count as stale.
        # Each written element still sees exactly the scalar
        # expression, in the same operation order — the gather only
        # changes *which* elements are computed, never *how*.
        rows = self.present_ids()
        weight = self._weight
        elapsed = now - last[rows]
        stale = elapsed > 0.0
        if not stale.any():
            # Nothing decayed and nothing was pruned, so every memoised
            # sum keyed on :attr:`version` is still exact — the version
            # deliberately does NOT move.
            self._stamped = (now, self.version, self._members_version)
            return
        self.version += 1
        stale_rows = rows[stale]
        old = weight[stale_rows]
        direct = self._direct[stale_rows]
        denominator = np.maximum(beta * elapsed[stale], 1.0)
        # One fused expression for both record kinds: direct rows see
        # the literal Algorithm 1 form ``(w - 0.5)/den + 0.5``;
        # transient rows see ``(w - 0.0)/den + 0.0``, bit-identical to
        # ``w/den`` because weights are never negative zero.
        half = direct * 0.5
        decayed = (old - half) / denominator + half
        weight[stale_rows] = decayed
        dead = ~direct & (decayed < prune_below)
        if dead.any():
            dead_rows = stale_rows[dead]
            weight[dead_rows] = 0.0
            present[dead_rows] = False
            self._members_version += 1
            if dead.all():
                self._stamped = (now, self.version, self._members_version)

    # ------------------------------------------------------------------
    # Algorithm 2: growth
    # ------------------------------------------------------------------
    def snapshot_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, weights, direct)`` arrays of positive-weight rows.

        The peer-visible state of the table during a weight exchange.
        Fancy indexing copies, so the snapshot is immune to concurrent
        mutation of the table it came from — which is what keeps the
        two-sided growth update symmetric.  Only meaningful between
        tables sharing the same :class:`KeywordIndex`.
        """
        rows = self.present_ids()
        if rows.size == 0:
            return rows, np.empty(0, dtype=np.float64), np.empty(0, dtype=bool)
        weights = self._weight[rows]
        if weights.min() <= 0.0:
            # Only reachable through test-seeded zero-weight rows: live
            # rows keep positive weight (direct >= 0.5 always; transients
            # are pruned long before underflow).
            keep = weights > 0.0
            rows = rows[keep]
            weights = weights[keep]
        return rows, weights, self._direct[rows]

    def grow_from_arrays(
        self,
        peer_ids: np.ndarray,
        peer_weights: np.ndarray,
        peer_direct: np.ndarray,
        now: float,
        elapsed: float,
        *,
        growth_scale: float,
        elapsed_cap: float,
    ) -> None:
        """Grow this table from a peer's array snapshot per Algorithm 2.

        ``Delta = growth_scale * w_v(I) * min(elapsed, cap) / psi`` and
        the new weight is ``min(1, w + Delta)``.  Keywords we do not
        hold are acquired as transient interests.  ``peer_ids`` must be
        ids from this table's own :class:`KeywordIndex` and free of
        duplicates (snapshots are, by construction).

        The psi cases and the float expression are kept exactly as in
        the record-based formulation (``growth_scale * w * effective /
        psi``, left to right; psi selected per element) so the
        vectorisation is bit-identical.
        """
        if elapsed < 0:
            raise ConfigurationError(f"elapsed must be >= 0, got {elapsed!r}")
        if peer_ids.size == 0:
            return
        effective = min(elapsed, elapsed_cap)
        if effective <= 0.0:
            return  # every delta is exactly 0.0: nothing to write
        self._ensure(int(peer_ids.max()))
        mine_present = self._present[peer_ids]
        mine_direct = self._direct[peer_ids]
        # psi in {1..6}: the nested psi_case collapses to a two-level
        # select minus the peer-direct bonus (2-1=1, 4-1=3, 6-1=5).
        psi = np.where(
            mine_present, np.where(mine_direct, 2, 4), 6
        ) - peer_direct
        delta = growth_scale * peer_weights * effective / psi
        active = delta > 0.0
        changed = False
        fresh = active & ~mine_present
        rows = peer_ids[fresh]
        if rows.size:
            self._weight[rows] = np.minimum(delta[fresh], 1.0)
            self._direct[rows] = False
            self._last[rows] = now
            self._present[rows] = True
            self._members_version += 1
            changed = True
        grown_mask = active & mine_present
        rows = peer_ids[grown_mask]
        if rows.size:
            self._weight[rows] = np.minimum(
                self._weight[rows] + delta[grown_mask], 1.0
            )
            self._last[rows] = now
            changed = True
        if changed:
            # Version moves only when a weight (or membership) actually
            # did — no-op growth ticks keep memoised sums alive.
            self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        direct = int(np.count_nonzero(self._present & self._direct))
        return (
            f"InterestTable({direct} direct, "
            f"{len(self) - direct} transient)"
        )


class InterestStore:
    """The fused ``[node-row × keyword]`` interest-weight store.

    One pair of 2-D float64 arrays (weights, last-contact stamps) plus
    two bool masks (direct, present) back *every* interest table the
    router creates, with columns indexed by the shared
    :class:`KeywordIndex` and one row per node table in creation order.
    Owned by the :class:`ChitChatRouter` that creates the tables.

    Tables are :class:`InterestTable` row views.  What the fusion buys
    is the *batched* tick operations (:meth:`_decay_block`,
    :meth:`batch_grow_pairs`): the contacts of one scan tick run their
    Algorithm 1/2 updates in rounds, each a handful of ufuncs over a
    ``(contacts, keywords)`` block instead of two Python calls per
    contact.  Both batched forms evaluate the
    identical IEEE expression per element as the per-table paths, so
    results are bit-identical (the golden trace digests and the fused
    property tests pin this).

    Rows are assigned lazily (tables are created on first contact), so
    memory scales with the *touched* population, not the configured one.
    """

    def __init__(self, index: KeywordIndex, *, rows: int = 64):
        self.index = index
        # Columns come in whole multiples of 8, so a row of bool flags
        # is whole 64-bit words (the decay planner ORs membership rows
        # as words).
        columns = max(8, -(-len(index) // 8) * 8)
        rows = max(8, rows)
        self._w = np.zeros((rows, columns), dtype=np.float64)
        self._d = np.zeros((rows, columns), dtype=bool)
        self._l = np.zeros((rows, columns), dtype=np.float64)
        self._p = np.zeros((rows, columns), dtype=bool)
        #: Per row: ``InterestTable.version`` and ``_members_version``.
        self._versions = np.zeros((rows, 2), dtype=np.int64)
        self._version_cells = self._cells(self._versions)
        #: Per row: the fully-stamped record ``InterestTable._stamped``,
        #: its time (NaN for none) and the two versions it was made at.
        self._stamped_at = np.full(rows, np.nan)
        self._stamped_versions = np.zeros((rows, 2), dtype=np.int64)
        self._tables: List[InterestTable] = []

    @staticmethod
    def _cells(versions: np.ndarray) -> memoryview:
        """``versions`` as one flat memoryview: item ``2 * row`` is the
        row's version, ``2 * row + 1`` its member version.  Its items
        read as Python ints at attribute speed, which the interest-sum
        memo's version check on every lookup needs (an ``ndarray.item``
        there cost ``paper`` about 4%), with no object per table."""
        return memoryview(versions).cast("B").cast("q")

    @property
    def columns(self) -> int:
        """Current column capacity (>= ``len(self.index)``)."""
        return self._w.shape[1]

    def __len__(self) -> int:
        return len(self._tables)

    def create_table(
        self, direct_interests: Iterable[str], created_at: float
    ) -> InterestTable:
        """A fresh table over the next free row: ``direct_interests`` at
        weight 0.5, last contact ``created_at``."""
        return self.create_tables([direct_interests], created_at)[0]

    def create_tables(
        self, interests: List[Iterable[str]], created_at: float
    ) -> List[InterestTable]:
        """Fresh tables over the next free rows, one per entry of
        ``interests`` in order, seeded in one pass.

        Keyword ids are interned in order, and rows and columns grow to
        what one :meth:`create_table` call per entry would leave.
        """
        id_of = self.index.id_of
        ids = [list(map(id_of, keywords)) for keywords in interests]
        counts = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
        columns = np.fromiter(
            chain.from_iterable(ids), dtype=np.intp, count=counts.sum()
        )
        # Columns first: widening copies every allocated row.
        if columns.size:
            self.ensure_columns(int(columns.max()))
        first = len(self._tables)
        need = first + len(interests)
        capacity = self._w.shape[0]
        if need > capacity:
            while capacity < need:
                capacity *= 2
            self._grow_rows(capacity)
        tables = [InterestTable(self, row) for row in range(first, need)]
        self._tables.extend(tables)
        if columns.size:
            rows = np.repeat(np.arange(first, need), counts)
            self._w[rows, columns] = 0.5
            self._d[rows, columns] = True
            self._l[rows, columns] = created_at
            self._p[rows, columns] = True
        return tables

    def _grow_rows(self, need: int) -> None:
        old = self._w.shape[0]
        new = max(old * 2, need)
        for name in (
            "_w", "_d", "_l", "_p", "_versions", "_stamped_at",
            "_stamped_versions",
        ):
            array = getattr(self, name)
            grown = np.zeros((new,) + array.shape[1:], dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        self._stamped_at[old:] = np.nan
        self._version_cells = self._cells(self._versions)
        for table in self._tables:
            table._attach()

    def ensure_columns(self, keyword_id: int) -> None:
        """Widen all rows to the next multiple of 8 covering
        ``keyword_id``.

        Every decay, growth and plan pass works on whole rows, so
        columns past the index are work for nothing; whole words are
        all the planner's OR needs.
        """
        old = self._w.shape[1]
        if keyword_id < old:
            return
        new = (keyword_id + 8) // 8 * 8
        for name in ("_w", "_d", "_l", "_p"):
            array = getattr(self, name)
            grown = np.zeros((array.shape[0], new), dtype=array.dtype)
            grown[:, :old] = array
            setattr(self, name, grown)
        for table in self._tables:
            table._attach()

    # ------------------------------------------------------------------
    # Batched tick operations
    # ------------------------------------------------------------------
    @staticmethod
    def _decay_block(
        W: np.ndarray,
        D: np.ndarray,
        P: np.ndarray,
        L: np.ndarray,
        connected: np.ndarray,
        now: float,
        beta: float,
    ) -> Tuple[np.ndarray, ...]:
        """Algorithm 1 over a block of rows, computed without writing.

        ``W``/``D``/``P``/``L`` are the rows' weights, direct and
        present flags and ``T_l``; transients under ``_PRUNE_BELOW``
        are pruned.  Returns the decayed ``(weights, last, present)``
        arrays, each row's increments of ``(version, _members_version)``
        as :meth:`InterestTable.decay` moves them (a row that divided a
        cell bumps its version, one that pruned a cell, always divided,
        its member version too), and whether each row was left fully
        stamped (no present cell with ``T_l < now``).
        """
        L = np.where(connected, now, L)
        # In place, but each element still sees ``(w - half) /
        # max(beta * (now - T_l), 1) + half``.
        denominator = np.subtract(now, L)
        stale = denominator > 0.0
        stale &= P
        denominator *= beta
        np.maximum(denominator, 1.0, out=denominator)
        half = D * 0.5
        # Computed on every cell: by the store's invariants (DESIGN.md
        # §9) a cell that is not stale comes back exactly as ``W``, and
        # a direct cell decays to at least 0.5, so never under the
        # prune threshold.
        new_w = W - half
        new_w /= denominator
        new_w += half
        prune = new_w < _PRUNE_BELOW
        prune &= stale
        new_w[prune] = 0.0
        increments = np.array([stale.any(axis=1), prune.any(axis=1)]).T
        stale ^= prune
        return new_w, L, P & ~prune, increments, ~stale.any(axis=1)

    def batch_decay(
        self,
        rows: np.ndarray,
        connected: np.ndarray,
        now: float,
        *,
        beta: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 1 over many store rows at once.

        Args:
            rows: Distinct store rows to decay.
            connected: ``(len(rows), columns)`` bool mask of keyword
                columns held by each row's currently-connected peers,
                read by the caller (so rows may be each other's peers).
            now: Current time ``T_c``.
            beta: Decay constant.

        Returns:
            ``(weights, last, present)``: the rows as written.

        Per element this evaluates exactly the per-table expression
        (stamp connected ``T_l`` first, ``(w - half)/max(beta·dt, 1) +
        half``, prune transients below ``_PRUNE_BELOW``), so the floats
        are bit-identical to ``InterestTable.decay``, and the versions
        and fully-stamped records move the same way.  The up tick's
        planner runs :meth:`_decay_block` and :meth:`_write_decayed`
        itself, on its scratch rows.
        """
        weights, last, present, increments, settled = self._decay_block(
            self._w[rows], self._d[rows], self._p[rows], self._l[rows],
            connected, now, beta,
        )
        self._write_decayed(
            rows, now, weights, last, present,
            self._versions[rows] + increments, settled,
        )
        return weights, last, present

    def _write_decayed(
        self, rows, now, weights, last, present, versions, settled
    ) -> None:
        """Write distinct decayed rows to the store: their cells, their
        ``(version, _members_version)`` and, where ``settled`` (left
        fully stamped), the record of both at ``now``."""
        self._w[rows] = weights
        self._l[rows] = last
        self._p[rows] = present
        self._versions[rows] = versions
        settled = rows[settled]
        self._stamped_at[settled] = now
        self._stamped_versions[settled] = self._versions[settled]

    def batch_grow_pairs(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        effective: np.ndarray,
        now: float,
        *,
        growth_scale: float,
    ) -> None:
        """Algorithm 2, two-sided, over many contact pairs at once.

        Args:
            rows_a: First-endpoint store rows, one per ended contact.
            rows_b: Second-endpoint rows.  All rows across both arrays
                are distinct (a growth round holds each node at most
                once), so the two scatter-writes cannot collide.
            effective: Per-pair ``min(elapsed, cap)``; strictly > 0
                (zero-duration contacts are filtered by the caller, as
                the per-table path early-returns on them).
            now: Current time.
            growth_scale: Growth increment scale.

        Both sides grow from the *pre-exchange* gather of the other, so
        the update is symmetric exactly like
        ``ChitChatRouter.run_rtsr_growth``'s snapshot discipline.
        Absent columns hold weight exactly ``0.0`` by table invariant,
        so their deltas are ``0.0`` and they stay inactive — the same
        filtering ``snapshot_arrays`` performs.
        """
        W_a = self._w[rows_a]
        D_a = self._d[rows_a]
        P_a = self._p[rows_a]
        W_b = self._w[rows_b]
        D_b = self._d[rows_b]
        P_b = self._p[rows_b]
        eff = effective[:, None]
        self._grow_side(
            rows_a, W_a, D_a, P_a, W_b, D_b, eff, now, growth_scale
        )
        self._grow_side(
            rows_b, W_b, D_b, P_b, W_a, D_a, eff, now, growth_scale
        )

    def _grow_side(
        self,
        rows: np.ndarray,
        W: np.ndarray,
        D: np.ndarray,
        P: np.ndarray,
        peer_w: np.ndarray,
        peer_d: np.ndarray,
        eff: np.ndarray,
        now: float,
        growth_scale: float,
    ) -> None:
        # Same psi select and float expression (left to right) as
        # ``grow_from_arrays``; peer-absent columns contribute delta
        # exactly 0.0 and stay inactive.
        # (In place; psi's values 1..6 are exact as floats.)
        psi = np.where(P, np.where(D, 2.0, 4.0), 6.0)
        psi -= peer_d
        delta = growth_scale * peer_w
        delta *= eff
        delta /= psi
        active = delta > 0.0
        # ``min(W + delta, 1)`` is every cell's result under the store's
        # invariants (DESIGN.md §9): an acquired cell adds to an absent
        # cell's exact 0.0, an inactive one adds 0.0 to a weight that is
        # never -0.0 and at most 1, and no acquired cell is direct.
        delta += W
        np.minimum(delta, 1.0, out=delta)
        self._w[rows] = delta
        last = self._l[rows]
        last[active] = now
        self._l[rows] = last
        self._p[rows] = P | active
        # A row that wrote a cell bumps its version; one that acquired
        # a cell, its member version too (``grow_from_arrays``'s rule).
        self._versions[rows] += np.array(
            [active.any(axis=1), (active & ~P).any(axis=1)]
        ).T


class ChitChatRouter(Router):
    """The plain ChitChat protocol — the paper's comparison baseline.

    Args:
        beta: Decay constant.  The thesis example uses 2, but its own
            arithmetic is inconsistent (it reports 0.55 where the stated
            formula yields 0.51), and with beta=2 a transient interest
            divided by ``beta * dt`` dies within seconds of
            disconnection, killing multi-hop relaying outright.  The
            default 0.01 gives transient interests a ~100 s grace period
            (the clamp ``max(beta * dt, 1)`` binds until ``dt = 1/beta``)
            followed by hyperbolic decay — see DESIGN.md section 4.
        growth_scale: Scale applied to the growth increment (see module
            docstring).
        growth_elapsed_cap: Cap on the per-contact elapsed time used by
            growth, seconds.
        destinations_also_relay: Whether a destination keeps a copy in
            its buffer to serve further destinations (multicast
            dissemination, as the paper's "share with multiple
            destinations" implies).
        max_retransmissions: Retry budget per ``(receiver, message)``
            for transfers aborted by link-layer loss or corruption
            (never for mobility/churn aborts — the contact is gone).
            ``0`` (the default) disables retransmission entirely, which
            keeps fault-free runs bit-identical to the committed golden
            results.
        retransmit_backoff: Base delay before the first retry, seconds;
            doubles with each further attempt for the same copy.
    """

    name = "chitchat"

    #: Abort reasons eligible for retransmission (link survived).
    RETRYABLE_ABORTS = ("loss", "corruption")

    def __init__(
        self,
        *,
        beta: float = 0.01,
        growth_scale: float = 0.01,
        growth_elapsed_cap: float = 600.0,
        destinations_also_relay: bool = True,
        max_retransmissions: int = 0,
        retransmit_backoff: float = 30.0,
    ):
        super().__init__()
        if beta <= 0:
            raise ConfigurationError(f"beta must be > 0, got {beta!r}")
        if growth_scale <= 0:
            raise ConfigurationError(
                f"growth_scale must be > 0, got {growth_scale!r}"
            )
        if growth_elapsed_cap <= 0:
            raise ConfigurationError(
                f"growth_elapsed_cap must be > 0, got {growth_elapsed_cap!r}"
            )
        if max_retransmissions < 0:
            raise ConfigurationError(
                f"max_retransmissions must be >= 0, got {max_retransmissions!r}"
            )
        if retransmit_backoff <= 0:
            raise ConfigurationError(
                f"retransmit_backoff must be > 0, got {retransmit_backoff!r}"
            )
        self.beta = float(beta)
        self.growth_scale = float(growth_scale)
        self.growth_elapsed_cap = float(growth_elapsed_cap)
        self.destinations_also_relay = bool(destinations_also_relay)
        self.max_retransmissions = int(max_retransmissions)
        self.retransmit_backoff = float(retransmit_backoff)
        #: Keyword registry shared by every table this router creates;
        #: weight exchanges move id arrays, not strings.
        self.keyword_index = KeywordIndex()
        self._tables: Dict[int, InterestTable] = {}
        #: Node id -> its table's store row, ``-1`` before the table.
        self._row_of = np.full(64, -1, dtype=np.intp)
        #: Fused [node × keyword] store; every table is one of its rows.
        self._store = InterestStore(self.keyword_index)
        #: Pair -> its two decay sides as planned by
        #: :meth:`prepare_contact_batch` this tick: ``None`` where
        #: nothing is left to write, else the stashed result
        #: ``run_rtsr_decay`` writes at the pair's point.  Only the
        #: pairs whose hook the tick asked for have an entry.
        self._planned: Dict[Tuple[int, int], List[Optional[tuple]]] = {}
        #: (sender, receiver) -> the side's :meth:`_select_sides` result
        #: for this tick, valid only inside the engine event stamped in
        #: :attr:`_selected_at` as ``(engine, now, events fired)``.
        self._selected: Dict[Tuple[int, int], tuple] = {}
        self._selected_at: Optional[Tuple[object, float, int]] = None
        #: Sender -> (buffer, ``_mutations``, messages, uuids, max size).
        self._entries: Dict[int, tuple] = {}
        # Interned memo keys: ordered keyword sequence -> small int.
        # Messages cache their key in ``_memo_key`` (invalidated on
        # annotate), so the hot paths hash one int instead of a string
        # tuple on every memo lookup.  Equal sequences share a key —
        # exactly the sharing the tuple keys gave.
        self._memo_keys: Dict[Tuple[str, ...], int] = {}
        # Per-message keyword-id arrays, keyed by the interned memo
        # key.  Ids follow the iteration order of the message's
        # keyword frozenset (identical sequences build identically
        # iterating frozensets), which is the order the scalar sum
        # accumulated in — the bit-parity requirement.  ``_key_ids``
        # holds the same ids as one row per key, padded with ``_PAD``,
        # for the selection kernel's gathers.
        self._message_id_cache: Dict[int, np.ndarray] = {}
        self._key_ids = np.full((64, 4), _PAD, dtype=np.int64)
        # Retransmission attempts used: message uuid -> {receiver_id ->
        # attempts}.  Grouped by uuid so the whole book for a message
        # drops in O(1) when its TTL expires, and a receiver's budget
        # is pruned the moment a copy lands (no further retry can ever
        # fire usefully for it) — long runs stay bounded and a node
        # that re-originates a uuid after churn starts with a fresh
        # budget (see on_message_expired / _prune_retries).
        self._retry_counts: Dict[str, Dict[int, int]] = {}
        # Memoised interest sums: node id -> (table version at compute
        # time, {memo key -> S}).  A node's whole cache is discarded the
        # moment its table version moves on, so decay, growth and
        # subscriptions invalidate every dependent sum at once (see
        # InterestTable.version).
        self._sum_cache: Dict[int, Tuple[int, Dict[int, float]]] = {}

    # ------------------------------------------------------------------
    # RTSR state
    # ------------------------------------------------------------------
    def table(self, node_id: int) -> InterestTable:
        """The RTSR table for ``node_id`` (created lazily)."""
        existing = self._tables.get(node_id)
        if existing is None:
            self._rows(np.array([node_id]))
            existing = self._tables[node_id]
        return existing

    def _rows(self, nodes: np.ndarray) -> np.ndarray:
        """Store rows of ``nodes``, creating the missing tables in one
        pass, in order of first appearance (as :meth:`table` would)."""
        top = int(nodes.max()) + 1
        if top > self._row_of.size:
            self._row_of = np.pad(
                self._row_of, (0, 2 * top - self._row_of.size),
                constant_values=-1,
            )
        rows = self._row_of[nodes]
        missing = rows < 0
        if missing.any():
            new, first = np.unique(nodes[missing], return_index=True)
            new = new[np.argsort(first)].tolist()
            node = self.world.node
            tables = self._store.create_tables(
                [node(n).interests for n in new], self.world.now
            )
            self._tables.update(zip(new, tables))
            self._row_of[new] = [table._row for table in tables]
            rows = self._row_of[nodes]
        return rows

    def interest_sum(self, node_id: int, message: Message) -> float:
        """``S`` for ``message`` at ``node_id``.

        Memoised per ``(node, message keyword sequence)`` and
        invalidated by the table's version counter, so every buffered
        message offered during one encounter reuses a single
        computation.  The cache key is the *ordered* keyword sequence
        (not the set): the sum iterates the message's keyword frozenset,
        whose iteration order depends on construction order, and
        bit-identical results require replaying exactly that order.
        """
        table = self._tables.get(node_id)
        if table is None:
            table = self.table(node_id)
        version = self._store._version_cells[2 * table._row]
        cached = self._sum_cache.get(node_id)
        if cached is None or cached[0] != version:
            cached = (version, {})
            self._sum_cache[node_id] = cached
        sums = cached[1]
        key = message._memo_key
        if key is None:
            key = self._intern_key(message)
        value = sums.get(key)
        if value is None:
            value = table.sum_for_ids(self._message_ids(message, key))
            sums[key] = value
        return value

    def _intern_key(self, message: Message) -> int:
        """Assign (or look up) the interned memo key for ``message``.

        Cold path of the ``message._memo_key`` cache: sequences seen
        before reuse their int, new ones take the next one and resolve
        their keyword ids at once (as every caller did right after).
        """
        sequence = message.keyword_sequence
        keys = self._memo_keys
        key = keys.get(sequence)
        if key is None:
            key = len(keys)
            keys[sequence] = key
            self._message_ids(message, key)
        message._memo_key = key
        return key

    def _message_ids(self, message: Message, key: int) -> np.ndarray:
        """``message``'s keywords as ids, in frozenset iteration order.

        ``key`` must be ``message``'s interned memo key (the caller
        already has it on every path).
        """
        ids = self._message_id_cache.get(key)
        if ids is None:
            id_of = self.keyword_index.id_of
            ids = np.asarray(
                [id_of(k) for k in message.keywords], dtype=np.int64
            )
            self._message_id_cache[key] = ids
            padded = self._key_ids
            rows, width = padded.shape
            if key >= rows or ids.size > width:
                padded = self._key_ids = np.pad(padded, (
                    (0, max(0, 2 * key + 2 - rows)),
                    (0, max(0, ids.size - width)),
                ), constant_values=_PAD)
            padded[key, :ids.size] = ids
        return ids

    def _connected_ids(self, node_id: int) -> np.ndarray:
        """Keyword ids held by any currently connected peer of
        ``node_id`` (duplicates across peers are harmless: decay only
        stamps them)."""
        parts = [
            self.table(link.b if link.a == node_id else link.a).present_ids()
            for link in self.world.open_links(node_id)
        ]
        return np.concatenate(parts) if parts else _EMPTY_IDS

    def run_rtsr_decay(self, link: Link) -> None:
        """Phase one of the weight exchange: decay on both endpoints.

        A pair :meth:`prepare_contact_batch` planned only writes the
        sides it stashed.  Otherwise each side runs
        :meth:`InterestTable.decay`, skipped when its table is still
        fully stamped at ``now``: the decay would only re-stamp ``T_l``
        and find nothing stale (the proof is in DESIGN.md §9).
        """
        now = self.world.now
        planned = self._planned.pop(link.pair, None)
        if planned is not None:
            store = self._store
            for node_id, side in zip(link.pair, planned):
                if side is not None:
                    # One row of ``InterestStore._write_decayed``.
                    weights, last, present, versions, settled = side
                    row = self._tables[node_id]._row
                    store._w[row] = weights
                    store._l[row] = last
                    store._p[row] = present
                    store._versions[row] = versions
                    if settled:
                        store._stamped_at[row] = now
                        store._stamped_versions[row] = versions
            return
        for node_id in link.pair:
            table = self.table(node_id)
            if table._stamped == (now, table.version, table._members_version):
                continue
            table.decay(now, self._connected_ids(node_id), beta=self.beta)

    def run_rtsr_growth(self, link: Link, elapsed: float) -> None:
        """Phase three: growth on both endpoints from the peer's table."""
        now = self.world.now
        table_a = self.table(link.a)
        table_b = self.table(link.b)
        # Grow from snapshots so the update is symmetric (b must not see
        # a's freshly grown weights); snapshots are id arrays over the
        # router-shared keyword index.
        ids_a, weights_a, direct_a = table_a.snapshot_arrays()
        ids_b, weights_b, direct_b = table_b.snapshot_arrays()
        table_a.grow_from_arrays(
            ids_b, weights_b, direct_b, now, elapsed,
            growth_scale=self.growth_scale,
            elapsed_cap=self.growth_elapsed_cap,
        )
        table_b.grow_from_arrays(
            ids_a, weights_a, direct_a, now, elapsed,
            growth_scale=self.growth_scale,
            elapsed_cap=self.growth_elapsed_cap,
        )

    # ------------------------------------------------------------------
    # Routing decisions
    # ------------------------------------------------------------------
    def wants_as_relay(
        self, sender_id: int, receiver_id: int, message: Message
    ) -> bool:
        """The ChitChat forwarding rule ``S_v > S_u``."""
        return (
            self.interest_sum(receiver_id, message)
            > self.interest_sum(sender_id, message)
        )

    def select_messages(
        self, sender_id: int, receiver_id: int
    ) -> List[Tuple[Message, str]]:
        """Messages ``sender`` should offer ``receiver``, with their role:
        destinations first, then relays by descending receiver interest
        strength (so the most valuable transfers survive short contacts).

        Inside a contact-up tick this is the side's result from
        :meth:`prepare_contact_batch`; elsewhere :meth:`_select_sides`
        runs on this one side over the store rows.  Either way the
        side's memo entries are written now.
        """
        stored = self._selected.pop((sender_id, receiver_id), None)
        if stored is not None:
            engine, now, fired = self._selected_at
            if engine.events_fired != fired or engine.now != now:
                stored = None
        if stored is None:
            if not len(self.world.node(sender_id).buffer):
                return []
            row_r = self.table(receiver_id)._row
            row_s = self.table(sender_id)._row
            stored = self._select_sides(
                [(sender_id, receiver_id)], self._store._w,
                np.array([row_s]), np.array([row_r]),
            )[0]
        offers, keys, sums_r, sums_s = stored
        if keys:
            self._memo(receiver_id).update(zip(keys, sums_r))
            self._memo(sender_id).update(zip(keys, sums_s))
        return offers

    def _memo(self, node_id: int) -> Dict[int, float]:
        """``node_id``'s memoised sums for its table's current version."""
        version = self._store._version_cells[2 * self._tables[node_id]._row]
        cached = self._sum_cache.get(node_id)
        if cached is None or cached[0] != version:
            cached = self._sum_cache[node_id] = (version, {})
        return cached[1]

    def _select_sides(
        self,
        sides: List[Tuple[int, int]],
        weights: np.ndarray,
        sender_rows: np.ndarray,
        receiver_rows: np.ndarray,
    ) -> List[tuple]:
        """The selection kernel: every side's offers in one array pass.

        Side ``j`` is ``sides[j] = (sender, receiver)``, with a non-empty
        sender buffer and its weights in rows ``sender_rows[j]`` and
        ``receiver_rows[j]`` of ``weights``.  Its candidates are the
        messages the receiver has not seen and can hold (one ``seen``
        test per entry, mapped in C; new memo keys interned in buffer
        order).  ``S`` adds a message's keyword ids in frozenset order,
        one column at a time; padding and ids past the store's columns
        add ``+0.0``, so each sum equals ``sum_for_ids`` bit for bit.
        Kept: destinations, then relays with ``S_receiver > S_sender``,
        each by ``(-S_receiver, uuid)``.  Returns per side ``(offers,
        keys, receiver sums, sender sums)``.
        """
        node = self.world.node
        entries = self._entries
        # Per entry: seen by the receiver, the message; per side: its
        # first entry; (first entry, messages, capacity) where some
        # message is larger than the receiver's whole buffer.
        flags, messages, starts, oversized = [], [], [], []
        for sender_id, receiver_id in sides:
            buffer = node(sender_id).buffer
            entry = entries.get(sender_id)
            if (
                entry is None or entry[0] is not buffer
                or entry[1] != buffer._mutations
            ):
                listed = buffer.messages()
                entry = entries[sender_id] = (
                    buffer, buffer._mutations, listed,
                    list(map(_UUID, listed)), buffer.size_quality_maxima()[0],
                )
            receiver = node(receiver_id)
            capacity = receiver.buffer.capacity
            starts.append(len(flags))
            if entry[4] > capacity:
                oversized.append((len(flags), entry[2], capacity))
            flags.extend(map(receiver.seen.__contains__, entry[3]))
            messages.extend(entry[2])
        take = ~np.array(flags, dtype=bool)
        for start, listed, capacity in oversized:
            sizes = np.fromiter(map(_SIZE, listed), np.int64, len(listed))
            take[start:start + len(listed)] &= sizes <= capacity
        counts = np.add.reduceat(take, starts, dtype=np.intp)
        candidates = list(compress(messages, take.tolist()))
        keys = list(map(_MEMO_KEY, candidates))
        if None in keys:
            for c, key in enumerate(keys):
                if key is None:
                    keys[c] = self._intern_key(candidates[c])
        side_of = np.repeat(np.arange(len(sides)), counts)
        ids = self._key_ids[np.array(keys, dtype=np.intp)]
        ok = ids < weights.shape[1]
        safe = np.where(ok, ids, 0)
        rows = np.stack((receiver_rows, sender_rows))[:, side_of, None]
        values = np.where(ok, weights[rows, safe], 0.0)
        total = values[:, :, 0]
        for column in range(1, ids.shape[1]):
            total = total + values[:, :, column]
        rows = self._row_of[[r for _, r in sides]][side_of, None]
        store = self._store
        direct = (store._p[rows, safe] & store._d[rows, safe] & ok).any(axis=1)
        kept = np.flatnonzero(direct | (total[0] > total[1])).tolist()
        sums_r, sums_s = total.tolist()
        for c in np.flatnonzero(ids[:, 0] == _PAD).tolist():
            # A keyword-less message: ``S`` is the empty sum, int 0.
            sums_r[c] = sums_s[c] = 0
        roles = list(map(_ROLES.__getitem__, direct.tolist()))
        offers: List[List[Tuple[Message, str]]] = [[] for _ in sides]
        for side, _, _, _, c in sorted(
            (side, roles[c] == "relay", -sums_r[c], candidates[c].uuid, c)
            for c, side in zip(kept, side_of[kept].tolist())
        ):
            offers[side].append((candidates[c], roles[c]))
        ends = np.cumsum(counts).tolist()
        return [
            (offers[j], keys[a:b], sums_r[a:b], sums_s[a:b])
            for j, (a, b) in enumerate(zip([0] + ends, ends))
        ]

    def relay_affinity(self, node_id: int, message: Message) -> float:
        """ChitChat's relay preference is the interest sum ``S``."""
        return self.interest_sum(node_id, message)

    def relay_trust(self, receiver_id: int, message: Message) -> float:
        """Average tag weight — the paper's relay-threshold signal."""
        key = message._memo_key
        if key is None:
            key = self._intern_key(message)
        ids = self._message_ids(message, key)
        if ids.size == 0:
            return 0.0
        return self.table(receiver_id).sum_for_ids(ids) / ids.size

    # ------------------------------------------------------------------
    # World hooks
    # ------------------------------------------------------------------
    def prepare_contact(self, link: Link) -> None:
        """Phase one of the weight exchange: decay on both endpoints."""
        self.run_rtsr_decay(link)

    def prepare_contact_batch(
        self, pairs: List[Tuple[int, int]]
    ) -> np.ndarray:
        """Decay and select for a whole contact-up tick, in array passes.

        The world calls this once per tick with every admitted pair,
        before any link opens.  :meth:`_plan_decay` (DESIGN.md §9)
        writes every decay side no exchange of the tick reads and hands
        over both endpoints' rows at every *busy* pair (one with a
        non-empty sender buffer); :meth:`_select_sides` selects those
        sides into :attr:`_selected` (DESIGN.md §10).  Returns the
        pairs whose ``on_contact_start`` must run: the busy pairs and
        the pairs holding a stashed side.  Every other pair offers
        nothing and has nothing left to write.
        """
        self._selected.clear()
        world = self.world
        engine = world.engine
        self._selected_at = (engine, engine.now, engine.events_fired)
        # Side ``t`` is ``pairs[t >> 1][t & 1]``'s; ``nodes`` are the
        # tick's nodes in first-appearance order, ``local[t]`` is the
        # side's node among them and ``first`` each node's first side.
        side_node = np.array(pairs, dtype=np.intp).ravel()
        nodes, first, local = np.unique(
            side_node, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        nodes, first, local = nodes[order], first[order], rank[local]
        created = len(self._store)
        rows = self._rows(nodes)
        busy = np.fromiter(
            map(bool, map(_QUEUED, map(world.node, nodes.tolist()))),
            dtype=bool, count=nodes.size,
        )
        sending = busy[local]
        need = sending.reshape(-1, 2).any(axis=1)
        # Both endpoints' weights at each busy pair, the pair's rows
        # ``2m`` and ``2m + 1``: tick-start rows until the plan hands
        # over the decayed ones.
        both = np.repeat(need, 2)
        handed = np.where(both, np.cumsum(both) - 1, -1)
        side_rows = self._store._w[rows[local[both]]]
        keep, stashed = self._plan_decay(
            need, busy, nodes, rows, created, local, side_node, first >> 1,
            handed, side_rows,
        )
        planned = self._planned = {
            pair: [None, None] for pair in compress(pairs, keep.tolist())
        }
        for k, slot, side in stashed:
            planned[pairs[k]][slot] = side
        sel = np.flatnonzero(sending)
        if sel.size:
            sides = list(zip(side_node[sel].tolist(),
                             side_node[sel ^ 1].tolist()))
            # Flipping the low bit of a sender's row gives the receiver's.
            sender_rows = handed[sel]
            self._selected.update(zip(sides, self._select_sides(
                sides, side_rows, sender_rows, sender_rows ^ 1,
            )))
        return keep

    def _plan_decay(
        self, need, busy, nodes, rows, created, local, side_node,
        first_pair, handed, side_rows,
    ) -> Tuple[np.ndarray, List[tuple]]:
        """Plan every decay side of the tick in dependency rounds.

        Side ``t`` is ``side_node[t] == nodes[local[t]]``'s decay at pair
        ``t >> 1``; it reads its node's row and the membership of the
        node's tick-start open peers and of its partners up to its pair,
        and runs in a round that sees exactly those inputs (DESIGN.md
        §9).  Only busy pairs' exchanges read tables: both endpoints of
        each pair in ``need``, and the open peers of each ``busy`` node
        (the *read set*).  A side is written to the store here, in round
        order, unless its node is in the read set and the side is not
        the node's first, or an earlier pair reads the node through a
        tick-start open link; such a side is *stashed* for
        ``run_rtsr_decay``.  A side with ``handed[t] >= 0`` also writes
        its row to ``side_rows[handed[t]]``.  Returns ``need`` plus the
        pairs holding a stashed side, and each stashed side as ``(pair
        index, slot, (weights, last, present, versions, settled))``:
        the row's state after it and whether it leaves the record.
        """
        store = self._store
        now = self.world.now
        beta = self.beta
        keep = need.copy()
        # A new table holds only direct cells stamped ``now``; such a
        # table, or one with no present cell older than ``now``, stays
        # fully stamped for the whole tick: every side is a no-op.
        older = np.flatnonzero(rows < created)
        P = store._p[rows[older]]
        L = store._l[rows[older]]
        live = (P & (L < now)).any(axis=1)
        active = older[live]
        n_active = active.size
        # Leave the record the first side would.
        stamped = np.delete(rows, active)
        store._stamped_at[stamped] = now
        store._stamped_versions[stamped] = store._versions[stamped]
        if not n_active:
            return keep, []
        # Scratch rows of the active nodes, stepped through every side.
        act_rows = rows[active]
        act_nodes = nodes[active]
        sW = store._w[act_rows]
        sD = store._d[act_rows]
        sL = L[live]
        sV = store._versions[act_rows]
        P = P[live]
        # The active sides ``t`` in order, with their node's scratch
        # index ``a`` and their ordinal ``o`` among its sides (from 0);
        # ``by_node`` lists them by node, each node's from ``start``.
        a = np.full(nodes.size, -1)
        a[active] = np.arange(n_active)
        a = a[local]
        t = np.flatnonzero(a >= 0)
        a = a[t]
        by_node = np.argsort(a, kind="stable")
        count = np.bincount(a, minlength=n_active)
        start = np.cumsum(count) - count
        o = np.empty_like(by_node)
        o[by_node] = _spans(0 * count, count)
        # Row bound: a side divides a stale cell at most once, by at
        # most ``denmax``, so at its node's j-th side no transient cell
        # is lighter than ``wmin / denmax**j``.  The side may prune only
        # if that is under twice the threshold (the margin covers the
        # rounding of repeated divisions).  ``first_prune``: the first
        # such side, counted from 1, or 0 for none.
        transient = P & ~sD
        wmin = np.where(transient, sW, np.inf).min(axis=1)
        lmin = np.where(transient, sL, np.inf).min(axis=1)
        denmax = np.maximum(beta * (now - lmin), 1.0)
        first_prune = np.zeros(n_active, dtype=np.intp)
        cand = np.flatnonzero(wmin < 2e-3 * denmax ** count.astype(float))
        if cand.size:
            hit = wmin[cand, None] < 2e-3 * denmax[cand, None] ** np.arange(
                1, count[cand].max() + 1
            )
            first_prune[cand] = np.where(
                hit.any(axis=1), hit.argmax(axis=1) + 1, 0
            )
        # Membership scratch rows: the active nodes (same indices), then
        # every other node an active side reads; theirs cannot change
        # this tick.  A tick-start peer already has a table: the tick
        # that opened its link created both endpoints' tables.
        held = list(map(self.world.open_links, act_nodes.tolist()))
        n_open = np.fromiter(map(len, held), dtype=np.intp, count=n_active)
        owner = np.repeat(np.arange(n_active), n_open)
        links = list(chain.from_iterable(held))
        peer = np.array(
            [link.a + link.b for link in links], dtype=np.intp
        ) - act_nodes[owner]
        read = np.concatenate((peer, side_node[t ^ 1]))
        where = np.full(self._row_of.size, -1)
        where[act_nodes] = np.arange(n_active)
        others = np.zeros(where.size, dtype=bool)
        others[read[where[read] < 0]] = True
        others = np.flatnonzero(others)
        where[others] = np.arange(n_active, n_active + others.size)
        members = np.concatenate((P, store._p[self._row_of[others]]))
        read = where[read]
        opens, partners = read[:owner.size], read[owner.size:]
        # The read set among the active nodes: endpoints of busy pairs,
        # and tick-start open peers of busy nodes (links are symmetric,
        # so those are the nodes with a busy tick-start open peer).
        in_read = np.zeros(nodes.size, dtype=bool)
        in_read[local[handed >= 0]] = True
        in_read = in_read[active]
        where[:] = 0
        where[nodes[busy]] = 1
        in_read[owner[where[peer] > 0]] = True
        # A first side is stashed when a tick-start open peer's first
        # pair comes earlier: that pair's exchange may read this node.
        where[:] = need.size
        where[nodes] = first_pair
        early = np.zeros(n_active, dtype=bool)
        early[owner[where[peer] < first_pair[active][owner]]] = True
        stash = ((o > 0) | early[a]) & in_read[a]
        keep[t[stash] >> 1] = True
        # Every side follows its node's previous side, and the latest
        # earlier side of each peer it reads (open peers, partners up to
        # its pair) once that side's ordinal reaches the peer's first
        # may-prune side.
        may = np.zeros(members.shape[0], dtype=bool)
        may[:n_active] = first_prune > 0
        e = np.flatnonzero(may[opens])
        f = np.flatnonzero(may[partners])
        reader = np.concatenate((
            np.repeat(opens[e], count[owner[e]]),
            np.repeat(partners[f], count[a[f]] - o[f]),
        ))
        reading = by_node[np.concatenate((
            _spans(start[owner[e]], count[owner[e]]),
            _spans(start[a[f]] + o[f], count[a[f]] - o[f]),
        ))]
        keys = a[by_node] * side_node.size + t[by_node]
        pos = np.searchsorted(keys, reader * side_node.size + t[reading]) - 1
        before = by_node[pos]
        edge = (pos >= 0) & (a[before] == reader) & (
            o[before] + 1 >= first_prune[reader]
        )
        later = np.flatnonzero(o[by_node] > 0)
        r = _rounds(
            o, np.concatenate((by_node[later - 1], before[edge])),
            np.concatenate((by_node[later], reading[edge])),
        )
        # Run order: by round, store writes before stashes.  Run side
        # ``i`` reads membership rows ``sources[ends[i]:ends[i + 1]]``.
        run = np.lexsort((stash, r))
        ra = a[run]
        bounds = np.searchsorted(
            2 * r[run] + stash[run], np.arange(2 * r.max() + 3)
        ).tolist()
        span = np.stack((n_open[ra], o[run] + 1), axis=1).ravel()
        sources = np.concatenate((opens, partners[by_node]))[_spans(
            np.stack((np.cumsum(n_open)[ra] - n_open[ra],
                      owner.size + start[ra]), axis=1).ravel(), span,
        )]
        ends = np.concatenate(([0], np.cumsum(span)[1::2]))
        words = members.view(np.uint64)
        sides = t[run]
        side_pairs = (sides >> 1).tolist()
        slots = (sides & 1).tolist()
        out = handed[sides]
        stashed = []
        for b0, b1, b2 in zip(bounds[0:-1:2], bounds[1::2], bounds[2::2]):
            # Every side's mask from the pre-round membership, OR-ed as
            # 64-bit words (store rows are whole words).
            masks = np.bitwise_or.reduceat(
                words[sources[ends[b0]:ends[b2]]], ends[b0:b2] - ends[b0],
                axis=0,
            ).view(bool)
            for lo, hi in ((b0, b1), (b1, b2)):
                if lo == hi:
                    continue
                idx = ra[lo:hi]
                weights, last, present, increments, settled = (
                    store._decay_block(
                        sW[idx], sD[idx], members[idx], sL[idx],
                        masks[lo - b0:hi - b0], now, beta,
                    )
                )
                sW[idx], sL[idx], members[idx] = weights, last, present
                sV[idx] += increments
                versions = sV[idx]
                if hi == b1:
                    store._write_decayed(
                        act_rows[idx], now, weights, last, present,
                        versions, settled,
                    )
                else:
                    stashed.extend(zip(
                        side_pairs[lo:hi], slots[lo:hi], zip(
                            weights, last, present, versions,
                            settled.tolist(),
                        ),
                    ))
                h = out[lo:hi]
                if (h >= 0).any():
                    side_rows[h[h >= 0]] = weights[h >= 0]
        return keep, stashed

    def on_contact_start(self, link: Link) -> None:
        self.prepare_contact(link)
        self._exchange(link)

    def on_contact_end(self, link: Link) -> None:
        elapsed = self.world.now - link.opened_at
        self.run_rtsr_growth(link, elapsed)

    def contact_end_batch(self, links: List[Link]) -> None:
        """Run the growth phase for a whole batch of ended contacts.

        The world hands over *every* link a down tick, churn crash or
        battery blackout closed, in close order.  The close reads
        interest tables only through these growths (close/abort handling
        touches none), so the only order that matters is each node's own
        growth sequence.  That is preserved exactly by round
        decomposition: a pair's round is one past the latest round
        either endpoint already appears in (:func:`_rounds`, DESIGN.md
        §9), so within a round every node appears at most once (the
        distinct-rows contract of ``batch_grow_pairs``) and a node's
        growths run in the same relative order as the per-pair path.
        Each round is one store-level pass — snapshot-gather both sides
        first, then scatter, the same symmetry discipline as
        ``run_rtsr_growth`` — so the result is bit-identical.  At paper
        densities almost every pair lands in round zero; a forced
        disconnect's links all share the crashed node, so each takes a
        round of its own (found in one relaxation pass).
        """
        store = self._store
        now = self.world.now
        effective = np.minimum(
            now - np.fromiter(map(_OPENED, links), np.float64, len(links)),
            self.growth_elapsed_cap,
        )
        # A zero-duration contact grows nothing (the per-pair path
        # writes nothing, version included): skipped, taking no round.
        kept = np.flatnonzero(effective > 0.0)
        if not kept.size:
            return
        ends = np.stack((
            np.fromiter(map(_A, links), dtype=np.intp, count=len(links)),
            np.fromiter(map(_B, links), dtype=np.intp, count=len(links)),
        ), axis=1)[kept]
        effective = effective[kept]
        nodes = ends.ravel()
        rows = self._rows(nodes).reshape(-1, 2)
        by_node = np.argsort(nodes, kind="stable")
        again = np.diff(nodes[by_node]) == 0
        # A link's round is at least its ordinal among either endpoint's
        # links; starting there, a forced disconnect's star of links
        # settles in one relaxation pass.
        pos = np.arange(nodes.size)
        o = np.empty_like(pos)
        o[by_node] = pos - np.maximum.accumulate(
            np.where(np.r_[True, ~again], pos, 0)
        )
        again = 1 + np.flatnonzero(again)
        r = _rounds(
            o.reshape(-1, 2).max(axis=1),
            by_node[again - 1] >> 1, by_node[again] >> 1,
        )
        order = np.argsort(r, kind="stable")
        bounds = np.searchsorted(r[order], np.arange(r.max() + 2)).tolist()
        for b0, b1 in zip(bounds, bounds[1:]):
            pairs = order[b0:b1]
            store.batch_grow_pairs(
                rows[pairs, 0], rows[pairs, 1], effective[pairs], now,
                growth_scale=self.growth_scale,
            )

    def _exchange(self, link: Link) -> None:
        """Offer messages in both directions after the RTSR update."""
        for sender_id in link.pair:
            receiver_id = link.peer_of(sender_id)
            for message, _role in self.select_messages(sender_id, receiver_id):
                self.world.send_message(link, sender_id, message)

    def on_message_received(self, transfer: Transfer, link: Link) -> None:
        receiver = self.world.node(transfer.receiver)
        message = transfer.message
        message.record_hop(receiver.node_id)
        role = self.classify(receiver.node_id, message)
        if role == "destination":
            self.world.deliver(receiver, message)
            if self.destinations_also_relay:
                self.world.accept_relay(receiver, message)
        else:
            if not self.world.accept_relay(receiver, message):
                return
        self._prune_retries(message.uuid, receiver.node_id)
        self._forward_onward(receiver.node_id, message)

    # ------------------------------------------------------------------
    # Bounded retransmission with exponential backoff
    # ------------------------------------------------------------------
    def on_transfer_aborted(self, transfer: Transfer, link: Link) -> None:
        self._maybe_retransmit(transfer)

    def _maybe_retransmit(self, transfer: Transfer) -> None:
        """Schedule a backed-off retry for a loss/corruption abort."""
        if self.max_retransmissions <= 0:
            return
        if transfer.abort_reason not in self.RETRYABLE_ABORTS:
            return
        # Check the receiver can actually take the retry *before*
        # consuming an attempt: under blackout/churn faults the abort
        # often races the receiver going dark, and a budgeted attempt
        # burned on a dark node is denied to a real later contact.
        # Worlds that cannot answer (unit-test stubs) skip the guard.
        available = getattr(self.world, "node_available", None)
        if available is not None and not available(transfer.receiver):
            return
        uuid = transfer.message.uuid
        per_receiver = self._retry_counts.get(uuid)
        used = 0 if per_receiver is None else per_receiver.get(
            transfer.receiver, 0
        )
        if used >= self.max_retransmissions:
            return
        if per_receiver is None:
            per_receiver = self._retry_counts[uuid] = {}
        per_receiver[transfer.receiver] = used + 1
        delay = self.retransmit_backoff * (2 ** used)
        sender_id, receiver_id = transfer.sender, transfer.receiver
        # Lazy label: retransmission timers are scheduled in bulk under
        # fault injection and most never surface their label.
        self.world.schedule_in(
            delay,
            lambda: self._retransmit(sender_id, receiver_id, uuid),
            label=lambda: f"retransmit {uuid} {sender_id}->{receiver_id}",
        )

    def _retransmit(self, sender_id: int, receiver_id: int, uuid: str) -> None:
        """Fire a scheduled retry if it is still worth sending."""
        link = self.world.link_between(sender_id, receiver_id)
        if link is None or link.closed:
            return
        sender = self.world.node(sender_id)
        message = sender.buffer.get(uuid)
        if message is None:  # the copy expired or was evicted meanwhile
            return
        if self.world.node(receiver_id).has_seen(uuid):
            return  # another path got it there first
        if self._reoffer(link, sender_id, receiver_id, message) is not None:
            self.world.metrics.on_retransmission()

    def _prune_retries(self, uuid: str, receiver_id: int) -> None:
        """Drop the retry budget entry a landed copy made unusable.

        Once ``receiver_id`` has the message, every future retry toward
        it no-ops at ``_retransmit``'s has-seen check, so the counter
        is dead weight — and on long runs the dead weight is the leak
        this fixes.  The whole per-uuid book goes when its last
        receiver entry does (TTL expiry drops the rest, see
        :meth:`on_message_expired`).
        """
        per_receiver = self._retry_counts.get(uuid)
        if per_receiver is not None:
            per_receiver.pop(receiver_id, None)
            if not per_receiver:
                del self._retry_counts[uuid]

    def on_copy_received(
        self,
        transfer: Transfer,
        receiver_id: int,
        message: Message,
        role: str,
        accepted: bool,
    ) -> None:
        """Layer-driven receives must prune like the native path does.

        The incentive layer performs the receive itself and tells the
        substrate through this hook (it never calls
        ``on_message_received``), so the retry-book pruning has to
        happen here too.  A copy marks the receiver as having seen the
        message when the buffer accepted it or it was delivered as a
        destination (delivery marks ``seen`` even when the destination
        keeps no relay copy); a refused relay copy leaves the budget
        alone.
        """
        if accepted or role == "destination":
            self._prune_retries(message.uuid, receiver_id)

    def on_message_expired(self, node_id: int, message: Message) -> None:
        """TTL expiry: drop the message's whole retry book.

        TTL is measured from message *creation*, so every copy expires
        in the same sweep — once the first copy goes, no node can offer
        the uuid again and the counters can never be consulted.  A node
        that re-originates the uuid after churn then starts with the
        fresh budget it should.
        """
        self._retry_counts.pop(message.uuid, None)

    def on_node_subscribed(self, node_id: int, keywords: List[str]) -> None:
        """A subscription adds direct cells, so the table's direct
        cells keep equalling the node's subscriptions."""
        table = self.table(node_id)
        now = self.world.now
        for keyword in keywords:
            table.add_direct(keyword, now)

    def on_node_wiped(self, node_id: int) -> None:
        """Churn wipe: protocol state must restart from scratch.

        The RTSR weights are volatile state, so the wipe policy resets
        the node's table to its freshly-created condition (direct
        subscriptions re-seeded, version 0) — and the version reset is
        exactly why the memo entries *must* go: a pre-crash memo keyed
        at version ``V`` would collide with the restarted table once it
        has taken ``V`` updates, serving sums for weights that no
        longer exist.  The reset clears the table's fully-stamped
        record for the same reason.
        """
        table = self._tables.get(node_id)
        if table is not None:
            table.reset(self.world.node(node_id).interests, self.world.now)
        self._sum_cache.pop(node_id, None)

    def _reoffer(
        self, link: Link, sender_id: int, receiver_id: int, message: Message
    ) -> Optional[Transfer]:
        """Re-queue one copy for a retransmission attempt.

        Overridden by the incentive router to run the full payment
        pipeline (escrow, prepay) rather than a bare send.
        """
        return self.world.send_message(link, sender_id, message)

    def _forward_onward(self, holder_id: int, message: Message) -> None:
        """Offer a freshly received message on the holder's other links."""
        holder = self.world.node(holder_id)
        if message.uuid not in holder.buffer:
            return
        for link in self.world.active_links(holder_id):
            peer_id = link.peer_of(holder_id)
            peer = self.world.node(peer_id)
            if peer.has_seen(message.uuid):
                continue
            role = self.classify(peer_id, message)
            if role == "destination" or self.wants_as_relay(
                holder_id, peer_id, message
            ):
                self.world.send_message(link, holder_id, message)
