"""The Distributed Reputation Model (DRM) — Paper I Section 3.3.

Recipients rate received messages; the *source* of a message is rated
for quality and tag truthfulness, while *intermediate* annotators are
rated only for the tags they added::

    source:        R_i = 1/2 * (R_t * C / C_m) + 1/2 * R_q
    intermediate:  R_i = R_t * C / C_m

A node's rating at an observer is the running average of the message
ratings the observer assigned to that node's contributions (case 1), and
opinions heard from other nodes are merged with an own-opinion weight
``alpha > 0.5`` (case 2)::

    r_{v,u} = (1 - alpha) * r_{v,z} + alpha * r_{v,u}

The reputation-scaled award a destination ``u`` pays deliverer ``v`` is::

    I_v = ((1 - alpha) * avg(r_{m_v,x}) / r_m + alpha * r_{v,u} / r_m)
          * (I + I_t)

(both terms normalised by ``r_m`` so the multiplier lies in [0, 1] — see
DESIGN.md section 4).

Human judgement is replaced by a stochastic :class:`RatingModel` that
observes the ground-truth content keywords, exactly the signal a person
inspecting the image would produce (DESIGN.md substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.core.incentive import IncentiveParams
from repro.errors import ConfigurationError
from repro.messages.message import Annotation, Message
from repro.trace.recorder import NULL_RECORDER, TraceRecorder

__all__ = [
    "source_message_rating",
    "intermediate_message_rating",
    "ReputationBook",
    "ReputationSystem",
    "RatingModel",
]


def source_message_rating(
    tag_rating: float, confidence: float, max_confidence: float,
    quality_rating: float,
) -> float:
    """``R_i`` for the message source: half tags, half quality."""
    if max_confidence <= 0:
        raise ConfigurationError("max_confidence must be > 0")
    if not 0.0 <= confidence <= max_confidence:
        raise ConfigurationError(
            f"confidence must be in [0, {max_confidence}], got {confidence!r}"
        )
    return 0.5 * (tag_rating * confidence / max_confidence) + 0.5 * quality_rating


def intermediate_message_rating(
    tag_rating: float, confidence: float, max_confidence: float
) -> float:
    """``R_i`` for an enriching relay: tags only."""
    if max_confidence <= 0:
        raise ConfigurationError("max_confidence must be > 0")
    if not 0.0 <= confidence <= max_confidence:
        raise ConfigurationError(
            f"confidence must be in [0, {max_confidence}], got {confidence!r}"
        )
    return tag_rating * confidence / max_confidence


class ReputationBook:
    """One node's view of every other node's reputation.

    Own message ratings are kept as a running average (case 1); remote
    opinions fold in via the alpha-weighted merge (case 2).
    """

    def __init__(self, owner: int, params: IncentiveParams):
        self.owner = int(owner)
        self._params = params
        # Running average of *own* message ratings per subject.
        self._own_sum: Dict[int, float] = {}
        self._own_count: Dict[int, int] = {}
        # Current combined score (own average merged with hearsay),
        # held as a sorted subject-id array with parallel values: the
        # gossip exchange — the hot path, whose cost grows with the
        # population — merges whole books with a few ufuncs instead of
        # a dict pass per subject (see ReputationSystem.exchange).
        # Single-subject updates (rating, hearsay, forget) are the cold
        # path and pay an O(n) insert/delete only on membership change.
        self._subjects: np.ndarray = np.empty(0, dtype=np.int64)
        self._values: np.ndarray = np.empty(0, dtype=np.float64)
        #: Event-trace sink plus a sim-clock accessor; wired by
        #: :meth:`ReputationSystem.attach_trace` when tracing is on.
        self.trace: TraceRecorder = NULL_RECORDER
        self._clock: Optional[Callable[[], float]] = None

    def _position(self, subject: int) -> int:
        """``subject``'s index in the sorted arrays, or -1 if absent."""
        subjects = self._subjects
        pos = int(np.searchsorted(subjects, subject))
        if pos < subjects.size and subjects[pos] == subject:
            return pos
        return -1

    def _set_score(self, subject: int, value: float) -> None:
        subjects = self._subjects
        pos = int(np.searchsorted(subjects, subject))
        if pos < subjects.size and subjects[pos] == subject:
            self._values[pos] = value
        else:
            # Hand-rolled single insert: np.insert's generic machinery
            # (index normalisation, fancy-index dispatch) dominates at
            # this call volume.  Same layout, same dtype.
            values = self._values
            n = subjects.size
            new_subjects = np.empty(n + 1, dtype=subjects.dtype)
            new_subjects[:pos] = subjects[:pos]
            new_subjects[pos] = subject
            new_subjects[pos + 1:] = subjects[pos:]
            new_values = np.empty(n + 1, dtype=values.dtype)
            new_values[:pos] = values[:pos]
            new_values[pos] = value
            new_values[pos + 1:] = values[pos:]
            self._subjects = new_subjects
            self._values = new_values

    def known_subjects(self) -> Iterable[int]:
        """Node ids this book holds an opinion about (ascending)."""
        return tuple(self._subjects.tolist())

    def has_opinion(self, subject: int) -> bool:
        """Whether any rating (own or heard) exists for ``subject``."""
        return self._position(subject) >= 0

    def score(self, subject: int) -> float:
        """Current rating of ``subject`` (default when unknown)."""
        pos = self._position(subject)
        if pos < 0:
            return self._params.default_rating
        return float(self._values[pos])

    def own_average(self, subject: int) -> Optional[float]:
        """Average of own message ratings for ``subject`` (None if none)."""
        count = self._own_count.get(subject, 0)
        if count == 0:
            return None
        return self._own_sum[subject] / count

    def rate_message(self, subject: int, message_rating: float) -> float:
        """Case 1: fold one own message rating into ``subject``'s score.

        Returns:
            The updated score ``r_{subject, owner}``.
        """
        if not 0.0 <= message_rating <= self._params.max_rating + 1e-9:
            raise ConfigurationError(
                f"message rating must be in [0, {self._params.max_rating}], "
                f"got {message_rating!r}"
            )
        self._own_sum[subject] = (
            self._own_sum.get(subject, 0.0) + message_rating
        )
        self._own_count[subject] = self._own_count.get(subject, 0) + 1
        # Case 1 defines the node rating as the average of own message
        # ratings; hearsay is layered on top whenever it arrives.
        score = self._own_sum[subject] / self._own_count[subject]
        self._set_score(subject, score)
        if self.trace.enabled:
            self.trace.emit({
                "type": "rating",
                "t": self._clock() if self._clock is not None else 0.0,
                "rater": self.owner, "subject": subject,
                "rating": float(message_rating),
                "score": score,
            })
        return score

    def forget(self, subject: int) -> bool:
        """Erase every opinion this book holds about ``subject``.

        Supports the whitewashing attack model: a node that abandons a
        ruined identity must look brand-new to every observer, so both
        the combined score *and* the own-rating running average are
        dropped — :meth:`score` returns the default and
        :meth:`own_average` returns ``None`` afterwards.

        Returns:
            Whether any opinion (own or heard) existed.
        """
        pos = self._position(subject)
        existed = pos >= 0
        if existed:
            self._subjects = np.delete(self._subjects, pos)
            self._values = np.delete(self._values, pos)
        self._own_sum.pop(subject, None)
        self._own_count.pop(subject, None)
        return existed

    def merge_opinion(self, subject: int, heard_score: float) -> float:
        """Case 2: merge a score heard from another node.

        With no prior opinion the heard score is adopted outright
        (there is nothing to weight it against).
        """
        if subject == self.owner:
            return self.score(subject)
        if not 0.0 <= heard_score <= self._params.max_rating + 1e-9:
            raise ConfigurationError(
                f"heard score must be in [0, {self._params.max_rating}], "
                f"got {heard_score!r}"
            )
        alpha = self._params.alpha
        pos = self._position(subject)
        if pos >= 0:
            merged = (1.0 - alpha) * heard_score + alpha * float(
                self._values[pos]
            )
            self._values[pos] = merged
            return merged
        self._set_score(subject, heard_score)
        return heard_score

    def award_multiplier(
        self, deliverer: int, path_ratings: Iterable[float]
    ) -> float:
        """The reputation multiplier applied to ``(I + I_t)``.

        ``(1 - alpha) * avg(path ratings)/r_m + alpha * r_{v,u}/r_m``;
        when the copy carries no path ratings, the observer's own score
        stands in for the missing term (DESIGN.md section 4).
        """
        alpha = self._params.alpha
        r_m = self._params.max_rating
        own_norm = self.score(deliverer) / r_m
        ratings = list(path_ratings)
        if ratings:
            path_norm = (sum(ratings) / len(ratings)) / r_m
        else:
            path_norm = own_norm
        multiplier = (1.0 - alpha) * path_norm + alpha * own_norm
        return min(max(multiplier, 0.0), 1.0)


class ReputationSystem:
    """All nodes' reputation books plus the gossip exchange."""

    def __init__(self, params: IncentiveParams):
        self._params = params
        self._books: Dict[int, ReputationBook] = {}
        #: Gossip planned by :meth:`exchange_batch_rounds` whose
        #: exchange point has not come yet: ``(a, b) -> (merged_a,
        #: merged_b, side_a, side_b)``.  A side is ``None`` when its book
        #: is already written, else the ``(subjects, values)`` that
        #: :meth:`exchange` installs.
        self._planned: Dict[Tuple[int, int], tuple] = {}
        self.trace: TraceRecorder = NULL_RECORDER
        self._clock: Optional[Callable[[], float]] = None

    def attach_trace(
        self, trace: TraceRecorder, clock: Callable[[], float]
    ) -> None:
        """Wire an event-trace recorder (and sim clock) into every book.

        Called by the incentive router when it binds to a traced world;
        books created later inherit the recorder via :meth:`book`.
        """
        self.trace = trace
        self._clock = clock
        for book in self._books.values():
            book.trace = trace
            book._clock = clock

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def book(self, node_id: int) -> ReputationBook:
        """The book owned by ``node_id`` (created lazily)."""
        book = self._books.get(node_id)
        if book is None:
            book = ReputationBook(node_id, self._params)
            book.trace = self.trace
            book._clock = self._clock
            self._books[node_id] = book
        return book

    def exchange(self, a: int, b: int) -> None:
        """Contact-time gossip: each side merges the other's opinions.

        Opinions about the interlocutors themselves are skipped — a node
        neither rates itself nor lets the peer vouch for itself
        (self-praise would be the obvious whitewashing channel).

        A pair :meth:`exchange_batch_rounds` planned installs its
        planned arrays here, at its exchange point; an unplanned pair
        is merged now as a one-pair round zero.  Scores are floats under
        the EWMA of :meth:`ReputationBook.merge_opinion`, so results are
        bit-identical to a per-subject loop; only membership *order*
        differs (sorted instead of insertion order), which nothing
        consumes.
        """
        planned = self._planned.pop((a, b), None)
        if planned is None:
            planned = self._plan([(a, b)], [[0]], [True])[a, b]
        merged_a, merged_b, side_a, side_b = planned
        if side_a is not None:
            book = self.book(a)
            book._subjects, book._values = side_a
        if side_b is not None:
            book = self.book(b)
            book._subjects, book._values = side_b
        self.record_gossip(a, b, merged_a, merged_b)

    def record_gossip(
        self, a: int, b: int, merged_a: int, merged_b: int
    ) -> None:
        """Emit the per-exchange gossip trace record.

        One record per exchange (not per subject) keeps gossip from
        dominating the trace volume at paper scale.  :meth:`exchange`
        emits it at the pair's exchange point even when the merge was
        planned earlier in the tick, keeping the event trace in
        admission order.
        """
        if self.trace.enabled:
            self.trace.emit({
                "type": "gossip", "t": self._now(), "a": a, "b": b,
                "merged_a": merged_a, "merged_b": merged_b,
            })

    def exchange_batch_rounds(
        self,
        pairs: Sequence[Tuple[int, int]],
        keep: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Plan the gossip of every pair of one contact-up tick.

        A pair's round is one past the latest round either endpoint
        already sits in (the growth batch's decomposition), so within a
        round every node appears at most once and each node's merges
        keep their per-pair order.  :meth:`_merge` runs once per round,
        each round reading the arrays the previous rounds produced.

        ``keep`` masks the pairs whose exchange the caller runs anyway;
        only their exchanges read books (``None``: every pair).  Within
        a contact-up event only gossip writes books (ratings settle
        with transfers at strictly later events), and the only book
        read between two exchanges is ``compute_award``'s read of an
        offer receiver's book, an endpoint of a kept pair.  So a side
        is written to its book now, in round order, when it is in round
        zero (both endpoints' first pair of the tick: no earlier pair
        reads or writes its books) or when no kept pair holds its node
        (nothing reads that book during the tick).  Any other side waits
        in ``_planned`` for :meth:`exchange` to install it at the pair's
        exchange point, so every read sees the per-pair states.

        Returns the pairs whose :meth:`exchange` must run: ``keep``
        plus every pair holding a waiting side.  Only those pairs have
        a ``_planned`` entry.
        """
        last_round: Dict[int, int] = {}
        rounds: List[list] = []
        for k, (a, b) in enumerate(pairs):
            r = last_round.get(a, -1)
            r_b = last_round.get(b, -1)
            if r_b > r:
                r = r_b
            r += 1
            if r == len(rounds):
                rounds.append([])
            rounds[r].append(k)
            last_round[a] = r
            last_round[b] = r
        if keep is None:
            calls = [True] * len(pairs)
            read = None
        else:
            calls = keep.tolist()
            read = set(chain.from_iterable(compress(pairs, calls)))
        self._planned = self._plan(pairs, rounds, calls, read)
        return np.array(calls)

    def _plan(
        self,
        pairs: Sequence[Tuple[int, int]],
        rounds: List[List[int]],
        calls: List[bool],
        read: Optional[Set[int]] = None,
    ) -> Dict[Tuple[int, int], tuple]:
        """Merge each round of node-disjoint pairs (indices into
        ``pairs``); an entry per pair that will be exchanged.

        Round zero writes the books.  A later round reads each node's
        arrays from the rounds before it; it writes the book of a node
        outside ``read`` (``None``: every node may be read) and leaves
        the others' in its entries.  A pair gets an entry when
        ``calls`` holds it, and one that leaves a side waiting is added
        to ``calls``.
        """
        planned: Dict[Tuple[int, int], tuple] = {}
        arrays: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        book = self.book
        for r, round_pairs in enumerate(rounds):
            books = []
            sides = []
            for a, b in map(pairs.__getitem__, round_pairs):
                book_a = book(a)
                book_b = book(b)
                books.append((book_a, book_b))
                s_a, v_a = arrays.get(a) or (book_a._subjects, book_a._values)
                s_b, v_b = arrays.get(b) or (book_b._subjects, book_b._values)
                sides.append((s_a, v_a, s_b, v_b, a, b))
                sides.append((s_b, v_b, s_a, v_a, a, b))
            merged = self._merge(sides)
            for j, k in enumerate(round_pairs):
                a, b = pair = pairs[k]
                s_a, v_a, kept_a = merged[2 * j]
                s_b, v_b, kept_b = merged[2 * j + 1]
                book_a, book_b = books[j]
                side_a = side_b = None
                if r and (read is None or a in read):
                    arrays[a] = side_a = s_a, v_a
                else:
                    book_a._subjects, book_a._values = s_a, v_a
                if r and (read is None or b in read):
                    arrays[b] = side_b = s_b, v_b
                else:
                    book_b._subjects, book_b._values = s_b, v_b
                if side_a is not None or side_b is not None:
                    calls[k] = True
                if calls[k]:
                    planned[pair] = (kept_a, kept_b, side_a, side_b)
        return planned

    def _merge(self, sides: Sequence[tuple]) -> List[tuple]:
        """The gossip merge of many sides in one grouped pass; pure.

        Each side is ``(subjects, values, heard_subjects, heard_values,
        a, b)``: a receiver's sorted arrays, its giver's arrays and the
        pair.  Returns ``(subjects, values, kept)`` per side, computed
        from the inputs alone, so all sides are read before any book is
        written.  Opinions about ``a`` and ``b`` are dropped from what
        a side hears (the self-praise guard).  A kept subject the
        receiver knows takes ``(1 - alpha) * heard + alpha * mine`` and
        an unknown one is adopted at its sorted position — exactly
        :meth:`ReputationBook.merge_opinion` per subject.  A side that
        kept nothing returns its own arrays; every other side gets
        fresh arrays of its own, so no two books share storage and no
        book keeps the round's whole output buffer alive.

        Every receiver is concatenated into one increasing array by
        encoding an id as ``(id - lo) + side * span``, where ``lo`` is
        the smallest id of the pass and ``span`` is one past the id
        range (ids are node ids, so the codes stay far inside int64).
        One ``searchsorted`` then finds each heard subject in
        its own receiver, whatever the ids' sign and however many
        receivers are empty.  Adopted subjects multi-insert into the
        concatenation at ``position + rank`` (the layout ``np.insert``
        gives), which keeps each receiver's block contiguous.
        """
        alpha = self._params.alpha
        n = len(sides)
        heard = [side[2] for side in sides]
        side_ids = np.arange(n)
        seg = np.repeat(side_ids, np.fromiter(map(len, heard), np.int64, n))
        G = np.concatenate(heard)
        pair_a = np.fromiter((side[4] for side in sides), np.int64, n)
        pair_b = np.fromiter((side[5] for side in sides), np.int64, n)
        keep = (G != pair_a[seg]) & (G != pair_b[seg])
        p_side = seg[keep]
        kept = np.bincount(p_side, minlength=n).tolist()
        if not any(kept):
            return [(side[0], side[1], 0) for side in sides]
        P = G[keep]
        PV = np.concatenate([side[3] for side in sides])[keep]
        receivers = [side[0] for side in sides]
        r_sizes = np.fromiter(map(len, receivers), np.int64, n)
        R = np.concatenate(receivers)
        RV = np.concatenate([side[1] for side in sides])
        lo = int(P.min())
        hi = int(P.max())
        if R.size:
            lo = min(lo, int(R.min()))
            hi = max(hi, int(R.max()))
        span = hi - lo + 1
        encoded = (R - lo) + np.repeat(side_ids * span, r_sizes)
        target = (P - lo) + p_side * span
        pos = np.searchsorted(encoded, target)
        # One slot past the end: a subject beyond its receiver's last id
        # lands there or on the next receiver's first id, never equal.
        found = np.append(encoded, -1)[pos] == target
        where = pos[found]
        # RV is a fresh concatenation, so the EWMA writes it in place.
        RV[where] = (1 - alpha) * PV[found] + alpha * RV[where]
        adopt = ~found
        ins = pos[adopt]
        ins += np.arange(ins.size)
        total = R.size + ins.size
        old = np.ones(total, dtype=bool)
        old[ins] = False
        out_subjects = np.empty(total, dtype=np.int64)
        out_subjects[ins] = P[adopt]
        out_subjects[old] = R
        out_values = np.empty(total, dtype=np.float64)
        out_values[ins] = PV[adopt]
        out_values[old] = RV
        ends = np.cumsum(
            r_sizes + np.bincount(p_side[adopt], minlength=n)
        ).tolist()
        out = []
        start = 0
        for side, count, end in zip(sides, kept, ends):
            if count:
                out.append((
                    out_subjects[start:end].copy(),
                    out_values[start:end].copy(),
                    count,
                ))
            else:
                out.append((side[0], side[1], 0))
            start = end
        return out

    def forget_subject(self, subject: int) -> int:
        """Erase every node's opinion about ``subject``.

        Models a *whitewashing* attack (related work [27] in Paper I): a
        node with a ruined reputation abandons its identity and rejoins
        under a fresh one, so all books start from scratch for it.

        Returns:
            The number of books that held an opinion.
        """
        count = sum(
            1 for book in self._books.values() if book.forget(subject)
        )
        if self.trace.enabled:
            self.trace.emit({
                "type": "reputation-forget", "t": self._now(),
                "subject": subject, "books": count,
            })
        return count

    def average_score_of(
        self, subject: int, observers: Iterable[int]
    ) -> float:
        """Mean score of ``subject`` across ``observers`` with opinions.

        Observers without an opinion are excluded; if none has one, the
        default rating is returned.  This is the Fig. 5.4 series:
        "average rating of malicious nodes in non-malicious nodes".
        """
        scores = [
            self._books[o].score(subject)
            for o in observers
            if o in self._books and self._books[o].has_opinion(subject)
        ]
        if not scores:
            return self._params.default_rating
        return sum(scores) / len(scores)


@dataclass
class RatingModel:
    """Stochastic stand-in for the human rater (DESIGN.md substitution).

    An honest rater scores tag truthfulness as the fraction of a
    contributor's tags that match the ground-truth content, and message
    quality as the message's quality attribute, both scaled to the
    rating ceiling with zero-mean noise.  Confidence is drawn uniformly
    from ``[confidence_low, 1] * C_m``.

    Attributes:
        params: Mechanism tunables (rating ceiling).
        noise: Standard deviation of the rating noise, in rating units.
        confidence_low: Lower bound of the confidence draw, in [0, 1].
    """

    params: IncentiveParams
    noise: float = 0.25
    confidence_low: float = 0.6

    def __post_init__(self) -> None:
        if self.noise < 0:
            raise ConfigurationError("noise must be >= 0")
        if not 0.0 <= self.confidence_low <= 1.0:
            raise ConfigurationError("confidence_low must be in [0, 1]")

    def _clamp(self, value: float) -> float:
        return min(max(value, 0.0), self.params.max_rating)

    def _noisy(self, value: float, rng: np.random.Generator) -> float:
        if self.noise == 0.0:
            return self._clamp(value)
        return self._clamp(value + rng.normal(0.0, self.noise))

    def tag_rating(
        self,
        message: Message,
        annotations: Iterable[Annotation],
        rng: np.random.Generator,
    ) -> float:
        """``R_t`` for one contributor's annotations on ``message``."""
        tags = list(annotations)
        if not tags:
            # Nothing to judge: neutral truthfulness.
            return self._noisy(self.params.max_rating / 2.0, rng)
        relevant = sum(1 for a in tags if message.is_relevant(a.keyword))
        fraction = relevant / len(tags)
        return self._noisy(fraction * self.params.max_rating, rng)

    def quality_rating(
        self, message: Message, rng: np.random.Generator
    ) -> float:
        """``R_q`` — perceived message quality."""
        return self._noisy(message.quality * self.params.max_rating, rng)

    def confidence(self, rng: np.random.Generator) -> float:
        """``C`` — the rater's confidence in its tag judgement."""
        return float(
            rng.uniform(self.confidence_low, 1.0) * self.params.max_rating
        )

    @property
    def max_confidence(self) -> float:
        """``C_m`` — the confidence ceiling (same scale as ratings)."""
        return self.params.max_rating

    def rate_source(
        self, message: Message, rng: np.random.Generator
    ) -> float:
        """Full ``R_i`` for the message source."""
        source_tags = message.annotations_by(message.source)
        return self._clamp(
            source_message_rating(
                self.tag_rating(message, source_tags, rng),
                self.confidence(rng),
                self.max_confidence,
                self.quality_rating(message, rng),
            )
        )

    def rate_intermediate(
        self, message: Message, annotator: int, rng: np.random.Generator
    ) -> float:
        """Full ``R_i`` for an enriching relay's added tags."""
        tags = message.annotations_by(annotator)
        return self._clamp(
            intermediate_message_rating(
                self.tag_rating(message, tags, rng),
                self.confidence(rng),
                self.max_confidence,
            )
        )
