"""The columnar contact trace against the object-list trace it replaced.

The reference functions below restate the object-list implementation's
sorts and serialisers: contacts sorted with a key lambda, events
expanded into ``(time, kind, pair)`` tuples and sorted again, and ticks
regrouped from the sorted events.  The column store must reproduce
every one of them exactly — the same order and the same float values —
and write the same bytes.
"""

import json
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.contact import detect_contacts
from repro.mobility.one_trace import save_one_trace
from repro.mobility.random_waypoint import RandomWaypoint
from repro.mobility.trace import Contact, ContactTrace


# ----------------------------------------------------------------------
# Reference: the object-list trace
# ----------------------------------------------------------------------
def reference_sorted(contacts):
    return sorted(contacts, key=lambda c: (c.start, c.end, c.a, c.b))


def reference_events(contacts):
    raw = []
    for contact in reference_sorted(contacts):
        raw.append((contact.start, 1, contact.pair, "up"))
        raw.append((contact.end, 0, contact.pair, "down"))
    raw.sort(key=lambda item: (item[0], item[1], item[2]))
    return [(time, kind, pair) for time, _, pair, kind in raw]


def reference_ticks(contacts):
    ticks = []
    current = None
    for time, kind, pair in reference_events(contacts):
        if (time, kind) != current:
            current = (time, kind)
            ticks.append((time, kind, []))
        ticks[-1][2].append(pair)
    return ticks


def reference_save(contacts, path):
    with open(path, "w", encoding="utf-8") as handle:
        for contact in reference_sorted(contacts):
            record = {
                "start": contact.start, "end": contact.end,
                "a": contact.a, "b": contact.b,
            }
            handle.write(json.dumps(record) + "\n")


def reference_save_npz(contacts, path):
    ordered = reference_sorted(contacts)
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            starts=np.array([c.start for c in ordered], dtype=np.float64),
            ends=np.array([c.end for c in ordered], dtype=np.float64),
            node_a=np.array([c.a for c in ordered], dtype=np.int64),
            node_b=np.array([c.b for c in ordered], dtype=np.int64),
        )


def reference_save_one_trace(contacts, path):
    with open(path, "w", encoding="utf-8") as handle:
        for time, kind, (a, b) in reference_events(contacts):
            handle.write(f"{time:.3f} CONN {a} {b} {kind}\n")


# ----------------------------------------------------------------------
# Random contact lists
# ----------------------------------------------------------------------
# Times on a coarse grid (plus a few awkward decimals) so equal starts,
# equal ends and back-to-back contacts are common.
_TIME = st.one_of(
    st.integers(min_value=0, max_value=8).map(float),
    st.sampled_from([0.1 + 0.2, 1.0 / 3.0, 2.5, 1e-9]),
)
_LENGTH = st.one_of(
    st.integers(min_value=1, max_value=4).map(float),
    st.sampled_from([0.3, 2.0 / 3.0]),
)
_NODE = st.integers(min_value=0, max_value=4)
# Drawn as (a, b) and as (b, a).
_PAIR = st.tuples(_NODE, _NODE).filter(lambda pair: pair[0] != pair[1])


@st.composite
def contact_lists(draw):
    base = draw(st.lists(
        st.builds(
            lambda start, length, pair: Contact(start, start + length, *pair),
            _TIME, _LENGTH, _PAIR,
        ),
        max_size=30,
    ))
    if not base:
        return base
    # Duplicates of drawn contacts, and contacts that start at the
    # instant another one ends (same pair or another).
    duplicates = draw(st.lists(st.sampled_from(base), max_size=4))
    chained = [
        Contact(c.end, c.end + length, *pair)
        for c, length, pair in draw(st.lists(
            st.tuples(st.sampled_from(base), _LENGTH, _PAIR), max_size=4
        ))
    ]
    return draw(st.permutations(base + duplicates + chained))


def _rows(trace):
    return [(c.start, c.end, c.a, c.b) for c in trace]


class TestOrderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(contact_lists())
    @example([])
    @example([Contact(0.0, 5.0, 1, 0), Contact(5.0, 9.0, 0, 1)])
    @example([Contact(2.0, 3.0, 3, 4)] * 3)
    def test_contacts_events_and_ticks(self, contacts):
        trace = ContactTrace(contacts)
        assert _rows(trace) == _rows(reference_sorted(contacts))
        assert list(trace.events()) == reference_events(contacts)
        assert list(trace.ticks()) == reference_ticks(contacts)

    @settings(max_examples=100, deadline=None)
    @given(contact_lists())
    def test_columns_equal_contact_lists(self, contacts):
        by_columns = ContactTrace.from_columns(
            [c.start for c in contacts], [c.end for c in contacts],
            [c.b for c in contacts], [c.a for c in contacts],
        )
        assert _rows(by_columns) == _rows(ContactTrace(contacts))

    def test_tick_values_are_python_scalars(self):
        trace = ContactTrace([
            Contact(0.0, 2.0, 1, 0), Contact(1.0, 2.0, 2, 3),
        ])
        for time, kind, pairs in trace.ticks():
            assert type(time) is float
            assert kind in ("up", "down")
            for pair in pairs:
                assert type(pair) is tuple
                assert all(type(node) is int for node in pair)

    def test_up_and_down_share_one_pair_tuple(self):
        trace = ContactTrace([Contact(0.0, 2.0, 0, 1)])
        (_, _, up), (_, _, down) = trace.ticks()
        assert up[0] is down[0]


@pytest.fixture(scope="module")
def detected():
    model = RandomWaypoint(40, (600.0, 600.0), np.random.default_rng(11))
    trace = detect_contacts(model, radius=100.0, duration=900.0,
                            scan_interval=10.0)
    assert len(trace) > 50
    return trace


class TestSerialisersMatchReference:
    """Detector-built traces write the reference serialisers' bytes."""

    def test_jsonl_bytes(self, detected, tmp_path):
        detected.save(tmp_path / "columns.jsonl")
        reference_save(list(detected), tmp_path / "reference.jsonl")
        assert (tmp_path / "columns.jsonl").read_bytes() == (
            tmp_path / "reference.jsonl"
        ).read_bytes()

    def test_one_trace_bytes(self, detected, tmp_path):
        save_one_trace(detected, tmp_path / "columns.txt")
        reference_save_one_trace(list(detected), tmp_path / "reference.txt")
        assert (tmp_path / "columns.txt").read_bytes() == (
            tmp_path / "reference.txt"
        ).read_bytes()

    def test_npz_members(self, detected, tmp_path):
        # A zip entry carries its write time, so the archives are
        # compared member by member: names, sizes, CRCs and bytes.
        detected.save_npz(tmp_path / "columns.npz")
        reference_save_npz(list(detected), tmp_path / "reference.npz")
        with zipfile.ZipFile(tmp_path / "columns.npz") as ours, \
                zipfile.ZipFile(tmp_path / "reference.npz") as theirs:
            assert [
                (i.filename, i.file_size, i.CRC, i.compress_size)
                for i in ours.infolist()
            ] == [
                (i.filename, i.file_size, i.CRC, i.compress_size)
                for i in theirs.infolist()
            ]
            for name in ours.namelist():
                assert ours.read(name) == theirs.read(name)

    def test_reference_npz_loads_to_equal_columns(self, detected, tmp_path):
        path = tmp_path / "reference.npz"
        reference_save_npz(list(detected), path)
        loaded = ContactTrace.load_npz(path)
        for column in ("start", "end", "a", "b"):
            ours, theirs = getattr(loaded, column), getattr(detected, column)
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_jsonl_round_trip_keeps_columns(self, detected, tmp_path):
        detected.save(tmp_path / "trace.jsonl")
        loaded = ContactTrace.load(tmp_path / "trace.jsonl")
        for column in ("start", "end", "a", "b"):
            assert np.array_equal(
                getattr(loaded, column), getattr(detected, column)
            )


class TestColumns:
    def test_columns_are_read_only(self, detected):
        with pytest.raises(ValueError):
            detected.start[0] = 1.0

    def test_summaries_match_the_contact_records(self, detected):
        contacts = list(detected)
        assert detected.duration() == max(c.end for c in contacts)
        assert detected.total_contact_time() == sum(
            c.duration for c in contacts
        )
        counts = {}
        for contact in contacts:
            counts[contact.pair] = counts.get(contact.pair, 0) + 1
        assert detected.contacts_per_pair() == counts
        assert list(counts) == list(detected.contacts_per_pair())

    def test_restricted_to_matches_filtered_records(self, detected):
        keep = set(range(0, 40, 3))
        sub = detected.restricted_to(keep)
        assert _rows(sub) == [
            (c.start, c.end, c.a, c.b) for c in detected
            if c.a in keep and c.b in keep
        ]
