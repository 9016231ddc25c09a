"""Unit tests for contact traces."""

import math

import numpy as np
import pytest

from repro.errors import MobilityError
from repro.mobility.trace import Contact, ContactTrace


class TestContact:
    def test_duration(self):
        assert Contact(1.0, 4.0, 0, 1).duration == 3.0

    def test_pair_is_canonical(self):
        assert Contact(0.0, 1.0, 5, 2).pair == (2, 5)

    def test_zero_length_rejected(self):
        with pytest.raises(MobilityError):
            Contact(1.0, 1.0, 0, 1)

    def test_reversed_interval_rejected(self):
        with pytest.raises(MobilityError):
            Contact(2.0, 1.0, 0, 1)

    def test_self_contact_rejected(self):
        with pytest.raises(MobilityError):
            Contact(0.0, 1.0, 3, 3)

    @pytest.mark.parametrize("start, end, field", [
        (math.nan, 1.0, "start"),
        (0.0, math.nan, "end"),
        (0.0, math.inf, "end"),
        (-math.inf, 1.0, "start"),
        (-5.0, 1.0, "start"),
    ])
    def test_impossible_times_rejected_naming_the_field(self, start, end,
                                                        field):
        with pytest.raises(MobilityError, match=f"contact {field} must be"):
            Contact(start, end, 0, 1)


class TestContactTrace:
    def test_contacts_sorted_by_start(self):
        trace = ContactTrace([
            Contact(5.0, 6.0, 0, 1),
            Contact(1.0, 2.0, 2, 3),
        ])
        assert [c.start for c in trace] == [1.0, 5.0]

    def test_add_keeps_order(self):
        trace = ContactTrace([Contact(5.0, 6.0, 0, 1)])
        trace.add(Contact(1.0, 2.0, 0, 2))
        assert [c.start for c in trace] == [1.0, 5.0]

    def test_events_alternate_up_down(self):
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)])
        assert list(trace.events()) == [
            (0.0, "up", (0, 1)),
            (10.0, "down", (0, 1)),
        ]

    def test_simultaneous_down_sorts_before_up(self):
        trace = ContactTrace([
            Contact(0.0, 5.0, 0, 1),
            Contact(5.0, 10.0, 0, 1),
        ])
        kinds = [kind for _, kind, _ in trace.events()]
        assert kinds == ["up", "down", "up", "down"]

    def test_duration_and_total_contact_time(self):
        trace = ContactTrace([
            Contact(0.0, 4.0, 0, 1),
            Contact(2.0, 8.0, 1, 2),
        ])
        assert trace.duration() == 8.0
        assert trace.total_contact_time() == 10.0

    def test_empty_trace(self):
        trace = ContactTrace()
        assert len(trace) == 0
        assert trace.duration() == 0.0
        assert list(trace.events()) == []

    def test_contacts_per_pair(self):
        trace = ContactTrace([
            Contact(0.0, 1.0, 0, 1),
            Contact(2.0, 3.0, 0, 1),
            Contact(0.0, 1.0, 1, 2),
        ])
        assert trace.contacts_per_pair() == {(0, 1): 2, (1, 2): 1}

    def test_restricted_to(self):
        trace = ContactTrace([
            Contact(0.0, 1.0, 0, 1),
            Contact(0.0, 1.0, 1, 2),
            Contact(0.0, 1.0, 2, 3),
        ])
        sub = trace.restricted_to({1, 2})
        assert [c.pair for c in sub] == [(1, 2)]

    def test_indexing(self):
        # The trace stores columns, so indexing builds an equal view,
        # not the object that was passed in.
        contact = Contact(0.0, 1.0, 0, 1)
        trace = ContactTrace([contact])
        assert trace[0] == contact
        assert trace[-1] == contact
        with pytest.raises(IndexError):
            trace[1]


class TestColumnarConstructor:
    def test_rows_are_sorted_and_pairs_canonical(self):
        trace = ContactTrace.from_columns(
            [5.0, 1.0], [6.0, 2.0], [1, 3], [0, 2]
        )
        assert [(c.start, c.end, c.pair) for c in trace] == [
            (1.0, 2.0, (2, 3)), (5.0, 6.0, (0, 1)),
        ]

    @pytest.mark.parametrize("start, end, field", [
        (math.nan, 1.0, "start"),
        (0.0, math.nan, "end"),
        (0.0, math.inf, "end"),
        (-5.0, 1.0, "start"),
    ])
    def test_impossible_times_rejected_naming_row_and_field(self, start,
                                                            end, field):
        with pytest.raises(
            MobilityError, match=f"contact 1: contact {field} must be"
        ):
            ContactTrace.from_columns([0.0, start], [1.0, end], [0, 0], [1, 1])

    def test_unequal_columns_rejected(self):
        with pytest.raises(MobilityError, match="equal length"):
            ContactTrace.from_columns([0.0], [1.0, 2.0], [0], [1])


class TestSerialisation:
    def test_round_trip(self, tmp_path):
        trace = ContactTrace([
            Contact(0.0, 4.5, 0, 1),
            Contact(2.25, 8.0, 1, 2),
        ])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = ContactTrace.load(path)
        assert [(c.start, c.end, c.pair) for c in loaded] == [
            (c.start, c.end, c.pair) for c in trace
        ]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"start": 0.0, "end": 1.0, "a": 0, "b": 1}\n\n'
        )
        assert len(ContactTrace.load(path)) == 1

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"start": 0.0}\n')
        with pytest.raises(MobilityError, match="trace.jsonl:1"):
            ContactTrace.load(path)

    @pytest.mark.parametrize("start, end, field", [
        ("NaN", "1.0", "start"),
        ("0.0", "Infinity", "end"),
        ("-5.0", "1.0", "start"),
    ])
    def test_impossible_time_names_file_line_and_field(self, tmp_path,
                                                       start, end, field):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"start": 0.0, "end": 1.0, "a": 0, "b": 1}\n\n'
            f'{{"start": {start}, "end": {end}, "a": 0, "b": 1}}\n'
        )
        with pytest.raises(
            MobilityError, match=f"trace.jsonl:3: contact {field} must be"
        ):
            ContactTrace.load(path)


class TestNpzSerialisation:
    def test_round_trip_is_bit_exact(self, tmp_path):
        # Values chosen to be awkward in decimal: npz stores raw float64
        # columns, so they must survive without any rounding at all.
        trace = ContactTrace([
            Contact(0.1 + 0.2, 1.0 / 3.0 + 7.0, 0, 1),
            Contact(2.25, 8.0000000001, 1, 2),
        ])
        path = tmp_path / "trace.npz"
        trace.save_npz(path)
        loaded = ContactTrace.load_npz(path)
        assert [(c.start, c.end, c.pair) for c in loaded] == [
            (c.start, c.end, c.pair) for c in trace
        ]

    def test_exact_path_is_used(self, tmp_path):
        # numpy's savez appends ".npz" when given a bare filename; the
        # trace writer must honour the requested path verbatim.
        path = tmp_path / "trace.cache"
        ContactTrace([Contact(0.0, 1.0, 0, 1)]).save_npz(path)
        assert path.exists()
        assert len(ContactTrace.load_npz(path)) == 1

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.npz"
        ContactTrace().save_npz(path)
        assert len(ContactTrace.load_npz(path)) == 0

    def test_malformed_file_raises_mobility_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"definitely not an npz archive")
        with pytest.raises(MobilityError):
            ContactTrace.load_npz(path)

    def test_missing_file_raises_mobility_error(self, tmp_path):
        with pytest.raises(MobilityError):
            ContactTrace.load_npz(tmp_path / "absent.npz")

    def test_impossible_time_names_file_and_field(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path, starts=np.array([0.0, np.nan]), ends=np.array([1.0, 2.0]),
            node_a=np.array([0, 0]), node_b=np.array([1, 1]),
        )
        with pytest.raises(
            MobilityError, match="bad.npz: contact 1: contact start must be"
        ):
            ContactTrace.load_npz(path)

