"""Unit tests for ONE-simulator trace import/export."""

import pytest

from repro.errors import MobilityError
from repro.mobility.one_trace import load_one_trace, save_one_trace
from repro.mobility.trace import Contact, ContactTrace


class TestLoad:
    def test_basic_round(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text(
            "10.0 CONN 0 1 up\n"
            "25.0 CONN 0 1 down\n"
            "30.0 CONN 2 1 up\n"
            "40.0 CONN 2 1 down\n"
        )
        trace = load_one_trace(path)
        assert [(c.start, c.end, c.pair) for c in trace] == [
            (10.0, 25.0, (0, 1)), (30.0, 40.0, (1, 2)),
        ]

    def test_prefixed_host_names(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text("5.0 CONN p3 p7 up\n9.0 CONN p3 p7 down\n")
        trace = load_one_trace(path)
        assert trace[0].pair == (3, 7)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text(
            "# ConnectivityONEReport\n\n"
            "1.0 CONN 0 1 up\n2.0 CONN 0 1 down\n"
        )
        assert len(load_one_trace(path)) == 1

    def test_unterminated_connection_closed_at_end_time(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text("10.0 CONN 0 1 up\n")
        trace = load_one_trace(path, end_time=60.0)
        assert trace[0].end == 60.0

    def test_unterminated_defaults_to_last_event_time(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text(
            "10.0 CONN 0 1 up\n"
            "50.0 CONN 2 3 up\n"
            "55.0 CONN 2 3 down\n"
        )
        trace = load_one_trace(path)
        pair_01 = [c for c in trace if c.pair == (0, 1)]
        assert pair_01[0].end == 55.0

    def test_down_without_up_rejected(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text("10.0 CONN 0 1 down\n")
        with pytest.raises(MobilityError, match="'down' without 'up'"):
            load_one_trace(path)

    def test_duplicate_up_rejected(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text("10.0 CONN 0 1 up\n20.0 CONN 1 0 up\n")
        with pytest.raises(MobilityError, match="duplicate 'up'"):
            load_one_trace(path)

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text("banana\n")
        with pytest.raises(MobilityError, match="conn.txt:1"):
            load_one_trace(path)

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "conn.txt"
        path.write_text("soon CONN 0 1 up\n")
        with pytest.raises(MobilityError, match="bad timestamp"):
            load_one_trace(path)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-5.0"])
    def test_impossible_timestamp_reports_location(self, tmp_path, stamp):
        path = tmp_path / "conn.txt"
        path.write_text(f"1.0 CONN 0 1 up\n{stamp} CONN 0 1 down\n")
        with pytest.raises(MobilityError, match="conn.txt:2: timestamp"):
            load_one_trace(path)


class TestSaveRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        original = ContactTrace([
            Contact(1.5, 9.25, 0, 1),
            Contact(3.0, 12.0, 1, 2),
        ])
        path = tmp_path / "conn.txt"
        save_one_trace(original, path)
        loaded = load_one_trace(path)
        assert [(c.start, c.end, c.pair) for c in loaded] == [
            (c.start, c.end, c.pair) for c in original
        ]

    def test_saved_format_is_one_compatible(self, tmp_path):
        trace = ContactTrace([Contact(1.0, 2.0, 0, 1)])
        path = tmp_path / "conn.txt"
        save_one_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "1.000 CONN 0 1 up"
        assert lines[1] == "2.000 CONN 0 1 down"
