"""Unit tests for contact detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MobilityError
from repro.mobility.contact import (
    ContactDetector,
    detect_contacts,
    pair_arrays,
    pairs_in_range,
)
from repro.mobility.stationary import Stationary
from repro.mobility.random_waypoint import RandomWaypoint


def brute_force_pairs(positions: np.ndarray, radius: float) -> set:
    """O(n^2) reference for pairs_in_range.

    Mirrors the grid hash's arithmetic exactly (squared component
    differences against ``radius * radius``) so pairs sitting exactly on
    the radius boundary compare identically in both implementations.
    """
    n = positions.shape[0]
    radius_sq = radius * radius
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            delta = positions[i] - positions[j]
            if delta[0] * delta[0] + delta[1] * delta[1] <= radius_sq:
                pairs.add((i, j))
    return pairs


class TestPairsInRange:
    def test_empty_and_single(self):
        assert pairs_in_range(np.zeros((0, 2)), 10.0) == set()
        assert pairs_in_range(np.zeros((1, 2)), 10.0) == set()

    def test_two_nodes_in_range(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert pairs_in_range(positions, 10.0) == {(0, 1)}

    def test_two_nodes_out_of_range(self):
        positions = np.array([[0.0, 0.0], [15.0, 0.0]])
        assert pairs_in_range(positions, 10.0) == set()

    def test_boundary_is_inclusive(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert pairs_in_range(positions, 10.0) == {(0, 1)}

    def test_matches_brute_force(self, rng):
        positions = rng.uniform(0, 500, size=(80, 2))
        radius = 60.0
        expected = set()
        for i in range(80):
            for j in range(i + 1, 80):
                if np.hypot(*(positions[i] - positions[j])) <= radius:
                    expected.add((i, j))
        assert pairs_in_range(positions, radius) == expected

    def test_pairs_across_grid_cells(self):
        # Nodes on either side of a cell boundary must still pair.
        positions = np.array([[9.9, 0.0], [10.1, 0.0]])
        assert pairs_in_range(positions, 10.0) == {(0, 1)}

    def test_invalid_radius_rejected(self):
        with pytest.raises(MobilityError):
            pairs_in_range(np.zeros((2, 2)), 0.0)


class TestPairsInRangeProperties:
    """Grid-hash result == O(n^2) brute force, over adversarial inputs."""

    # Coordinates and radii are quantised to multiples of 2**-10 so every
    # delta, square and comparison below is exact in float64.  Unrestricted
    # floats admit pathological magnitude spreads (e.g. 1.0 vs -1e-119 at
    # radius 1.0) where the rounded pairwise distance equals the radius
    # even though the true distance exceeds it — there the grid hash gives
    # the real-arithmetic answer while any float reference disagrees.
    _COORD = st.integers(
        min_value=-10_240_000, max_value=10_240_000
    ).map(lambda k: k / 1024.0)

    @settings(max_examples=60, deadline=None)
    @given(
        coords=st.lists(st.tuples(_COORD, _COORD), min_size=0, max_size=40),
        radius=st.integers(min_value=512, max_value=512_000).map(
            lambda k: k / 1024.0
        ),
    )
    def test_matches_brute_force_on_random_inputs(self, coords, radius):
        positions = np.array(coords, dtype=float).reshape(-1, 2)
        assert pairs_in_range(positions, radius) == brute_force_pairs(
            positions, radius
        )

    @pytest.mark.parametrize("loop_seed", range(8))
    def test_matches_brute_force_with_boundary_pairs(self, loop_seed):
        """Seeded sets salted with exact-radius, coincident and negative
        points — the cases a naive cell hash gets wrong."""
        rng = np.random.default_rng(1000 + loop_seed)
        radius = float(rng.uniform(20.0, 120.0))
        positions = rng.uniform(-400.0, 400.0, size=(30, 2))
        anchor = positions[0]
        salted = np.vstack([
            positions,
            anchor + np.array([radius, 0.0]),      # exactly at the boundary
            anchor + np.array([0.0, -radius]),     # boundary, below
            anchor,                                # coincident with anchor
            np.array([-radius, -radius]),          # negative coordinates
        ])
        assert pairs_in_range(salted, radius) == brute_force_pairs(
            salted, radius
        )

    def test_exact_boundary_pair_included(self):
        positions = np.array([[0.0, 0.0], [0.0, 73.0]])
        assert pairs_in_range(positions, 73.0) == {(0, 1)}

    def test_coincident_points_pair(self):
        positions = np.array([[5.0, -5.0], [5.0, -5.0], [5.0, -5.0]])
        assert pairs_in_range(positions, 1.0) == {(0, 1), (0, 2), (1, 2)}

    def test_negative_coordinates_across_cell_origin(self):
        # The pair straddles the (0, 0) cell corner; floor division on
        # negatives must still land them in adjacent cells.
        positions = np.array([[-0.5, -0.5], [0.5, 0.5]])
        assert pairs_in_range(positions, 10.0) == {(0, 1)}

    def test_all_nodes_in_one_cell(self):
        # Degenerate layout for the cell list: a cluster much tighter
        # than the radius collapses into a single grid cell, so every
        # pair comes from the same-cell branch of the candidate scan.
        rng = np.random.default_rng(42)
        positions = 500.0 + rng.uniform(0.0, 5.0, size=(25, 2))
        radius = 200.0
        assert pairs_in_range(positions, radius) == brute_force_pairs(
            positions, radius
        )
        # With the cluster tighter than the radius, all pairs connect.
        assert len(pairs_in_range(positions, radius)) == 25 * 24 // 2

    @pytest.mark.parametrize("width,height", [
        (10_000.0, 10.0),   # wide strip: one cell row, many columns
        (10.0, 10_000.0),   # tall strip: one cell column, many rows
        (5_000.0, 50.0),    # strongly rectangular
    ])
    def test_non_square_areas(self, width, height):
        # Extreme aspect ratios stress the linearised cell key: the
        # stride is derived from the y-extent, which is tiny here.
        rng = np.random.default_rng(int(width) % 97)
        positions = rng.uniform(
            [0.0, 0.0], [width, height], size=(60, 2)
        )
        radius = 80.0
        assert pairs_in_range(positions, radius) == brute_force_pairs(
            positions, radius
        )

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_populations(self, n):
        rng = np.random.default_rng(n)
        positions = rng.uniform(0.0, 50.0, size=(n, 2))
        radius = 40.0
        assert pairs_in_range(positions, radius) == brute_force_pairs(
            positions, radius
        )


class TestCellListEdges:
    """The two-range candidate search at the edges of its cell grid.

    Node ``i``'s candidates are the rest of its cell plus the cell
    above, then the next column's three cells; the guard row keeps both
    runs inside their columns.  Pairs are compared as a sorted list, so
    a pair found twice fails as well as a pair missed.
    """

    RADIUS = 10.0

    @staticmethod
    def _pairs(positions, radius):
        node_a, node_b = pair_arrays(positions, radius)
        return sorted(zip(node_a.tolist(), node_b.tolist()))

    @pytest.mark.parametrize("shape", ["edge-rows", "one-row", "one-column"])
    def test_matches_brute_force(self, shape):
        rng = np.random.default_rng(11)
        if shape == "edge-rows":
            # Two adjacent columns, nodes in their bottom two and top two
            # cell rows (rows 0-1 and 3-4): straight and diagonal
            # neighbours across the column boundary, and a column's top
            # row beside the next column's bottom row.
            x = rng.uniform(0.0, 2 * self.RADIUS, 90)
            y = np.concatenate((
                rng.uniform(0.0, 2 * self.RADIUS, 45),
                rng.uniform(3 * self.RADIUS, 5 * self.RADIUS, 45),
            ))
        elif shape == "one-row":
            x = rng.uniform(0.0, 30 * self.RADIUS, 90)
            y = rng.uniform(0.0, self.RADIUS, 90) * 0.999
        else:
            x = rng.uniform(0.0, self.RADIUS, 90) * 0.999
            y = rng.uniform(0.0, 30 * self.RADIUS, 90)
        positions = np.stack((x, y), axis=1)
        expected = sorted(brute_force_pairs(positions, self.RADIUS))
        assert expected
        assert self._pairs(positions, self.RADIUS) == expected

    def test_corner_neighbours(self):
        # Four nodes around one cell corner, each in its own cell: every
        # pair is a straight or diagonal neighbour, in both diagonals.
        positions = np.array([
            [9.5, 9.5], [10.5, 9.5], [9.5, 10.5], [10.5, 10.5],
        ])
        assert self._pairs(positions, self.RADIUS) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]


class TestContactDetector:
    def test_contact_opens_and_closes(self):
        detector = ContactDetector(10.0)
        near = np.array([[0.0, 0.0], [5.0, 0.0]])
        far = np.array([[0.0, 0.0], [50.0, 0.0]])
        detector.scan(0.0, near)
        detector.scan(10.0, near)
        detector.scan(20.0, far)
        trace = detector.finish(30.0)
        assert len(trace) == 1
        assert trace[0].start == 0.0
        assert trace[0].end == 20.0

    def test_open_contact_closed_at_finish(self):
        detector = ContactDetector(10.0)
        near = np.array([[0.0, 0.0], [5.0, 0.0]])
        detector.scan(0.0, near)
        trace = detector.finish(25.0)
        assert len(trace) == 1
        assert trace[0].end == 25.0

    def test_reconnection_creates_two_contacts(self):
        detector = ContactDetector(10.0)
        near = np.array([[0.0, 0.0], [5.0, 0.0]])
        far = np.array([[0.0, 0.0], [50.0, 0.0]])
        for time, positions in [(0, near), (10, far), (20, near), (30, far)]:
            detector.scan(float(time), positions)
        trace = detector.finish(40.0)
        assert len(trace) == 2
        assert [(c.start, c.end) for c in trace] == [(0.0, 10.0), (20.0, 30.0)]

    def test_scan_times_must_increase(self):
        detector = ContactDetector(10.0)
        detector.scan(0.0, np.zeros((2, 2)))
        with pytest.raises(MobilityError):
            detector.scan(0.0, np.zeros((2, 2)))

    def test_open_pairs_property(self):
        detector = ContactDetector(10.0)
        detector.scan(0.0, np.array([[0.0, 0.0], [5.0, 0.0]]))
        assert detector.open_pairs == {(0, 1)}


class TestDetectorIncrementalConsistency:
    """The detector's sorted-array diff must agree with recomputing the
    in-range pair set from scratch at every scan, and the finished trace
    must match a naive dict-based reference detector."""

    @pytest.mark.parametrize("loop_seed", range(4))
    def test_open_pairs_match_scratch_recompute_every_scan(self, loop_seed):
        rng = np.random.default_rng(200 + loop_seed)
        radius = 75.0
        positions = rng.uniform(0.0, 600.0, size=(40, 2))
        detector = ContactDetector(radius)
        for step in range(25):
            detector.scan(float(step * 10), positions)
            assert detector.open_pairs == pairs_in_range(positions, radius)
            positions = positions + rng.normal(0.0, 25.0, size=positions.shape)

    @pytest.mark.parametrize("loop_seed", range(3))
    def test_trace_matches_naive_reference_detector(self, loop_seed):
        rng = np.random.default_rng(300 + loop_seed)
        radius = 90.0
        positions = rng.uniform(0.0, 500.0, size=(30, 2))
        detector = ContactDetector(radius)
        open_since: dict = {}
        reference: list = []
        for step in range(30):
            time = float(step * 5)
            detector.scan(time, positions)
            current = brute_force_pairs(positions, radius)
            for pair in list(open_since):
                if pair not in current:
                    reference.append((open_since.pop(pair), time, pair))
            for pair in current:
                open_since.setdefault(pair, time)
            positions = positions + rng.normal(0.0, 20.0, size=positions.shape)
        end = 30 * 5.0
        trace = detector.finish(end)
        for pair, start in open_since.items():
            reference.append((start, end, pair))
        reference.sort(key=lambda c: (c[0], c[1], c[2]))
        assert [(c.start, c.end, c.pair) for c in trace] == reference

    def test_scan_handles_population_appearing_and_vanishing(self):
        # All pairs closing at once exercises the bulk-close branch.
        detector = ContactDetector(50.0)
        clustered = np.full((10, 2), 100.0)
        scattered = np.arange(20, dtype=float).reshape(10, 2) * 1000.0
        detector.scan(0.0, clustered)
        assert len(detector.open_pairs) == 45
        detector.scan(10.0, scattered)
        assert detector.open_pairs == set()
        detector.scan(20.0, clustered)
        trace = detector.finish(30.0)
        assert len(trace) == 90
        assert {(c.start, c.end) for c in trace} == {
            (0.0, 10.0), (20.0, 30.0)
        }


class TestDetectContacts:
    def test_stationary_pair_yields_full_duration_contact(self, rng):
        model = Stationary(
            3, (1000.0, 1000.0), rng,
            positions=[[0, 0], [50, 0], [900, 900]],
        )
        trace = detect_contacts(model, radius=100.0, duration=500.0,
                                scan_interval=10.0)
        assert len(trace) == 1
        only = trace[0]
        assert only.pair == (0, 1)
        assert only.start == 0.0
        assert only.end == 500.0

    def test_random_waypoint_produces_contacts(self):
        model = RandomWaypoint(
            40, (600.0, 600.0), np.random.default_rng(3)
        )
        trace = detect_contacts(model, radius=100.0, duration=1200.0,
                                scan_interval=10.0)
        assert len(trace) > 0
        assert trace.duration() <= 1200.0
        for c in trace:
            assert 0.0 <= c.start < c.end <= 1200.0

    def test_invalid_parameters_rejected(self, rng):
        model = Stationary(2, (100.0, 100.0), rng)
        with pytest.raises(MobilityError):
            detect_contacts(model, radius=10.0, duration=0.0)
        with pytest.raises(MobilityError):
            detect_contacts(model, radius=10.0, duration=10.0,
                            scan_interval=0.0)

    def test_deterministic_given_seed(self):
        def build():
            model = RandomWaypoint(20, (500.0, 500.0),
                                   np.random.default_rng(9))
            return detect_contacts(model, radius=80.0, duration=600.0,
                                   scan_interval=10.0)

        first, second = build(), build()
        assert [(c.start, c.end, c.pair) for c in first] == [
            (c.start, c.end, c.pair) for c in second
        ]
