"""Tests for the numpy-vectorised geometry kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.geometry import point_segment_distance
from repro.geo.vectorized import SegmentArray

finite = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)
coord = st.tuples(finite, finite)


class TestConstruction:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            SegmentArray(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            SegmentArray(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_from_pairs(self):
        array = SegmentArray.from_pairs([((0, 0), (1, 1)), ((2, 2), (3, 3))])
        assert len(array) == 2

    def test_from_pairs_empty(self):
        assert len(SegmentArray.from_pairs([])) == 0

    def test_from_polyline(self):
        array = SegmentArray.from_polyline([(0, 0), (1, 0), (2, 0)])
        assert len(array) == 2

    def test_from_polyline_too_short(self):
        assert len(SegmentArray.from_polyline([(0, 0)])) == 0


class TestDistances:
    def test_known_values(self):
        array = SegmentArray.from_pairs(
            [((0, 0), (10, 0)), ((0, 5), (10, 5)), ((20, 20), (30, 30))]
        )
        distances = array.distances_to((5.0, 3.0))
        assert distances[0] == pytest.approx(3.0)
        assert distances[1] == pytest.approx(2.0)

    def test_degenerate_segment(self):
        array = SegmentArray.from_pairs([((5, 5), (5, 5))])
        assert array.distances_to((8.0, 9.0))[0] == pytest.approx(5.0)

    def test_min_distance_empty_is_inf(self):
        assert SegmentArray.from_pairs([]).min_distance_to((0, 0)) == float("inf")

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(coord, coord), min_size=1, max_size=20),
        q=coord,
    )
    def test_matches_scalar_implementation(self, pairs, q):
        array = SegmentArray.from_pairs(pairs)
        vectorised = array.distances_to(q)
        for i, (a, b) in enumerate(pairs):
            scalar = point_segment_distance(q, a, b)
            assert vectorised[i] == pytest.approx(scalar, abs=1e-6)


class TestKnn:
    def test_orders_by_distance(self):
        array = SegmentArray.from_pairs(
            [((100, 0), (200, 0)), ((0, 1), (10, 1)), ((0, 50), (10, 50))]
        )
        result = array.knn((0.0, 0.0), 2)
        assert [i for i, _ in result] == [1, 2]

    def test_k_exceeds_population(self):
        array = SegmentArray.from_pairs([((0, 0), (1, 1))])
        assert len(array.knn((0, 0), 10)) == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SegmentArray.from_pairs([((0, 0), (1, 1))]).knn((0, 0), 0)

    def test_empty(self):
        assert SegmentArray.from_pairs([]).knn((0, 0), 3) == []

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(st.tuples(coord, coord), min_size=1, max_size=25),
        q=coord,
        k=st.integers(1, 6),
    )
    def test_knn_matches_sorted_distances(self, pairs, q, k):
        array = SegmentArray.from_pairs(pairs)
        result = array.knn(q, k)
        all_distances = sorted(array.distances_to(q))
        assert [round(d, 6) for _, d in result] == [
            round(d, 6) for d in all_distances[: len(result)]
        ]


lattice = st.tuples(
    st.integers(-5, 5).map(lambda i: i * 100.0),
    st.integers(-5, 5).map(lambda i: i * 100.0),
)
any_coord = st.one_of(coord, lattice)


class TestRowIndependence:
    """A segment's distance is the same float in any batch it is in.

    The hierarchical grid answers kNN from per-cell batches, and its
    flat shortcut (``knn_if_unique``) from a table gathered over every
    live segment; the two agree bit for bit only because no row's
    result depends on the other rows of its batch.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(st.tuples(any_coord, any_coord), min_size=1, max_size=80),
        dead=st.lists(st.booleans(), max_size=80),
        copies=st.integers(1, 8),
        q=any_coord,
    )
    def test_alone_in_cell_batch_and_gathered_table(self, pairs, dead, copies, q):
        # Copies make batches as long as a trajectory's segment table,
        # where numpy's vectorised loops take over.
        n = len(pairs)
        batch = SegmentArray.from_pairs(pairs * copies).distances_to(q)
        # A sid-indexed (ax, ay, bx, by) table with dead rows between
        # the live ones, gathered the way the index gathers it.
        rows, live = [], []
        for position, (a, b) in enumerate(pairs * copies):
            if position < len(dead) and dead[position]:
                rows.append((7.0, -3.0, 11.0, 2.5))
                live.append(False)
            rows.append((*a, *b))
            live.append(True)
        table = np.array(rows)
        gathered = table[np.flatnonzero(live)]
        flat = SegmentArray(gathered[:, :2], gathered[:, 2:]).distances_to(q)
        for i, (a, b) in enumerate(pairs):
            alone = SegmentArray.from_pairs([(a, b)]).distances_to(q)[0]
            cell = SegmentArray.from_pairs(pairs[i : i + 5]).distances_to(q)[0]
            assert alone.tobytes() == cell.tobytes()
            for copy in range(copies):
                assert alone.tobytes() == batch[copy * n + i].tobytes()
                assert alone.tobytes() == flat[copy * n + i].tobytes()
