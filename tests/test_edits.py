"""Tests for EditableTrajectory: edit operations, costs, index sync."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edits import EditableTrajectory
from repro.geo.geometry import BBox
from repro.index.hierarchical import HierarchicalGridIndex
from repro.index.linear import LinearSegmentIndex
from repro.trajectory.model import Point, Trajectory


def traj(coords, object_id="t"):
    return Trajectory(
        object_id,
        [Point(float(x), float(y), 60.0 * i) for i, (x, y) in enumerate(coords)],
    )


def editable(coords, object_id="t", index=None):
    t = traj(coords, object_id)
    return EditableTrajectory(t, index if index is not None else LinearSegmentIndex())


class TestConstruction:
    def test_registers_all_segments(self):
        e = editable([(0, 0), (10, 0), (10, 10)])
        assert len(e) == 3
        assert len(e.index) == 2

    def test_empty_trajectory(self):
        e = editable([])
        assert len(e) == 0
        assert len(e.index) == 0
        assert e.to_trajectory().points == []

    def test_single_point(self):
        e = editable([(5, 5)])
        assert len(e) == 1
        assert len(e.index) == 0

    def test_original_not_mutated(self):
        t = traj([(0, 0), (10, 0)])
        e = EditableTrajectory(t, LinearSegmentIndex())
        e.append((99.0, 99.0))
        assert len(t) == 2

    def test_contains_and_occurrence_count(self):
        e = editable([(0, 0), (5, 5), (0, 0)])
        assert e.contains((0.0, 0.0))
        assert e.occurrence_count((0.0, 0.0)) == 2
        assert not e.contains((9.0, 9.0))


class TestInsertion:
    def test_insert_into_segment_cost_is_point_segment_distance(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 3), 1)[0][0]
        assert e.insertion_cost((5, 3), sid) == pytest.approx(3.0)
        outcome = e.insert_into_segment((5.0, 3.0), sid)
        assert outcome.utility_loss == pytest.approx(3.0)
        assert outcome.delta_points == 1
        assert [p.coord for p in e.to_trajectory()] == [(0, 0), (5.0, 3.0), (10, 0)]

    def test_insert_updates_index(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 3), 1)[0][0]
        e.insert_into_segment((5.0, 3.0), sid)
        assert len(e.index) == 2  # old segment replaced by two halves
        with pytest.raises(KeyError):
            e.index.segment(sid)

    def test_insert_interpolates_timestamp(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 0), 1)[0][0]
        e.insert_into_segment((5.0, 0.0), sid)
        times = [p.t for p in e.to_trajectory()]
        assert times == sorted(times)
        assert times[1] == pytest.approx(30.0)

    def test_insert_unknown_segment_raises(self):
        e = editable([(0, 0), (10, 0)])
        with pytest.raises(KeyError):
            e.insert_into_segment((5.0, 0.0), 999)

    def test_append_to_empty(self):
        e = editable([])
        outcome = e.append((3.0, 3.0))
        assert outcome.utility_loss == 0.0
        assert len(e) == 1

    def test_append_extends_and_indexes(self):
        e = editable([(0, 0)])
        outcome = e.append((3.0, 4.0))
        assert outcome.utility_loss == pytest.approx(5.0)
        assert len(e.index) == 1
        assert len(e) == 2

    def test_total_utility_loss_accumulates(self):
        e = editable([(0, 0), (10, 0)])
        sid = e.index.knn((5, 3), 1)[0][0]
        e.insert_into_segment((5.0, 3.0), sid)
        assert e.total_utility_loss == pytest.approx(3.0)


class TestDeletion:
    def test_delete_middle_cost(self):
        # Deleting (5,3) from <(0,0),(5,3),(10,0)> costs dist to <(0,0),(10,0)> = 3.
        e = editable([(0, 0), (5, 3), (10, 0)])
        costs = e.occurrence_costs((5.0, 3.0))
        assert costs[0][0] == pytest.approx(3.0)
        outcome = e.delete_node(costs[0][1])
        assert outcome.utility_loss == pytest.approx(3.0)
        assert [p.coord for p in e.to_trajectory()] == [(0, 0), (10, 0)]
        assert len(e.index) == 1  # two segments merged into one

    def test_delete_head(self):
        e = editable([(0, 0), (3, 4), (10, 4)])
        nodes = e.occurrence_costs((0.0, 0.0))
        outcome = e.delete_node(nodes[0][1])
        assert outcome.utility_loss == pytest.approx(5.0)  # dist to neighbour
        assert [p.coord for p in e.to_trajectory()] == [(3, 4), (10, 4)]

    def test_delete_tail(self):
        e = editable([(0, 0), (3, 4)])
        nodes = e.occurrence_costs((3.0, 4.0))
        e.delete_node(nodes[0][1])
        assert [p.coord for p in e.to_trajectory()] == [(0, 0)]
        assert len(e.index) == 0

    def test_delete_only_point(self):
        e = editable([(5, 5)])
        nodes = e.occurrence_costs((5.0, 5.0))
        outcome = e.delete_node(nodes[0][1])
        assert outcome.utility_loss == 0.0
        assert len(e) == 0

    def test_delete_cheapest_picks_lowest_cost_occurrence(self):
        # (5,0) at index 1 is on the straight line (cost 0); at index 3
        # it forms a detour (cost > 0).
        e = editable([(0, 0), (5, 0), (10, 0), (5, 8), (20, 8)])
        before = e.occurrence_count((5.0, 0.0))
        outcome = e.delete_cheapest((5.0, 0.0), 1)
        assert before - e.occurrence_count((5.0, 0.0)) == 1
        assert outcome.utility_loss == pytest.approx(0.0, abs=1e-9)

    def test_delete_cheapest_stops_when_exhausted(self):
        e = editable([(0, 0), (5, 5), (0, 0)])
        outcome = e.delete_cheapest((0.0, 0.0), 10)
        assert outcome.delta_points == -2
        assert not e.contains((0.0, 0.0))

    def test_delete_all(self):
        e = editable([(0, 0), (5, 5), (0, 0), (7, 7), (0, 0)])
        e.delete_all((0.0, 0.0))
        assert [p.coord for p in e.to_trajectory()] == [(5, 5), (7, 7)]
        assert len(e.index) == 1

    def test_complete_deletion_cost_non_destructive(self):
        e = editable([(0, 0), (5, 3), (10, 0), (5, 3), (20, 0)])
        cost = e.complete_deletion_cost((5.0, 3.0))
        assert cost > 0
        assert e.occurrence_count((5.0, 3.0)) == 2  # unchanged


class TestSharedIndex:
    def test_owner_tagging(self):
        index = LinearSegmentIndex()
        editable([(0, 0), (10, 0)], object_id="a", index=index)
        editable([(100, 0), (110, 0)], object_id="b", index=index)
        assert len(index) == 2
        owners = {index.segment(sid).owner for sid, _ in index.knn((0, 0), 2)}
        assert owners == {"a", "b"}

    def test_detach_removes_only_own_segments(self):
        index = LinearSegmentIndex()
        a = editable([(0, 0), (10, 0), (20, 0)], object_id="a", index=index)
        editable([(100, 0), (110, 0)], object_id="b", index=index)
        a.detach()
        assert len(index) == 1
        assert index.knn((0, 0), 5)[0][0] is not None
        assert all(index.segment(sid).owner == "b" for sid, _ in index.knn((0, 0), 5))

    def test_works_with_hierarchical_index(self):
        index = HierarchicalGridIndex(BBox(-10, -10, 200, 200), levels=5)
        e = editable([(0, 0), (10, 0), (10, 10), (50, 50)], index=index)
        sid = index.knn((5, 2), 1, strategy="bottom_up_down")[0][0]
        e.insert_into_segment((5.0, 2.0), sid)
        e.delete_cheapest((5.0, 2.0), 1)
        result = e.to_trajectory()
        assert [p.coord for p in result] == [(0, 0), (10, 0), (10, 10), (50, 50)]
        assert len(index) == 3


def node_seqs(e):
    seqs = []
    node = e._head
    while node is not None:
        seqs.append(node.seq)
        node = node.next
    return seqs


class TestSequenceNumbers:
    def test_seq_is_per_trajectory(self):
        coords = [(0, 0), (5, 5), (0, 0), (7, 7)]
        alone = editable(coords)
        for other in range(3):
            editable([(other, 0), (other, 9)], object_id=f"o{other}")
        later = editable(coords)
        assert node_seqs(later) == node_seqs(alone) == [1, 2, 3, 4]

    def test_edits_continue_the_trajectory_count(self):
        e = editable([(0, 0), (10, 0)])
        editable([(50, 50), (60, 60)], object_id="other")
        sid = e.index.knn((5, 1), 1)[0][0]
        e.insert_into_segment((5.0, 1.0), sid)
        e.append((20.0, 0.0))
        assert node_seqs(e) == [1, 3, 2, 4]


def delete_cheapest_reference(e, loc, count):
    """delete_cheapest as it was specified: re-cost every occurrence of
    ``loc`` after each removal and delete the cheapest, ties by seq."""
    total = 0.0
    removed = 0
    for _ in range(count):
        costs = e.occurrence_costs(loc)
        if not costs:
            break
        total += e.delete_node(costs[0][1]).utility_loss
        removed += 1
    return total, removed


# Runs of points on a 4x4 lattice: locations repeat often, runs of one
# location are common, and deletions re-link occurrences next to each
# other (a deletion inside a run changes the cost of the next node).
lattice_coords = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
    min_size=1,
    max_size=15,
).map(lambda runs: [(x, y) for x, y, length in runs for _ in range(length)])


class TestIncrementalDeleteCheapest:
    @settings(max_examples=150, deadline=None)
    @given(
        coords=lattice_coords,
        pick=st.integers(0, 100),
        inserts=st.lists(st.integers(0, 100), max_size=4),
        count=st.integers(1, 12),
    )
    def test_matches_full_recompute(self, coords, pick, inserts, count):
        locs = sorted({(float(x * 10), float(y * 10)) for x, y in coords})
        loc = locs[pick % len(locs)]
        scaled = [(x * 10, y * 10) for x, y in coords]
        fast = editable(scaled)
        slow = editable(scaled)
        # Inserted occurrences are newer than their neighbours, so seq
        # order stops following trajectory order.
        for choice in inserts:
            sids = sorted(fast._node_by_sid)
            if sids:
                fast.insert_into_segment(loc, sids[choice % len(sids)])
                slow.insert_into_segment(loc, sids[choice % len(sids)])
        outcome = fast.delete_cheapest(loc, count)
        total, removed = delete_cheapest_reference(slow, loc, count)
        assert outcome.utility_loss == total
        assert outcome.delta_points == -removed
        assert fast.to_trajectory().points == slow.to_trajectory().points
        assert fast.total_utility_loss == slow.total_utility_loss
        assert sorted(
            (s.a, s.b) for s in fast.index._registry
        ) == sorted((s.a, s.b) for s in slow.index._registry)

    def test_removal_recosts_the_next_node(self):
        # Both run members cost 0 until the first goes; the second then
        # costs 5, more than the lone occurrence near <(4,6), (6,5)>.
        coords = [(0, 0), (5, 5), (5, 5), (10, 0), (4, 6), (5, 5), (6, 5)]
        fast = editable(coords)
        slow = editable(coords)
        outcome = fast.delete_cheapest((5.0, 5.0), 2)
        total, removed = delete_cheapest_reference(slow, (5.0, 5.0), 2)
        assert [p.coord for p in fast.to_trajectory()][1:4] == [
            (5.0, 5.0), (10.0, 0.0), (4.0, 6.0)
        ]

    def test_removal_recosts_the_previous_node(self):
        # The inserted run member precedes the older one but is newer,
        # so the older one goes first and the inserted one is re-costed.
        coords = [(0, 0), (5, 5), (10, 0), (4, 6), (5, 5), (6, 5)]
        fast = editable(coords)
        slow = editable(coords)
        for e in (fast, slow):
            e.insert_into_segment((5.0, 5.0), e.index.knn((2.0, 2.0), 1)[0][0])
        outcome = fast.delete_cheapest((5.0, 5.0), 2)
        total, removed = delete_cheapest_reference(slow, (5.0, 5.0), 2)
        assert (outcome.utility_loss, -outcome.delta_points) == (total, removed)
        assert fast.to_trajectory().points == slow.to_trajectory().points
        assert [p.coord for p in fast.to_trajectory()][:3] == [
            (0.0, 0.0), (5.0, 5.0), (10.0, 0.0)
        ]
        assert (outcome.utility_loss, -outcome.delta_points) == (total, removed)
        assert fast.to_trajectory().points == slow.to_trajectory().points
