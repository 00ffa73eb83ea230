"""Shared segment-index protocol and bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.geo.geometry import Coord, point_segment_distance


@dataclass(frozen=True, slots=True)
class IndexedSegment:
    """A segment registered in an index.

    ``owner`` carries the id of the trajectory the segment belongs to,
    which the inter-trajectory modifier uses to aggregate segment-level
    results to trajectory-level candidates.
    """

    sid: int
    a: Coord
    b: Coord
    owner: str | None = None

    def distance_to(self, q: Coord) -> float:
        return point_segment_distance(q, self.a, self.b)


@runtime_checkable
class SegmentIndex(Protocol):
    """The interface every spatial index in this package implements."""

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        """Register a segment; returns its id."""
        ...

    def remove(self, sid: int) -> None:
        """Unregister a segment by id."""
        ...

    def segment(self, sid: int) -> IndexedSegment:
        """Look up a registered segment."""
        ...

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest segments to ``q`` as (sid, distance) pairs.

        Sorted by ascending distance, ties by ascending sid. Every
        segment strictly closer than the ``k``-th distance is present,
        so a prefix that stops short of that distance is exact.
        """
        ...

    def knn_batch(self, qs: Sequence[Coord], k: int) -> list[list[tuple[int, float]]]:
        """:meth:`knn` for a batch of queries, one result list per query.

        Answers every query against the *same* index snapshot, which
        lets grid backends share per-cell vectorised segment batches
        across the whole query set instead of rebuilding them per call.
        Each per-query result is exactly what :meth:`knn` returns.

        Implementors can delegate to
        :func:`repro.index.search.knn_batch_via_knn`.
        """
        ...

    def __len__(self) -> int:
        ...


def bulk_insert(
    index: SegmentIndex,
    pairs: Sequence[tuple[Coord, Coord]],
    owner: str | None = None,
) -> list[int]:
    """Insert a batch of segments, returning their sids in input order.

    Dispatches to the index's native ``insert_many`` when present (the
    hierarchical grid vectorises best-fit placement over the whole
    batch), else falls back to per-segment ``insert``. Allocation
    order — hence sid assignment — matches the equivalent insert loop
    exactly, so the two paths are interchangeable byte for byte.
    """
    native = getattr(index, "insert_many", None)
    if native is not None:
        return native(pairs, owner=owner)
    return [index.insert(a, b, owner=owner) for a, b in pairs]


class SegmentRegistry:
    """Id allocation and storage shared by the concrete indexes."""

    def __init__(self) -> None:
        self._segments: dict[int, IndexedSegment] = {}
        self._next_id = 0

    def allocate(self, a: Coord, b: Coord, owner: str | None) -> IndexedSegment:
        segment = IndexedSegment(self._next_id, a, b, owner)
        self._segments[segment.sid] = segment
        self._next_id += 1
        return segment

    @property
    def next_sid(self) -> int:
        """The sid the next :meth:`allocate` returns; every sid so far
        is below it."""
        return self._next_id

    def release(self, sid: int) -> IndexedSegment:
        try:
            return self._segments.pop(sid)
        except KeyError:
            raise KeyError(f"segment {sid} is not in the index") from None

    def get(self, sid: int) -> IndexedSegment:
        try:
            return self._segments[sid]
        except KeyError:
            raise KeyError(f"segment {sid} is not in the index") from None

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[IndexedSegment]:
        return iter(self._segments.values())

    def bulk_load(
        self, segments: Iterable[tuple[Coord, Coord, str | None]]
    ) -> list[IndexedSegment]:
        return [self.allocate(a, b, owner) for a, b, owner in segments]
