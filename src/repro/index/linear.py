"""Trivial no-structure index: the paper's *Linear* baseline.

Implements the same protocol as the grid indexes but answers kNN by a
full scan, so the modification machinery can run against it unchanged
for the efficiency comparison (Figure 5).
"""

from __future__ import annotations

from repro.geo.geometry import Coord
from repro.index.base import IndexedSegment, SegmentRegistry
from repro.index.search import knn_batch_via_knn, linear_knn


class LinearSegmentIndex:
    """Stores segments in a registry; every query scans all of them."""

    def __init__(self) -> None:
        self._registry = SegmentRegistry()

    def insert(self, a: Coord, b: Coord, owner: str | None = None) -> int:
        return self._registry.allocate(a, b, owner).sid

    def remove(self, sid: int) -> None:
        self._registry.release(sid)

    def segment(self, sid: int) -> IndexedSegment:
        return self._registry.get(sid)

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        return linear_knn(self._registry, q, k)

    def knn_batch(self, qs, k: int) -> list[list[tuple[int, float]]]:
        """Per-query full scans (the honest linear-baseline batch)."""
        return knn_batch_via_knn(self, qs, k)

    def __len__(self) -> int:
        return len(self._registry)
