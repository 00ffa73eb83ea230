"""Numpy-vectorised geometry kernels.

Batch versions of the scalar primitives in :mod:`repro.geo.geometry`,
used where the library is distance-bound: the linear-scan index on
large segment sets and the INF utility metric. Results match the
scalar implementations to floating-point accuracy (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.geo.geometry import Coord


class SegmentArray:
    """A fixed batch of segments supporting vectorised distance queries."""

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        """``starts``/``ends``: float arrays of shape (n, 2)."""
        starts = np.asarray(starts, dtype=np.float64)
        ends = np.asarray(ends, dtype=np.float64)
        if starts.shape != ends.shape or starts.ndim != 2 or starts.shape[1] != 2:
            raise ValueError("expected matching (n, 2) coordinate arrays")
        self.starts = starts
        self.ends = ends
        self._delta = ends - starts
        self._norm_sq = np.einsum("ij,ij->i", self._delta, self._delta)
        # Degenerate segments project onto their start point.
        self._safe_norm_sq = np.where(self._norm_sq == 0.0, 1.0, self._norm_sq)

    @classmethod
    def from_pairs(cls, pairs: list[tuple[Coord, Coord]]) -> "SegmentArray":
        if not pairs:
            return cls(np.empty((0, 2)), np.empty((0, 2)))
        starts = np.array([a for a, _ in pairs], dtype=np.float64)
        ends = np.array([b for _, b in pairs], dtype=np.float64)
        return cls(starts, ends)

    @classmethod
    def from_polyline(cls, coords: list[Coord]) -> "SegmentArray":
        """Consecutive-point segments of a polyline."""
        if len(coords) < 2:
            return cls(np.empty((0, 2)), np.empty((0, 2)))
        array = np.asarray(coords, dtype=np.float64)
        return cls(array[:-1], array[1:])

    def __len__(self) -> int:
        return len(self.starts)

    def distances_to(self, q: Coord) -> np.ndarray:
        """Point-segment distance from ``q`` to every segment (Eq. 3)."""
        if len(self) == 0:
            return np.empty(0)
        qv = np.asarray(q, dtype=np.float64)
        to_q = qv - self.starts
        t = np.einsum("ij,ij->i", to_q, self._delta) / self._safe_norm_sq
        t = np.clip(t, 0.0, 1.0)
        closest = self.starts + t[:, None] * self._delta
        gap = qv - closest
        return np.sqrt(np.einsum("ij,ij->i", gap, gap))

    def min_distance_to(self, q: Coord) -> float:
        """Minimum distance from ``q`` to the segment set (inf if empty)."""
        if len(self) == 0:
            return float("inf")
        return float(self.distances_to(q).min())

    def knn(self, q: Coord, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest segment *positions* (row indices)."""
        if k < 1:
            raise ValueError("k must be positive")
        distances = self.distances_to(q)
        if len(distances) == 0:
            return []
        k = min(k, len(distances))
        order = np.argpartition(distances, k - 1)[:k]
        order = order[np.argsort(distances[order], kind="stable")]
        return [(int(i), float(distances[i])) for i in order]
