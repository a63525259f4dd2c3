"""The :class:`Trajectory` value type.

A trajectory is a sequence of sample points from an underlying route
(paper Definitions 1–2).  Points are stored in *projected meter*
coordinates — every algorithm in this library works in the metric plane;
lon/lat data is projected on ingestion (see :mod:`repro.data.porto`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Trajectory:
    """An immutable sequence of 2-D sample points.

    Attributes
    ----------
    points:
        ``(n, 2)`` float array of x/y meter coordinates.
    timestamps:
        Optional ``(n,)`` float array of seconds; must be non-decreasing.
    traj_id:
        Optional identifier (generator route id, CSV trip id, ...).
    route_id:
        Optional id of the underlying route that generated the trajectory
        (known for synthetic data; useful as clustering ground truth).
    """

    points: np.ndarray
    timestamps: Optional[np.ndarray] = None
    traj_id: Optional[int] = None
    route_id: Optional[int] = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"points must be (n, 2), got {points.shape}")
        if len(points) < 2:
            raise ValueError("a trajectory needs at least two points")
        if not np.isfinite(points).all():
            first = int(np.argmin(np.isfinite(points).all(axis=1)))
            raise ValueError(f"point {first} is not finite: {points[first].tolist()}")
        object.__setattr__(self, "points", points)
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps, dtype=float)
            if ts.shape != (len(points),):
                raise ValueError(
                    f"timestamps shape {ts.shape} does not match {len(points)} points")
            if np.any(np.diff(ts) < 0):
                raise ValueError("timestamps must be non-decreasing")
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def length_meters(self) -> float:
        """Total arc length of the polyline through the sample points."""
        segs = np.diff(self.points, axis=0)
        return float(np.sqrt((segs ** 2).sum(axis=1)).sum())

    def subsequence(self, indices: np.ndarray) -> "Trajectory":
        """A new trajectory restricted to the given (sorted) point indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size < 2:
            raise ValueError("a subsequence needs at least two points")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("indices must be strictly increasing")
        return Trajectory(
            points=self.points[indices],
            timestamps=None if self.timestamps is None else self.timestamps[indices],
            traj_id=self.traj_id,
            route_id=self.route_id,
        )

    def cache_key(self) -> bytes:
        """A content-based key for memoizing per-trajectory computations.

        ``id()`` is unsafe as a cache key (CPython reuses addresses of
        collected objects), so encoders key their caches on the raw
        coordinate bytes instead.
        """
        return self.points.tobytes()

    def with_points(self, points: np.ndarray) -> "Trajectory":
        """A new trajectory with replaced coordinates (same metadata).

        Timestamps are kept only when the point count is unchanged.
        """
        points = np.asarray(points, dtype=float)
        timestamps = self.timestamps if len(points) == len(self.points) else None
        return Trajectory(points=points, timestamps=timestamps,
                          traj_id=self.traj_id, route_id=self.route_id)
