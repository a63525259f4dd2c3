"""The paper's trajectory degradation transforms (Sections IV-B and V-A).

* :func:`downsample` — drop interior points with probability ``r1``,
  always keeping the first and last points ("the start and end points of
  Tb are preserved in Ta to avoid changing the underlying route").
* :func:`distort` — pick a fraction ``r2`` of points and add Gaussian
  noise with a 30 m radius (Eq. 3).
* :func:`alternating_split` — Figure 4: split ``Tb`` into ``Ta`` (odd
  points) and ``Ta'`` (even points); the two halves share the underlying
  route, which is the basis of the most-similar-search experiments.

Each rule has one implementation on raw point arrays
(:func:`kept_indices`, :func:`distort_points`); the ``Trajectory``
transforms wrap them with their range checks and metadata, and the
training-data pipeline calls them directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .trajectory import Trajectory

DISTORTION_RADIUS_M = 30.0
"""Gaussian noise radius used by the paper (Eq. 3)."""


def check_dropping_rate(rate: float) -> None:
    """Reject a dropping rate (r1) outside ``[0, 1)``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropping rate must be in [0, 1), got {rate}")


def check_distorting_rate(rate: float) -> None:
    """Reject a distorting rate (r2) outside ``[0, 1]``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"distorting rate must be in [0, 1], got {rate}")


def kept_indices(points: np.ndarray, rate: float,
                 rng: np.random.Generator) -> Optional[np.ndarray]:
    """The drop rule on a raw ``(n, 2)`` array: indices of the kept points.

    Each point is dropped with probability ``rate``, except the endpoints,
    which are always kept.  Returns ``None`` without drawing from ``rng``
    when nothing can be dropped (``rate == 0`` or ``n <= 2``).
    """
    n = len(points)
    if rate == 0.0 or n <= 2:
        return None
    keep = rng.random(n) >= rate
    keep[0] = True
    keep[-1] = True
    return np.flatnonzero(keep)


def distort_points(points: np.ndarray, rate: float, rng: np.random.Generator,
                   radius: float = DISTORTION_RADIUS_M) -> np.ndarray:
    """The distortion rule on a raw ``(n, 2)`` array (Eq. 3).

    Each point is selected with probability ``rate`` and moved by
    ``radius * (dx, dy)`` with ``dx, dy ~ N(0, 1)``.  Returns ``points``
    itself when no point is selected, and draws nothing when ``rate == 0``.
    """
    if rate == 0.0:
        return points
    selected = rng.random(len(points)) < rate
    if not selected.any():
        return points
    points = points.copy()
    points[selected] += rng.standard_normal((int(selected.sum()), 2)) * radius
    return points


def downsample(trajectory: Trajectory, rate: float,
               rng: Optional[np.random.Generator] = None) -> Trajectory:
    """Randomly drop interior points with probability ``rate`` (r1).

    Endpoints are always preserved.  ``rate=0`` returns the trajectory
    unchanged.
    """
    check_dropping_rate(rate)
    kept = kept_indices(trajectory.points, rate,
                        rng or np.random.default_rng())
    return trajectory if kept is None else trajectory.subsequence(kept)


def distort(trajectory: Trajectory, rate: float,
            rng: Optional[np.random.Generator] = None,
            radius: float = DISTORTION_RADIUS_M) -> Trajectory:
    """Distort a random fraction ``rate`` (r2) of the points (Eq. 3).

    Each selected point ``(px, py)`` becomes ``(px + radius * dx,
    py + radius * dy)`` with ``dx, dy ~ N(0, 1)``.
    """
    check_distorting_rate(rate)
    points = distort_points(trajectory.points, rate,
                            rng or np.random.default_rng(), radius)
    return (trajectory if points is trajectory.points
            else trajectory.with_points(points))


def degrade(trajectory: Trajectory, dropping_rate: float, distorting_rate: float,
            rng: Optional[np.random.Generator] = None,
            radius: float = DISTORTION_RADIUS_M) -> Trajectory:
    """Down-sample then distort — the full Ta construction of Section IV-B."""
    rng = rng or np.random.default_rng()
    return distort(downsample(trajectory, dropping_rate, rng),
                   distorting_rate, rng, radius=radius)


def alternating_split(trajectory: Trajectory) -> Tuple[Trajectory, Trajectory]:
    """Figure 4: ``Ta`` takes points 0, 2, 4, ...; ``Ta'`` takes 1, 3, 5, ...

    Both halves are sampled from the same underlying route, so in the
    most-similar-search experiments ``Ta'`` is the ground-truth top-1
    neighbour of ``Ta``.
    """
    if len(trajectory) < 4:
        raise ValueError(
            f"alternating split needs >= 4 points, got {len(trajectory)}")
    odd = np.arange(0, len(trajectory), 2)
    even = np.arange(1, len(trajectory), 2)
    return trajectory.subsequence(odd), trajectory.subsequence(even)
