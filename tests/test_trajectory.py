"""Trajectory value type: validation, slicing, metadata."""

import numpy as np
import pytest

from repro.data import Trajectory


def make(points, **kwargs):
    return Trajectory(points=np.asarray(points, dtype=float), **kwargs)


def test_basic_construction():
    t = make([[0, 0], [1, 1], [2, 2]], timestamps=np.array([0.0, 15.0, 30.0]),
             traj_id=7, route_id=3)
    assert len(t) == 3
    np.testing.assert_array_equal(t.start, [0, 0])
    np.testing.assert_array_equal(t.end, [2, 2])
    assert t.traj_id == 7
    assert t.route_id == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_points(bad):
    points = [[0, 0], [1, 1], [2, 2], [3, 3]]
    points[2][1] = bad
    with pytest.raises(ValueError, match="point 2 is not finite"):
        make(points)


def test_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        make([[0, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError):
        make([[0, 0]])
    with pytest.raises(ValueError):
        make([[0, 0], [1, 1]], timestamps=np.array([0.0]))


def test_rejects_decreasing_timestamps():
    with pytest.raises(ValueError):
        make([[0, 0], [1, 1]], timestamps=np.array([10.0, 5.0]))


def test_length_meters():
    t = make([[0, 0], [3, 4], [3, 4]])
    assert t.length_meters() == pytest.approx(5.0)


def test_subsequence_preserves_metadata():
    t = make([[0, 0], [1, 0], [2, 0], [3, 0]],
             timestamps=np.array([0.0, 1.0, 2.0, 3.0]), traj_id=9)
    sub = t.subsequence(np.array([0, 2, 3]))
    assert len(sub) == 3
    assert sub.traj_id == 9
    np.testing.assert_array_equal(sub.timestamps, [0.0, 2.0, 3.0])


def test_subsequence_validation():
    t = make([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(ValueError):
        t.subsequence(np.array([1]))
    with pytest.raises(ValueError):
        t.subsequence(np.array([2, 0]))  # not increasing


def test_with_points_drops_stale_timestamps():
    t = make([[0, 0], [1, 0], [2, 0]], timestamps=np.array([0.0, 1.0, 2.0]))
    replaced = t.with_points(np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert replaced.timestamps is None
    same_count = t.with_points(t.points + 1.0)
    np.testing.assert_array_equal(same_count.timestamps, t.timestamps)


def test_cache_key_content_based():
    a = make([[0, 0], [1, 1]])
    b = make([[0, 0], [1, 1]])
    c = make([[0, 0], [2, 2]])
    assert a.cache_key() == b.cache_key()  # same content, different objects
    assert a.cache_key() != c.cache_key()


def test_points_converted_to_float():
    t = Trajectory(points=np.array([[0, 0], [1, 1]], dtype=int))
    assert t.points.dtype == np.float64
