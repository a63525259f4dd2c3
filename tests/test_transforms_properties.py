"""Property-based tests for the degradation transforms.

Hypothesis drives `downsample` / `distort` / `degrade` over random
trajectories, rates, and seeds, checking the invariants the paper's pair
synthesis relies on (Section IV-B): endpoints survive downsampling, zero
rates are identities, lengths never grow, and equal seeds reproduce the
exact draw sequence.  The pipeline's pair stream is fuzzed over seeds
here for determinism, and against the per-pair oracle in
tests/test_pipeline.py.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data import (Trajectory, TrainingDataPipeline,  # noqa: E402
                        degrade, distort, downsample)

rates = st.floats(min_value=0.0, max_value=0.95, allow_nan=False).map(float)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


@st.composite
def trajectories(draw, min_points=2, max_points=40):
    n = draw(st.integers(min_value=min_points, max_value=max_points))
    rng = np.random.default_rng(draw(seeds))
    points = rng.uniform(-5000.0, 5000.0, size=(n, 2))
    return Trajectory(points=points)


@given(trajectories(), rates, seeds)
def test_downsample_preserves_endpoints_and_never_grows(t, rate, seed):
    out = downsample(t, rate, np.random.default_rng(seed))
    assert 2 <= len(out) <= len(t)
    np.testing.assert_array_equal(out.start, t.start)
    np.testing.assert_array_equal(out.end, t.end)


@given(trajectories(), seeds)
def test_zero_rates_are_identities(t, seed):
    rng = np.random.default_rng(seed)
    assert downsample(t, 0.0, rng) is t
    assert distort(t, 0.0, rng) is t
    degraded = degrade(t, 0.0, 0.0, rng)
    np.testing.assert_array_equal(degraded.points, t.points)


@given(trajectories(), rates, seeds)
def test_distort_keeps_length_and_bounds_displacement(t, rate, seed):
    out = distort(t, rate, np.random.default_rng(seed))
    assert len(out) == len(t)
    moved = np.linalg.norm(out.points - t.points, axis=1)
    # N(0, 30 m) noise per axis: anything beyond 8 sigma is a bug.
    assert float(moved.max(initial=0.0)) < 8 * 30.0 * np.sqrt(2)


@given(trajectories(min_points=3), rates, rates, seeds)
def test_degrade_same_seed_is_deterministic(t, r1, r2, seed):
    first = degrade(t, r1, r2, np.random.default_rng(seed))
    second = degrade(t, r1, r2, np.random.default_rng(seed))
    np.testing.assert_array_equal(first.points, second.points)
    assert 2 <= len(first) <= len(t)


@settings(max_examples=5, deadline=None)
@given(seeds)
def test_pair_stream_deterministic_per_seed(trips, vocab, seed):
    """The pipeline's determinism invariant, fuzzed over seeds: two
    pipelines built with one seed yield the same token stream, whether
    read lazily or materialized."""
    originals = trips[:6]
    lazy = list(TrainingDataPipeline(originals, vocab, seed=seed).token_pairs())
    dataset = TrainingDataPipeline(originals, vocab, seed=seed).materialize()
    assert len(lazy) == len(dataset) == 16 * len(originals)
    for (src, tgt), src_again, tgt_again in zip(lazy, dataset.sources,
                                                dataset.targets):
        np.testing.assert_array_equal(src, src_again)
        np.testing.assert_array_equal(tgt, tgt_again)
