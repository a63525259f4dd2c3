"""Training pair synthesis: the 16-variant grid per original trajectory."""

import numpy as np

from repro.data import TrainingDataPipeline, tokenize


def token_pairs(trips, vocab, *rates, seed=0):
    return list(TrainingDataPipeline(trips, vocab, *rates,
                                     seed=seed).token_pairs())


def test_sixteen_pairs_per_original(trips, vocab):
    assert len(token_pairs(trips[:3], vocab)) == 16 * 3


def test_rate_grid_covered(trips, vocab):
    """Pairs come in r1-major order: with r1 ∈ {0, 0.9} and r2 ∈ {0, 0.5},
    only the last two sources lose points (distortion keeps the count)."""
    original = max(trips, key=len)
    pairs = token_pairs([original], vocab, (0.0, 0.9), (0.0, 0.5))
    lengths = [len(source) for source, _ in pairs]
    assert lengths[:2] == [len(original)] * 2
    assert max(lengths[2:]) < len(original)


def test_target_is_the_original(trips, vocab):
    for index, (_, target) in enumerate(token_pairs(trips[:2], vocab)):
        np.testing.assert_array_equal(target,
                                      tokenize(trips[index // 16], vocab))


def test_sources_are_degraded(trips, vocab):
    pairs = token_pairs(trips[:1], vocab, (0.6,), (0.0,))
    assert len(pairs[0][0]) < len(trips[0])


def test_clean_pair_identity(trips, vocab):
    (source, target), = token_pairs(trips[:1], vocab, (0.0,), (0.0,))
    np.testing.assert_array_equal(source, target)


def test_source_endpoints_preserved(trips, vocab):
    """Without distortion, down-sampling keeps both endpoints' cells."""
    pairs = token_pairs(trips[:4], vocab, (0.0, 0.2, 0.4, 0.6), (0.0,))
    for source, target in pairs:
        assert source[0] == target[0]
        assert source[-1] == target[-1]


def test_clean_pair_source_does_not_alias_target(trips, vocab):
    """r1 = r2 = 0 leaves the points untouched; mutating the source
    tokens must still leave the reconstruction target intact."""
    for source, target in token_pairs(trips[:2], vocab, (0.0,), (0.0,)):
        expected = target.copy()
        source[:] = -1
        np.testing.assert_array_equal(target, expected)


def test_iter_matches_build_count(trips, vocab):
    """The lazy stream and the materialized dataset hold the same pairs."""
    pipeline = TrainingDataPipeline(trips[:2], vocab, seed=0)
    lazy = list(pipeline.token_pairs())
    eager = pipeline.materialize()
    assert len(lazy) == len(eager) == 32
    for (source, target), eager_source, eager_target in zip(
            lazy, eager.sources, eager.targets):
        np.testing.assert_array_equal(source, eager_source)
        np.testing.assert_array_equal(target, eager_target)
