"""Hot-cell vocabulary: thresholds, tokenization, proximity kernels."""

import numpy as np
import pytest

from repro.spatial import BOS, EOS, NUM_SPECIALS, PAD, UNK, CellVocabulary, Grid


@pytest.fixture
def toy_grid():
    return Grid(0.0, 0.0, 500.0, 500.0, cell_size=100.0)


@pytest.fixture
def toy_vocab(toy_grid):
    rng = np.random.default_rng(0)
    # Dense cluster bottom-left, sparse stray points top-right.
    dense = rng.uniform(0, 200, size=(200, 2))
    strays = np.array([[450.0, 450.0]])
    return CellVocabulary.build(toy_grid, np.concatenate([dense, strays]),
                                min_hits=5)


def test_special_tokens_layout():
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
    assert NUM_SPECIALS == 4


def test_hot_cell_threshold_filters_strays(toy_grid, toy_vocab):
    stray_cell = toy_grid.cell_of(np.array([450.0, 450.0]))
    assert toy_vocab.token_of_cell(stray_cell) is None
    assert toy_vocab.num_hot_cells <= 4  # only the dense 2x2 block survives
    assert toy_vocab.size == toy_vocab.num_hot_cells + NUM_SPECIALS


def test_hot_cells_sorted_by_density(toy_vocab):
    counts = toy_vocab.hit_counts
    assert (np.diff(counts) <= 0).all()


def test_min_hits_too_high_raises(toy_grid):
    with pytest.raises(ValueError):
        CellVocabulary.build(toy_grid, np.zeros((3, 2)), min_hits=10)


def test_tokenize_points_maps_to_nearest_hot_cell(toy_vocab):
    # A stray point far from hot cells still gets its nearest hot token.
    tokens = toy_vocab.tokenize_points(np.array([[450.0, 450.0]]))
    assert tokens[0] >= NUM_SPECIALS
    assert tokens[0] < toy_vocab.size


def test_tokenize_points_exact_centroids(toy_vocab):
    centroids = toy_vocab.centroids
    tokens = toy_vocab.tokenize_points(centroids)
    np.testing.assert_array_equal(
        tokens, np.arange(toy_vocab.num_hot_cells) + NUM_SPECIALS)


def test_centroid_of_tokens_round_trip(toy_vocab):
    tokens = np.arange(toy_vocab.num_hot_cells) + NUM_SPECIALS
    xy = toy_vocab.centroid_of_tokens(tokens)
    np.testing.assert_array_equal(xy, toy_vocab.centroids)


def test_centroid_of_special_token_raises(toy_vocab):
    with pytest.raises(ValueError):
        toy_vocab.centroid_of_tokens(np.array([PAD]))


def test_token_distance_zero_for_same_token(toy_vocab):
    t = np.array([NUM_SPECIALS])
    assert toy_vocab.token_distance(t, t)[0] == 0.0


def test_knn_table_self_first(vocab):
    tokens, dists = vocab.knn_table(5)
    assert tokens.shape == (vocab.num_hot_cells, 5)
    np.testing.assert_array_equal(
        tokens[:, 0], np.arange(vocab.num_hot_cells) + NUM_SPECIALS)
    np.testing.assert_allclose(dists[:, 0], 0.0)
    assert (np.diff(dists, axis=1) >= 0).all()


def test_knn_table_k_clamped(toy_vocab):
    tokens, _ = toy_vocab.knn_table(100)
    assert tokens.shape[1] == toy_vocab.num_hot_cells


def test_proximity_candidates_weights_sum_to_one(vocab):
    targets = np.arange(NUM_SPECIALS, NUM_SPECIALS + 10)
    cand, weights = vocab.proximity_candidates(targets, k=5, theta=100.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0)
    # The target itself carries the largest weight.
    np.testing.assert_array_equal(cand[:, 0], targets)
    assert (weights[:, 0] >= weights.max(axis=1) - 1e-12).all()


def test_proximity_candidates_special_targets_one_hot(vocab):
    cand, weights = vocab.proximity_candidates(np.array([EOS]), k=5, theta=100.0)
    assert cand[0, 0] == EOS
    np.testing.assert_allclose(weights[0], [1.0, 0, 0, 0, 0])


def test_proximity_weights_decay_with_theta(vocab):
    targets = np.array([NUM_SPECIALS])
    _, sharp = vocab.proximity_candidates(targets, k=5, theta=10.0)
    _, smooth = vocab.proximity_candidates(targets, k=5, theta=1000.0)
    # Small theta concentrates mass on the target cell (approaches NLL).
    assert sharp[0, 0] > smooth[0, 0]


def test_full_weights_rows_normalized(vocab):
    targets = np.array([NUM_SPECIALS, NUM_SPECIALS + 3, EOS])
    weights = vocab.full_weights(targets, theta=100.0)
    assert weights.shape == (3, vocab.size)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0)
    # Specials get zero weight for hot targets; EOS target is one-hot.
    assert weights[0, :NUM_SPECIALS].sum() == 0.0
    assert weights[2, EOS] == 1.0


def test_invalid_theta_raises(vocab):
    with pytest.raises(ValueError):
        vocab.proximity_candidates(np.array([4]), k=5, theta=0.0)
    with pytest.raises(ValueError):
        vocab.full_weights(np.array([4]), theta=-1.0)
    with pytest.raises(ValueError):
        vocab.context_distribution(5, theta=0.0)


def test_sample_noise_range(vocab, rng):
    noise = vocab.sample_noise(rng, batch=8, count=16)
    assert noise.shape == (8, 16)
    assert noise.min() >= NUM_SPECIALS
    assert noise.max() < vocab.size


def test_context_distribution_rows_normalized(vocab):
    neighbours, probs = vocab.context_distribution(6, theta=100.0)
    assert neighbours.shape == probs.shape
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)
    # Nearer cells are more probable.
    assert (np.diff(probs, axis=1) <= 1e-12).all()


def test_duplicate_hot_cells_rejected(toy_grid):
    with pytest.raises(ValueError):
        CellVocabulary(toy_grid, np.array([3, 3]))


def test_empty_vocabulary_rejected(toy_grid):
    with pytest.raises(ValueError):
        CellVocabulary(toy_grid, np.array([], dtype=int))
