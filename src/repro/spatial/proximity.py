"""Generic proximity-aware token vocabulary.

The losses (Eq. 5/7) and cell pretraining (Eq. 8) only need three things
from a vocabulary: a *centroid* per content token, K-nearest-token
queries, and exponential proximity kernels over the centroid distances.
None of that is trajectory-specific — the same machinery discretizes any
metric domain (2-D cells for trajectories, 1-D value bins for generic
time series, paper §VI future work 2).

:class:`ProximityVocabulary` implements the shared machinery over an
arbitrary ``(num_tokens, dim)`` centroid matrix; subclasses add domain
construction (hot grid cells, quantile bins, ...).

Token id layout (shared by every subclass)::

    0  PAD   (mini-batch padding)
    1  BOS   (decoder start-of-sequence)
    2  EOS   (end-of-sequence, paper Figure 2)
    3  UNK   (reserved)
    4+ content tokens
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from scipy.spatial import cKDTree

PAD, BOS, EOS, UNK = 0, 1, 2, 3
NUM_SPECIALS = 4


class ProximityVocabulary:
    """Token space with metric structure (base for cell/bin vocabularies)."""

    def __init__(self, centroids: np.ndarray):
        centroids = np.asarray(centroids, dtype=float)
        if centroids.ndim != 2 or len(centroids) == 0:
            raise ValueError(
                f"centroids must be a non-empty (n, d) matrix, got {centroids.shape}")
        self.centroids = centroids
        self._tree = cKDTree(centroids)
        self._knn_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def num_hot_cells(self) -> int:
        """Number of content tokens (named after the trajectory case)."""
        return len(self.centroids)

    @property
    def size(self) -> int:
        """Total token count, including the special tokens."""
        return self.num_hot_cells + NUM_SPECIALS

    def is_special(self, token: int) -> bool:
        return token < NUM_SPECIALS

    # ------------------------------------------------------------------
    # Point / token mapping
    # ------------------------------------------------------------------
    def tokenize_points(self, points: np.ndarray) -> np.ndarray:
        """Map ``(n, dim)`` coordinates to their nearest content token."""
        points = np.asarray(points, dtype=float).reshape(-1, self.centroids.shape[1])
        _, nearest = self._tree.query(points)
        return (nearest + NUM_SPECIALS).astype(np.int64)

    def centroid_of_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Centroid of each token; special tokens are invalid."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and tokens.min() < NUM_SPECIALS:
            raise ValueError("special tokens have no centroid")
        return self.centroids[tokens - NUM_SPECIALS]

    def token_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Euclidean distance between token centroids."""
        ca = self.centroid_of_tokens(a)
        cb = self.centroid_of_tokens(b)
        return np.sqrt(((ca - cb) ** 2).sum(axis=-1))

    # ------------------------------------------------------------------
    # K-nearest-token machinery (Eq. 5 / Eq. 7 / Eq. 8 kernels)
    # ------------------------------------------------------------------
    def knn_table(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """For every content token, its ``k`` nearest tokens and distances.

        Row ``i`` describes token ``i + NUM_SPECIALS``; the token itself is
        always the first neighbour (distance 0).  Cached per ``k``.
        """
        k = min(k, self.num_hot_cells)
        if k not in self._knn_cache:
            dists, idx = self._tree.query(self.centroids, k=k)
            if k == 1:
                dists = dists[:, None]
                idx = idx[:, None]
            self._knn_cache[k] = (idx + NUM_SPECIALS, dists)
        return self._knn_cache[k]

    def proximity_candidates(
        self,
        targets: np.ndarray,
        k: int,
        theta: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """K-nearest candidates and Eq. 7 weights for target tokens.

        Returns ``(candidates, weights)``, both ``(batch, k')`` where
        ``k' = min(k, num_tokens)``.  Special-token targets (EOS) get a
        one-hot row on themselves; their remaining candidate slots are
        filled with *distinct* content tokens of zero weight, so every
        row brings ``k'`` cells to the loss's candidate set.
        """
        if theta <= 0:
            raise ValueError("theta must be positive")
        targets = np.asarray(targets, dtype=np.int64)
        knn_tokens, knn_dists = self.knn_table(k)
        k_eff = knn_tokens.shape[1]
        batch = targets.shape[0]
        candidates = np.empty((batch, k_eff), dtype=np.int64)
        weights = np.zeros((batch, k_eff))

        special = targets < NUM_SPECIALS
        hot = ~special
        if hot.any():
            rows = targets[hot] - NUM_SPECIALS
            candidates[hot] = knn_tokens[rows]
            kernel = np.exp(-knn_dists[rows] / theta)
            weights[hot] = kernel / kernel.sum(axis=1, keepdims=True)
        if special.any():
            fillers = np.arange(NUM_SPECIALS, NUM_SPECIALS + k_eff - 1)
            candidates[special, 0] = targets[special]
            candidates[special, 1:] = fillers[None, :]
            weights[special, 0] = 1.0
        return candidates, weights

    def full_weights(self, targets: np.ndarray, theta: float) -> np.ndarray:
        """Exact Eq. 5 weight rows over the whole vocabulary (for L2).

        Shape ``(batch, vocab_size)``; weights on special columns are zero
        except for special targets, which get weight 1 on themselves.
        """
        if theta <= 0:
            raise ValueError("theta must be positive")
        targets = np.asarray(targets, dtype=np.int64)
        batch = targets.shape[0]
        weights = np.zeros((batch, self.size))
        special = targets < NUM_SPECIALS
        hot = ~special
        if hot.any():
            target_xy = self.centroids[targets[hot] - NUM_SPECIALS]
            diff = target_xy[:, None, :] - self.centroids[None, :, :]
            dists = np.sqrt((diff ** 2).sum(axis=2))
            kernel = np.exp(-dists / theta)
            kernel /= kernel.sum(axis=1, keepdims=True)
            weights[np.flatnonzero(hot)[:, None],
                    np.arange(self.num_hot_cells)[None, :] + NUM_SPECIALS] = kernel
        if special.any():
            weights[special, targets[special]] = 1.0
        return weights

    def sample_noise(self, rng: np.random.Generator, batch: int,
                     count: int) -> np.ndarray:
        """Sample ``(batch, count)`` noise tokens uniformly from content tokens.

        The paper's NCE noise distribution is uniform over the vocabulary.
        Draws may repeat each other or a row's K nearest cells; the L3 loss
        treats its candidates as a set, so a repeat counts once.
        """
        return rng.integers(NUM_SPECIALS, self.size, size=(batch, count))

    def context_distribution(self, k: int, theta: float) -> Tuple[np.ndarray, np.ndarray]:
        """Eq. 8 sampling distribution for representation pretraining.

        Returns ``(neighbour_tokens, probabilities)``, both
        ``(num_tokens, k')``: for each content token, its K nearest tokens
        and the normalized exponential-kernel probabilities of drawing
        each as a skip-gram context.
        """
        if theta <= 0:
            raise ValueError("theta must be positive")
        knn_tokens, knn_dists = self.knn_table(k)
        kernel = np.exp(-knn_dists / theta)
        probs = kernel / kernel.sum(axis=1, keepdims=True)
        return knn_tokens, probs
