"""Decoder losses: L1/L2/L3 semantics and their mutual consistency."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (Tensor, get_default_dtype, nll_loss,
                      sampled_weighted_loss, set_default_dtype,
                      weighted_nll_loss)
from repro.spatial.proximity import EOS

from . import oracles
from .test_tensor import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.mark.usefixtures("float64_tensors")
class TestNLL:
    def test_matches_manual_cross_entropy(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 2, 5, 1])
        loss = nll_loss(Tensor(logits), targets).item()
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_mask_excludes_rows(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 2, 5, 1])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        masked = nll_loss(Tensor(logits), targets, mask).item()
        unmasked = nll_loss(Tensor(logits[:2]), targets[:2]).item()
        assert masked == pytest.approx(unmasked, rel=1e-9)

    def test_empty_mask_raises(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            nll_loss(logits, np.array([0, 1]), np.zeros(2))

    def test_gradients(self, rng):
        logits = rng.standard_normal((3, 5))
        targets = np.array([1, 0, 4])
        check_gradients(lambda x: nll_loss(x, targets), logits)


@pytest.mark.usefixtures("float64_tensors")
class TestWeightedNLL:
    def test_one_hot_weights_reduce_to_nll(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 2, 5, 1])
        weights = np.zeros((4, 6))
        weights[np.arange(4), targets] = 1.0
        l2 = weighted_nll_loss(Tensor(logits), weights).item()
        l1 = nll_loss(Tensor(logits), targets).item()
        assert l2 == pytest.approx(l1, rel=1e-9)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            weighted_nll_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))

    def test_gradients(self, rng):
        logits = rng.standard_normal((3, 5))
        weights = rng.dirichlet(np.ones(5), size=3)
        check_gradients(lambda x: weighted_nll_loss(x, weights), logits)


@pytest.mark.usefixtures("float64_tensors")
class TestSampledLoss:
    def test_full_candidate_set_matches_weighted_nll(self, rng):
        """With NO = the entire vocabulary, L3 equals L2 exactly."""
        vocab, hidden_dim, batch = 7, 4, 3
        hidden = rng.standard_normal((batch, hidden_dim))
        proj = rng.standard_normal((vocab, hidden_dim))
        weights_full = rng.dirichlet(np.ones(vocab), size=batch)
        candidates = np.tile(np.arange(vocab), (batch, 1))
        l3 = sampled_weighted_loss(Tensor(hidden), Tensor(proj), candidates,
                                   weights_full).item()
        logits = hidden @ proj.T
        l2 = weighted_nll_loss(Tensor(logits), weights_full).item()
        assert l3 == pytest.approx(l2, rel=1e-9)

    def test_agrees_with_oracle_on_vocabulary_candidates(self, vocab, rng):
        """Real K-nearest + noise candidates: EOS rows, repeats, collisions."""
        batch, hidden_dim = 12, 5
        targets = rng.integers(4, vocab.size, size=batch)
        targets[[0, 5]] = EOS
        cand, knn_w = vocab.proximity_candidates(targets, 6, theta=100.0)
        # More noise draws than content cells: repeats within the noise
        # block and collisions with the K nearest are certain.
        noise = vocab.sample_noise(rng, batch, vocab.num_hot_cells + 5)
        candidates = np.concatenate([cand, noise], axis=1)
        weights = np.concatenate([knn_w, np.zeros(noise.shape)], axis=1)
        hidden = rng.standard_normal((batch, hidden_dim))
        proj = rng.standard_normal((vocab.size, hidden_dim))
        bias = rng.standard_normal(vocab.size)
        _assert_matches_oracle(hidden, proj, bias, candidates, weights, None)

    def test_noise_cells_only_affect_partition(self, rng):
        """Adding noise candidates (weight 0) changes Z but not the numerator."""
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((6, 3))
        cand_small = np.array([[0, 1], [2, 3]])
        w = np.array([[0.6, 0.4], [0.5, 0.5]])
        small = sampled_weighted_loss(Tensor(hidden), Tensor(proj),
                                      cand_small, w).item()
        cand_big = np.concatenate([cand_small, np.array([[4, 5], [4, 5]])], axis=1)
        w_big = np.concatenate([w, np.zeros((2, 2))], axis=1)
        big = sampled_weighted_loss(Tensor(hidden), Tensor(proj),
                                    cand_big, w_big).item()
        assert big > small  # larger partition always increases -log p

    def test_bias_is_applied(self, rng):
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((4, 3))
        bias = rng.standard_normal(4)
        cand = np.array([[0, 1], [2, 3]])
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        without = sampled_weighted_loss(Tensor(hidden), Tensor(proj), cand, w).item()
        with_bias = sampled_weighted_loss(Tensor(hidden), Tensor(proj), cand, w,
                                          proj_bias=Tensor(bias)).item()
        assert without != pytest.approx(with_bias)

    def test_gradients_hidden_and_proj(self, rng):
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((6, 3))
        cand = np.array([[0, 1, 4], [2, 3, 5]])
        w = rng.dirichlet(np.ones(3), size=2)
        check_gradients(
            lambda h, p: sampled_weighted_loss(h, p, cand, w), hidden, proj)

    def test_gradients_with_bias_repeats_and_mask(self, rng):
        hidden = rng.standard_normal((3, 4))
        proj = rng.standard_normal((6, 4))
        bias = rng.standard_normal(6)
        # Row 0 repeats a weighted cell in its noise block, row 1 repeats a
        # noise cell, row 2 is a one-hot (EOS-like) row and is masked out.
        cand = np.array([[0, 1, 5, 0, 5], [2, 3, 4, 4, 1], [3, 0, 1, 2, 2]])
        w = np.zeros((3, 5))
        w[:, :2] = rng.dirichlet(np.ones(2), size=3)
        w[2] = [1.0, 0.0, 0.0, 0.0, 0.0]
        mask = np.array([1.0, 1.0, 0.0])
        check_gradients(
            lambda h, p, b: sampled_weighted_loss(h, p, cand, w, mask=mask,
                                                  proj_bias=b),
            hidden, proj, bias)

    def test_repeats_count_once_in_partition(self, rng):
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((5, 3))
        w = np.array([[0.7, 0.3, 0.0], [1.0, 0.0, 0.0]])
        once = sampled_weighted_loss(Tensor(hidden), Tensor(proj),
                                     np.array([[0, 1, 4], [2, 3, 4]]), w).item()
        repeated = sampled_weighted_loss(
            Tensor(hidden), Tensor(proj),
            np.array([[0, 1, 4, 4, 1], [2, 3, 4, 2, 3]]),
            np.concatenate([w, np.zeros((2, 2))], axis=1)).item()
        assert repeated == pytest.approx(once, rel=1e-12)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            sampled_weighted_loss(Tensor(np.zeros((2, 3))),
                                  Tensor(np.zeros((5, 3))),
                                  np.zeros((2, 4), dtype=int), np.zeros((2, 3)))


@contextmanager
def _float64():
    previous = get_default_dtype()
    set_default_dtype(np.float64)
    try:
        yield
    finally:
        set_default_dtype(previous)


def _assert_matches_oracle(hidden, proj, bias, candidates, weights, mask):
    """Fused L3 and the autograd-chain oracle agree on value and gradients."""
    results = []
    for loss_fn in (sampled_weighted_loss, oracles.sampled_weighted_loss):
        tensors = [Tensor(hidden, requires_grad=True),
                   Tensor(proj, requires_grad=True)]
        if bias is not None:
            tensors.append(Tensor(bias, requires_grad=True))
        loss = loss_fn(tensors[0], tensors[1], candidates, weights, mask=mask,
                       proj_bias=tensors[2] if bias is not None else None)
        loss.backward()
        results.append([loss.data] + [t.grad for t in tensors])
    fused, oracle = results
    for got, expected in zip(fused, oracle):
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6),
       hidden_dim=st.integers(1, 5), vocab=st.integers(1, 10),
       k=st.integers(1, 4), noise=st.integers(0, 12),
       use_bias=st.booleans(), use_mask=st.booleans(),
       general_weights=st.booleans())
def test_fused_l3_matches_oracle(seed, batch, hidden_dim, vocab, k, noise,
                                 use_bias, use_mask, general_weights):
    """Random K-nearest + noise rows, M up to several times |V|.

    ``general_weights`` leaves rows unnormalized and puts weight on noise
    columns, so a repeat can carry a weight that must be dropped.
    """
    rng = np.random.default_rng(seed)
    k = min(k, vocab)
    nearest = np.stack([rng.choice(vocab, size=k, replace=False)
                        for _ in range(batch)])
    candidates = np.concatenate(
        [nearest, rng.integers(0, vocab, size=(batch, noise))], axis=1)
    weights = np.zeros(candidates.shape)
    weights[:, :k] = rng.dirichlet(np.ones(k), size=batch)
    one_hot = rng.random(batch) < 0.3               # EOS-style target rows
    weights[one_hot, :k] = 0.0
    weights[one_hot, 0] = 1.0
    if general_weights:
        weights *= rng.uniform(0.5, 2.0, size=(batch, 1))
        weights[:, k:] = rng.random((batch, noise))
    mask = None
    if use_mask:
        mask = (rng.random(batch) < 0.7).astype(float)
        mask[rng.integers(batch)] = 1.0
    with _float64():
        _assert_matches_oracle(
            rng.standard_normal((batch, hidden_dim)),
            rng.standard_normal((vocab, hidden_dim)),
            rng.standard_normal(vocab) if use_bias else None,
            candidates, weights, mask)
