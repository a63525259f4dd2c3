"""Decoder loss functions from the paper.

Three losses are implemented (Section IV-C1):

* :func:`nll_loss` — ``L1``, the plain negative log-likelihood used in NMT
  (Eq. 4).  Spatially blind: it penalizes a neighbouring cell and a distant
  cell equally.
* :func:`weighted_nll_loss` — ``L2``, the exact spatial-proximity-aware
  loss (Eq. 5).  Each vocabulary cell receives weight
  ``w(u, y_t) ∝ exp(-||u - y_t|| / θ)``; cost is O(|y|·|V|) per sequence.
* :func:`sampled_weighted_loss` — ``L3``, the approximation (Eq. 7): the
  weighted sum runs over only the K nearest cells of the target, and the
  partition function is estimated NCE-style over those cells plus a small
  random noise sample, reducing the cost to O(|y|).

All losses take an optional 0/1 ``mask`` so padded positions in a
mini-batch contribute nothing, and return the *mean* loss per unmasked
token (a scalar ``Tensor``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse

from .functional import log_softmax
from .tensor import Tensor


def _masked_mean(per_example: Tensor, mask: Optional[np.ndarray]) -> Tensor:
    if mask is None:
        return per_example.mean()
    mask = np.asarray(mask, dtype=float)
    total = float(mask.sum())
    if total == 0.0:
        raise ValueError("loss mask has no active positions")
    return (per_example * Tensor(mask)).sum() / total


def nll_loss(logits: Tensor, targets: np.ndarray,
             mask: Optional[np.ndarray] = None) -> Tensor:
    """``L1`` — negative log-likelihood of the target tokens.

    Parameters
    ----------
    logits:
        ``(batch, vocab)`` unnormalized scores.
    targets:
        ``(batch,)`` integer target token ids.
    mask:
        Optional ``(batch,)`` 0/1 array marking real (non-padding) rows.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return _masked_mean(-picked, mask)


def weighted_nll_loss(logits: Tensor, weights: np.ndarray,
                      mask: Optional[np.ndarray] = None) -> Tensor:
    """``L2`` — exact spatial-proximity-aware loss (Eq. 5).

    Parameters
    ----------
    logits:
        ``(batch, vocab)`` unnormalized scores.
    weights:
        ``(batch, vocab)`` proximity weights ``w(u, y_t)``; each row should
        sum to 1 (rows are a kernel around the target cell).
    mask:
        Optional ``(batch,)`` 0/1 padding mask.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != logits.shape:
        raise ValueError(
            f"weights shape {weights.shape} != logits shape {logits.shape}")
    log_probs = log_softmax(logits, axis=1)
    per_example = -(log_probs * Tensor(weights)).sum(axis=1)
    return _masked_mean(per_example, mask)




#: Rows per gather in the L3 forward: one ``(64, M, hidden)`` block of
#: output rows stays in cache while its batched matmul runs.
_L3_CHUNK_ROWS = 64


def _first_occurrences(candidates: np.ndarray) -> np.ndarray:
    """``(N, M)`` mask that is true on the first occurrence of each id in its row.

    Sorting the keys ``id * M + column`` row by row places every repeat of
    an id right after its lowest-column occurrence.  Sorting plain values
    is several times faster than an argsort.
    """
    rows, cols = candidates.shape
    keys = np.sort(candidates * cols + np.arange(cols), axis=1)
    ids = keys // cols
    dup_rows, dup_pos = np.nonzero(ids[:, 1:] == ids[:, :-1])
    keep = np.ones((rows, cols), dtype=bool)
    keep[dup_rows, keys[dup_rows, dup_pos + 1] % cols] = False
    return keep


def sampled_weighted_loss(
    hidden: Tensor,
    proj_weight: Tensor,
    candidates: np.ndarray,
    weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
    proj_bias: Optional[Tensor] = None,
) -> Tensor:
    """``L3`` — approximate spatial-proximity loss with sampled softmax (Eq. 7).

    For each row ``b`` the candidate set ``NO = NK(y_t) ∪ O(y_t)`` contains
    the K nearest cells of the target (carrying proximity weights) followed
    by noise cells (weight 0).  The partition function is computed over the
    candidate set only, which is the NCE-flavoured approximation the paper
    uses to reduce training cost from O(|y|·|V|) to O(|y|).

    ``NO`` is a *set*: a cell that appears more than once in a row counts
    once in the partition, and its first occurrence supplies its weight.

    The loss is one tape node.  The forward gathers the candidate rows of
    ``proj_weight`` a block of rows at a time; the backward uses the closed
    form ``dloss/dlogit = (softmax · Σw − w) · scale`` and scatters it
    through one sparse ``(batch, vocab)`` matrix ``S``: ``dh = S @ W``,
    ``dW = Sᵀ @ h`` and ``db`` by ``np.bincount``.  Nothing of shape
    ``(batch, M, hidden)`` or dense ``(batch, vocab)`` is kept.

    Parameters
    ----------
    hidden:
        ``(batch, hidden)`` decoder states ``h_t``.
    proj_weight:
        ``(vocab, hidden)`` output projection; row ``u`` is ``W_u``.
    candidates:
        ``(batch, M)`` integer cell ids (K nearest + noise).
    weights:
        ``(batch, M)`` proximity weights; zero on noise columns; each row
        sums to 1 over the K-nearest block.
    mask:
        Optional ``(batch,)`` 0/1 padding mask.
    proj_bias:
        Optional ``(vocab,)`` bias added to the gathered logits.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.shape != np.shape(weights):
        raise ValueError("candidates and weights must have the same shape")
    batch, width = candidates.shape
    if hidden.shape[0] != batch:
        raise ValueError("hidden batch size does not match candidates")
    h, w_proj = hidden.data, proj_weight.data
    dtype = w_proj.dtype
    if mask is None:
        scale = np.full(batch, 1.0 / batch)
    else:
        mask = np.asarray(mask, dtype=float)
        active = float(mask.sum())
        if active == 0.0:
            raise ValueError("loss mask has no active positions")
        scale = mask / active

    keep = _first_occurrences(candidates)
    weights = np.where(keep, weights, 0.0).astype(dtype, copy=False)
    logits = np.empty((batch, width), dtype=dtype)
    for start in range(0, batch, _L3_CHUNK_ROWS):
        stop = start + _L3_CHUNK_ROWS
        rows = np.take(w_proj, candidates[start:stop], axis=0)   # (R, M, H)
        np.matmul(rows, h[start:stop, :, None], out=logits[start:stop, :, None])
    if proj_bias is not None:
        logits += proj_bias.data[candidates]
    restricted = np.where(keep, logits, -np.inf)
    peak = restricted.max(axis=1, keepdims=True)
    probs = np.exp(restricted - peak)
    partition = probs.sum(axis=1, keepdims=True)
    probs /= partition
    log_z = (np.log(partition) + peak)[:, 0]
    mass = weights.sum(axis=1)
    per_row = log_z * mass - (weights * logits).sum(axis=1)
    value = np.asarray((per_row * scale).sum(), dtype=dtype)

    out = Tensor._make(value, (hidden, proj_weight) + (
        (proj_bias,) if proj_bias is not None else ()), "sampled_weighted_loss")
    if out.requires_grad:

        def backward(grad):
            coeff = (probs * mass[:, None] - weights) * (scale * grad)[:, None]
            coeff = coeff.astype(dtype, copy=False).reshape(-1)
            flat = candidates.reshape(-1)
            scatter = sparse.csr_matrix(
                (coeff, flat, np.arange(0, flat.size + 1, width)),
                shape=(batch, len(w_proj)))
            if hidden.requires_grad:
                hidden._accumulate(scatter @ w_proj)
            if proj_weight.requires_grad:
                proj_weight._accumulate(scatter.T @ h)
            if proj_bias is not None and proj_bias.requires_grad:
                proj_bias._accumulate(np.bincount(
                    flat, weights=coeff, minlength=len(w_proj)))

        out._backward = backward
    return out
