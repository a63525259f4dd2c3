"""Reference implementations that the fast paths in ``src/`` are tested against.

Each oracle is the plainest correct form of its fast path: the loss is
built from the generic autograd ops so that its gradients come from the
tape, and the training pairs come one at a time from the public
``degrade`` and ``tokenize``.  Differential tests compare the fast path
with these.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data import Trajectory, degrade, pair_rng, tokenize
from repro.nn import Tensor
from repro.nn.functional import logsumexp
from repro.spatial import CellVocabulary


def reference_token_pairs(
    originals: Sequence[Trajectory],
    vocab: CellVocabulary,
    dropping_rates: Sequence[float],
    distorting_rates: Sequence[float],
    seed: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The training-pair stream, one pair at a time (paper Section IV-B).

    For each original, in order, with that original's :func:`pair_rng`:
    ``degrade`` at every (r1, r2) in r1-major order, then ``tokenize`` the
    degraded source and the original target.
    """
    pairs = []
    for index, original in enumerate(originals):
        rng = pair_rng(seed, index)
        target = tokenize(original, vocab)
        for r1 in dropping_rates:
            for r2 in distorting_rates:
                source = tokenize(degrade(original, r1, r2, rng), vocab)
                pairs.append((source, target))
    return pairs


def first_occurrences(candidates: np.ndarray) -> np.ndarray:
    """``(N, M)`` mask that is true where an id appears for the first time in its row."""
    keep = np.zeros(candidates.shape, dtype=bool)
    for r, row in enumerate(candidates):
        seen = set()
        for c, cell in enumerate(row):
            if cell not in seen:
                seen.add(cell)
                keep[r, c] = True
    return keep


def sampled_weighted_loss(
    hidden: Tensor,
    proj_weight: Tensor,
    candidates: np.ndarray,
    weights: np.ndarray,
    mask: Optional[np.ndarray] = None,
    proj_bias: Optional[Tensor] = None,
) -> Tensor:
    """``L3`` (Eq. 7) as a chain of autograd ops, with set semantics.

    Gathers the candidate rows (``take_rows``), multiplies and sums them
    into logits, and takes the logsumexp over each row's *distinct*
    candidates: a repeated cell is pushed to ``-inf`` in the partition and
    loses its weight, so its first occurrence alone counts.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    keep = first_occurrences(candidates)
    weights = np.where(keep, np.asarray(weights, dtype=float), 0.0)
    batch = candidates.shape[0]
    rows = proj_weight.take_rows(candidates)             # (batch, M, hidden)
    h = hidden.reshape(batch, 1, hidden.shape[1])        # (batch, 1, hidden)
    logits = (rows * h).sum(axis=2)                      # (batch, M)
    if proj_bias is not None:
        logits = logits + proj_bias.take_rows(candidates)
    restricted = logits + Tensor(np.where(keep, 0.0, -np.inf))
    log_z = logsumexp(restricted, axis=1, keepdims=True)
    per_example = -((logits - log_z) * Tensor(weights)).sum(axis=1)
    if mask is None:
        return per_example.mean()
    mask = np.asarray(mask, dtype=float)
    return (per_example * Tensor(mask)).sum() / float(mask.sum())
