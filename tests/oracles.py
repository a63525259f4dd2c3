"""Reference implementations that the fast kernels in ``src/`` are tested against.

Each oracle is the plainest correct form of its kernel, built from the
generic autograd ops so that their own gradients come from the tape.
Differential tests compare the fast path with these, value and gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import Tensor
from repro.nn.functional import logsumexp


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
