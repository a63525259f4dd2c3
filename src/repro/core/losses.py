"""Wiring between the decoder, the vocabulary, and the three paper losses.

A :class:`LossSpec` selects L1 (plain NLL), L2 (exact spatial proximity,
Eq. 5) or L3 (K-nearest + NCE approximation, Eq. 7) and carries the
spatial hyper-parameters (K, θ, noise size).  :func:`sequence_loss` then
evaluates the chosen loss over a flattened batch of decoder states.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import Tensor, nll_loss, sampled_weighted_loss, weighted_nll_loss
from ..spatial.proximity import ProximityVocabulary
from .encoder_decoder import EncoderDecoder

LOSS_KINDS = ("L1", "L2", "L3")

# L3 has one implementation for every vocabulary size.  This constant only
# remains for the benchmark's ``dense_l3`` stamp, which reads it; nothing in
# the library branches on it.
DENSE_L3_VOCAB_LIMIT = 4096


@dataclass(frozen=True)
class LossSpec:
    """Which decoder loss to optimize, and its spatial parameters.

    Paper defaults: ``k_nearest=20``, ``theta=100`` m, ``noise=500``;
    scaled defaults here match the smaller vocabulary (DESIGN.md §7).
    """

    kind: str = "L3"
    k_nearest: int = 10
    theta: float = 100.0
    noise: int = 64

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind}")
        if self.k_nearest < 1:
            raise ValueError("k_nearest must be >= 1")
        if self.noise < 1:
            raise ValueError("noise must be >= 1")

    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "LossSpec":
        """Build from :meth:`to_dict` output; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown LossSpec keys: {sorted(unknown)}")
        return cls(**data)


def sequence_loss(
    model: EncoderDecoder,
    hidden: Tensor,
    targets: np.ndarray,
    mask: np.ndarray,
    vocab: ProximityVocabulary,
    spec: LossSpec,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Mean per-token loss over flattened decoder states.

    Parameters
    ----------
    hidden:
        ``(T * batch, hidden)`` decoder states from
        :meth:`EncoderDecoder.decode`.
    targets, mask:
        Time-major ``(T, batch)`` target tokens and padding mask; they are
        flattened here to align with ``hidden``.
    """
    flat_targets = np.asarray(targets).reshape(-1)
    flat_mask = np.asarray(mask).reshape(-1)
    # Drop padded rows up front: every loss path then works on real
    # positions only, which shrinks the large gather/GEMM operations.
    real = np.flatnonzero(flat_mask)
    if len(real) == 0:
        raise ValueError("batch contains no unmasked target positions")
    if len(real) < len(flat_mask):
        hidden = hidden[real]
        flat_targets = flat_targets[real]

    if spec.kind == "L1":
        return nll_loss(model.logits(hidden), flat_targets)
    if spec.kind == "L2":
        weights = vocab.full_weights(flat_targets, spec.theta)
        return weighted_nll_loss(model.logits(hidden), weights)

    # L3: K nearest cells of each target carry proximity weights; uniform
    # noise cells (weight zero) extend the candidate set for the NCE-style
    # partition estimate.
    rng = rng or np.random.default_rng()
    cand, knn_weights = vocab.proximity_candidates(flat_targets, spec.k_nearest,
                                                   spec.theta)
    noise = vocab.sample_noise(rng, len(flat_targets), spec.noise)
    candidates = np.concatenate([cand, noise], axis=1)
    weights = np.concatenate([knn_weights, np.zeros(noise.shape)], axis=1)
    return sampled_weighted_loss(hidden, model.proj_weight, candidates, weights,
                                 proj_bias=model.proj_bias)
