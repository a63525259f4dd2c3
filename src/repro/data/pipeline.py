"""In-process streaming training-data pipeline (degrade → tokenize → batch).

The paper builds its training set once: every original is degraded at
each (r1, r2) of the rate grid, 16 pairs per original (Section IV-B).
This module streams those pairs straight into training batches:

* **Seeded per-original synthesis.**  Original ``i`` is degraded with its
  own RNG, spawned as ``SeedSequence(seed, spawn_key=(0, i))``
  (:func:`pair_rng`), so a seed fixes the whole token stream and every
  ``batches()`` pass replays the same pairs.
* **Fused per-original work.**  The target is tokenized once per
  original, the variants come from the raw-array rules of
  :mod:`repro.data.transforms`, and all their points go through a single
  KD-tree query.
* **Length-bucketed batching.**  Token pairs accumulate into a window
  of ``bucket_batches`` batches, are stable-sorted by source length,
  chunked, and the chunk order is shuffled — long sequences pad against
  long ones, so the fused RNN kernels burn far fewer FLOPs on PAD
  positions than shuffle-only batching, without a global length
  curriculum.
* **Double-buffered prefetch.**  A background thread (:class:`Prefetcher`)
  keeps two assembled batches ready.

Telemetry (recorded into the registry passed at construction, or the
process default): the ``data.worker.produce_s`` histogram (synthesis
time per original) and the ``data.tokens.real`` / ``data.tokens.pad`` /
``data.pairs`` / ``data.batches`` counters.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..spatial.vocab import CellVocabulary
from ..telemetry import MetricsRegistry, get_registry
from .dataset import Batch, TokenPairDataset, make_batch
from .trajectory import Trajectory
from .transforms import (check_distorting_rate, check_dropping_rate,
                         distort_points, kept_indices)

#: The paper's rate grid (Section V-A): r1 × r2, 16 pairs per original.
DEFAULT_DROPPING_RATES: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
DEFAULT_DISTORTING_RATES: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)

#: One tokenized training pair: (degraded source tokens, target tokens).
TokenPair = Tuple[np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# Deterministic synthesis
# ----------------------------------------------------------------------
def pair_rng(seed: int, original_index: int) -> np.random.Generator:
    """The RNG that degrades original ``original_index``.

    Spawned from the pipeline seed by ``(0, original_index)`` alone, so
    any original's pairs can be reproduced on their own.  The leading 0
    is fixed; it keeps each seed's stream what it was when the key also
    carried an epoch number.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0, original_index)))


def synthesize_token_pairs(original: Trajectory, vocab: CellVocabulary,
                           dropping_rates: Sequence[float],
                           distorting_rates: Sequence[float],
                           rng: np.random.Generator) -> List[TokenPair]:
    """Degrade → tokenize the full r1 × r2 grid for one original.

    Draw-for-draw the same as ``degrade(original, r1, r2, rng)`` per pair
    in r1-major order.  The target is tokenized once and shared
    (read-only) across the grid's pairs; all variants' points go through
    one KD-tree query.
    """
    points = original.points
    target = vocab.tokenize_points(points)
    variants: List[np.ndarray] = []
    for r1 in dropping_rates:
        for r2 in distorting_rates:
            kept = kept_indices(points, r1, rng)
            variants.append(distort_points(
                points if kept is None else points[kept], r2, rng))
    tokens = vocab.tokenize_points(np.concatenate(variants, axis=0))
    offsets = np.concatenate([[0], np.cumsum([len(v) for v in variants])])
    return [(tokens[offsets[i]:offsets[i + 1]].copy(), target)
            for i in range(len(variants))]


# ----------------------------------------------------------------------
# Background prefetch
# ----------------------------------------------------------------------
_SENTINEL = object()


class Prefetcher:
    """Double-buffered background iteration over ``source``.

    A daemon thread drains ``source`` into a bounded queue of ``depth``
    items so the consumer always finds the next item (batch) assembled.
    Exceptions raised by the source re-raise in the consumer; ``close``
    stops the thread early and closes the source generator.
    """

    def __init__(self, source: Iterator, depth: int = 2):
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self._source = source
        self._queue: "queue_mod.Queue" = queue_mod.Queue(maxsize=depth)
        self._stop = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._fill, daemon=True,
                                        name="repro-data-prefetch")
        self._thread.start()

    def _fill(self) -> None:
        try:
            for item in self._source:
                if not self._put(item):
                    return
        except BaseException as exc:
            self._error = exc
        finally:
            close = getattr(self._source, "close", None)
            if close is not None:
                close()
            self._put(_SENTINEL)

    def _put(self, item) -> bool:
        """Put with stop-polling; False when closed before the put."""
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue_mod.Full:
                continue
        return False

    def __iter__(self) -> "Prefetcher":
        return self

    def __next__(self):
        if self._stop.is_set():
            raise StopIteration
        item = self._queue.get()
        if item is _SENTINEL:
            if self._error is not None:
                error, self._error = self._error, None
                raise error
            raise StopIteration
        return item

    def close(self) -> None:
        """Stop the fill thread and release the source."""
        self._stop.set()
        try:
            while True:
                self._queue.get_nowait()
        except queue_mod.Empty:
            pass
        self._thread.join(timeout=10)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class TrainingDataPipeline:
    """Streams length-bucketed training batches from original trajectories.

    Implements the :class:`~repro.data.dataset.BatchSource` protocol, so
    :meth:`repro.core.trainer.Trainer.fit` consumes it exactly like a
    materialized :class:`~repro.data.dataset.TokenPairDataset`.

    Parameters
    ----------
    dropping_rates, distorting_rates:
        The rate grid; each original yields one pair per (r1, r2), in
        r1-major order.  r1 must lie in [0, 1) and r2 in [0, 1], as for
        :func:`~repro.data.transforms.degrade`.
    seed:
        Seeds the per-original RNGs (:func:`pair_rng`).
    bucket_batches:
        Length-bucketing window, in batches.  ``None`` buffers the whole
        epoch, which makes the batch stream exactly reproduce
        ``TokenPairDataset.batches`` over the same token pairs.
    """

    def __init__(self, originals: Sequence[Trajectory],
                 vocab: CellVocabulary,
                 dropping_rates: Sequence[float] = DEFAULT_DROPPING_RATES,
                 distorting_rates: Sequence[float] = DEFAULT_DISTORTING_RATES,
                 seed: int = 0,
                 bucket_batches: Optional[int] = 8,
                 registry: Optional[MetricsRegistry] = None):
        self.dropping_rates = tuple(dropping_rates)
        self.distorting_rates = tuple(distorting_rates)
        if not self.dropping_rates or not self.distorting_rates:
            raise ValueError(
                "dropping_rates and distorting_rates must not be empty")
        for rate in self.dropping_rates:
            check_dropping_rate(rate)
        for rate in self.distorting_rates:
            check_distorting_rate(rate)
        if bucket_batches is not None and bucket_batches < 1:
            raise ValueError(
                f"bucket_batches must be >= 1 or None, got {bucket_batches}")
        self.originals = list(originals)
        self.vocab = vocab
        self.seed = seed
        self.bucket_batches = bucket_batches
        self.registry = registry

    def _registry(self) -> MetricsRegistry:
        return self.registry or get_registry()

    def __len__(self) -> int:
        """Number of training pairs per epoch (|originals| · |r1| · |r2|)."""
        return (len(self.originals)
                * len(self.dropping_rates) * len(self.distorting_rates))

    # ------------------------------------------------------------------
    # Token-pair stream
    # ------------------------------------------------------------------
    def token_pairs(self) -> Iterator[TokenPair]:
        """The deterministic (source, target) token stream, in original
        order."""
        reg = self._registry()
        for index, original in enumerate(self.originals):
            started = time.perf_counter()
            pairs = synthesize_token_pairs(original, self.vocab,
                                           self.dropping_rates,
                                           self.distorting_rates,
                                           pair_rng(self.seed, index))
            reg.histogram("data.worker.produce_s").observe(
                time.perf_counter() - started)
            reg.counter("data.pairs").inc(len(pairs))
            yield from pairs

    def materialize(self) -> TokenPairDataset:
        """Drain the stream into a materialized reference dataset.

        The result's ``batches(batch_size, default_rng(s))`` is the
        exact-parity oracle for this pipeline's whole-epoch-window batch
        stream (see tests/test_pipeline.py); it is also how validation
        sets are pinned — synthesized once, evaluated many times.
        """
        pairs = list(self.token_pairs())
        return TokenPairDataset([source for source, _ in pairs],
                                [target for _, target in pairs])

    # ------------------------------------------------------------------
    # Batch assembly
    # ------------------------------------------------------------------
    def batches(self, batch_size: int,
                rng: Optional[np.random.Generator] = None,
                shuffle: bool = True) -> Iterator[Batch]:
        """Yield padded, length-bucketed mini-batches for one epoch.

        Exactly one value is drawn from ``rng`` (synchronously, before
        the prefetch thread starts) to seed the window shuffles, so a
        trainer sharing its generator with the loss's noise sampling
        stays deterministic even with background prefetch.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        shuffle_seed: Optional[int] = None
        if shuffle:
            rng = rng or np.random.default_rng()
            shuffle_seed = int(rng.integers(np.iinfo(np.int64).max))
        prefetcher = Prefetcher(self._assemble(batch_size, shuffle_seed))
        try:
            yield from prefetcher
        finally:
            prefetcher.close()

    def _assemble(self, batch_size: int,
                  shuffle_seed: Optional[int]) -> Iterator[Batch]:
        shuffle_rng = (np.random.default_rng(shuffle_seed)
                       if shuffle_seed is not None else None)
        window = (None if self.bucket_batches is None
                  else batch_size * self.bucket_batches)
        buffer: List[TokenPair] = []
        for pair in self.token_pairs():
            buffer.append(pair)
            if window is not None and len(buffer) >= window:
                yield from self._flush(buffer, batch_size, shuffle_rng)
                buffer = []
        if buffer:
            yield from self._flush(buffer, batch_size, shuffle_rng)

    def _flush(self, pairs: List[TokenPair], batch_size: int,
               shuffle_rng: Optional[np.random.Generator]) -> Iterator[Batch]:
        """Batch one bucketing window: stable length sort → consecutive
        chunks → shuffled chunk order (the same scheme as
        ``TokenPairDataset.batches``, per window)."""
        reg = self._registry()
        order = np.argsort([len(source) for source, _ in pairs],
                           kind="stable")
        chunks = [order[i:i + batch_size]
                  for i in range(0, len(order), batch_size)]
        if shuffle_rng is not None:
            shuffle_rng.shuffle(chunks)
        for chunk in chunks:
            batch = make_batch([pairs[i][0] for i in chunk],
                               [pairs[i][1] for i in chunk])
            real = float(batch.src_mask.sum() + batch.tgt_mask.sum())
            total = float(batch.src_mask.size + batch.tgt_mask.size)
            reg.counter("data.tokens.real").inc(real)
            reg.counter("data.tokens.pad").inc(total - real)
            reg.counter("data.batches").inc()
            yield batch
