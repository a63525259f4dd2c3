"""Streaming data pipeline: oracle parity, bucketing, prefetch, telemetry.

The contract under test (docs/performance.md "Data pipeline"):

* the token-pair stream equals the per-pair oracle (``degrade`` then
  ``tokenize``, per original, with that original's ``pair_rng``) for
  any seed and rate grid;
* with a whole-epoch bucketing window, the batch stream exactly matches
  the materialized ``TokenPairDataset.batches`` reference path;
* bucketing pads less than shuffle-only batching, and the padding
  counters land in the registry.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (TokenPairDataset, TrainingDataPipeline, degrade,
                        make_batch)
from repro.data.pipeline import Prefetcher, pair_rng, synthesize_token_pairs
from repro.telemetry import MetricsRegistry

from .oracles import reference_token_pairs

RATES = (0.0, 0.2, 0.4, 0.6)


def make_pipeline(trips, vocab, **kwargs):
    kwargs.setdefault("seed", 11)
    return TrainingDataPipeline(trips, vocab, **kwargs)


def assert_pairs_equal(got, want):
    assert len(got) == len(want)
    for (src_a, tgt_a), (src_b, tgt_b) in zip(got, want):
        np.testing.assert_array_equal(src_a, src_b)
        np.testing.assert_array_equal(tgt_a, tgt_b)


def assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.src, w.src)
        np.testing.assert_array_equal(g.src_mask, w.src_mask)
        np.testing.assert_array_equal(g.tgt_in, w.tgt_in)
        np.testing.assert_array_equal(g.tgt_out, w.tgt_out)
        np.testing.assert_array_equal(g.tgt_mask, w.tgt_mask)


# ----------------------------------------------------------------------
# Determinism / parity
# ----------------------------------------------------------------------
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
rate_grids = st.tuples(
    st.lists(st.floats(0.0, 0.95), min_size=1, max_size=4),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))


@settings(max_examples=25, deadline=None)
@given(seed=seeds, grid=rate_grids)
def test_token_stream_matches_per_pair_oracle(trips, vocab, seed, grid):
    """The differential test: for random seeds and rate grids, the fused
    pipeline's token stream is the per-pair oracle's, bit for bit."""
    dropping_rates, distorting_rates = grid
    originals = trips[:5]
    want = reference_token_pairs(originals, vocab, dropping_rates,
                                 distorting_rates, seed)
    pipeline = TrainingDataPipeline(originals, vocab, dropping_rates,
                                    distorting_rates, seed=seed)
    assert_pairs_equal(list(pipeline.token_pairs()), want)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, grid=rate_grids,
       batch_size=st.integers(min_value=1, max_value=24))
def test_batch_stream_matches_oracle_batching(trips, vocab, seed, grid,
                                              batch_size):
    """For random seeds, rate grids and batch sizes, the pipeline's
    whole-epoch batch stream is the oracle pairs' reference batching."""
    dropping_rates, distorting_rates = grid
    originals = trips[:5]
    want = reference_token_pairs(originals, vocab, dropping_rates,
                                 distorting_rates, seed)
    pipeline = TrainingDataPipeline(originals, vocab, dropping_rates,
                                    distorting_rates, seed=seed,
                                    bucket_batches=None)
    reference = TokenPairDataset([source for source, _ in want],
                                 [target for _, target in want])
    derived = int(np.random.default_rng(seed).integers(
        np.iinfo(np.int64).max))
    assert_batches_equal(
        list(pipeline.batches(batch_size, np.random.default_rng(seed))),
        list(reference.batches(batch_size, np.random.default_rng(derived))))


def test_whole_epoch_window_matches_reference_dataset_path(trips, vocab):
    """bucket_batches=None reproduces TokenPairDataset.batches exactly.

    The pipeline draws one seed from the caller's rng and shuffles its
    chunk list with ``default_rng(seed)`` — feeding that derived rng to
    the materialized dataset must give the identical batch stream.
    """
    pipeline = make_pipeline(trips[:16], vocab, bucket_batches=None)
    reference = pipeline.materialize()
    assert isinstance(reference, TokenPairDataset)
    assert len(reference) == len(pipeline)

    caller_rng = np.random.default_rng(123)
    derived = int(caller_rng.integers(np.iinfo(np.int64).max))
    got = list(pipeline.batches(16, np.random.default_rng(123)))
    want = list(reference.batches(16, np.random.default_rng(derived)))
    assert_batches_equal(got, want)


def test_unshuffled_whole_epoch_window_matches_reference(trips, vocab):
    pipeline = make_pipeline(trips[:12], vocab, bucket_batches=None)
    reference = pipeline.materialize()
    got = list(pipeline.batches(16, shuffle=False))
    want = list(reference.batches(16, shuffle=False))
    assert_batches_equal(got, want)


def test_worker_degrade_matches_public_transform(trips, vocab):
    """Per original, the fused synthesis is draw-for-draw `degrade` then
    `tokenize` on the paper's rate grid."""
    want = reference_token_pairs(trips[:4], vocab, RATES, RATES, seed=7)
    for index, original in enumerate(trips[:4]):
        pairs = synthesize_token_pairs(original, vocab, RATES, RATES,
                                       pair_rng(7, index))
        assert_pairs_equal(pairs, want[16 * index:16 * (index + 1)])


def test_same_seed_same_stream_different_seed_differs(trips, vocab):
    first = list(make_pipeline(trips[:6], vocab, seed=1).token_pairs())
    second = list(make_pipeline(trips[:6], vocab, seed=1).token_pairs())
    other = list(make_pipeline(trips[:6], vocab, seed=2).token_pairs())
    for (a, _), (b, _) in zip(first, second):
        np.testing.assert_array_equal(a, b)
    assert any(len(a) != len(c) or (a != c).any()
               for (a, _), (c, _) in zip(first, other))


# ----------------------------------------------------------------------
# Bucketing
# ----------------------------------------------------------------------
def pad_overhead(batches):
    real = sum(float(b.src_mask.sum() + b.tgt_mask.sum()) for b in batches)
    total = sum(float(b.src_mask.size + b.tgt_mask.size) for b in batches)
    return (total - real) / real


def test_bucketing_reduces_padding_overhead(trips, vocab):
    pipeline = make_pipeline(trips, vocab, bucket_batches=8)
    bucketed = list(pipeline.batches(16, np.random.default_rng(0)))
    # Shuffle-only baseline: the same pairs in random order, no length sort.
    pairs = list(pipeline.token_pairs())
    order = np.random.default_rng(0).permutation(len(pairs))
    shuffled = [make_batch([pairs[i][0] for i in chunk],
                           [pairs[i][1] for i in chunk])
                for chunk in (order[i:i + 16]
                              for i in range(0, len(order), 16))]
    assert pad_overhead(bucketed) < pad_overhead(shuffled)


def test_batches_cover_every_pair_exactly_once(trips, vocab):
    pipeline = make_pipeline(trips[:10], vocab, bucket_batches=2)
    batches = list(pipeline.batches(8, np.random.default_rng(3)))
    assert sum(batch.size for batch in batches) == len(pipeline) == 160
    # Every source sequence of the stream appears in some batch column.
    stream_lengths = sorted(len(src) for src, _ in pipeline.token_pairs())
    batch_lengths = sorted(
        int(batch.src_mask[:, j].sum())
        for batch in batches for j in range(batch.size))
    assert batch_lengths == stream_lengths


# ----------------------------------------------------------------------
# Streaming machinery
# ----------------------------------------------------------------------
def test_prefetcher_yields_all_items_in_order():
    items = list(range(57))
    prefetcher = Prefetcher(iter(items), depth=2)
    try:
        assert list(prefetcher) == items
    finally:
        prefetcher.close()


def test_prefetcher_propagates_source_exception():
    def exploding():
        yield 1
        raise ValueError("boom")

    prefetcher = Prefetcher(exploding(), depth=2)
    try:
        assert next(prefetcher) == 1
        with pytest.raises(ValueError, match="boom"):
            for _ in prefetcher:
                pass
    finally:
        prefetcher.close()


def prefetch_threads():
    return {thread for thread in threading.enumerate()
            if thread.name == "repro-data-prefetch"}


def test_early_break_closes_prefetch_thread(trips, vocab):
    """Abandoning iteration mid-epoch (Trainer.evaluate's max_batches
    break) must stop the prefetch thread, not leak or deadlock."""
    pipeline = make_pipeline(trips, vocab)
    before = prefetch_threads()
    for _ in range(3):
        iterator = pipeline.batches(8, np.random.default_rng(0))
        next(iterator)
        assert prefetch_threads() - before
        iterator.close()
        assert not prefetch_threads() - before
    # A full pass afterwards still works and is complete.
    batches = list(pipeline.batches(16, np.random.default_rng(0)))
    assert sum(batch.size for batch in batches) == len(pipeline)


def test_invalid_configuration_rejected(trips, vocab):
    for kwargs in ({"bucket_batches": 0}, {"dropping_rates": ()},
                   {"distorting_rates": ()}):
        with pytest.raises(ValueError):
            make_pipeline(trips[:4], vocab, **kwargs)
    # Rates `degrade` rejects are rejected up front, with its message.
    for r1, r2 in ((1.0, 0.0), (-0.5, 0.0), (0.0, 2.0), (0.0, -1.0)):
        with pytest.raises(ValueError) as from_degrade:
            degrade(trips[0], r1, r2)
        with pytest.raises(ValueError) as from_pipeline:
            make_pipeline(trips[:4], vocab, dropping_rates=(0.0, r1),
                          distorting_rates=(r2, 0.2))
        assert str(from_pipeline.value) == str(from_degrade.value)
    with pytest.raises(ValueError):
        next(make_pipeline(trips[:4], vocab).batches(0))


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_telemetry_metrics_recorded(trips, vocab):
    registry = MetricsRegistry()
    pipeline = make_pipeline(trips[:16], vocab, registry=registry)
    batches = list(pipeline.batches(16, np.random.default_rng(0)))
    assert registry.counter("data.pairs").value == len(pipeline)
    assert registry.counter("data.batches").value == len(batches)
    assert registry.counter("data.tokens.real").value > 0
    assert registry.histogram("data.worker.produce_s").count == 16
    real = registry.counter("data.tokens.real").value
    pad = registry.counter("data.tokens.pad").value
    want_real = sum(float(b.src_mask.sum() + b.tgt_mask.sum())
                    for b in batches)
    want_total = sum(float(b.src_mask.size + b.tgt_mask.size)
                     for b in batches)
    assert real == pytest.approx(want_real)
    assert real + pad == pytest.approx(want_total)


# ----------------------------------------------------------------------
# Trainer integration
# ----------------------------------------------------------------------
def test_trainer_fits_from_pipeline(trips, vocab):
    from repro.core import (EncoderDecoder, LossSpec, ModelConfig, Trainer,
                            TrainingConfig)
    pipeline = make_pipeline(trips[:8], vocab)
    validation = make_pipeline(trips[8:12], vocab, seed=99).materialize()
    model = EncoderDecoder(ModelConfig(vocab.size, 16, 16, num_layers=1,
                                       dropout=0.0, seed=0))
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=2,
                                     patience=10))
    result = trainer.fit(pipeline, validation=validation)
    assert result.epochs_run == 2
    assert result.steps == 2 * len(list(pipeline.batches(16)))
    assert np.isfinite(result.train_losses).all()
