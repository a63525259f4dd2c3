"""Seq2seq encoder-decoder model mechanics."""

import numpy as np
import pytest

from repro.core import EncoderDecoder, ModelConfig
from repro.data import TrainingDataPipeline
from repro.spatial import BOS, EOS


@pytest.fixture(scope="module")
def model(vocab):
    return EncoderDecoder(ModelConfig(vocab_size=vocab.size,
                                      embedding_size=16, hidden_size=16,
                                      num_layers=2, dropout=0.0, seed=0))


@pytest.fixture(scope="module")
def batch(vocab, trips):
    dataset = TrainingDataPipeline(trips[:4], vocab, (0.0, 0.4), (0.0,),
                                   seed=0).materialize()
    return next(dataset.batches(8, shuffle=False))


def test_encode_shapes(model, batch):
    v, state = model.encode(batch.src, batch.src_mask)
    assert v.shape == (batch.size, 16)
    assert len(state) == 2
    assert [len(layer) for layer in state] == [1, 1]    # (h,) per GRU layer
    assert state[0][0].shape == (batch.size, 16)


def test_representation_uses_top_layer_final_state(model, batch):
    v, state = model.encode(batch.src, batch.src_mask)
    np.testing.assert_array_equal(v.numpy(), state[-1][0].numpy())


def test_representations_distinguish_inputs(model, batch):
    v = model.represent(batch.src, batch.src_mask)
    pairwise = np.sqrt(((v[:, None] - v[None, :]) ** 2).sum(axis=2))
    # Different trajectories map to different vectors even untrained.
    off_diag = pairwise[~np.eye(len(v), dtype=bool)]
    assert off_diag.min() > 0


def test_represent_is_deterministic_and_restores_mode(model, batch):
    model.train()
    a = model.represent(batch.src, batch.src_mask)
    b = model.represent(batch.src, batch.src_mask)
    np.testing.assert_array_equal(a, b)
    assert model.training  # mode restored


def test_decode_output_shape(model, batch):
    _, state = model.encode(batch.src, batch.src_mask)
    hidden = model.decode(batch.tgt_in, state, batch.tgt_mask)
    t_steps = batch.tgt_in.shape[0]
    assert hidden.shape == (t_steps * batch.size, 16)


def test_logits_shape(model, batch, vocab):
    _, state = model.encode(batch.src, batch.src_mask)
    hidden = model.decode(batch.tgt_in, state, batch.tgt_mask)
    logits = model.logits(hidden)
    assert logits.shape == (hidden.shape[0], vocab.size)


def test_greedy_decode_terminates_and_excludes_specials(model, batch):
    decoded = model.greedy_decode(batch.src, batch.src_mask, max_len=20)
    assert len(decoded) == batch.size
    for tokens in decoded:
        assert len(tokens) <= 20
        assert not np.isin(tokens, [BOS, EOS]).any()


def test_encoder_mask_padding_invariance(model, vocab):
    """Extra padding must not change a sequence's representation."""
    seq = np.array([5, 6, 7, 8])
    short = seq.reshape(-1, 1)
    short_mask = np.ones((4, 1))
    padded = np.concatenate([seq, [0, 0, 0]]).reshape(-1, 1)
    padded_mask = np.concatenate([np.ones(4), np.zeros(3)]).reshape(-1, 1)
    a = model.represent(short, short_mask)
    b = model.represent(padded, padded_mask)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_parameter_count_scales_with_config(vocab):
    small = EncoderDecoder(ModelConfig(vocab.size, 8, 8, num_layers=1))
    big = EncoderDecoder(ModelConfig(vocab.size, 32, 32, num_layers=3))
    assert big.num_parameters() > small.num_parameters()


def test_beam_decode_terminates_and_excludes_specials(model, batch):
    decoded = model.beam_decode(batch.src, batch.src_mask, beam_width=3,
                                max_len=15)
    assert len(decoded) == batch.size
    for tokens in decoded:
        assert len(tokens) <= 15
        assert not np.isin(tokens, [BOS, EOS]).any()


def test_beam_width_one_matches_greedy(model, batch):
    """A width-1 beam is greedy search (same argmax path)."""
    greedy = model.greedy_decode(batch.src, batch.src_mask, max_len=12)
    beam = model.beam_decode(batch.src, batch.src_mask, beam_width=1,
                             max_len=12)
    for g, b in zip(greedy, beam):
        np.testing.assert_array_equal(g, b)


def test_beam_decode_rejects_bad_width(model, batch):
    import pytest as _pytest
    with _pytest.raises(ValueError):
        model.beam_decode(batch.src, batch.src_mask, beam_width=0)


def test_beam_decode_works_with_lstm(vocab):
    lstm_model = EncoderDecoder(ModelConfig(vocab.size, 12, 12, num_layers=1,
                                            dropout=0.0, rnn_type="lstm",
                                            seed=0))
    src = np.array([[5, 6], [7, 8]])
    mask = np.ones((2, 2))
    decoded = lstm_model.beam_decode(src, mask, beam_width=2, max_len=8)
    assert len(decoded) == 2


@pytest.fixture(scope="module")
def tiny_vocab_model():
    """A 12-cell vocabulary: beam widths can reach and pass |V|."""
    return EncoderDecoder(ModelConfig(vocab_size=12, embedding_size=8,
                                      hidden_size=8, num_layers=2,
                                      dropout=0.0, seed=4))


def test_beam_width_at_or_above_vocabulary_size(tiny_vocab_model):
    model = tiny_vocab_model
    src = np.array([[5, 6, 9], [7, 8, 0], [4, 0, 0]])
    mask = (np.arange(3)[:, None] < np.array([3, 2, 1])).astype(float)
    size = model.config.vocab_size
    reference = model.beam_decode(src, mask, beam_width=size - 1, max_len=10)
    for width in (size, size + 5):
        decoded = model.beam_decode(src, mask, beam_width=width, max_len=10)
        assert len(decoded) == src.shape[1]
        for tokens, want in zip(decoded, reference):
            assert not np.isin(tokens, [BOS, EOS]).any()
            np.testing.assert_array_equal(tokens, want)


@pytest.mark.parametrize("max_len", [0, -3])
def test_greedy_decode_rejects_max_len_below_one(model, batch, max_len):
    with pytest.raises(ValueError, match=f"max_len must be >= 1, got {max_len}"):
        model.greedy_decode(batch.src, batch.src_mask, max_len=max_len)


@pytest.mark.parametrize("max_len", [0, -3])
def test_beam_decode_rejects_max_len_below_one(model, batch, max_len):
    with pytest.raises(ValueError, match=f"max_len must be >= 1, got {max_len}"):
        model.beam_decode(batch.src, batch.src_mask, beam_width=2,
                          max_len=max_len)


#: ``state_dict()`` of a 2-layer ``EncoderDecoder`` (vocabulary 20,
#: embedding 5, hidden 6), written out literally so that a refactor of the
#: recurrent stack cannot rename or reshape a checkpoint entry unnoticed.
CHECKPOINT_FORMAT = {
    "gru": {
        "embedding.weight": (20, 5),
        "encoder.cells.0.w_ih": (5, 18),
        "encoder.cells.0.w_hh": (6, 18),
        "encoder.cells.0.b_ih": (18,),
        "encoder.cells.0.b_hh": (18,),
        "encoder.cells.1.w_ih": (6, 18),
        "encoder.cells.1.w_hh": (6, 18),
        "encoder.cells.1.b_ih": (18,),
        "encoder.cells.1.b_hh": (18,),
        "decoder.cells.0.w_ih": (5, 18),
        "decoder.cells.0.w_hh": (6, 18),
        "decoder.cells.0.b_ih": (18,),
        "decoder.cells.0.b_hh": (18,),
        "decoder.cells.1.w_ih": (6, 18),
        "decoder.cells.1.w_hh": (6, 18),
        "decoder.cells.1.b_ih": (18,),
        "decoder.cells.1.b_hh": (18,),
        "proj_weight": (20, 6),
        "proj_bias": (20,),
    },
    "lstm": {
        "embedding.weight": (20, 5),
        "encoder.cells.0.w_ih": (5, 24),
        "encoder.cells.0.w_hh": (6, 24),
        "encoder.cells.0.b_ih": (24,),
        "encoder.cells.0.b_hh": (24,),
        "encoder.cells.1.w_ih": (6, 24),
        "encoder.cells.1.w_hh": (6, 24),
        "encoder.cells.1.b_ih": (24,),
        "encoder.cells.1.b_hh": (24,),
        "decoder.cells.0.w_ih": (5, 24),
        "decoder.cells.0.w_hh": (6, 24),
        "decoder.cells.0.b_ih": (24,),
        "decoder.cells.0.b_hh": (24,),
        "decoder.cells.1.w_ih": (6, 24),
        "decoder.cells.1.w_hh": (6, 24),
        "decoder.cells.1.b_ih": (24,),
        "decoder.cells.1.b_hh": (24,),
        "proj_weight": (20, 6),
        "proj_bias": (20,),
    },
}


@pytest.mark.parametrize("rnn_type, gates", [("gru", 3), ("lstm", 4)])
def test_state_dict_layout_is_stable(rnn_type, gates):
    """Checkpoints address each layer's weights as ``<rnn>.cells.<i>.<name>``
    with exactly the keys and shapes of the literal table above; every
    recurrent weight is ``gates`` hidden-size blocks wide."""
    model = EncoderDecoder(ModelConfig(vocab_size=20, embedding_size=5,
                                       hidden_size=6, num_layers=2,
                                       rnn_type=rnn_type))
    got = {key: value.shape for key, value in model.state_dict().items()}
    assert got == CHECKPOINT_FORMAT[rnn_type]
    assert len(got) == 19
    assert all(shape[-1] == gates * 6
               for key, shape in got.items() if ".cells." in key)
