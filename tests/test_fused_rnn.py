"""Sequence-fused RNN kernels: parity with step-wise oracles, BPTT gradients.

The fused kernels (:func:`gru_layer_forward`, :func:`lstm_layer_forward`)
hand-derive backward-through-time instead of relying on the tape, so these
tests pin them twice over: forward/backward parity against the step-wise
GRU/LSTM of ``tests/oracles.py`` — built from autograd primitives, so its
gradients come from the tape — and central-difference numeric gradients
for every input and parameter.  The decoders are pinned to per-column,
token-at-a-time decodes through the same oracle.
"""

import numpy as np
import pytest

from repro.core.encoder_decoder import EncoderDecoder, ModelConfig
from repro.nn import GRU, LSTM, Tensor
from repro.nn.lstm import lstm_layer_forward
from repro.nn.rnn import gru_layer_forward

from . import oracles
from .test_tensor import check_gradients

T_STEPS, BATCH, IN_SIZE, HIDDEN = 5, 3, 4, 6

#: Ragged lengths 5/3/1 — exercises carried state on padded steps.
MASK = np.array([[1, 1, 1],
                 [1, 1, 0],
                 [1, 1, 0],
                 [1, 0, 0],
                 [1, 0, 0]], dtype=float)


def _params(rng, in_size=IN_SIZE, hidden=HIDDEN, gates=3):
    return (rng.standard_normal((in_size, gates * hidden)) * 0.4,
            rng.standard_normal((hidden, gates * hidden)) * 0.4,
            rng.standard_normal(gates * hidden) * 0.1,
            rng.standard_normal(gates * hidden) * 0.1)


# ---------------------------------------------------------------------------
# Fused layer kernels vs. the step-wise autograd oracle
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("mask", [None, MASK], ids=["dense", "ragged"])
@pytest.mark.parametrize("with_h0", [False, True], ids=["zero-h0", "h0"])
def test_gru_fused_matches_stepwise_forward_and_backward(mask, with_h0):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((T_STEPS, BATCH, IN_SIZE))
    h0 = rng.standard_normal((BATCH, HIDDEN)) if with_h0 else None
    arrays = _params(rng)

    def run(layer_kernel):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        xs = Tensor(x.copy(), requires_grad=True)
        hs = Tensor(h0.copy(), requires_grad=True) if with_h0 else None
        if layer_kernel:
            out_seq, h_last = gru_layer_forward(xs, hs, *params, mask=mask)
            out = out_seq
        else:
            out, h_last = oracles.gru_layer(xs, hs, *params, mask=mask)
        ((out * out).sum() + (h_last * h_last).sum()).backward()
        grads = [p.grad for p in params] + [xs.grad]
        if hs is not None:
            grads.append(hs.grad)
        return out.numpy(), h_last.numpy(), grads

    fused_out, fused_h, fused_grads = run(True)
    ref_out, ref_h, ref_grads = run(False)
    np.testing.assert_allclose(fused_out, ref_out, atol=1e-12)
    np.testing.assert_allclose(fused_h, ref_h, atol=1e-12)
    for got, want in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("mask", [None, MASK], ids=["dense", "ragged"])
def test_lstm_fused_matches_stepwise_forward_and_backward(mask):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((T_STEPS, BATCH, IN_SIZE))
    h0 = rng.standard_normal((BATCH, HIDDEN))
    c0 = rng.standard_normal((BATCH, HIDDEN))
    arrays = _params(rng, gates=4)

    def run(layer_kernel):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        xs = Tensor(x.copy(), requires_grad=True)
        hs = Tensor(h0.copy(), requires_grad=True)
        cs = Tensor(c0.copy(), requires_grad=True)
        if layer_kernel:
            out, h_last, c_last = lstm_layer_forward(xs, hs, cs, *params,
                                                     mask=mask)
        else:
            out, h_last, c_last = oracles.lstm_layer(xs, hs, cs, *params,
                                                     mask=mask)
        ((out * out).sum() + (h_last * h_last).sum()
         + (c_last * c_last).sum()).backward()
        grads = [p.grad for p in params] + [xs.grad, hs.grad, cs.grad]
        return out.numpy(), h_last.numpy(), c_last.numpy(), grads

    fused = run(True)
    ref = run(False)
    for got, want in zip(fused[:3], ref[:3]):
        np.testing.assert_allclose(got, want, atol=1e-12)
    for got, want in zip(fused[3], ref[3]):
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# Numeric gradients pin the hand-derived BPTT closures
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_tensors")
def test_gru_layer_gradients_numerically_correct():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 2, 3)) * 0.5
    h0 = rng.standard_normal((2, 5)) * 0.5
    arrays = _params(rng, in_size=3, hidden=5)
    mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=float)

    def build(xs, hs, *params):
        out_seq, h_last = gru_layer_forward(xs, hs, *params, mask=mask)
        return (out_seq * out_seq).sum() + (h_last * h_last).sum()

    check_gradients(build, x, h0, *arrays, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_lstm_layer_gradients_numerically_correct():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 2, 3)) * 0.5
    h0 = rng.standard_normal((2, 5)) * 0.5
    c0 = rng.standard_normal((2, 5)) * 0.5
    arrays = _params(rng, in_size=3, hidden=5, gates=4)
    mask = np.array([[1, 1], [1, 1], [1, 0], [1, 0]], dtype=float)

    def build(xs, hs, cs, *params):
        out_seq, h_last, c_last = lstm_layer_forward(xs, hs, cs, *params,
                                                     mask=mask)
        return ((out_seq * out_seq).sum() + (h_last * h_last).sum()
                + (c_last * c_last).sum())

    check_gradients(build, x, h0, c0, *arrays, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_lstm_c_last_only_gradient():
    """The staged c_last grad must flow even when out_seq is unused."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 2, 3)) * 0.5
    c0 = rng.standard_normal((2, 4)) * 0.5
    arrays = _params(rng, in_size=3, hidden=4, gates=4)

    def build(xs, cs, *params):
        _, _, c_last = lstm_layer_forward(
            xs, Tensor(np.zeros((2, 4))), cs, *params)
        return (c_last * c_last).sum()

    check_gradients(build, x, c0, *arrays, tol=1e-6)


@pytest.mark.usefixtures("float64_tensors")
def test_fused_stack_gradients_with_dropout():
    """Multi-layer GRU.forward (dropout active) against numeric grads.

    Rebuilding the module with a fixed seed inside ``build`` makes the
    dropout masks identical across numeric-gradient evaluations.
    """
    rng = np.random.default_rng(19)
    x = rng.standard_normal((3, 2, 3)) * 0.5

    def build(xs):
        gru = GRU(3, 4, num_layers=2, dropout=0.3,
                  rng=np.random.default_rng(0))
        gru.dropout._rng = np.random.default_rng(99)
        out_seq, state = gru(xs)
        h_top = state[-1][0]
        return (out_seq * out_seq).sum() + (h_top * h_top).sum()

    check_gradients(build, x, tol=1e-6)


# ---------------------------------------------------------------------------
# Fused (T, B) embedding gather
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("float64_tensors")
def test_fused_embedding_gather_accumulates_repeated_tokens():
    from repro.nn.layers import Embedding
    emb = Embedding(6, 3, rng=np.random.default_rng(0))
    tokens = np.array([[1, 4, 1], [1, 2, 2]])  # token 1 appears 3x

    out = emb(tokens)
    assert out.shape == (2, 3, 3)
    upstream = np.arange(out.data.size, dtype=float).reshape(out.shape)
    out.backward(upstream)

    expected = np.zeros((6, 3))
    np.add.at(expected, tokens.reshape(-1), upstream.reshape(-1, 3))
    np.testing.assert_allclose(emb.weight.grad, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Whole stacks vs. the oracle: forward and every gradient
# ---------------------------------------------------------------------------

def _ragged_mask(t_steps):
    """Ragged lengths; at T = 1 the middle column is all padding."""
    if t_steps == 1:
        return np.array([[1.0, 0.0, 1.0]])
    return MASK[:t_steps]


def _stack_case(rnn_cls, parts, num_layers, t_steps, with_h0, seed):
    rnn = rnn_cls(IN_SIZE, HIDDEN, num_layers=num_layers,
                  rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in rnn.parameters():   # move biases off their zero/one init
        p.data += 0.1 * rng.standard_normal(p.shape)
    x = rng.standard_normal((t_steps, BATCH, IN_SIZE))
    h0 = ([rng.standard_normal((parts, BATCH, HIDDEN))
           for _ in range(num_layers)] if with_h0 else None)
    # Random readout weights make every output element's gradient distinct.
    readout = rng.standard_normal((t_steps, BATCH, HIDDEN))
    final = rng.standard_normal((num_layers, parts, BATCH, HIDDEN))
    return rnn, x, h0, readout, final


def _run_stack(rnn, x, h0, mask, readout, final, forward):
    for p in rnn.parameters():
        p.grad = None
    xs = Tensor(x.copy(), requires_grad=True)
    initial = None
    if h0 is not None:
        initial = [tuple(Tensor(part.copy(), requires_grad=True)
                         for part in layer) for layer in h0]
    leaves = [xs] + [part for layer in initial or () for part in layer]
    out, state = forward(xs, initial, mask)
    loss = (out * Tensor(readout)).sum()
    for layer, layer_state in enumerate(state):
        for p, part in enumerate(layer_state):
            loss = loss + (part * Tensor(final[layer, p])).sum()
    loss.backward()
    finals = [part.numpy().copy() for layer_state in state
              for part in layer_state]
    grads = [leaf.grad for leaf in leaves] + [p.grad for p in rnn.parameters()]
    return out.numpy().copy(), finals, grads


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("rnn_cls, parts", [(GRU, 1), (LSTM, 2)],
                         ids=["gru", "lstm"])
@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("t_steps", [1, T_STEPS], ids=["T1", "T5"])
@pytest.mark.parametrize("with_h0", [False, True], ids=["zero-h0", "h0"])
@pytest.mark.parametrize("ragged", [False, True], ids=["dense", "ragged"])
def test_stack_matches_stepwise_oracle(rnn_cls, parts, num_layers, t_steps,
                                       with_h0, ragged):
    """GRU/LSTM.forward == the autograd-chain oracle: outputs, finals, grads."""
    rnn, x, h0, readout, final = _stack_case(rnn_cls, parts, num_layers,
                                             t_steps, with_h0,
                                             seed=41 + num_layers)
    mask = _ragged_mask(t_steps) if ragged else None

    got = _run_stack(rnn, x, h0, mask, readout, final,
                     lambda xs, h, m: rnn(xs, h0=h, mask=m))
    want = _run_stack(rnn, x, h0, mask, readout, final,
                      lambda xs, h, m: oracles.rnn_stack(rnn, xs, h0=h, mask=m))
    np.testing.assert_allclose(got[0], want[0], rtol=1e-10, atol=1e-12)
    for g, w in zip(got[1], want[1]):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)
    assert len(got[2]) == len(want[2])
    for g, w in zip(got[2], want[2]):
        assert g is not None and w is not None
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# EncoderDecoder vs. the oracle: encode/decode, greedy and beam decoding
# ---------------------------------------------------------------------------

def _toy_model(rnn_type, vocab=12):
    return EncoderDecoder(ModelConfig(
        vocab_size=vocab, embedding_size=5, hidden_size=6, num_layers=2,
        dropout=0.1, rnn_type=rnn_type, seed=2))


def _toy_batch(rng, vocab=12, t_steps=6, batch=3):
    lengths = [t_steps, t_steps - 2, t_steps - 4]
    src = np.zeros((t_steps, batch), dtype=np.int64)
    mask = np.zeros((t_steps, batch))
    for b, length in enumerate(lengths):
        src[:length, b] = rng.integers(4, vocab, size=length)
        mask[:length, b] = 1.0
    return src, mask


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_encoder_decoder_fused_matches_stepwise(rnn_type):
    model = _toy_model(rnn_type)
    model.eval()  # the oracle applies no dropout
    rng = np.random.default_rng(23)
    src, src_mask = _toy_batch(rng)

    v, state = model.encode(src, src_mask)
    hidden = model.decode(src, state, src_mask)

    _, ref_state = oracles.rnn_stack(model.encoder, model.embedding(src),
                                     mask=src_mask)
    ref_out, _ = oracles.rnn_stack(model.decoder, model.embedding(src),
                                   h0=ref_state, mask=src_mask)
    np.testing.assert_allclose(v.numpy(), ref_state[-1][0].numpy(),
                               atol=1e-12)
    np.testing.assert_allclose(hidden.numpy(),
                               ref_out.numpy().reshape(hidden.shape),
                               atol=1e-12)


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_vectorized_greedy_decode_matches_per_column_loop(rnn_type):
    model = _toy_model(rnn_type)
    rng = np.random.default_rng(29)
    src, src_mask = _toy_batch(rng)

    got = model.greedy_decode(src, src_mask, max_len=8)

    model.eval()
    expected = oracles.greedy_decode(model, src, src_mask, max_len=8)
    assert len(got) == len(expected)
    for got_seq, want_seq in zip(got, expected):
        np.testing.assert_array_equal(got_seq, want_seq)


@pytest.mark.usefixtures("float64_tensors")
@pytest.mark.parametrize("beam_width", [1, 3, 11, 12])
@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_beam_decode_matches_per_column_oracle(rnn_type, beam_width):
    """Top-(width+1) pruning per beam finds what full expansion finds."""
    model = _toy_model(rnn_type)
    rng = np.random.default_rng(37)
    src, src_mask = _toy_batch(rng)

    got = model.beam_decode(src, src_mask, beam_width=beam_width, max_len=6)

    model.eval()
    expected = oracles.beam_decode(model, src, src_mask, beam_width, max_len=6)
    assert len(got) == len(expected)
    for got_seq, want_seq in zip(got, expected):
        np.testing.assert_array_equal(got_seq, want_seq)


@pytest.mark.parametrize("rnn_type", ["gru", "lstm"])
def test_fused_training_step_runs_with_dropout(rnn_type):
    """Smoke: the default (fused) path trains with dropout active."""
    from repro.core.losses import LossSpec, sequence_loss
    model = _toy_model(rnn_type)
    model.train()
    rng = np.random.default_rng(31)
    src, src_mask = _toy_batch(rng)
    loss = None
    _, state = model.encode(src, src_mask)
    hidden = model.decode(src, state, src_mask)
    loss = sequence_loss(model, hidden, src, src_mask, None, LossSpec(kind="L1"))
    loss.backward()
    for p in model.parameters():
        assert p.grad is not None
        assert np.isfinite(p.grad).all()
