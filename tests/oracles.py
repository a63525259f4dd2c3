"""Reference implementations that the fast paths in ``src/`` are tested against.

Each oracle is the plainest correct form of its fast path: the loss and
the step-wise GRU/LSTM are built from the generic autograd ops so that
their gradients come from the tape, the decoders run one batch column
and one token at a time, the trajectory distances are double-loop
dynamic programs over one pair, the k-NN and LSH references are
per-query numpy scans, and the training pairs come one at a time from
the public ``degrade`` and ``tokenize``.  Differential tests compare
the fast path with these.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data import Trajectory, degrade, pair_rng, tokenize
from repro.nn import GRUCell, LSTMCell, Tensor, stack, where_const
from repro.nn.functional import logsumexp
from repro.spatial import BOS, EOS, CellVocabulary


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


# ---------------------------------------------------------------------------
# Step-wise recurrent networks
# ---------------------------------------------------------------------------

def gru_step(x: Tensor, h: Tensor, w_ih: Tensor, w_hh: Tensor,
             b_ih: Tensor, b_hh: Tensor) -> Tensor:
    """One GRU step, gate by gate (columns ``[reset | update | new]``)."""
    hidden = h.shape[1]
    gi = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    reset = (gi[:, :hidden] + gh[:, :hidden]).sigmoid()
    update = (gi[:, hidden:2 * hidden] + gh[:, hidden:2 * hidden]).sigmoid()
    candidate = (gi[:, 2 * hidden:] + reset * gh[:, 2 * hidden:]).tanh()
    return (1.0 - update) * candidate + update * h


def lstm_step(x: Tensor, h: Tensor, c: Tensor, w_ih: Tensor, w_hh: Tensor,
              b_ih: Tensor, b_hh: Tensor) -> Tuple[Tensor, Tensor]:
    """One LSTM step, gate by gate (columns ``[i | f | g | o]``)."""
    hidden = h.shape[1]
    gates = x @ w_ih + b_ih + h @ w_hh + b_hh
    i_gate = gates[:, :hidden].sigmoid()
    f_gate = gates[:, hidden:2 * hidden].sigmoid()
    g_gate = gates[:, 2 * hidden:3 * hidden].tanh()
    o_gate = gates[:, 3 * hidden:].sigmoid()
    new_c = f_gate * c + i_gate * g_gate
    return o_gate * new_c.tanh(), new_c


def _carry(mask: Optional[np.ndarray], t: int, new: Tensor, old: Tensor) -> Tensor:
    """Keep ``old`` in the batch columns that step ``t`` pads."""
    if mask is None:
        return new
    real = np.asarray(mask[t], dtype=bool).reshape(-1, 1)
    return new if real.all() else where_const(real, new, old)


def _zeros_like_state(x_seq: Tensor, hidden: int) -> Tensor:
    return Tensor(np.zeros((x_seq.shape[1], hidden), dtype=x_seq.data.dtype))


def gru_layer(x_seq: Tensor, h0: Optional[Tensor], w_ih: Tensor, w_hh: Tensor,
              b_ih: Tensor, b_hh: Tensor, mask: Optional[np.ndarray] = None
              ) -> Tuple[Tensor, Tensor]:
    """One GRU layer over ``(T, B, in)``, one step at a time: ``(out_seq, h_last)``."""
    h = h0 if h0 is not None else _zeros_like_state(x_seq, w_hh.shape[0])
    outputs = []
    for t in range(x_seq.shape[0]):
        h = _carry(mask, t, gru_step(x_seq[t], h, w_ih, w_hh, b_ih, b_hh), h)
        outputs.append(h)
    return stack(outputs, axis=0), h


def lstm_layer(x_seq: Tensor, h0: Optional[Tensor], c0: Optional[Tensor],
               w_ih: Tensor, w_hh: Tensor, b_ih: Tensor, b_hh: Tensor,
               mask: Optional[np.ndarray] = None
               ) -> Tuple[Tensor, Tensor, Tensor]:
    """One LSTM layer over ``(T, B, in)``, one step at a time: ``(out_seq, h_last, c_last)``."""
    hidden = w_hh.shape[0]
    h = h0 if h0 is not None else _zeros_like_state(x_seq, hidden)
    c = c0 if c0 is not None else _zeros_like_state(x_seq, hidden)
    outputs = []
    for t in range(x_seq.shape[0]):
        new_h, new_c = lstm_step(x_seq[t], h, c, w_ih, w_hh, b_ih, b_hh)
        h, c = _carry(mask, t, new_h, h), _carry(mask, t, new_c, c)
        outputs.append(h)
    return stack(outputs, axis=0), h, c


def _gru_cell(cell, x_seq, state, mask):
    h0, = state or (None,)
    out_seq, h = gru_layer(x_seq, h0, cell.w_ih, cell.w_hh, cell.b_ih,
                           cell.b_hh, mask=mask)
    return out_seq, (h,)


def _lstm_cell(cell, x_seq, state, mask):
    h0, c0 = state or (None, None)
    out_seq, h, c = lstm_layer(x_seq, h0, c0, cell.w_ih, cell.w_hh, cell.b_ih,
                               cell.b_hh, mask=mask)
    return out_seq, (h, c)


#: The step-wise oracle of each cell's ``forward(x_seq, state, mask)``.
CELL_ORACLES = {GRUCell: _gru_cell, LSTMCell: _lstm_cell}


def rnn_stack(rnn, x_seq: Tensor, h0: Optional[list] = None,
              mask: Optional[np.ndarray] = None) -> Tuple[Tensor, list]:
    """A ``GRU`` or ``LSTM`` module's forward, layer by layer and step by step.

    Uses the module's weights and state layout (one tuple per layer, ``h``
    first; ``None`` for zeros) and returns ``(out_seq, state)`` like the
    module does.  Dropout is not applied: compare in eval mode or with
    ``dropout=0``.
    """
    state = list(h0) if h0 is not None else [None] * len(rnn.cells)
    layer_input = x_seq
    for layer, cell in enumerate(rnn.cells):
        layer_input, state[layer] = CELL_ORACLES[type(cell)](
            cell, layer_input, state[layer], mask)
    return layer_input, state


# ---------------------------------------------------------------------------
# Decoding, one batch column and one token at a time
# ---------------------------------------------------------------------------

def _column_state(model, src: np.ndarray, src_mask: np.ndarray, column: int):
    """Encoder state of one batch column, trimmed to its real length."""
    length = int(np.asarray(src_mask[:, column]).sum())
    tokens = src[:length, column:column + 1]
    _, state = rnn_stack(model.encoder, model.embedding(tokens))
    return state


def _next_log_probs(model, token: int, state):
    """Decoder step from ``token``: ``(log-probabilities over cells, state)``."""
    _, state = rnn_stack(model.decoder, model.embedding(np.array([[token]])),
                         h0=state)
    scores = (model.proj_weight.numpy() @ state[-1][0].numpy()[0]
              + model.proj_bias.numpy())
    shifted = scores - scores.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    log_probs[BOS] = -np.inf
    return log_probs, state


def greedy_decode(model, src: np.ndarray, src_mask: np.ndarray,
                  max_len: int) -> List[np.ndarray]:
    """Greedy route recovery: the most likely next cell until EOS or ``max_len``."""
    results = []
    for column in range(src.shape[1]):
        state = _column_state(model, src, src_mask, column)
        tokens, token = [], BOS
        for _ in range(max_len):
            log_probs, state = _next_log_probs(model, token, state)
            token = int(np.argmax(log_probs))
            if token == EOS:
                break
            tokens.append(token)
        results.append(np.array(tokens, dtype=np.int64))
    return results


def beam_decode(model, src: np.ndarray, src_mask: np.ndarray,
                beam_width: int, max_len: int) -> List[np.ndarray]:
    """Beam search that expands every cell of every beam at every step.

    Of all expansions, best first, an EOS one finishes its route (scored
    by log-probability per token) and the others fill the next beams
    until ``beam_width`` are kept.  The best finished route wins; when
    none finished within ``max_len``, the best live beam does.
    """
    results = []
    for column in range(src.shape[1]):
        beams = [(0.0, [], _column_state(model, src, src_mask, column))]
        finished = []
        for _ in range(max_len):
            expansions = []
            for score, tokens, state in beams:
                log_probs, new_state = _next_log_probs(
                    model, tokens[-1] if tokens else BOS, state)
                for token, log_prob in enumerate(log_probs):
                    expansions.append((score + float(log_prob),
                                       tokens + [token], new_state))
            expansions.sort(key=lambda item: -item[0])
            beams = []
            for score, tokens, state in expansions:
                if len(beams) == beam_width:
                    break
                if tokens[-1] == EOS:
                    finished.append((score / len(tokens), tokens[:-1]))
                else:
                    beams.append((score, tokens, state))
        if not finished:
            finished = [(score / max(len(tokens), 1), tokens)
                        for score, tokens, _ in beams]
        best = max(finished, key=lambda item: item[0])
        results.append(np.array(best[1], dtype=np.int64))
    return results


# ---------------------------------------------------------------------------
# Trajectory distances: plain double-loop dynamic programs for one pair
# ---------------------------------------------------------------------------

def _dist(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sqrt(((p - q) ** 2).sum()))


def _within(p: np.ndarray, q: np.ndarray, epsilon: float) -> bool:
    """EDR/LCSS matching: within ``epsilon`` in every coordinate."""
    return bool((np.abs(p - q) <= epsilon).all())


def dtw(a: Trajectory, b: Trajectory) -> float:
    """Dynamic Time Warping with Euclidean point costs."""
    p, q = a.points, b.points
    n, m = len(p), len(q)
    dp = np.full((n + 1, m + 1), np.inf)
    dp[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i, j] = _dist(p[i - 1], q[j - 1]) + min(
                dp[i - 1, j], dp[i, j - 1], dp[i - 1, j - 1])
    return float(dp[n, m])


def edr(a: Trajectory, b: Trajectory, epsilon: float) -> float:
    """Edit Distance on Real sequences: unit-cost edits, free matches."""
    p, q = a.points, b.points
    n, m = len(p), len(q)
    dp = np.zeros((n + 1, m + 1))
    dp[:, 0] = np.arange(n + 1)
    dp[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dp[i - 1, j - 1] + (
                0.0 if _within(p[i - 1], q[j - 1], epsilon) else 1.0)
            dp[i, j] = min(sub, dp[i - 1, j] + 1.0, dp[i, j - 1] + 1.0)
    return float(dp[n, m])


def lcss(a: Trajectory, b: Trajectory, epsilon: float) -> float:
    """LCSS distance ``1 - LCSS / min(n, m)``."""
    p, q = a.points, b.points
    n, m = len(p), len(q)
    table = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if _within(p[i - 1], q[j - 1], epsilon):
                table[i, j] = table[i - 1, j - 1] + 1
            else:
                table[i, j] = max(table[i - 1, j], table[i, j - 1])
    return 1.0 - int(table[n, m]) / min(n, m)


def erp(a: Trajectory, b: Trajectory, gap_point: np.ndarray) -> float:
    """Edit distance with Real Penalty: gaps cost the distance to ``gap_point``."""
    p, q = a.points, b.points
    n, m = len(p), len(q)
    gap_p = [_dist(point, gap_point) for point in p]
    gap_q = [_dist(point, gap_point) for point in q]
    dp = np.zeros((n + 1, m + 1))
    dp[1:, 0] = np.cumsum(gap_p)
    dp[0, 1:] = np.cumsum(gap_q)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            dp[i, j] = min(dp[i - 1, j - 1] + _dist(p[i - 1], q[j - 1]),
                           dp[i - 1, j] + gap_p[i - 1],
                           dp[i, j - 1] + gap_q[j - 1])
    return float(dp[n, m])


def _project(point: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """``point`` projected onto the segment ``start → end``, clamped to it."""
    seg = end - start
    length_sq = float(seg @ seg)
    if length_sq == 0.0:
        return start
    t = min(max(float((point - start) @ seg) / length_sq, 0.0), 1.0)
    return start + t * seg


def edwp(a: Trajectory, b: Trajectory) -> float:
    """EDwP's finite-state DP over point indices, one cell at a time.

    ``dp[i][j]`` is the cheapest alignment of ``a`` up to point ``i`` with
    ``b`` up to point ``j``.  It comes from ``(i-1, j-1)`` by replacing
    edge pair ``(a_{i-1} a_i, b_{j-1} b_j)``, from ``(i-1, j)`` by matching
    ``a``'s edge against ``b_j`` and the projection of ``a_i`` onto ``b``'s
    next segment, or symmetrically from ``(i, j-1)``.  Costs are the two
    endpoint distances times the covered length; at the last point the
    next segment has zero length, so the projection is the point itself.
    """
    p, q = a.points, b.points
    n, m = len(p), len(q)

    def next_end(points, k):
        return points[min(k + 1, len(points) - 1)]

    dp = np.full((n, m), np.inf)
    dp[0, 0] = 0.0
    for i in range(n):
        for j in range(m):
            best = dp[i, j]
            if i >= 1 and j >= 1:
                best = min(best, dp[i - 1, j - 1] + (
                    _dist(p[i - 1], q[j - 1]) + _dist(p[i], q[j])) * (
                    _dist(p[i - 1], p[i]) + _dist(q[j - 1], q[j])))
            if i >= 1:
                proj = _project(p[i], q[j], next_end(q, j))
                best = min(best, dp[i - 1, j] + (
                    _dist(p[i - 1], q[j]) + _dist(p[i], proj)) * (
                    _dist(p[i - 1], p[i]) + _dist(q[j], proj)))
            if j >= 1:
                proj = _project(q[j], p[i], next_end(p, i))
                best = min(best, dp[i, j - 1] + (
                    _dist(p[i], q[j - 1]) + _dist(q[j], proj)) * (
                    _dist(q[j - 1], q[j]) + _dist(p[i], proj)))
            dp[i, j] = best
    return float(dp[n - 1, m - 1])


# ---------------------------------------------------------------------------
# Vector search
# ---------------------------------------------------------------------------

def knn_scan(vectors: np.ndarray, query: np.ndarray, k: int
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Brute-force k-NN of one query: ``(indices, distances)`` by (distance, index)."""
    dists = np.sqrt(((vectors - np.asarray(query).reshape(1, -1)) ** 2).sum(axis=1))
    order = np.lexsort((np.arange(len(dists)), dists))[:k]
    return order, dists[order]


def lsh_signatures(lsh, vectors: np.ndarray, table: int) -> np.ndarray:
    """Signatures of ``(n, d)`` vectors in one LSH table, one row at a time.

    Bit ``b`` of a row's signature is set when the row lies on the
    positive side of the table's hyperplane ``b``.
    """
    planes = lsh._planes[table]
    signatures = np.zeros(len(vectors), dtype=np.int64)
    for row, vector in enumerate(vectors):
        for bit, plane in enumerate(planes):
            if float(vector @ plane) > 0:
                signatures[row] |= 1 << bit
    return signatures
