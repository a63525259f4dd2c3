"""Ablations for design choices not covered by a paper table (DESIGN.md §5).

* GRU vs LSTM — the paper picks GRU for equal quality at lower cost
  (Section V-B); we train both at identical budgets and compare mean
  rank and wall time.
"""

import numpy as np

from repro.eval import build_setup, format_table, mean_rank

from .conftest import FAST, bench_config, fit_cached, run_once, write_result

TRIPS = 150 if not FAST else 50
EPOCHS = 5 if not FAST else 2
HIDDEN = 32 if not FAST else 16
NUM_QUERIES = 25 if not FAST else 8
FILLERS = 200 if not FAST else 50
RATES = [0.0, 0.5]


def test_ablation_gru_vs_lstm(benchmark, porto_bench):
    train = porto_bench.train[:TRIPS]
    rows, times = {}, {}

    def run():
        for rnn_type in ("gru", "lstm"):
            tag = f"ablate_rnn_{rnn_type}"
            model = fit_cached(tag, bench_config(
                hidden=HIDDEN, epochs=EPOCHS, rnn_type=rnn_type), train)
            if model.last_result:
                times[rnn_type] = model.last_result.wall_time_s
            ranks = []
            for r1 in RATES:
                setup = build_setup(porto_bench.queries_pool,
                                    porto_bench.filler_pool[:FILLERS],
                                    NUM_QUERIES, dropping_rate=r1,
                                    rng=np.random.default_rng(23))
                ranks.append(mean_rank(model, setup))
            rows[rnn_type] = ranks
        return rows

    results = run_once(benchmark, run)
    text = format_table("Ablation: GRU vs LSTM encoder-decoder "
                        "(mean rank at r1=0/0.5)", "r1", RATES, results)
    if times:
        text += "\n\ntraining time (s): " + "  ".join(
            f"{k}={v:.0f}" for k, v in times.items())
    write_result("ablation_rnn_type", text)
    # Shape (paper's rationale): GRU is competitive with LSTM.
    assert np.mean(results["gru"]) < 2.5 * np.mean(results["lstm"]) + 5.0
