"""Throughput gate: sequence-fused RNN kernels vs. a step-wise loop.

Measures, for both ``rnn_type="gru"`` and ``"lstm"``:

* **train tokens/sec** — a full training step (encode, decode, loss,
  backward, Adam update) on a synthetic padded batch, with tokens counted
  the same way :class:`~repro.core.trainer.Trainer` counts them
  (``src_mask.sum() + tgt_mask.sum()``);
* **encode latency** — eval-mode ``model.encode`` wall time, recorded as
  a histogram so the JSON carries mean / p50 / p95.

Two modes are timed on the same model and batch:

* **fused** — ``model.encode`` / ``model.decode``: one layer-kernel call
  per layer over the whole sequence, one tape node per layer.
* **stepwise** — :func:`stepwise_stack`, a bench-local loop that runs
  the same stack one timestep at a time (``T = 1``).  The tape then holds
  one node per step per layer, the shape a per-timestep cell loop
  records, so the speedup measures what fusing the time loop buys.

Timing protocol: the host is a single contended CPU, so a single wall
clock sample can be ~2x off.  The two modes are interleaved round-robin
and each mode keeps its *minimum* step time — the minimum converges to
the uncontended cost and both modes see the same interference pattern.
Next to each min-based speedup the report gives the 25th and 75th
percentiles of the per-round stepwise/fused time ratio
(``*_speedup_iqr``): quartiles that do not overlap the previous
report's show a change, overlapping ones may be host noise.

Run standalone (writes ``BENCH_throughput.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke]

or under pytest (``pytest benchmarks/bench_throughput.py``), which runs
the smoke profile.  ``REPRO_BENCH_FAST=1`` also selects the smoke
profile, matching the other benches.  Per-mode metrics additionally land
in ``benchmarks/results/throughput_metrics.jsonl`` via the telemetry
registry.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.encoder_decoder import EncoderDecoder, ModelConfig
from repro.core.losses import LossSpec, sequence_loss
from repro.data.dataset import pad_batch
from repro.nn import concat
from repro.nn.optim import Adam
from repro.spatial.vocab import BOS, EOS
from repro.telemetry import MetricsRegistry, write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_throughput.json"

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: Synthetic workload profiles.  The full profile mirrors the paper's
#: regime (long trajectories, hundreds of points) at benchmark scale:
#: small online batches of long sequences are exactly where the
#: per-timestep tape overhead of the step-wise path dominates.
PROFILES = {
    "full": dict(vocab=200, max_len=150, batch=8, hidden=128, layers=3,
                 dropout=0.1, rounds=9, encode_rounds=20),
    "smoke": dict(vocab=64, max_len=24, batch=4, hidden=24, layers=2,
                  dropout=0.1, rounds=3, encode_rounds=5),
}

MODES = ("stepwise", "fused")


def make_batch(rng: np.random.Generator, vocab: int, max_len: int, batch: int):
    """A padded synthetic batch framed the way the Trainer frames one."""
    seqs = [rng.integers(4, vocab, size=int(rng.integers(max_len // 2, max_len)))
            for _ in range(batch)]
    src, src_mask = pad_batch(seqs)
    tgt_in, _ = pad_batch([np.concatenate(([BOS], s)) for s in seqs])
    tgt_out, tgt_mask = pad_batch([np.concatenate((s, [EOS])) for s in seqs])
    return src, src_mask, tgt_in, tgt_out, tgt_mask


def stepwise_stack(rnn, x_seq, h0=None, mask=None):
    """``rnn(x_seq, h0, mask)`` computed one timestep at a time.

    Each step runs the whole stack over a ``T = 1`` slice, so every layer
    kernel call covers one step and the recurrence runs in Python across
    tape nodes instead of inside one.
    """
    state = h0
    outputs = []
    for t in range(x_seq.shape[0]):
        step_mask = None if mask is None else mask[t:t + 1]
        out, state = rnn(x_seq[t:t + 1], h0=state, mask=step_mask)
        outputs.append(out)
    return concat(outputs, axis=0), state


def encoder_decoder(model: EncoderDecoder, mode: str):
    """``(encode, decode)`` for one mode; both return what the model's do."""
    if mode == "fused":
        return model.encode, model.decode

    def encode(src, src_mask):
        _, state = stepwise_stack(model.encoder, model.embedding(src),
                                  mask=src_mask)
        return state[-1][0], state

    def decode(tgt_in, state, tgt_mask):
        out_seq, _ = stepwise_stack(model.decoder, model.embedding(tgt_in),
                                    h0=state, mask=tgt_mask)
        return out_seq.reshape(out_seq.shape[0] * out_seq.shape[1],
                               model.config.hidden_size)

    return encode, decode


def build_model(profile: dict, rnn_type: str) -> EncoderDecoder:
    return EncoderDecoder(ModelConfig(
        vocab_size=profile["vocab"],
        embedding_size=profile["hidden"],
        hidden_size=profile["hidden"],
        num_layers=profile["layers"],
        dropout=profile["dropout"],
        rnn_type=rnn_type,
        seed=0,
    ))


def round_ratio_quartiles(times: dict) -> list:
    """25th and 75th percentiles of the per-round stepwise/fused time ratio.

    Rounds run the two modes back to back, so each round's ratio sees one
    load pattern; the spread of the ratios says how far the min-based
    speedup can be trusted on this host.
    """
    ratios = np.array(times["stepwise"]) / np.array(times["fused"])
    return [round(float(q), 2) for q in np.percentile(ratios, [25, 75])]


def bench_rnn_type(rnn_type: str, profile: dict,
                   registry: MetricsRegistry) -> dict:
    """Time train steps and encodes for one rnn_type, both modes."""
    rng = np.random.default_rng(0)
    src, src_mask, tgt_in, tgt_out, tgt_mask = make_batch(
        rng, profile["vocab"], profile["max_len"], profile["batch"])
    tokens = int(src_mask.sum() + tgt_mask.sum())

    model = build_model(profile, rnn_type)
    optimizer = Adam(model.parameters(), lr=1e-3)
    spec = LossSpec(kind="L1")
    paths = {mode: encoder_decoder(model, mode) for mode in MODES}

    def train_step(mode: str) -> None:
        encode, decode = paths[mode]
        optimizer.zero_grad()
        _, state = encode(src, src_mask)
        hidden = decode(tgt_in, state, tgt_mask)
        loss = sequence_loss(model, hidden, tgt_out, tgt_mask, None, spec)
        loss.backward()
        optimizer.step()

    step_s = {mode: [] for mode in MODES}
    model.train()
    for mode in MODES:                      # warm caches outside timing
        train_step(mode)
    for _ in range(profile["rounds"]):
        for mode in MODES:
            start = time.perf_counter()
            train_step(mode)
            elapsed = time.perf_counter() - start
            registry.histogram(f"{rnn_type}.{mode}.train.step_s").observe(elapsed)
            registry.counter(f"{rnn_type}.{mode}.train.tokens").inc(tokens)
            step_s[mode].append(elapsed)
    best_step = {mode: min(step_s[mode]) for mode in MODES}

    # Encode latency in eval mode (the similarity-query serving path).
    model.eval()
    encode_hists = {}
    encode_s = {mode: [] for mode in MODES}
    for mode in MODES:
        paths[mode][0](src, src_mask)       # warmup
    for _ in range(profile["encode_rounds"]):
        for mode in MODES:
            start = time.perf_counter()
            paths[mode][0](src, src_mask)
            elapsed = time.perf_counter() - start
            hist = registry.histogram(f"{rnn_type}.{mode}.encode.latency_s")
            hist.observe(elapsed)
            encode_hists[mode] = hist
            encode_s[mode].append(elapsed)

    result = {}
    for mode in MODES:
        tokens_per_s = tokens / best_step[mode]
        registry.gauge(f"{rnn_type}.{mode}.train.tokens_per_s").set(tokens_per_s)
        hist = encode_hists[mode]
        result[mode] = {
            "train_tokens_per_s": round(tokens_per_s, 1),
            "train_step_s": round(best_step[mode], 6),
            "encode_latency_s": {
                "min": round(min(hist.values), 6),
                "mean": round(hist.mean, 6),
                "p50": round(hist.percentile(50), 6),
                "p95": round(hist.percentile(95), 6),
            },
        }
    result["tokens_per_step"] = tokens
    result["train_speedup"] = round(
        result["fused"]["train_tokens_per_s"]
        / result["stepwise"]["train_tokens_per_s"], 2)
    result["train_speedup_iqr"] = round_ratio_quartiles(step_s)
    result["encode_speedup"] = round(
        result["stepwise"]["encode_latency_s"]["min"]
        / result["fused"]["encode_latency_s"]["min"], 2)
    result["encode_speedup_iqr"] = round_ratio_quartiles(encode_s)
    return result


def run(smoke: bool = False, output: Path = DEFAULT_OUTPUT) -> dict:
    profile = PROFILES["smoke" if smoke else "full"]
    registry = MetricsRegistry()
    results = {}
    for rnn_type in ("gru", "lstm"):
        results[rnn_type] = bench_rnn_type(rnn_type, profile, registry)

    report = {
        "benchmark": "bench_throughput",
        "profile": "smoke" if smoke else "full",
        "workload": {k: profile[k] for k in
                     ("vocab", "max_len", "batch", "hidden", "layers",
                      "dropout")},
        "timing": ("interleaved rounds, per-mode minimum step time; "
                   "*_speedup_iqr: 25th/75th percentile of the per-round "
                   "stepwise/fused time ratio"),
        "results": results,
        "summary": {
            "train_speedup": {rt: results[rt]["train_speedup"]
                              for rt in results},
            "train_speedup_iqr": {rt: results[rt]["train_speedup_iqr"]
                                  for rt in results},
            "encode_speedup": {rt: results[rt]["encode_speedup"]
                               for rt in results},
            "encode_speedup_iqr": {rt: results[rt]["encode_speedup_iqr"]
                                   for rt in results},
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_jsonl(registry, RESULTS_DIR / "throughput_metrics.jsonl")

    lines = [f"throughput ({report['profile']} profile) — "
             "train tokens/sec, fused vs step-wise"]
    for rt, res in results.items():
        train_lo, train_hi = res["train_speedup_iqr"]
        encode_lo, encode_hi = res["encode_speedup_iqr"]
        lines.append(
            f"  {rt:4s}: stepwise {res['stepwise']['train_tokens_per_s']:>9,.0f}"
            f"  fused {res['fused']['train_tokens_per_s']:>9,.0f}"
            f"  ({res['train_speedup']:.2f}x train [IQR {train_lo:.2f}-"
            f"{train_hi:.2f}], {res['encode_speedup']:.2f}x encode "
            f"[IQR {encode_lo:.2f}-{encode_hi:.2f}])")
    print("\n".join(lines))
    return report


def test_throughput_smoke(tmp_path):
    """Smoke gate: both paths run end to end and the report is complete."""
    report = run(smoke=True, output=tmp_path / "BENCH_throughput.json")
    for rnn_type in ("gru", "lstm"):
        res = report["results"][rnn_type]
        for mode in MODES:
            assert res[mode]["train_tokens_per_s"] > 0
            assert res[mode]["encode_latency_s"]["p95"] > 0
        assert res["train_speedup"] > 0
        for key in ("train_speedup_iqr", "encode_speedup_iqr"):
            low, high = res[key]
            assert 0 < low <= high, (rnn_type, key, res[key])
    assert (tmp_path / "BENCH_throughput.json").exists()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile for CI (also: REPRO_BENCH_FAST=1)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    run(smoke=args.smoke or FAST, output=args.output)


if __name__ == "__main__":
    main()
