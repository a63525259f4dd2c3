"""Data-pipeline gate: fused in-process synthesis vs. the per-pair path.

The training pairs of the paper (Section IV-B: the r1 × r2 grid of
degraded variants, 16 per original) can be built one pair at a time —
a ``degrade`` (one ``Trajectory`` per variant) and a KD-tree query per
pair, the target tokenized 16×.  This bench measures, on a synthetic
Porto-like archive:

* **per_pair** — that path, kept here as the baseline (see
  :func:`per_pair_dataset`); it yields the same pairs as the pipeline;
* **pipeline** — ``TrainingDataPipeline``: fused per-original synthesis
  (target tokenized once, one KD-tree query for all 16 variants,
  raw-array degradation rules).

It also measures padding efficiency: padded-tokens-per-real-token of the
pipeline's length-bucketed batch stream versus shuffle-only batching of
the same pairs, which the bench assembles itself from ``token_pairs()``
and ``make_batch``.

Timing protocol (same as the sibling benches): the host is a contended
CPU, so the modes are interleaved round-robin and each keeps its
*minimum* round time — the minimum converges to the uncontended cost and
every mode sees the same interference pattern.

Run standalone (writes ``BENCH_data.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_data.py [--smoke]

or under pytest (``pytest benchmarks/bench_data.py``), which runs the
smoke profile.  ``REPRO_BENCH_FAST=1`` also selects the smoke profile.
Per-mode metrics additionally land in
``benchmarks/results/data_metrics.jsonl``.

Full-profile gate (checked when run standalone): the pipeline must clear
≥2x the per-pair path's pairs/sec, and bucketed batching must pad less
than shuffle-only batching.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data import (DEFAULT_DISTORTING_RATES, DEFAULT_DROPPING_RATES,
                        TokenPairDataset, TrainingDataPipeline, degrade,
                        make_batch, pair_rng, tokenize)
from repro.data.generator import porto_like
from repro.spatial import CellVocabulary, Grid
from repro.telemetry import MetricsRegistry, write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_data.json"

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: Workload profiles.  The full profile is a realistic training shard
#: (hundreds of trips, 16 pairs each); smoke keeps CI under a minute.
PROFILES = {
    "full": dict(trips=600, cell_size=100.0, min_hits=3, rounds=3,
                 batch_size=64, bucket_batches=8),
    "smoke": dict(trips=64, cell_size=100.0, min_hits=3, rounds=2,
                  batch_size=16, bucket_batches=8),
}

MODES = ("per_pair", "pipeline")


def make_workload(profile: dict):
    """A Porto-like archive plus the hot-cell vocabulary over it."""
    city = porto_like(seed=7)
    trips = city.generate(profile["trips"])
    points = city.all_points(trips)
    grid = Grid.covering(points, profile["cell_size"])
    vocab = CellVocabulary.build(grid, points, min_hits=profile["min_hits"])
    return trips, vocab


def per_pair_dataset(trips, vocab, seed: int = 0) -> TokenPairDataset:
    """The per-pair baseline: ``degrade`` then ``tokenize`` for every pair.

    Each original draws from its :func:`~repro.data.pair_rng`, in the
    pipeline's r1-major order, so the result holds the pipeline's pairs.
    """
    sources, targets = [], []
    for index, original in enumerate(trips):
        rng = pair_rng(seed, index)
        for r1 in DEFAULT_DROPPING_RATES:
            for r2 in DEFAULT_DISTORTING_RATES:
                sources.append(tokenize(degrade(original, r1, r2, rng), vocab))
                targets.append(tokenize(original, vocab))
    return TokenPairDataset(sources, targets)


def shuffle_only_batches(pipeline, batch_size: int, rng):
    """The pipeline's pairs batched without a length sort.

    Same windows and seeding as the pipeline's bucketed batches, but each
    window is shuffled pair by pair and chunked in that random order.
    """
    shuffle_rng = np.random.default_rng(
        int(rng.integers(np.iinfo(np.int64).max)))
    window = batch_size * pipeline.bucket_batches
    pairs = list(pipeline.token_pairs())
    batches = []
    for start in range(0, len(pairs), window):
        chunk = pairs[start:start + window]
        order = np.arange(len(chunk))
        shuffle_rng.shuffle(order)
        for i in range(0, len(order), batch_size):
            picked = [chunk[j] for j in order[i:i + batch_size]]
            batches.append(make_batch([source for source, _ in picked],
                                      [target for _, target in picked]))
    return batches


def pad_overhead(batches) -> float:
    """Padded tokens per real token over an assembled batch stream."""
    real = sum(float(b.src_mask.sum() + b.tgt_mask.sum()) for b in batches)
    total = sum(float(b.src_mask.size + b.tgt_mask.size) for b in batches)
    return (total - real) / real


def run(smoke: bool = False, output: Path = DEFAULT_OUTPUT) -> dict:
    profile = PROFILES["smoke" if smoke else "full"]
    registry = MetricsRegistry()
    trips, vocab = make_workload(profile)
    num_pairs = 16 * len(trips)

    pipeline = TrainingDataPipeline(
        trips, vocab, seed=0, bucket_batches=profile["bucket_batches"],
        registry=registry)
    runners = {
        "per_pair": lambda: per_pair_dataset(trips, vocab),
        "pipeline": lambda: sum(1 for _ in pipeline.token_pairs()),
    }

    for mode in MODES:                      # warm caches outside timing
        runners[mode]()
    best = {mode: float("inf") for mode in MODES}
    for _ in range(profile["rounds"]):
        for mode in MODES:
            start = time.perf_counter()
            runners[mode]()
            elapsed = time.perf_counter() - start
            best[mode] = min(best[mode], elapsed)
            registry.histogram(f"data.{mode}.epoch_s").observe(elapsed)

    report_modes = {}
    for mode in MODES:
        pairs_per_s = num_pairs / best[mode]
        registry.gauge(f"data.{mode}.pairs_per_s").set(pairs_per_s)
        report_modes[mode] = {
            "pairs_per_s": round(pairs_per_s, 1),
            "epoch_s": round(best[mode], 4),
        }

    # Padding efficiency: same pairs, bucketed vs shuffle-only batching.
    rng = np.random.default_rng(1)
    bucketed_overhead = pad_overhead(
        list(pipeline.batches(profile["batch_size"], rng)))
    shuffled_overhead = pad_overhead(
        shuffle_only_batches(pipeline, profile["batch_size"], rng))
    registry.gauge("data.pad_overhead.bucketed").set(bucketed_overhead)
    registry.gauge("data.pad_overhead.shuffled").set(shuffled_overhead)

    report = {
        "benchmark": "bench_data",
        "profile": "smoke" if smoke else "full",
        "workload": {"trips": len(trips), "pairs": num_pairs,
                     "vocab_size": vocab.size,
                     "batch_size": profile["batch_size"],
                     "bucket_batches": profile["bucket_batches"]},
        "timing": "interleaved rounds, per-mode minimum round time",
        "results": report_modes,
        "padding": {
            "bucketed_pad_per_real_token": round(bucketed_overhead, 4),
            "shuffled_pad_per_real_token": round(shuffled_overhead, 4),
        },
        "summary": {
            "pipeline_speedup": round(
                report_modes["pipeline"]["pairs_per_s"]
                / report_modes["per_pair"]["pairs_per_s"], 2),
            "bucketing_pad_reduction": round(
                1.0 - bucketed_overhead / shuffled_overhead, 4),
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_jsonl(registry, RESULTS_DIR / "data_metrics.jsonl")

    lines = [f"data pipeline ({report['profile']} profile) — pairs/sec over "
             f"{len(trips)} trips ({num_pairs} pairs per epoch)"]
    for mode in MODES:
        res = report_modes[mode]
        lines.append(f"  {mode:8s}: {res['pairs_per_s']:>10,.0f} pairs/s  "
                     f"epoch {res['epoch_s'] * 1e3:>8,.1f} ms")
    summary = report["summary"]
    lines.append(f"  pipeline speedup vs per-pair: "
                 f"{summary['pipeline_speedup']}x")
    lines.append(f"  pad tokens per real token: "
                 f"{report['padding']['bucketed_pad_per_real_token']:.4f} "
                 f"bucketed vs "
                 f"{report['padding']['shuffled_pad_per_real_token']:.4f} "
                 f"shuffle-only "
                 f"({summary['bucketing_pad_reduction']:.1%} less padding)")
    print("\n".join(lines))
    return report


def test_per_pair_baseline_matches_pipeline():
    """The baseline times the same pairs the pipeline streams."""
    trips, vocab = make_workload(PROFILES["smoke"])
    baseline = per_pair_dataset(trips[:8], vocab)
    pairs = list(TrainingDataPipeline(trips[:8], vocab, seed=0).token_pairs())
    assert len(pairs) == len(baseline)
    for (source, target), want_source, want_target in zip(
            pairs, baseline.sources, baseline.targets):
        np.testing.assert_array_equal(source, want_source)
        np.testing.assert_array_equal(target, want_target)


def test_data_smoke(tmp_path):
    """Smoke gate: every mode runs end to end and the report is sane."""
    report = run(smoke=True, output=tmp_path / "BENCH_data.json")
    for mode in MODES:
        assert report["results"][mode]["pairs_per_s"] > 0
    padding = report["padding"]
    assert padding["bucketed_pad_per_real_token"] >= 0
    # Length bucketing pads less than shuffle-only even at smoke scale.
    assert (padding["bucketed_pad_per_real_token"]
            < padding["shuffled_pad_per_real_token"])
    assert (tmp_path / "BENCH_data.json").exists()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile for CI (also: REPRO_BENCH_FAST=1)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke or FAST, output=args.output)
    if report["profile"] == "full":
        summary = report["summary"]
        assert summary["pipeline_speedup"] >= 2.0, summary
        assert summary["bucketing_pad_reduction"] > 0.0, summary


if __name__ == "__main__":
    main()
