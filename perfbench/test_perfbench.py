"""Tests of the benchmark's own helpers.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanIndex, Tracer, self_times  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentile
# ----------------------------------------------------------------------
def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    value, pct = harness.tail(values)
    assert value == 89
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 89 / 99)


def test_tail_of_smallest_sample_is_its_minimum():
    value, pct = harness.tail([5.0, 3.0] + [9.0] * 9)
    assert (value, pct) == (3.0, 0.0)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        harness.tail(list(range(n)))


def test_tail_ignores_input_order():
    rng = np.random.default_rng(0)
    values = rng.random(37).tolist()
    assert harness.tail(values) == harness.tail(sorted(values))


def test_median_even_and_odd():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(i, name, start, end, parent=None, thread=1):
    return Span(i, name, start, end, parent, thread)


def test_self_time_subtracts_nested_children_once():
    tree = [
        _span(0, "step", 0.0, 10.0),
        _span(1, "loss", 1.0, 4.0, parent=0),
        _span(2, "noise", 2.0, 3.0, parent=1),    # grandchild: not step's
        _span(3, "backward", 5.0, 9.0, parent=0),
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)


def test_self_time_counts_overlapping_children_as_union():
    tree = [_span(0, "p", 0.0, 10.0), _span(1, "a", 1.0, 5.0, parent=0),
            _span(2, "b", 3.0, 7.0, parent=0), _span(3, "c", 9.0, 12.0, parent=0)]
    assert self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_within_filters_by_ancestor():
    ix = SpanIndex([
        _span(0, "trainer.step", 0.0, 4.0),
        _span(1, "losses.forward", 1.0, 2.0, parent=0),
        _span(2, "trainer.evaluate", 5.0, 8.0),
        _span(3, "losses.forward", 6.0, 7.5, parent=2),
    ])
    assert ix.total("losses.forward") == pytest.approx(2.5)
    assert ix.total("losses.forward", within="trainer.step") == pytest.approx(1.0)


class _Layer:
    """A stand-in for one of the program's classes."""

    def outer(self, inner_calls):
        for call in inner_calls:
            call()
        return len(inner_calls)

    def inner(self):
        return 1

    @classmethod
    def build(cls, value):
        return cls, value


def test_tracer_records_parents_and_restores_originals():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.add(_Layer, "outer", "outer")
    tracer.add(_Layer, "inner", "inner")
    tracer.add(_Layer, "build", "build")
    tracer.install()
    layer = _Layer()
    assert layer.outer([layer.inner, layer.inner]) == 2
    assert _Layer.build(3) == (_Layer, 3)
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    assert isinstance(_Layer.__dict__["build"], classmethod)

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outer, = by_name["outer"]
    assert [s.parent for s in by_name["inner"]] == [outer.id, outer.id]
    assert by_name["build"][0].parent is None
    layer.outer([layer.inner])
    assert len(tracer.spans) == 4    # nothing recorded once uninstalled


def test_tracer_writes_every_span(tmp_path):
    tracer = Tracer()
    tracer.add(_Layer, "outer", "outer")
    tracer.add(_Layer, "inner", "inner")
    tracer.install()
    layer = _Layer()
    layer.outer([layer.inner])
    tracer.uninstall()
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [Span(**row) for row in rows] == tracer.spans


def test_prefetcher_thread_spans_are_not_children_of_the_step():
    """Spans opened on the data pipeline's prefetch thread overlap the
    main thread's step in time but never reduce its self time."""
    from repro.data import Prefetcher

    tracer = Tracer()
    tracer.add(_Layer, "inner", "produce")
    tracer.add(_Layer, "outer", "step")
    tracer.install()
    layer = _Layer()
    started = threading.Event()
    release = threading.Event()

    def source():
        for _ in range(3):
            started.set()
            release.wait(timeout=5)
            layer.inner()
            yield 1

    try:
        prefetcher = Prefetcher(source(), depth=1)
        started.wait(timeout=5)
        # The step waits while the prefetch thread produces inside it.
        layer.outer([lambda: (release.set(), next(prefetcher))])
        list(prefetcher)
    finally:
        tracer.uninstall()

    ix = SpanIndex(tracer.spans)
    step, = ix.named("step")
    produced = ix.named("produce")
    assert len(produced) == 3
    assert all(s.parent is None for s in produced)
    assert {s.thread for s in produced} != {step.thread}
    assert ix.self_time[step.id] == pytest.approx(step.duration)


def test_loss_backward_spans_stop_at_the_decoder_states():
    from repro.nn import Tensor

    h = Tensor(np.ones((2, 3)), requires_grad=True)
    states = h * 2.0                       # stands in for the RNN graph
    loss = (states * 3.0).sum()
    tracer = Tracer()
    spans._time_loss_backward(tracer, (None, states), loss)
    assert states._backward.__name__ == "backward"   # left unwrapped
    loss.backward()
    names = [s.name for s in tracer.spans]
    assert names == ["losses.backward", "losses.backward"]
    np.testing.assert_allclose(h.grad, np.full((2, 3), 6.0))


def test_program_tracer_wraps_every_entry_point():
    tracer = spans.program_tracer()
    assert len(tracer._points) == len(spans.ENTRY_POINTS)
    tracer.install()
    try:
        from repro.core import trainer
        assert trainer.sequence_loss.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert not hasattr(trainer.sequence_loss, "__wrapped__")


def test_layer_metrics_covers_every_per_layer_name():
    spec = harness.load_spec()
    names = {m["name"] for m in spec["per_layer"]}
    produced = set(spans.layer_metrics([])) | {
        "t2vec.cache_hits", "t2vec.cache_misses", "trace.overhead"}
    assert names == produced


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.TRAIN_WORKLOADS))
def test_same_seed_same_training_inputs(name):
    small = replace(workloads.TRAIN_WORKLOADS[name], trips=30)
    a, b, other = small.inputs(3), small.inputs(3), small.inputs(4)
    assert [t.cache_key() for t in a] == [t.cache_key() for t in b]
    assert [t.cache_key() for t in a] != [t.cache_key() for t in other]


def test_same_seed_same_query_inputs():
    archive = replace(workloads.TRAIN_WORKLOADS["train-porto"],
                      trips=40).inputs(5)

    def keys(seed):
        halves, queries, database, targets = workloads.figure4(archive, seed)
        fresh = workloads.FreshQueries(halves, seed)
        blocks = [fresh.block() for _ in range(3)]
        return [t.cache_key() for t in queries + database + sum(blocks, [])]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)


def test_query_blocks_are_fresh():
    """40 halves serve 60 blocks of 128: every half is down-sampled about
    190 times, and still no query repeats."""
    archive = replace(workloads.TRAIN_WORKLOADS["train-porto"],
                      trips=40).inputs(5)
    halves = workloads.figure4(archive, 1)[0]
    fresh = workloads.FreshQueries(halves, 1)
    keys = [t.cache_key() for _ in range(60) for t in fresh.block()]
    assert len(keys) == 60 * workloads.QUERY_BLOCK
    assert len(set(keys)) == len(keys)


def test_fresh_queries_give_up_when_the_halves_run_out():
    archive = replace(workloads.TRAIN_WORKLOADS["train-porto"],
                      trips=40).inputs(5)
    half = min(workloads.figure4(archive, 1)[0], key=len)
    fresh = workloads.FreshQueries([half.subsequence(np.arange(2))], 1)
    with pytest.raises(RuntimeError, match="ran out"):
        fresh.block()


# ----------------------------------------------------------------------
# The k-NN output check
# ----------------------------------------------------------------------
def test_knn_check_accepts_exact_and_rejects_wrong_neighbours():
    rng = np.random.default_rng(0)
    database = rng.normal(size=(200, 8)).astype(np.float32)
    queries = rng.normal(size=(5, 8)).astype(np.float32)
    dist = ((queries[:, None, :].astype(np.float64) - database[None]) ** 2).sum(2)
    exact = np.argsort(dist, axis=1, kind="stable")[:, :4]
    assert workloads.knn_check(exact, queries, database, 4) == (True, 0)

    wrong = exact.copy()
    wrong[2, 3] = np.argsort(dist[2])[50]
    assert workloads.knn_check(wrong, queries, database, 4) == (False, 1)

    swapped = exact.copy()
    swapped[0, [1, 2]] = swapped[0, [2, 1]]
    assert workloads.knn_check(swapped, queries, database, 4) == (False, 1)
    assert not workloads.knn_check(exact[:, :3], queries, database, 4)[0]


def test_knn_check_tolerates_float32_rounding_ties_only():
    base = np.zeros((1, 4), dtype=np.float32)
    step = np.float32(1e-4)
    database = np.stack([base[0] + step * i for i in (1, 3, 3, 10000)])
    database[2, 0] += np.float32(1e-7)          # a tie under float32 rounding
    got = np.array([[0, 2, 1]])
    ok, differ = workloads.knn_check(got, base, database, 3)
    assert (ok, differ) == (True, 1)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_meets_schema():
    spec = harness.load_spec()
    assert harness.schema_errors(spec) == []
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for path in spec["paths"]:
        assert (harness.ROOT / path).is_dir()
    assert spec["command"][1].startswith(spec["paths"][0] + "/")


@pytest.mark.parametrize("mutate, message", [
    (lambda s: s.pop("per_layer"), "keys"),
    (lambda s: s["end_to_end"][1].update(bound=0.3), "bound"),
    (lambda s: s["end_to_end"].append(dict(s["end_to_end"][1])), "more than once"),
    (lambda s: s["end_to_end"].pop(0), "setup_s"),
    (lambda s: s.update(workloads=s["workloads"][:1]), "2-8"),
    (lambda s: s.update(run_seconds=61), "run_seconds"),
    (lambda s: s.update(command=["python3", "/abs/run.py"]), "leaves the repo"),
    (lambda s: s["per_layer"][0].update(unit="seconds per call"), "unit"),
    (lambda s: s["workloads"][0].update(why="two\nlines"), "one line"),
])
def test_schema_rejects(mutate, message):
    spec = copy.deepcopy(harness.load_spec())
    mutate(spec)
    errors = harness.schema_errors(spec)
    assert any(message in e for e in errors), errors


def test_result_line_shape():
    line = json.loads(harness.result_line(True, 3, 0, {"setup_s": (0.5, "s")}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}
