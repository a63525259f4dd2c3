"""The three workloads: inputs from the seed, then timed runs through the API.

* ``train-porto``: ``T2Vec.fit`` on ``porto_like`` trips at 100 m cells.
  The vocabulary (about 446 tokens) is under ``DENSE_L3_VOCAB_LIMIT``, so
  L3 runs as the dense masked softmax.
* ``train-finegrid``: the same configuration on a wide city at 25 m cells.
  The vocabulary is above the limit, so L3 runs the gathered path and the
  loss dominates a step.
* ``query-porto``: a closed loop with one client.  Blocks of fresh queries
  go through ``T2Vec.knn_batch`` against a cold-encoded Figure-4 database,
  served by a model fitted once per checkout and cached under ``_cache/``.

Every workload receives only inputs generated from ``--seed``; city
geometry is fixed, so seeds vary the trips and not the kind of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import LossSpec, MetricsRegistry, T2Vec, T2VecConfig, TrainingConfig
from repro.core.losses import DENSE_L3_VOCAB_LIMIT
from repro.data import (CityConfig, SyntheticCity, TrainingDataPipeline,
                        Trajectory, alternating_split, degrade, porto_like)
from repro.telemetry import Callback, StopTraining

from harness import CACHE_DIR, ROOT, median, tail, tree_digest
from spans import Tracer, layer_metrics, program_tracer

#: An untraced query-porto run loads the checkpoint ``ENCODE_ROUNDS`` times
#: before its closed loop and once more after every ``LOAD_EVERY`` blocks;
#: ``setup_s`` is the median of all loads.  A load lasts a few
#: milliseconds, and on a shared host whole seconds run 1.5 times slower
#: than others, so loads spread over the loop see both.  (Training set-ups
#: repeat ``TrainWorkload.setup_repeats`` times before training.)
LOAD_EVERY = 10
#: Cold bulk encodes of the query-porto database, each by a freshly loaded
#: model with an empty cache.  ``encode_traj_per_s`` comes from the
#: fastest round.  It is printed but not in BENCHMARK.json: a cold encode
#: lasts well under a second, and across seeds it spread by 17-29%
#: (quartiles over median) on a shared 2-vCPU host, more than any bound
#: the benchmark may set.
ENCODE_ROUNDS = 5
#: Validation loss is taken after this many optimizer steps, so it does
#: not depend on how many steps fit into ``--seconds``.  By then the loss
#: has fallen about 0.35 nats below the untrained model's on both training
#: workloads (about 8%), which ``quality`` reports as a perplexity.
VAL_AFTER_STEPS = 40
VAL_BATCHES = 2
#: Least fall of the validation loss, untrained to ``VAL_AFTER_STEPS``, that
#: counts as learning.  A run that falls less fails its check.
MIN_LOSS_FALL = 0.1
#: Fewest timed operations a run accepts: a tail needs ten samples beyond.
MIN_OPS = 12

PORTO_CITY_SEED = 7
#: Table VIII's finest cells on a city wide enough that the hot-cell
#: vocabulary passes DENSE_L3_VOCAB_LIMIT (about 5.3k tokens).  Sampling
#: every 40 s keeps trips near 15 points, so a run holds enough steps for
#: a tail percentile.  Steady speeds keep out the few crawling trips that
#: pad whole batches on porto_like: this workload isolates the loss, and
#: padding cost shows on the two porto workloads.
FINEGRID_CITY = CityConfig(
    name="finegrid-syn", grid_cols=24, grid_rows=24, spacing=200.0,
    num_routes=600, speed_std=1.0, speed_walk=0.05, sample_interval=40.0,
    min_points=10, min_route_nodes=6, seed=PORTO_CITY_SEED)

#: The serving model: the train-porto configuration fitted for a fixed
#: number of epochs on its own archive.  Its seed is fixed so every
#: query-porto run of one checkout serves the same model; ``--seed``
#: draws the held-out archive, the queries and the database.
MODEL_SEED = 0
FIT_TIMEOUT_S = 600
QUERY_TRAIN_TRIPS = 600
QUERY_FIT_EPOCHS = 2
QUERY_POOL = 2000         # trips split into (query, counterpart) pairs
FILLER_POOL = 1000        # trips whose second half only fills the database
QUERY_DROP_RATE = 0.4     # r1 applied to queries and database (Table IV)
#: Queries per closed-loop request.  With 64, the few host stalls of a run
#: set the tail percentile, and its spread over seeds reached 0.27.
QUERY_BLOCK = 128
QUERY_K = 10
#: Closed-loop blocks per second of ``--seconds``.  The block count depends
#: on ``--seconds`` alone, not on how fast blocks return, so every commit
#: serves the same queries and ends the run with the same encode cache
#: (and the memory it holds).  At 30 s the loop lasted 23-26 s on a
#: shared 2-vCPU host.
QUERY_BLOCKS_PER_S = 12


def train_config(seed: int, cell_size: float = 100.0, min_hits: int = 5,
                 max_epochs: int = 1000) -> T2VecConfig:
    """``benchmarks/conftest.py``'s bench_config: L3, K=10, noise 64,
    hidden 64, one layer, batch 256, in-process data pipeline."""
    return T2VecConfig(
        cell_size=cell_size, min_hits=min_hits,
        embedding_size=64, hidden_size=64, num_layers=1, dropout=0.0,
        loss=LossSpec(kind="L3", k_nearest=10, theta=100.0, noise=64),
        training=TrainingConfig(batch_size=256, max_epochs=max_epochs,
                                patience=5, eval_batches=6, seed=seed),
        seed=seed)


@dataclass(frozen=True)
class TrainWorkload:
    city: CityConfig
    trips: int
    cell_size: float
    min_hits: int
    setup_repeats: int

    def inputs(self, seed: int) -> List[Trajectory]:
        rng = np.random.default_rng([seed, 1])
        return SyntheticCity(self.city).generate(self.trips, rng=rng)

    def config(self, seed: int) -> T2VecConfig:
        return train_config(seed, self.cell_size, self.min_hits)


TRAIN_WORKLOADS = {
    "train-porto": TrainWorkload(porto_like(PORTO_CITY_SEED).config,
                                 trips=600, cell_size=100.0, min_hits=5,
                                 setup_repeats=15),
    "train-finegrid": TrainWorkload(FINEGRID_CITY, trips=2600, cell_size=25.0,
                                    min_hits=2, setup_repeats=5),
}
WORKLOADS = tuple(TRAIN_WORKLOADS) + ("query-porto",)


@dataclass
class RunResult:
    """What one workload run measured and checked.

    ``labels`` gives each end-to-end metric its workload-specific name and
    unit for people (``throughput_per_s`` is ``train_tokens_per_s`` in
    tokens/s on a training workload, ``queries_per_s`` on query-porto).
    """

    facts: Dict[str, object]
    metrics: Dict[str, float] = field(default_factory=dict)
    labels: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)

    def measure(self, name: str, value: float, label: str) -> None:
        self.metrics[name] = value
        self.labels[name] = label


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trip_facts(trips: Sequence[Trajectory]) -> Dict[str, object]:
    return {"trips": len(trips),
            "mean_trip_points": round(float(np.mean([len(t) for t in trips])), 2)}


def _call(fn: Callable[[], np.ndarray]) -> np.ndarray:
    return fn()


def cold_encode(models: Sequence[T2Vec], trajectories: Sequence[Trajectory],
                run: Callable[[Callable[[], np.ndarray]], np.ndarray] = _call
                ) -> Tuple[np.ndarray, float]:
    """Each model cold-encodes ``trajectories`` in one ``encode_many`` call.

    Returns the last vectors and the trajectories per second of the
    fastest round.  ``run`` makes each call (the traced run counts it).
    """
    best = math.inf
    for model in models:
        began = time.perf_counter()
        vectors = run(lambda: model.encode_many(trajectories))
        best = min(best, time.perf_counter() - began)
    return vectors, len(trajectories) / best


def _measure_ops(result: RunResult, op: str, work: str,
                 ops: Sequence[Tuple[float, float]]) -> None:
    """Throughput, median and tail latency of timed ``(seconds, work)`` ops."""
    latencies = [lat for lat, _ in ops]
    p_tail, pct = tail(latencies)
    result.measure("throughput_per_s", sum(w for _, w in ops) / sum(latencies),
                   f"{work}_per_s [{work.split('_')[-1]}/s]")
    result.measure("op_p50_s", median(latencies), f"{op}_p50_s [s]")
    result.measure("op_tail_s", p_tail,
                   f"{op}_tail_s [s] (p{pct:.1f} of {len(ops)} samples)")


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
class _AbortAtFitStart(Callback):
    """Stops ``fit`` once set-up is done, so set-up can be timed alone."""

    def on_fit_start(self, trainer) -> None:
        raise StopTraining


class _TimedTraining(Callback):
    """Times optimizer steps until ``seconds`` pass.

    A step's latency runs from the end of the previous step (or the start
    of its epoch) to its ``on_batch_end``, so it includes waiting for the
    batch.  Epoch-end validation falls outside every step.  Validation
    loss and peak memory are read after ``VAL_AFTER_STEPS`` steps, so they
    do not depend on how many steps fit into ``seconds``.  In a traced
    run the first half is untraced and the second half traced, and the
    two halves' seconds per token give the tracing overhead.
    """

    def __init__(self, seconds: float, val_trips: Sequence[Trajectory],
                 seed: int, tracer: Optional[Tracer]):
        self.seconds = seconds
        self.val_trips = val_trips
        self.seed = seed
        self.tracer = tracer
        self.fit_called = 0.0
        self.setup_s = math.nan
        self.untrained_loss = math.nan
        self.val_loss = math.nan
        self.peak_rss_mb = math.nan
        self.phases: List[List[Tuple[float, int]]] = [[]]
        self.bad_losses = 0
        self._val = None

    def on_fit_start(self, trainer) -> None:
        self.setup_s = time.perf_counter() - self.fit_called
        if self.tracer is not None:
            self.tracer.uninstall()
        # The benchmark's own fixed validation pairs (not timed).
        self._val = TrainingDataPipeline(
            self.val_trips, trainer.vocab, seed=self.seed).materialize()
        self.untrained_loss = trainer.evaluate(self._val,
                                               max_batches=VAL_BATCHES)
        self.start = self.prev = time.perf_counter()

    def on_epoch_start(self, trainer, epoch: int) -> None:
        self.prev = time.perf_counter()

    def on_batch_end(self, trainer, step: int, loss: float,
                     tokens: int) -> None:
        now = time.perf_counter()
        self.phases[-1].append((now - self.prev, tokens))
        if not math.isfinite(loss):
            self.bad_losses += 1
        done = sum(len(p) for p in self.phases)
        if done == VAL_AFTER_STEPS:
            self.val_loss = trainer.evaluate(self._val, max_batches=VAL_BATCHES)
            self.peak_rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - self.start
        if (self.tracer is not None and len(self.phases) == 1
                and elapsed >= self.seconds / 2 and done >= MIN_OPS):
            self.phases.append([])
            self.tracer.install()
        if elapsed >= self.seconds and len(self.phases[-1]) >= MIN_OPS \
                and done > VAL_AFTER_STEPS:
            raise StopTraining
        self.prev = time.perf_counter()


def run_train(workload: TrainWorkload, seed: int, seconds: float,
              tracer: Optional[Tracer]) -> RunResult:
    trips = workload.inputs(seed)
    config = workload.config(seed)
    n_val = max(1, int(len(trips) * config.val_fraction))
    timer = _TimedTraining(seconds, trips[-n_val:], seed, tracer)

    setups = []
    if tracer is None:
        for _ in range(workload.setup_repeats - 1):
            model = T2Vec(config, registry=MetricsRegistry())
            start = time.perf_counter()
            try:
                model.fit(trips, callbacks=[_AbortAtFitStart()])
            except StopTraining:
                pass
            setups.append(time.perf_counter() - start)
    else:
        tracer.install()

    model = T2Vec(config, registry=MetricsRegistry())
    timer.fit_called = time.perf_counter()
    model.fit(trips, callbacks=[timer])
    setups.append(timer.setup_s)
    if tracer is not None:
        tracer.uninstall()

    result = RunResult(facts={
        "vocab": model.vocab.size,
        "dense_l3": model.vocab.size <= DENSE_L3_VOCAB_LIMIT,
        **trip_facts(trips),
        "val_loss_untrained": timer.untrained_loss,
        "val_loss": timer.val_loss})
    steps = [lat for phase in timer.phases for lat, _ in phase]
    result.attempted = len(steps) + 2
    if timer.bad_losses:
        result.fail(f"{timer.bad_losses} steps returned a non-finite loss",
                    timer.bad_losses)
    if not math.isfinite(timer.val_loss):
        result.fail(f"val_loss is not finite: {timer.val_loss}")
    elif not timer.val_loss <= timer.untrained_loss - MIN_LOSS_FALL:
        result.fail(f"training did not learn: val_loss {timer.val_loss:.4f} "
                    f"after {VAL_AFTER_STEPS} steps, {timer.untrained_loss:.4f}"
                    f" untrained; it must fall by {MIN_LOSS_FALL}")
    if len(timer.phases[0]) < MIN_OPS:
        result.fail(f"only {len(steps)} steps ran; a tail needs {MIN_OPS}")
        return result

    result.measure("setup_s", median(setups), "setup_s [s]")
    _measure_ops(result, "step", "train_tokens", timer.phases[0])
    result.measure("quality", math.exp(timer.val_loss),
                   f"validation perplexity, exp(val_loss) (val_loss "
                   f"{timer.val_loss:.4f} nats after {VAL_AFTER_STEPS} steps, "
                   f"{timer.untrained_loss:.4f} untrained)")
    result.measure("peak_rss_mb", timer.peak_rss_mb,
                   f"peak_rss_mb [MB] (after {VAL_AFTER_STEPS} steps)")
    result.facts["steps"] = len(steps)
    if tracer is not None:
        result.facts["traced_steps"] = len(timer.phases[1])
        result.facts["overhead"] = _overhead(*timer.phases)
    return result


def _overhead(untraced: Sequence[Tuple[float, float]],
              traced: Sequence[Tuple[float, float]]) -> float:
    """Traced seconds per unit of work over untraced, minus one."""
    def cost(rows):
        return sum(lat for lat, _ in rows) / sum(w for _, w in rows)
    return cost(traced) / cost(untraced) - 1.0


# ----------------------------------------------------------------------
# Query workload
# ----------------------------------------------------------------------
def query_inputs(seed: int) -> List[Trajectory]:
    """The held-out porto_like archive the queries and database come from."""
    return porto_like(PORTO_CITY_SEED).generate(
        QUERY_POOL + FILLER_POOL, rng=np.random.default_rng([seed, 2]))


def figure4(held_out: Sequence[Trajectory], seed: int):
    """Queries, database and each query's counterpart (Figure 4, r1 = 0.4).

    Returns the query pool's first halves too, for fresh query blocks.
    """
    rng = np.random.default_rng([seed, 3])
    halves, queries, database = [], [], []
    for traj in held_out[:QUERY_POOL]:
        ta, ta_prime = alternating_split(traj)
        halves.append(ta)
        queries.append(degrade(ta, QUERY_DROP_RATE, 0.0, rng))
        database.append(degrade(ta_prime, QUERY_DROP_RATE, 0.0, rng))
    for traj in held_out[QUERY_POOL:]:
        database.append(degrade(alternating_split(traj)[1],
                                QUERY_DROP_RATE, 0.0, rng))
    return halves, queries, database, np.arange(len(queries))


class FreshQueries:
    """Blocks of queries that no earlier block of the run has sent.

    Each query is a new down-sample (r1) of the next query half in turn.
    A down-sample that was sent before is dropped and the next half takes
    its place, so every query of every block misses the encode cache.
    """

    def __init__(self, halves: Sequence[Trajectory], seed: int):
        self.halves = halves
        self.rng = np.random.default_rng([seed, 4])
        self.sent: set = set()
        self.turn = 0

    def block(self) -> List[Trajectory]:
        out: List[Trajectory] = []
        give_up = self.turn + 50 * QUERY_BLOCK
        while len(out) < QUERY_BLOCK:
            if self.turn == give_up:
                raise RuntimeError("the query halves ran out of fresh "
                                   "down-samples")
            half = self.halves[self.turn % len(self.halves)]
            self.turn += 1
            query = degrade(half, QUERY_DROP_RATE, 0.0, self.rng)
            digest = hashlib.blake2b(query.cache_key(), digest_size=16).digest()
            if digest not in self.sent:
                self.sent.add(digest)
                out.append(query)
        return out


def query_model_path() -> Tuple[T2VecConfig, Path]:
    """Checkpoint path keyed by config, model seed, archive and ``src/repro``."""
    config = train_config(MODEL_SEED, max_epochs=QUERY_FIT_EPOCHS)
    key = hashlib.sha256(json.dumps({
        "config": config.to_dict(), "seed": MODEL_SEED,
        "trips": QUERY_TRAIN_TRIPS, "city": PORTO_CITY_SEED,
        "src": tree_digest(ROOT / "src" / "repro"),
    }, sort_keys=True).encode()).hexdigest()[:20]
    return config, CACHE_DIR / f"query-porto-{key}.npz"


def fit_query_model(path: Path) -> None:
    """Fit the serving model and write it to ``path`` atomically."""
    config, _ = query_model_path()
    train = porto_like(PORTO_CITY_SEED).generate(
        QUERY_TRAIN_TRIPS, rng=np.random.default_rng([MODEL_SEED, 5]))
    model = T2Vec(config, registry=MetricsRegistry())
    model.fit(train)
    tmp = path.with_name(path.stem + ".tmp.npz")
    model.save(tmp)
    os.replace(tmp, path)


def ensure_query_model() -> Path:
    """The cached serving model, fitted first if this exact one is missing.

    The fit runs in a child process, so its memory and heap never reach
    the measured process's ``peak_rss_mb`` or timings.  It is a plain
    subprocess, not ``multiprocessing``: a spawned ``Process`` also starts
    a resource-tracker process that outlives the benchmark by a moment.
    ``subprocess.run`` kills the child on timeout and waits for it.
    """
    _, path = query_model_path()
    if not path.exists():
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parent), str(ROOT / "src")]))
        child = subprocess.run([sys.executable, __file__, str(path)],
                               cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=FIT_TIMEOUT_S)
        if child.returncode != 0 or not path.exists():
            raise RuntimeError(f"fitting the serving model failed "
                               f"(exit code {child.returncode})")
    return path


#: Unit roundoff of float32, the dtype the index ranks encodings in.
F32_UNIT = 2.0 ** -24


def knn_check(got: np.ndarray, queries: np.ndarray, database: np.ndarray,
              k: int) -> Tuple[bool, int]:
    """Compare a k-NN block with a float64 brute-force top-k.

    The oracle orders every database row by (distance, index).  Returns
    ``(ok, rows_differing)``.  A row may differ from the oracle and still
    be ok only where the float32 GEMM identity the index ranks with
    (``|x|^2 + |q|^2 - 2 q.x``, documented in ``repro.core.index``) cannot
    tell the candidates apart: each rank's squared distance must then be
    within twice that identity's worst-case rounding error,
    ``gamma_(d+2) * (|q| + max|x|)^2``, of the oracle's.
    """
    q = queries.astype(np.float64)
    x = database.astype(np.float64)
    n, dim = x.shape
    sq = (q * q).sum(1)[:, None] + (x * x).sum(1)[None, :] - 2.0 * (q @ x.T)
    want = np.argsort(sq, axis=1, kind="stable")[:, :k]
    if got.shape != want.shape:
        return False, len(want)
    differ = ~(got == want).all(axis=1)
    if not differ.any():
        return True, 0
    if got.min() < 0 or got.max() >= n or any(
            len(set(row)) != k for row in got[differ]):
        return False, int(differ.sum())
    gamma = (dim + 2) * F32_UNIT / (1 - (dim + 2) * F32_UNIT)
    reach = np.sqrt((q * q).sum(1)) + np.sqrt((x * x).sum(1).max())
    slack = (2 * gamma * reach ** 2)[:, None]
    got_sq = np.take_along_axis(sq, got, axis=1)
    want_sq = np.take_along_axis(sq, want, axis=1)
    ok = bool(np.all(np.abs(got_sq - want_sq)[differ] <= slack[differ]))
    return ok, int(differ.sum())


def run_query(seed: int, seconds: float, tracer: Optional[Tracer]) -> RunResult:
    path = ensure_query_model()
    held_out = query_inputs(seed)
    halves, queries, database, targets = figure4(held_out, seed)

    setups: List[float] = []

    def load() -> T2Vec:
        start = time.perf_counter()
        model = T2Vec.load(path)
        setups.append(time.perf_counter() - start)
        model.registry = MetricsRegistry()
        return model

    models = [load() for _ in range(ENCODE_ROUNDS if tracer is None else 1)]

    reg = models[-1].registry
    cache = {"cache_hits": 0.0, "cache_misses": 0.0}

    def cache_counts() -> np.ndarray:
        return np.array([reg.counter("encode.cache_hits").value,
                         reg.counter("encode.cache_misses").value])

    def traced(call):
        """Run ``call()`` with spans on, counting its cache hits and misses.

        ``call`` looks the method up after ``install``, so it finds the
        wrapper rather than a bound original.
        """
        before = cache_counts()
        tracer.install()
        try:
            return call()
        finally:
            tracer.uninstall()
            hits, misses = cache_counts() - before
            cache["cache_hits"] += hits
            cache["cache_misses"] += misses

    db_vectors, encode_rate = cold_encode(
        models, database, run=_call if tracer is None else traced)
    serve = models[-1]
    result = RunResult(facts={
        "vocab": serve.vocab.size, "database": len(database),
        "block": QUERY_BLOCK, "k": QUERY_K, **trip_facts(held_out)})

    # Closed loop: the next block goes out when the previous one returns.
    # A traced run leaves its first half untraced to measure the overhead.
    blocks = max(2 * MIN_OPS, round(seconds * QUERY_BLOCKS_PER_S))
    traced_from = blocks // 2 if tracer is not None else blocks
    fresh_queries = FreshQueries(halves, seed)
    db_keys = len({t.cache_key() for t in database})
    phases: List[List[Tuple[float, float]]] = [[]]
    loop_cache = np.zeros(2)
    rounding_rows = 0
    loop_start = time.perf_counter()
    for block in range(blocks):
        fresh = fresh_queries.block()
        if block == traced_from:
            phases.append([])
        before = cache_counts()
        start = time.perf_counter()
        if block < traced_from:
            got = serve.knn_batch(fresh, database, k=QUERY_K)
        else:
            got = traced(lambda: serve.knn_batch(fresh, database, k=QUERY_K))
        phases[-1].append((time.perf_counter() - start, len(fresh)))
        hits, misses = cache_counts() - before
        loop_cache += (hits, misses)
        if (hits, misses) != (db_keys, len(fresh)):
            result.fail(f"knn_batch block {block}: {hits:.0f} encode cache "
                        f"hits and {misses:.0f} misses, expected {db_keys} "
                        f"database hits and {len(fresh)} fresh misses")
        ok, differ = knn_check(got, serve.encode_many(fresh), db_vectors,
                               QUERY_K)
        rounding_rows += differ
        if not ok:
            result.fail(f"knn_batch block {block} differs from brute force "
                        "beyond float32 rounding")
        if tracer is None and block % LOAD_EVERY == LOAD_EVERY - 1:
            load()

    loop_s = time.perf_counter() - loop_start
    ranks = serve.rank_of_many(queries, database, targets)
    mean_rank = float(np.mean(ranks))
    result.attempted = blocks + 1
    if not math.isfinite(mean_rank):
        result.fail(f"mean_rank is not finite: {mean_rank}")

    result.measure("setup_s", median(setups),
                   f"setup_s [s] (median of {len(setups)} checkpoint loads)")
    _measure_ops(result, "query", "queries", phases[0])
    result.measure("quality", mean_rank, "mean_rank [rank]")
    result.measure("encode_traj_per_s", encode_rate,
                   f"encode_traj_per_s [traj/s] (cold database, fastest "
                   f"of {len(models)} rounds)")
    result.measure("peak_rss_mb", peak_rss_mb(), "peak_rss_mb [MB]")
    result.facts.update(blocks=blocks, loop_s=round(loop_s, 2),
                        loop_cache_hits=int(loop_cache[0]),
                        loop_cache_misses=int(loop_cache[1]),
                        knn_rows_off_by_rounding=rounding_rows)
    if tracer is not None:
        result.facts.update(traced_blocks=len(phases[1]),
                            overhead=_overhead(*phases), **cache)
    return result


def check_quality_repeats(workload: str, seed: int, result: RunResult,
                          code: str) -> None:
    """Same workload, seed and ``code`` (a digest of the program and the
    benchmark) must give the identical quality value.

    The first run records it under ``_cache/``; later runs compare.
    """
    if "quality" not in result.metrics:
        return
    result.attempted += 1
    value = result.metrics["quality"]
    path = CACHE_DIR / "quality.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}|{seed}|{code}"
    if key not in records:
        records[key] = value
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(records, indent=1, sort_keys=True))
        os.replace(tmp, path)
    elif records[key] != value:
        result.fail(f"quality {value!r} differs from {records[key]!r} "
                    f"recorded earlier for seed {seed}")


def run(workload: str, seed: int, seconds: float, trace: bool
        ) -> Tuple[RunResult, Optional[Dict[str, float]]]:
    """Run one workload; with ``trace`` also return its per-layer metrics."""
    tracer = program_tracer() if trace else None
    if workload in TRAIN_WORKLOADS:
        result = run_train(TRAIN_WORKLOADS[workload], seed, seconds, tracer)
    elif workload == "query-porto":
        result = run_query(seed, seconds, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if tracer is None:
        return result, None
    tracer.write(CACHE_DIR / f"spans-{workload}-{seed}.jsonl")
    layers = layer_metrics(tracer.spans)
    layers["t2vec.cache_hits"] = result.facts.get("cache_hits", 0.0)
    layers["t2vec.cache_misses"] = result.facts.get("cache_misses", 0.0)
    layers["trace.overhead"] = result.facts.get("overhead", math.nan)
    return result, layers


if __name__ == "__main__":
    # ``ensure_query_model`` runs this file to fit the serving model.
    fit_query_model(Path(sys.argv[1]))
