"""In-memory spans around the program's layer entry points.

The program is not edited: :class:`Tracer` replaces public functions and
methods of ``repro`` with wrappers that record one :class:`Span` per call
(name, start, end, parent span, thread) and restores the originals on
:meth:`Tracer.uninstall`.  Parents come from a per-thread stack, so a span
opened on the data pipeline's prefetch thread is never a child of the
training step that happens to be running on the main thread.  Spans stay
in memory until :meth:`Tracer.write` writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Runs after each call: ``(tracer, args, result) -> {count: amount}``
#: or ``None``.
Hook = Callable[["Tracer", tuple, object], Optional[Dict[str, float]]]


class Tracer:
    """Wraps entry points and keeps every span in memory until the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._points: List[Tuple[object, str, str, Optional[Hook]]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, owner: object, attr: str, name: str,
            hook: Optional[Hook] = None) -> None:
        """Register ``owner.attr`` (function, method, classmethod) as a span.

        A class must define ``attr`` itself, so that restoring it never
        shadows an inherited one.
        """
        defined = attr in vars(owner) if isinstance(owner, type) \
            else hasattr(owner, attr)
        if not defined:
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        self._points.append((owner, attr, name, hook))

    def timed(self, fn: Callable, name: str,
              hook: Optional[Hook] = None) -> Callable:
        """``fn`` wrapped to record one span per call."""
        tracer, spans, ids, stack_of = self, self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = hook(tracer, args, result) \
                    if hook and result is not None else None
                spans.append(Span(span_id, name, start, end, parent,
                                  threading.get_ident(), counts))
        return wrapper

    def install(self) -> None:
        """Replace every registered entry point with its recording wrapper."""
        if self._saved:
            return
        for owner, attr, name, hook in self._points:
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.timed(raw.__func__, name, hook))
            else:
                wrapped = self.timed(raw, name, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original entry points back."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


# ----------------------------------------------------------------------
# Self time and per-layer aggregation
# ----------------------------------------------------------------------
def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(s.start, s.end, children[s.id])
            for s in spans}


class SpanIndex:
    """Totals over a span list: durations, self times, counts, ancestry."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.self_time = self_times(self.spans)

    def named(self, name: str, within: Optional[str] = None) -> List[Span]:
        out = [s for s in self.spans if s.name == name]
        if within is not None:
            out = [s for s in out if self.has_ancestor(s, within)]
        return out

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            p = self.by_id.get(parent)
            if p is None:
                return False
            if p.name == name:
                return True
            parent = p.parent
        return False

    def total(self, name: str, within: Optional[str] = None) -> float:
        return sum(s.duration for s in self.named(name, within))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s.id] for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum((s.counts or {}).get(key, 0.0) for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))


# ----------------------------------------------------------------------
# The program's layer entry points
# ----------------------------------------------------------------------
def _batch_tokens(tracer: Tracer, args: tuple, batch) -> Dict[str, float]:
    real = float(batch.src_mask.sum() + batch.tgt_mask.sum())
    total = float(batch.src_mask.size + batch.tgt_mask.size)
    return {"real": real, "pad": total - real}


def _step_tokens(tracer: Tracer, args: tuple, result) -> Dict[str, float]:
    batch = args[1]
    return {"tokens": float(batch.src_mask.sum() + batch.tgt_mask.sum())}


def _pairs(tracer: Tracer, args: tuple, pairs) -> Dict[str, float]:
    return {"pairs": float(len(pairs))}


def _time_loss_backward(tracer: Tracer, args: tuple, loss) -> None:
    """Give each backward closure of one loss graph a ``losses.backward`` span.

    The walk stops at the decoder states ``sequence_loss`` was given, so
    RNN backward stays in the self time of ``nn.backward``.
    """
    seen, stack = {id(args[1])}, [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            node._backward = tracer.timed(node._backward, "losses.backward")
        stack.extend(node._prev)


#: (module, attribute path, span name, count hook).  Module-level names are
#: patched in the module that *calls* them, so the caller's lookup finds
#: the wrapper.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("repro.data.pipeline", "synthesize_token_pairs", "data.produce", _pairs),
    ("repro.data.pipeline", "make_batch", "data.make_batch", _batch_tokens),
    ("repro.data.pipeline", "Prefetcher.__next__", "data.batch_wait", None),
    ("repro.core.t2vec", "tokenize", "data.tokenize", None),
    ("repro.core.t2vec", "pad_batch", "data.pad", None),
    ("repro.spatial.vocab", "CellVocabulary.build", "spatial.vocab_build", None),
    ("repro.spatial.proximity", "ProximityVocabulary.proximity_candidates",
     "spatial.candidates", None),
    ("repro.spatial.proximity", "ProximityVocabulary.sample_noise",
     "spatial.noise", None),
    ("repro.core.cell_embedding", "CellEmbeddingTrainer.train",
     "cell_embedding.train", None),
    ("repro.core.trainer", "sequence_loss", "losses.forward",
     _time_loss_backward),
    ("repro.core.encoder_decoder", "EncoderDecoder.encode", "nn.encode", None),
    ("repro.core.encoder_decoder", "EncoderDecoder.decode", "nn.decode", None),
    ("repro.core.encoder_decoder", "EncoderDecoder.represent",
     "nn.represent", None),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward", None),
    ("repro.core.trainer", "clip_grad_norm", "nn.clip", None),
    ("repro.nn.optim", "Adam.step", "nn.adam", None),
    ("repro.core.trainer", "Trainer.train_step", "trainer.step", _step_tokens),
    ("repro.core.trainer", "Trainer.evaluate", "trainer.evaluate", None),
    ("repro.core.t2vec", "T2Vec.encode_many", "t2vec.encode_many", None),
    ("repro.core.t2vec", "T2Vec.knn_batch", "t2vec.knn_batch", None),
    ("repro.core.index", "ExactIndex.__init__", "index.build", None),
    ("repro.core.index", "ExactIndex.knn_batch", "index.knn", None),
)


def program_tracer() -> Tracer:
    """A tracer registered on every entry point in :data:`ENTRY_POINTS`."""
    tracer = Tracer()
    for module_name, path, name, hook in ENTRY_POINTS:
        owner: object = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.add(owner, attr, name, hook)
    return tracer


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics (seconds, counts, ratios) from one traced run.

    Times are summed over calls.  ``losses.forward_s`` and the loss shares
    count only loss calls inside training steps; validation loss is part
    of ``trainer.evaluate_s``.  ``losses.backward_s`` is the loss graph's
    share of ``nn.backward_s``; the rest of it is RNN backward.
    """
    ix = SpanIndex(spans)
    real = ix.count("data.make_batch", "real")
    pad = ix.count("data.make_batch", "pad")
    step_s = ix.total("trainer.step")
    loss_in_steps = ix.total("losses.forward", within="trainer.step")
    loss_backward = ix.total("losses.backward")
    return {
        "data.produce_s": ix.total("data.produce"),
        "data.batch_wait_s": ix.total("data.batch_wait"),
        "data.pad_per_token": pad / real if real else 0.0,
        "data.pairs": ix.count("data.produce", "pairs"),
        "data.tokenize_s": ix.total("data.tokenize"),
        "spatial.vocab_build_s": ix.total("spatial.vocab_build"),
        "spatial.candidates_s": ix.total("spatial.candidates"),
        "spatial.noise_s": ix.total("spatial.noise"),
        "cell_embedding.train_s": ix.total("cell_embedding.train"),
        "losses.forward_s": loss_in_steps,
        "losses.backward_s": loss_backward,
        "losses.forward_share": loss_in_steps / step_s if step_s else 0.0,
        "losses.step_share":
            (loss_in_steps + loss_backward) / step_s if step_s else 0.0,
        "nn.encode_s": ix.total("nn.encode"),
        "nn.decode_s": ix.total("nn.decode"),
        "nn.backward_s": ix.total("nn.backward"),
        "nn.clip_s": ix.total("nn.clip"),
        "nn.adam_s": ix.total("nn.adam"),
        "nn.represent_s": ix.total("nn.represent"),
        "trainer.step_s": step_s,
        "trainer.step_self_s": ix.self_total("trainer.step"),
        "trainer.evaluate_s": ix.total("trainer.evaluate"),
        "trainer.steps": float(ix.calls("trainer.step")),
        "trainer.tokens": ix.count("trainer.step", "tokens"),
        "t2vec.encode_many_s": ix.total("t2vec.encode_many"),
        "t2vec.encode_self_s": ix.self_total("t2vec.encode_many"),
        "t2vec.knn_batch_s": ix.total("t2vec.knn_batch"),
        "t2vec.knn_batch_self_s": ix.self_total("t2vec.knn_batch"),
        "index.build_s": ix.total("index.build"),
        "index.knn_s": ix.total("index.knn"),
        "trace.spans": float(len(ix.spans)),
    }
