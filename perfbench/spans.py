"""Span tracing for the traced benchmark run.

Hooks wrap the module-level functions each layer calls, on the attribute the
caller looks up at call time (fgcnn.model.assemble_embedding_matrix, not the
definition in fgcnn.embedding, because model imports the name). Spans are
kept in memory as per-name aggregates; each records its parent span, so
shared kernels such as nn.affine can be attributed to the stage calling them.
A layer's self time is its span time minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# span name -> (owner, attribute) pairs patched for it; "module:Class" owners
# patch a method or classmethod on the class.
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "data.read_dataset_file": (("fgcnn.data", "read_dataset_file"),),
    "data.build_vocab": (("fgcnn.data", "build_vocab"),),
    "data.encode_instances": (("fgcnn.data", "encode_instances"),),
    "data.make_batches": (("fgcnn.training", "make_batches"), ("fgcnn.model", "make_batches")),
    "embedding.assemble": (("fgcnn.model", "assemble_embedding_matrix"),),
    "embedding.backward": (("fgcnn.model", "backward_embedding"),),
    "featuregen.generate": (("fgcnn.featuregen", "generate"),),
    "featuregen.generate_backward": (("fgcnn.featuregen", "generate_backward"),),
    "featuregen.conv_fwd": (("fgcnn.featuregen", "conv_affine"),),
    "featuregen.conv_bwd": (("fgcnn.featuregen", "conv_affine_backward"),),
    "featuregen.pool_fwd": (("fgcnn.featuregen", "pool_forward"),),
    "featuregen.pool_bwd": (("fgcnn.featuregen", "pool_backward"),),
    "classifier.forward": (("fgcnn.classifier", "classifier_forward"),),
    "classifier.backward": (("fgcnn.classifier", "classifier_backward"),),
    "classifier.fm_fwd": (("fgcnn.classifier", "fm_layer"),),
    "classifier.fm_bwd": (("fgcnn.classifier", "fm_layer_backward"),),
    "classifier.loss": (("fgcnn.training", "loss_and_grad"),),
    "nn.affine": (("fgcnn.nn", "affine"),),
    "nn.affine_backward": (("fgcnn.nn", "affine_backward"),),
    "nn.batchnorm_fwd": (("fgcnn.nn", "batchnorm_forward"),),
    "nn.batchnorm_bwd": (("fgcnn.nn", "batchnorm_backward"),),
    "nn.adam_step": (("fgcnn.nn", "adam_step"),),
    "model.build": (("fgcnn.model:FgcnnModel", "build"),),
    "model.forward_batch": (("fgcnn.model:FgcnnModel", "forward_batch"),),
    "model.backward_batch": (("fgcnn.model:FgcnnModel", "backward_batch"),),
    "training.train": (("fgcnn.training", "train"),),
    "training.evaluate": (("fgcnn.training", "evaluate"),),
    "training.auc_score": (("fgcnn.training", "auc_score"),),
    "training.save_checkpoint": (("fgcnn.training", "save_checkpoint"),),
    "training.load_checkpoint": (("fgcnn.training", "load_checkpoint"),),
}

# Spans called once per phase; the rest are per-batch and report percentiles.
ONCE_PER_RUN = ("data.read_dataset_file", "data.build_vocab", "data.encode_instances",
                "model.build", "training.train", "training.evaluate", "training.auc_score",
                "training.save_checkpoint", "training.load_checkpoint")
PER_BATCH = tuple(s for s in HOOKS if s not in ONCE_PER_RUN)

COUNTER_SPAN = "trace.counters"     # time spent computing counters inside hooks


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)          # inclusive, seconds
    self_by_parent: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    """Records nested spans and counters; install() patches the hooks."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self.active = True
        self.installed = False
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        frame = _Frame(name)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if parent is not None:
                parent.child += dur
            st = self.stats.setdefault(name, SpanStats())
            st.calls += 1
            st.durations.append(dur)
            self_s = dur - frame.child
            st.self_s += self_s
            pname = parent.name if parent is not None else "-"
            st.self_by_parent[pname] = st.self_by_parent.get(pname, 0.0) + self_s

    @contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    # -- hooks -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                with self.span(COUNTER_SPAN):
                    try:
                        counter(self, args, out)
                    except (AttributeError, IndexError, TypeError, ValueError):
                        # the hooked signature changed; keep timing, drop the count
                        self.broken_counters.add(name)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every hook target; a target that no longer exists is
        reported as absent rather than failing the run."""
        for name, targets in HOOKS.items():
            found = False
            for owner_path, attr in targets:
                mod_name, _, cls_name = owner_path.partition(":")
                try:
                    owner = importlib.import_module(mod_name)
                    if cls_name:
                        owner = getattr(owner, cls_name)
                except (ImportError, AttributeError):
                    continue
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(name, raw.__func__))
                elif callable(raw):
                    patched = self._wrap(name, raw)
                else:
                    continue
                setattr(owner, attr, patched)
                self._patched.append((owner, attr, raw))
                found = True
            if not found and name not in self.absent:
                self.absent.append(name)
        self.installed = True

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)
        self.installed = False


# ---------------------------------------------------------------------------
# counters measured at the hook boundaries


def _assemble_counter(tracer: Tracer, args, out) -> None:
    batch = args[0]
    tracer.count("embedding.rows_gathered", float(batch.value_mask.sum()))


def _backward_embedding_counter(tracer: Tracer, args, out) -> None:
    _, batch, table = args[:3]
    rows = (batch.indices + table.offsets[None, :, None])[batch.value_mask > 0]
    tracer.count("embedding.scatter_rows", float(rows.size))
    tracer.count("embedding.unique_rows", float(np.unique(rows).size))
    tracer.counters["embedding.grad_bytes"] = float(out.nbytes)


def _adam_counter(tracer: Tracer, args, out) -> None:
    tracer.count("nn.adam_bytes_total", float(args[0].nbytes))


_COUNTERS = {
    "embedding.assemble": _assemble_counter,
    "embedding.backward": _backward_embedding_counter,
    "nn.adam_step": _adam_counter,
}


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None
