"""Composition of the full model: dual embeddings, optional feature
generation, and a pluggable classifier head, with hand-written backprop
end to end.
"""
from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import classifier as clf_mod
from . import featuregen as fg_mod
from . import nn
from .classifier import ClassifierConfig
from .data import Batch, DatasetSchema, Split, make_batches
from .embedding import EmbeddingTable, assemble_embedding_matrix, backward_embedding
from .featuregen import FeatureGenConfig


@dataclass
class ModelConfig:
    k: int = 8
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    featgen: Optional[FeatureGenConfig] = None
    include_raw: bool = True

    def validate(self, n_f: int) -> None:
        """ConfigError unless a model of this config builds and trains on n_f fields."""
        if self.k < 1:
            raise nn.ConfigError(f"embedding size must be >= 1, got {self.k}")
        if not self.include_raw and self.featgen is None:
            raise nn.ConfigError("a model needs raw features, generated features, or both")
        if self.featgen is not None:
            self.featgen.validate(n_f)
        self.classifier.validate()
        t = self.augmented_fields(n_f)
        least = 2 if self.classifier.kind in ("ipnn", "fm", "deepfm") else 1
        if t < least:
            raise nn.ConfigError(f"classifier kind {self.classifier.kind!r} needs T >= {least} "
                                 f"raw plus generated fields, got {t}")

    def augmented_fields(self, n_f: int) -> int:
        """T: raw plus generated field count seen by the classifier."""
        t = n_f if self.include_raw else 0
        if self.featgen is not None:
            t += fg_mod.generated_count(n_f, self.featgen)
        return t

    def to_dict(self) -> dict:
        """Field name -> value, nested configs as dicts; the JSON form is the
        checkpoint's config blob and the config digest's model part."""
        return _to_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict, also for its JSON form (lists for tuples);
        missing keys take the field defaults, and unknown keys or values of
        the wrong type raise ValueError naming the dotted key."""
        return _from_dict(cls, d)


# Each thread of a Glorot draw fills its span of the stream GLOROT_SLICE
# values at a time, so its float64 temporary is one slice rather than a whole
# tensor (77 MB for ref's 6720x1440 recombination). build draws a stream of at
# least 2 * GLOROT_SLICE values in two halves, the second on the helper thread.
GLOROT_SLICE = 1 << 16


def _glorot_fill(rng: np.random.Generator, spans, lo: int, hi: int) -> None:
    """Fill values lo..hi of a Glorot stream from rng, which stands at value
    lo. spans lists (flat view, bound, start) per tensor in stream order:
    value start + i of the stream is element i of that tensor, drawn
    uniform in [-bound, bound) and cast to its dtype."""
    for flat, bound, start in spans:
        a, b = max(lo, start), min(hi, start + flat.size)
        for i in range(a, b, GLOROT_SLICE):
            n = min(GLOROT_SLICE, b - i)
            flat[i - start:i - start + n] = rng.uniform(-bound, bound, size=n)


# forward_batch forks the emb.clf gather to the helper thread, beside the
# emb.gen gather and feature generation, when its output has at least
# GATHER_FORK_MIN values (b * n_f * k). Measured on a 2-vCPU host, a fork's
# round trip (waking the helper, then two threads handing the GIL back and
# forth) cost the calling thread 0.16-0.28 ms: more than toy's gathers (0.05
# ms at 16384 values, 0.15 ms at 65536) and ref's (0.1 ms at 122880, whose
# 40-float rows copy fast), while wide's multivalent gathers (0.7 ms at
# 131072 values, 2.2 ms at 262144) were hidden in full.
GATHER_FORK_MIN = 1 << 17

# predict_scores scores a batch of at least EVAL_SPLIT_MIN rows in two parts,
# rows mid.. on the helper thread, where nn.row_cut allows it. An infer-mode
# score depends on its own row alone, and on a 2-vCPU host (OpenBLAS 0.3.31,
# AVX-512, 1 BLAS thread) a cut at mid = n // 32 * 16 gave the bytes of the
# whole batch at n = 513..1024, at float32 and float64, where cuts at 15, 17,
# 24, 33 or 65 rows changed some scores. Serial time over split time of one
# forward: toy 0.73x at 256 rows, 1.08-1.17x at 512 and 1.09-1.55x at 1024;
# wide 0.96x at 128, 1.10x at 256 and 1.33x at 512; ref 1.01x at 64 and
# 1.17-1.20x at 128. 512 rows gain on all three. row_cut keeps ref's batches
# whole by the bytes of their parts (nn.PART_BYTES_MAX), and a 1024-row wide
# evaluate, cut with its recombination split again in each part, fell from
# 11.2-11.6 to 7.9-8.2 ms.
EVAL_SPLIT_MIN = 512


@functools.cache
def field_types(cls) -> dict[str, type]:
    """Field name -> declared type of dataclass cls, Optional[X] read as X."""
    hints = get_type_hints(cls)
    return {f.name: get_args(tp)[0] if get_origin(tp := hints[f.name]) is Union else tp
            for f in fields(cls)}


def _to_dict(obj) -> dict:
    return {name: _to_dict(v) if is_dataclass(v) else v for name, v in vars(obj).items()}


def _from_dict(cls, d: dict, prefix: str = ""):
    if not isinstance(d, dict):
        where = repr(prefix[:-1]) if prefix else "blob"
        raise ValueError(f"model config {where} must be a mapping, got {type(d).__name__}")
    types = field_types(cls)
    optional = {f.name for f in fields(cls) if f.default is None}
    kwargs = {}
    for name, v in d.items():
        if name not in types:
            raise ValueError(f"unknown model config key {prefix + name!r}")
        tp = types[name]
        if is_dataclass(tp) and v is not None:
            v = _from_dict(tp, v, f"{prefix}{name}.")
        elif not (_is_a(v, tp) or v is None and name in optional):
            want = str(tp) if get_origin(tp) else tp.__name__
            raise ValueError(f"model config key {prefix + name!r} must be {want}, got {v!r}")
        kwargs[name] = tuple(v) if isinstance(v, list) else v
    return cls(**kwargs)


def _is_a(v, tp) -> bool:
    """v fits field type tp as JSON holds it: no bool for a number, an int
    for a float, and a list for a tuple."""
    if get_origin(tp) is tuple:
        return isinstance(v, (list, tuple)) and all(_is_a(x, int) for x in v)
    if tp is float:
        tp = (int, float)
    return isinstance(v, tp) and (tp is bool or not isinstance(v, bool))


class FgcnnModel:
    """Holds all learnable tensors plus batch-norm running stats, and runs
    the composed forward/backward."""

    def __init__(self, schema: DatasetSchema, config: ModelConfig,
                 params: dict[str, np.ndarray], bn_states: dict[str, nn.BnState],
                 precision: str = "f32"):
        self.schema = schema
        self.config = config
        self.params = params
        self.bn_states = bn_states
        self.precision = precision
        self.dtype = nn.as_dtype(precision)
        self._offsets = schema.offsets()

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, schema: DatasetSchema, config: ModelConfig, seed: int,
              precision: str = "f32") -> "FgcnnModel":
        """Allocate every tensor param_shapes names, in its order, under one
        rule: ones for batch-norm scales; zeros for biases, batch-norm
        shifts and the FM linear weights; Glorot-uniform otherwise, with
        fans rf*shape[-2] and rf*shape[-1] where rf = prod(shape[:-2])
        (h*in_maps and h*out_maps for a conv kernel [h, 1, in_maps, out_maps]).

        The Glorot tensors take consecutive spans of one uniform stream from
        default_rng(seed), in param_shapes order. Generator.uniform takes
        exactly one 64-bit PCG64 output per double, so a copy of the bit
        generator moved on with advance(mid) draws values mid.. of the same
        stream: a stream of at least 2 * GLOROT_SLICE values is drawn in two
        halves at once, values mid.. on the helper thread (nn.beside), with
        the bits of a serial draw."""
        dtype = nn.as_dtype(precision)
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        spans = []
        total = 0
        shapes = param_shapes(config, schema.n_f, schema.t_f)
        for name, shape in shapes.items():
            if name.endswith(".bn.g"):
                params[name] = np.ones(shape, dtype=dtype)
            elif name.endswith(".b") or name == "clf.linear.w":
                params[name] = np.zeros(shape, dtype=dtype)
            else:
                rf = math.prod(shape[:-2])
                bound = np.sqrt(6.0 / (rf * shape[-2] + rf * shape[-1]))
                params[name] = np.empty(shape, dtype=dtype)
                spans.append((params[name].reshape(-1), bound, total))
                total += params[name].size
        if total < 2 * GLOROT_SLICE:
            _glorot_fill(rng, spans, 0, total)
        else:
            mid = total // 2
            ahead = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(mid))
            nn.beside(lambda: _glorot_fill(ahead, spans, mid, total),
                      lambda: _glorot_fill(rng, spans, 0, mid))
        bn_states = {site: nn.init_bn_state(dim, dtype)
                     for site, dim in bn_sites(shapes).items()}
        return cls(schema, config, params, bn_states, precision)

    def _table(self, name: str) -> EmbeddingTable:
        return EmbeddingTable(
            weights=self.params[name],
            offsets=self._offsets,
            field_names=tuple(self.schema.field_names()),
            cardinalities=tuple(f.cardinality for f in self.schema.fields),
        )

    # -- forward / backward ---------------------------------------------

    def forward_batch(self, batch: Batch, mode: str = "infer",
                      dropout_rng: Optional[np.random.Generator] = None):
        """Returns (yhat, cache) under the forward contract of nn: the cache
        feeds backward_batch, and a train-mode call advances self.bn_states.

        With feature generation and raw features both on, the emb.clf
        gather runs on the helper thread beside the emb.gen gather and
        generate (nn.beside) once its output has GATHER_FORK_MIN values."""
        cfg = self.config

        def generated():
            if cfg.featgen is None:
                return None, None
            e_gen = assemble_embedding_matrix(batch, self._table("emb.gen"))
            return fg_mod.generate(e_gen, self.params, cfg.featgen, self.bn_states, mode)

        def raw():
            if not cfg.include_raw:
                return None
            return assemble_embedding_matrix(batch, self._table("emb.clf"))

        parallel = (cfg.featgen is not None and cfg.include_raw
                    and batch.indices.shape[0] * self.schema.n_f * cfg.k >= GATHER_FORK_MIN)
        e_raw, (r, fg_cache) = nn.beside(raw, generated, parallel)
        logit, clf_cache = clf_mod.classifier_forward(
            fg_mod.augment(e_raw, r), self.params, cfg.classifier, self.bn_states, mode,
            dropout_rng)
        cache = {"batch": batch, "fg": fg_cache, "clf": clf_cache} if mode == "train" else None
        return nn.sigmoid(logit), cache

    def backward_batch(self, cache: dict, dlogit: np.ndarray,
                       emit=None) -> dict[str, np.ndarray]:
        """Gradients for every trainable tensor, keyed like self.params. With
        emit, each is handed to emit(name, make) once backward has made its
        last read of that tensor (see nn) and the returned dict is empty."""
        cfg = self.config
        batch: Batch = cache["batch"]
        sink, grads = nn.gradient_sink()
        emit = emit or sink
        d_aug = clf_mod.classifier_backward(
            dlogit.astype(self.dtype), cache["clf"], self.params, cfg.classifier, emit)
        pos = 0
        if cfg.include_raw:
            pos = self.schema.n_f
            self._emit_embedding("emb.clf", d_aug[:, :pos], batch, emit)
        if cfg.featgen is not None:
            d_e = fg_mod.generate_backward(d_aug[:, pos:], cache["fg"], emit)
            self._emit_embedding("emb.gen", d_e, batch, emit)
        return grads

    def _emit_embedding(self, name: str, grad_output: np.ndarray, batch: Batch,
                        emit) -> None:
        """Emit the scatter of grad_output into table name; its zeroed
        buffer is allocated here, by the calling thread."""
        table = self._table(name)
        out = np.zeros_like(table.weights, dtype=grad_output.dtype)
        emit(name, lambda: backward_embedding(grad_output, batch, table, out))

    # -- inference -------------------------------------------------------

    def predict_scores(self, split: Split, batch_size: int = 1024) -> np.ndarray:
        """Scores in split order. A batch of at least EVAL_SPLIT_MIN rows is
        scored in two parts where nn.row_cut allows, the upper one on the
        helper thread (nn.beside), with the bits of the whole batch; large
        products split onto the helper too (nn.matmul), in a part as well."""
        def score(batch: Batch, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
            part = Batch(batch.indices[lo:hi], batch.value_mask[lo:hi], batch.labels[lo:hi])
            return self.forward_batch(part, mode="infer")[0]

        products = row_products(self.config, self.schema.n_f)
        scores = []
        for batch in make_batches(split, batch_size):
            mid = (nn.row_cut(batch.size, products, self.dtype.itemsize)
                   if batch.size >= EVAL_SPLIT_MIN else None)
            if mid is None:
                scores.append(score(batch))
            else:
                upper, lower = nn.beside(lambda: score(batch, mid), lambda: score(batch, 0, mid))
                scores += (lower, upper)
        return np.concatenate(scores)

    # -- utilities --------------------------------------------------------

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def param_shapes(config: ModelConfig, n_f: int, t_f: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter FgcnnModel.build allocates for n_f
    fields and t_f embedding rows; config.validate, its one check, runs first."""
    config.validate(n_f)
    k = config.k
    shapes: dict[str, tuple[int, ...]] = {}
    if config.featgen is not None:
        shapes["emb.gen"] = (t_f, k)
    if config.include_raw:
        shapes["emb.clf"] = (t_f, k)
    if config.featgen is not None:
        shapes.update(fg_mod.param_shapes(n_f, k, config.featgen))
    shapes.update(clf_mod.param_shapes(config.classifier, config.augmented_fields(n_f), k))
    return shapes


def row_products(config: ModelConfig, n_f: int) -> list[tuple[int, int, int]]:
    """(m, c, o) of every BLAS product whose rows are a batch's (see nn.row_cut)."""
    products = clf_mod.row_products(config.classifier, config.augmented_fields(n_f), config.k)
    return products + (fg_mod.row_products(n_f, config.k, config.featgen)
                       if config.featgen is not None else [])


def bn_sites(shapes: dict[str, tuple[int, ...]]) -> dict[str, int]:
    """Batch-norm site name -> normalized dimension, for every site of a
    model with these param_shapes: each ".bn.g" name less its ".g"."""
    return {name[:-len(".g")]: shape[0]
            for name, shape in shapes.items() if name.endswith(".bn.g")}
