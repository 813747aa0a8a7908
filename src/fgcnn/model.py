"""Composition of the full model: dual embeddings, optional feature
generation, and a pluggable classifier head, with hand-written backprop
end to end.
"""
from __future__ import annotations

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
        if self.k < 1:
            raise nn.ConfigError(f"embedding size must be >= 1, got {self.k}")
        if not self.include_raw and self.featgen is None:
            raise nn.ConfigError("a model needs raw features, generated features, or both")
        if self.featgen is not None:
            self.featgen.validate(n_f)
        self.classifier.validate()

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
        (h*in_maps and h*out_maps for a conv kernel [h, 1, in_maps, out_maps])."""
        dtype = nn.as_dtype(precision)
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(config, schema.n_f, schema.t_f).items():
            if name.endswith(".bn.g"):
                params[name] = np.ones(shape, dtype=dtype)
            elif name.endswith(".b") or name == "clf.linear.w":
                params[name] = np.zeros(shape, dtype=dtype)
            else:
                rf = math.prod(shape[:-2])
                bound = np.sqrt(6.0 / (rf * shape[-2] + rf * shape[-1]))
                params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        bn_states = {site: nn.init_bn_state(dim, dtype)
                     for site, dim in bn_site_dims(config, schema.n_f).items()}
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
        feeds backward_batch, and a train-mode call advances self.bn_states."""
        cfg = self.config
        r = fg_cache = e_raw = None
        if cfg.featgen is not None:
            e_gen = assemble_embedding_matrix(batch, self._table("emb.gen"))
            r, fg_cache = fg_mod.generate(e_gen, self.params, cfg.featgen, self.bn_states, mode)
        if cfg.include_raw:
            e_raw = assemble_embedding_matrix(batch, self._table("emb.clf"))
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
        """Scores in split order. Large products split onto the active
        helper (nn.matmul), or onto one this call owns."""
        scores = []
        with nn.active_helper():
            for batch in make_batches(split, batch_size):
                yhat, _ = self.forward_batch(batch, mode="infer")
                scores.append(yhat)
        return np.concatenate(scores)

    # -- utilities --------------------------------------------------------

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def astype(self, precision: str) -> "FgcnnModel":
        """Same model at a different float width (float32 -> float64 is exact)."""
        dtype = nn.as_dtype(precision)
        params = {k: v.astype(dtype) for k, v in self.params.items()}
        states = {k: nn.BnState(mean=s.mean.astype(dtype), var=s.var.astype(dtype))
                  for k, s in self.bn_states.items()}
        return FgcnnModel(self.schema, self.config, params, states, precision)


def param_shapes(config: ModelConfig, n_f: int, t_f: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter FgcnnModel.build allocates for n_f
    fields and t_f embedding rows."""
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


def bn_site_dims(config: ModelConfig, n_f: int) -> dict[str, int]:
    """Batch-norm site name -> normalized dimension, for every site of the
    model: the ".bn.g" shapes of param_shapes (which the embedding height
    does not affect)."""
    return {name[:-len(".g")]: shape[0]
            for name, shape in param_shapes(config, n_f, 0).items()
            if name.endswith(".bn.g")}
