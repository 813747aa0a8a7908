"""Composition of the full model: dual embeddings, optional feature
generation, and a pluggable classifier head, with hand-written backprop
end to end.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import classifier as clf_mod
from . import featuregen as fg_mod
from . import nn
from .classifier import ClassifierConfig
from .data import Batch, DatasetSchema, make_batches
from .embedding import (EmbeddingTable, assemble_embedding_matrix,
                        backward_embedding, init_embedding_table)
from .featuregen import FeatureGenConfig


@dataclass
class ModelConfig:
    k: int = 8
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    featgen: Optional[FeatureGenConfig] = None
    include_raw: bool = True

    def validate(self, n_f: int) -> None:
        if self.k < 1:
            raise ValueError(f"embedding size must be >= 1, got {self.k}")
        if not self.include_raw and self.featgen is None:
            raise ValueError("a model needs raw features, generated features, or both")
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
        d = {
            "k": self.k,
            "include_raw": self.include_raw,
            "classifier": {
                "kind": self.classifier.kind,
                "hidden_sizes": list(self.classifier.hidden_sizes),
                "use_bn": self.classifier.use_bn,
                "dropout_keep": self.classifier.dropout_keep,
            },
            "featgen": None,
        }
        if self.featgen is not None:
            fg = self.featgen
            d["featgen"] = {
                "kernel_heights": list(fg.kernel_heights),
                "feature_maps": list(fg.feature_maps),
                "new_maps": list(fg.new_maps),
                "pool_height": fg.pool_height,
                "use_bn": fg.use_bn,
                "use_recombination": fg.use_recombination,
                "style": fg.style,
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        c = d["classifier"]
        featgen = None
        if d.get("featgen") is not None:
            f = d["featgen"]
            featgen = FeatureGenConfig(
                kernel_heights=tuple(f["kernel_heights"]),
                feature_maps=tuple(f["feature_maps"]),
                new_maps=tuple(f["new_maps"]),
                pool_height=f["pool_height"],
                use_bn=f["use_bn"],
                use_recombination=f["use_recombination"],
                style=f.get("style", "cnn"),
            )
        return cls(
            k=d["k"],
            include_raw=d["include_raw"],
            classifier=ClassifierConfig(
                kind=c["kind"], hidden_sizes=tuple(c["hidden_sizes"]),
                use_bn=c["use_bn"], dropout_keep=c["dropout_keep"]),
            featgen=featgen,
        )


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
        config.validate(schema.n_f)
        dtype = nn.as_dtype(precision)
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        n_f, k = schema.n_f, config.k
        if config.featgen is not None:
            params["emb.gen"] = _embedding_weights(schema, k, rng, dtype)
        if config.include_raw:
            params["emb.clf"] = _embedding_weights(schema, k, rng, dtype)
        if config.featgen is not None:
            params.update(fg_mod.init_params(n_f, k, config.featgen, rng, dtype))
        t = config.augmented_fields(n_f)
        params.update(clf_mod.init_params(config.classifier, t, k, rng, dtype))
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
        """Returns (yhat, cache); cache carries everything backward_batch needs
        plus the updated batch-norm states under "bn_updates"."""
        cfg = self.config
        cache: dict = {"batch": batch, "mode": mode, "bn_updates": {}}
        r = None
        if cfg.featgen is not None:
            e_gen = assemble_embedding_matrix(batch, self._table("emb.gen"))
            r, fg_cache, fg_states = fg_mod.generate(
                e_gen, self.params, cfg.featgen, self.bn_states, mode)
            cache["fg"] = fg_cache
            cache["bn_updates"].update(fg_states)
        e_raw = None
        if cfg.include_raw:
            e_raw = assemble_embedding_matrix(batch, self._table("emb.clf"))
            cache["n_raw"] = e_raw.shape[1]
        e_aug = fg_mod.augment(e_raw, r)
        logit, clf_cache, clf_states = clf_mod.classifier_forward(
            e_aug, self.params, cfg.classifier, self.bn_states, mode, dropout_rng)
        cache["clf"] = clf_cache
        cache["bn_updates"].update(clf_states)
        yhat = nn.sigmoid(logit)
        cache["yhat"] = yhat
        return yhat, cache

    def backward_batch(self, cache: dict, dlogit: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients for every trainable tensor, keyed like self.params."""
        cfg = self.config
        batch: Batch = cache["batch"]
        d_aug, grads = clf_mod.classifier_backward(
            dlogit.astype(self.dtype), cache["clf"], self.params, cfg.classifier)
        pos = 0
        if cfg.include_raw:
            n_raw = cache["n_raw"]
            d_raw = d_aug[:, :n_raw]
            grads["emb.clf"] = backward_embedding(d_raw, batch, self._table("emb.clf"))
            pos = n_raw
        if cfg.featgen is not None:
            d_r = d_aug[:, pos:]
            d_e, fg_grads = fg_mod.generate_backward(d_r, cache["fg"], self.params)
            grads.update(fg_grads)
            grads["emb.gen"] = backward_embedding(d_e, batch, self._table("emb.gen"))
        return grads

    def commit_bn(self, cache: dict) -> None:
        self.bn_states.update(cache["bn_updates"])

    # -- inference -------------------------------------------------------

    def predict_scores(self, instances, batch_size: int = 1024) -> np.ndarray:
        scores = []
        for batch in make_batches(instances, batch_size):
            yhat, _ = self.forward_batch(batch, mode="infer")
            scores.append(yhat)
        return np.concatenate(scores)

    # -- utilities --------------------------------------------------------

    def param_names(self) -> list[str]:
        return sorted(self.params)

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def clone_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def astype(self, precision: str) -> "FgcnnModel":
        """Same model at a different float width (float32 -> float64 is exact)."""
        dtype = nn.as_dtype(precision)
        params = {k: v.astype(dtype) for k, v in self.params.items()}
        states = {
            k: nn.BnState(mean=s.mean.astype(dtype), var=s.var.astype(dtype),
                          momentum=s.momentum)
            for k, s in self.bn_states.items()
        }
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
    """Batch-norm site name -> normalized dimension, for every site of the model."""
    sites: dict[str, int] = {}
    if config.featgen is not None:
        sites.update(fg_mod.bn_sites(n_f, config.k, config.featgen))
    sites.update(clf_mod.bn_sites(config.classifier))
    return sites


def _embedding_weights(schema: DatasetSchema, k: int, rng, dtype) -> np.ndarray:
    return init_embedding_table(schema, k, rng, dtype).weights
