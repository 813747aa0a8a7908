"""Pluggable classifiers over the augmented embedding matrix.

Four kinds share one parameter namespace:
  ipnn    pairwise inner products concatenated with flattened embeddings, MLP
  dnn     flattened embeddings only, MLP
  fm      bias + linear term + sum of pairwise inner products, no MLP
  deepfm  MLP logit plus the fm head's linear and pairwise terms

Hidden layers are affine -> optional batch norm -> relu -> optional dropout;
the final projection to one logit has neither batch norm nor activation.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn

KINDS = ("ipnn", "dnn", "fm", "deepfm")
LOSS_EPS = 1e-7


@dataclass
class ClassifierConfig:
    kind: str = "ipnn"
    hidden_sizes: tuple[int, ...] = (64, 32)
    use_bn: bool = False
    dropout_keep: float = 1.0

    @property
    def n_h(self) -> int:
        return len(self.hidden_sizes)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise nn.ConfigError(
                f"unknown classifier kind {self.kind!r}, expected one of {KINDS}")
        if self.kind != "fm" and min(self.hidden_sizes, default=0) < 1:
            raise nn.ConfigError(f"classifier kind {self.kind!r} needs at least one hidden "
                                 f"layer, each of size >= 1, got {list(self.hidden_sizes)}")
        if not (0.0 < self.dropout_keep <= 1.0):
            raise nn.ConfigError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")


@dataclass
class ClampStats:
    """Counts predictions clamped away from 0/1 before taking logs."""
    n_clamped: int = 0


# ---------------------------------------------------------------------------
# FM layer: all pairwise inner products of field rows

@functools.cache
def _pairs(t: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(t, k=1), made once per field count t, read-only."""
    iu, ju = np.triu_indices(t, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def fm_layer(e: np.ndarray) -> np.ndarray:
    """Inner products <e_i, e_j> for all i < j in lexicographic order.

    e: [b, T, k] -> [b, T(T-1)/2].
    """
    b, t, k = e.shape
    if t < 2:
        raise ValueError(f"fm_layer needs at least 2 fields, got {t}")
    gram = nn.matmul(e, e.transpose(0, 2, 1))
    iu, ju = _pairs(t)
    return gram[:, iu, ju]


def fm_layer_backward(grad: np.ndarray, e: np.ndarray) -> np.ndarray:
    b, t, k = e.shape
    iu, ju = _pairs(t)
    # d<e_i, e_j> reaches both e_i and e_j: fill dgram symmetrically so one
    # batched matmul gives (dgram + dgram^T) @ e.
    dgram = np.zeros((b, t, t), dtype=grad.dtype)
    dgram[:, iu, ju] = grad
    dgram[:, ju, iu] = grad
    return nn.matmul(dgram, e)


def _pair_sum(e: np.ndarray) -> np.ndarray:
    """Sum over i<j of <e_i, e_j>, per batch row."""
    total = e.sum(axis=1)
    return 0.5 * ((total * total).sum(axis=1) - (e * e).sum(axis=(1, 2)))


def _pair_sum_backward(dout: np.ndarray, e: np.ndarray) -> np.ndarray:
    total = e.sum(axis=1, keepdims=True)
    return dout[:, None, None] * (total - e)


# ---------------------------------------------------------------------------
# parameter construction

def mlp_input_width(kind: str, t: int, k: int) -> int:
    if kind == "ipnn":
        return t * (t - 1) // 2 + t * k
    return t * k


def param_shapes(config: ClassifierConfig, t: int, k: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    if config.kind in ("fm", "deepfm"):
        shapes["clf.linear.w"] = (t, k)
        shapes["clf.linear.b"] = (1,)
    if config.kind == "fm":
        return shapes
    width = mlp_input_width(config.kind, t, k)
    for i, h in enumerate(config.hidden_sizes, start=1):
        shapes.update(nn.block_shapes(f"clf.fc{i}", (width, h), config.use_bn))
        width = h
    shapes["clf.out.w"] = (width, 1)
    shapes["clf.out.b"] = (1,)
    return shapes


def row_products(config: ClassifierConfig, t: int, k: int) -> list[tuple[int, int, int]]:
    """(m, 1, o) of each affine map's BLAS product (see nn.row_cut). The FM
    gram is one call per batch row, whose size no row cut changes, and the
    linear term's einsum runs no BLAS."""
    return [(math.prod(s), 1, s[-1]) for name, s in param_shapes(config, t, k).items()
            if name.endswith(".w") and name != "clf.linear.w"]


# ---------------------------------------------------------------------------
# forward / backward

def classifier_forward(e: np.ndarray, params: dict[str, np.ndarray],
                       config: ClassifierConfig, bn_states: Optional[dict] = None,
                       mode: str = "infer",
                       dropout_rng: Optional[np.random.Generator] = None):
    """Score the augmented matrix e [b, T, k]: returns (logit, cache) under
    the forward contract of nn."""
    b, t, k = e.shape
    logit = np.zeros(b, dtype=e.dtype)
    if config.kind in ("fm", "deepfm"):
        w = params["clf.linear.w"]
        logit = logit + _pair_sum(e) + np.einsum("btk,tk->b", e, w) + params["clf.linear.b"][0]
    layers, h = [], None
    if config.kind != "fm":
        h = e.reshape(b, t * k)
        if config.kind == "ipnn":
            h = np.concatenate([fm_layer(e), h], axis=1)
        for i in range(1, config.n_h + 1):
            h, block = nn.block_forward(h, params, f"clf.fc{i}", "relu", bn_states, mode)
            mask = None
            if mode == "train" and config.dropout_keep < 1.0:
                if dropout_rng is None:
                    raise ValueError("dropout in train mode needs an rng")
                keep = config.dropout_keep
                mask = (dropout_rng.random(h.shape) < keep).astype(h.dtype) / keep
                h = h * mask
            layers.append((block, mask))
        logit = logit + nn.affine(h, params["clf.out.w"], params["clf.out.b"])[:, 0]
    return logit, {"e": e, "layers": layers, "h_last": h} if mode == "train" else None


def classifier_backward(dlogit: np.ndarray, cache: dict,
                        params: dict[str, np.ndarray], config: ClassifierConfig,
                        emit) -> np.ndarray:
    """Returns d_e for the matching forward call, emitting each parameter's
    gradient (see nn)."""
    e = cache["e"]
    b, t, k = e.shape
    d_e = np.zeros_like(e)

    if config.kind in ("fm", "deepfm"):
        w = params["clf.linear.w"]
        d_e += _pair_sum_backward(dlogit, e)
        d_e += dlogit[:, None, None] * w[None]
        emit("clf.linear.w", lambda: np.einsum("b,btk->tk", dlogit, e))
        emit("clf.linear.b", lambda: np.array([dlogit.sum()], dtype=e.dtype))
    if config.kind == "fm":
        return d_e

    dh = nn.affine_backward(dlogit[:, None], cache["h_last"], params["clf.out.w"],
                            "clf.out", emit)
    for block, mask in reversed(cache["layers"]):
        if mask is not None:
            dh = dh * mask
        dh = nn.block_backward(dh, block, emit)

    if config.kind == "ipnn":
        p = t * (t - 1) // 2
        d_e += fm_layer_backward(dh[:, :p], e)
        d_e += dh[:, p:].reshape(e.shape)
    else:
        d_e += dh.reshape(e.shape)
    return d_e


# ---------------------------------------------------------------------------
# loss

def loss_and_grad(yhat: np.ndarray, y: np.ndarray,
                  stats: Optional[ClampStats] = None):
    """Elementwise cross entropy and its gradient against the pre-sigmoid logit.

    Predictions outside [LOSS_EPS, 1 - LOSS_EPS] are clamped before the logs
    and counted in stats. The logit gradient uses the fused form yhat - y.
    """
    yhat = np.asarray(yhat)
    if yhat.dtype.kind != "f":
        yhat = yhat.astype(float)
    y = np.asarray(y, dtype=yhat.dtype)
    clipped = np.clip(yhat, LOSS_EPS, 1.0 - LOSS_EPS)
    if stats is not None:
        stats.n_clamped += int(np.count_nonzero(clipped != yhat))
    loss = -(y * np.log(clipped) + (1.0 - y) * np.log1p(-clipped))
    return loss, yhat - y
