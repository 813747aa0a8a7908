"""Feature generation: rounds of convolution, max-pooling, and recombination
over the field axis, producing new k-dimensional field embeddings that are
concatenated with the raw ones.

Shapes follow one chain: rows_0 = n_f, rows_i = ceil(rows_{i-1} / pool_height).
Round i emits rows_i * new_maps[i] generated fields. Convolution slides along
the field axis only (kernel width 1) with SAME zero padding, stride 1, and no
bias; each stage ends in tanh, optionally batch-normalized first. The conv
rounds hold their activations field-row first, as [rows, maps, b, k].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import nn
from .nn import ConfigError


@dataclass
class FeatureGenConfig:
    kernel_heights: tuple[int, ...]
    feature_maps: tuple[int, ...]
    new_maps: tuple[int, ...]
    pool_height: int = 2
    use_bn: bool = False
    use_recombination: bool = True
    style: str = "cnn"          # "cnn" or "mlp" (dense stand-in with equal widths)

    @property
    def n_c(self) -> int:
        return len(self.kernel_heights)

    def validate(self, n_f: int) -> None:
        if self.n_c < 1:
            raise ConfigError("need at least one generation round")
        if not (len(self.feature_maps) == len(self.new_maps) == self.n_c):
            raise ConfigError("kernel_heights, feature_maps, new_maps must have equal length")
        if self.pool_height < 2:
            raise ConfigError(f"pool_height must be >= 2, got {self.pool_height}")
        if any(h < 1 for h in self.kernel_heights):
            raise ConfigError("kernel heights must be >= 1")
        if any(m < 1 for m in self.feature_maps) or any(m < 1 for m in self.new_maps):
            raise ConfigError("map counts must be >= 1")
        if self.style not in ("cnn", "mlp"):
            raise ConfigError(f"unknown feature-generation style {self.style!r}")
        if self.style == "mlp" and not self.use_recombination:
            raise ConfigError("the dense generation variant has no recombination stage to remove")
        # Deeper rounds may have kernels taller than their pooled input (SAME
        # padding makes that well-defined); only the raw field count bounds it.
        for i, h in enumerate(self.kernel_heights):
            if h > n_f:
                raise ConfigError(
                    f"round {i + 1}: kernel height {h} exceeds the field count {n_f}")


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def rows_chain(n_f: int, config: FeatureGenConfig) -> list[int]:
    """Field-axis heights [rows_0 .. rows_{n_c}] through the pooling chain."""
    rows = [n_f]
    for _ in range(config.n_c):
        rows.append(ceil_div(rows[-1], config.pool_height))
    return rows


def round_field_counts(n_f: int, config: FeatureGenConfig) -> list[int]:
    """Generated fields per round: rows_i * new_maps[i] (conv maps when the
    recombination stage is absent and pooled maps become fields directly)."""
    rows = rows_chain(n_f, config)
    maps = config.new_maps if config.use_recombination else config.feature_maps
    return [rows[i + 1] * maps[i] for i in range(config.n_c)]


def generated_count(n_f: int, config: FeatureGenConfig) -> int:
    return sum(round_field_counts(n_f, config))


# ---------------------------------------------------------------------------
# parameter construction

def param_shapes(n_f: int, k: int, config: FeatureGenConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every learnable tensor, keyed by checkpoint name."""
    shapes: dict[str, tuple[int, ...]] = {}
    rows = rows_chain(n_f, config)
    if config.style == "mlp":
        width_in = n_f * k
        for i, n_i in enumerate(round_field_counts(n_f, config), start=1):
            shapes.update(nn.block_shapes(f"fg.mlp{i}", (width_in, n_i * k), config.use_bn))
            width_in = n_i * k
        return shapes
    in_maps = 1
    for i in range(1, config.n_c + 1):
        out_maps = config.feature_maps[i - 1]
        shapes.update(nn.block_shapes(
            f"fg.conv{i}", (config.kernel_heights[i - 1], 1, in_maps, out_maps),
            config.use_bn, bias=False))
        if config.use_recombination:
            shapes.update(nn.block_shapes(
                f"fg.recomb{i}", (rows[i] * k * out_maps, rows[i] * k * config.new_maps[i - 1]),
                config.use_bn))
        in_maps = out_maps
    return shapes


def row_products(n_f: int, k: int, config: FeatureGenConfig) -> list[tuple[int, int, int]]:
    """(m, c, o) of each weight's BLAS product in generate (see nn.row_cut):
    a conv kernel makes one call per field row, of m = its size times k
    multiply-adds and o = out_maps * k outputs a batch row (the batch's
    b * k columns); a dense layer one call."""
    rows = iter(rows_chain(n_f, config))        # conv i reads rows_{i-1} field rows
    return [(math.prod(s) * k, next(rows), s[-1] * k) if len(s) == 4
            else (math.prod(s), 1, s[-1])
            for name, s in param_shapes(n_f, k, config).items() if name.endswith(".w")]


# ---------------------------------------------------------------------------
# stage kernels

def _row_windows(x: np.ndarray, h: int, pad_top: int) -> np.ndarray:
    """[rows, h * maps, b * k] view over a zero-padded copy of x [rows, maps, b, k]:
    entry r stacks input rows r - pad_top .. r - pad_top + h - 1 (pad_top
    zero rows above, h - 1 - pad_top below), ordered (tap, map) like
    w.reshape(h * maps, -1). Those are the h * maps consecutive runs of
    b * k floats from padded row r on, so the view keeps the padded array's
    strides."""
    rows, maps, b, k = x.shape
    xp = np.zeros((rows + h - 1, maps, b * k), dtype=x.dtype)
    xp.reshape(rows + h - 1, maps, b, k)[pad_top:pad_top + rows] = x
    return as_strided(xp, (rows, h * maps, b * k), xp.strides, writeable=False)


def conv_affine(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Field-axis convolution, SAME zero padding, stride 1, no bias.

    x: [rows, in_maps, b, k], w: [h, 1, in_maps, out_maps] -> [rows, out_maps, b, k].
    Output row r is w.reshape(h * in_maps, out_maps)ᵀ times the padded
    input rows it reads, a view; one batched matmul covers every row.
    """
    rows, in_maps, b, k = x.shape
    h, out_maps = w.shape[0], w.shape[3]
    if w.shape[2] != in_maps:
        raise ValueError(f"conv shape mismatch: input has {in_maps} maps, kernel {w.shape}")
    out = nn.matmul(w.reshape(h * in_maps, out_maps).T, _row_windows(x, h, (h - 1) // 2))
    return out.reshape(rows, out_maps, b, k)


def conv_affine_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients (dx, dw) of conv_affine. dw sums, over output rows, the
    row's window view times its grad rowᵀ. dx row r sums w[j] @ grad row
    r + pad_top - j over taps j: the windowed product again, over grad
    padded the mirrored way, with the taps reversed."""
    rows, in_maps, b, k = x.shape
    h, out_maps = w.shape[0], w.shape[3]
    pad_top = (h - 1) // 2
    g = grad.reshape(rows, out_maps, b * k)
    dw = nn.matmul(_row_windows(x, h, pad_top), g.transpose(0, 2, 1)).sum(axis=0)
    w_mirror = w[::-1, 0].transpose(1, 0, 2).reshape(in_maps, h * out_maps)
    dx = nn.matmul(w_mirror, _row_windows(grad, h, h - 1 - pad_top))
    return dx.reshape(x.shape), dw.reshape(w.shape)


def pool_forward(x: np.ndarray, pool_height: int, mode: str = "train"):
    """Non-overlapping max over windows of pool_height along the field axis.

    x: [rows, maps, b, k] -> (out, argmax), both [ceil(rows / pool_height),
    maps, b, k]. A final partial window (when pool_height does not divide
    rows) takes the max of its remaining rows. argmax, the row within the
    window in the smallest unsigned type that holds pool_height - 1, is
    kept for the backward pass; ties resolve to the lowest row index. In
    infer mode argmax is None and no comparison is made.
    """
    # Running max over window rows: row j of every window is x[j::pool_height]
    # (a partial last window may lack it). Strict > keeps the lowest row on ties
    # and j exceeds every index recorded so far; np.maximum(row, out) returns its
    # second operand on ties, so out keeps that row's bits (signed zeros too).
    out = x[::pool_height].copy()
    argmax = (np.zeros(out.shape, dtype=np.min_scalar_type(pool_height - 1))
              if mode == "train" else None)
    for j in range(1, pool_height):
        row = x[j::pool_height]
        head = out[:len(row)]
        if argmax is not None:
            head_arg = argmax[:len(row)]
            np.maximum(head_arg, (row > head) * argmax.dtype.type(j), out=head_arg)
        np.maximum(row, head, out=head)
    return out, argmax


def pool_backward(grad: np.ndarray, argmax: np.ndarray, rows: int,
                  pool_height: int) -> np.ndarray:
    """Route gradients to the argmax rows only: row j of every window,
    dx[j::pool_height], is written once, from the windows whose argmax is j.

    The multiply by that mask runs on the bits as unsigned integers, so a
    routed gradient keeps its bits (-0.0 included) and every other row is +0.0.
    """
    dx = np.empty((rows,) + grad.shape[1:], dtype=grad.dtype)
    bits = np.dtype(f"u{grad.itemsize}")
    grad_bits, dx_bits = grad.view(bits), dx.view(bits)
    for j in range(pool_height):
        dj = dx_bits[j::pool_height]
        np.multiply(grad_bits[:len(dj)], argmax[:len(dj)] == j, out=dj)
    return dx


# ---------------------------------------------------------------------------
# full generation chain

def generate(e: np.ndarray, params: dict[str, np.ndarray], config: FeatureGenConfig,
             bn_states: Optional[dict] = None, mode: str = "infer"):
    """Run the generation chain over raw embeddings e [b, n_f, k].

    A round is one dense layer block over the previous round's output
    (style "mlp"), or a conv block, max-pooling and a recombination block
    over the pooled maps (style "cnn"; without recombination the pooled
    maps become fields directly). Returns (r, cache) under the forward
    contract of nn, where r is [b, N, k] with the rounds' outputs
    concatenated in order; in infer mode each round's activation is
    dropped once it is pooled.
    """
    b, n_f, k = e.shape
    # cnn rounds run field-row first: [rows, maps, b, k]
    x = e if config.style == "mlp" else e.transpose(1, 0, 2)[:, None]
    rounds, outs = [], []
    for i in range(1, config.n_c + 1):
        try:
            if config.style == "mlp":
                x, block = nn.block_forward(x, params, f"fg.mlp{i}", "tanh", bn_states, mode)
                rounds.append(block)
                outs.append(x.reshape(b, -1, k))
                continue
            a, conv = nn.block_forward(x, params, f"fg.conv{i}", "tanh",
                                       bn_states, mode, linear=conv_affine)
            x, argmax = pool_forward(a, config.pool_height, mode)
            del a
            recomb = None
            if config.use_recombination:
                # recombination reads the pooled maps flattened as (rows, k, maps)
                r, recomb = nn.block_forward(x.transpose(2, 0, 3, 1), params,
                                             f"fg.recomb{i}", "tanh", bn_states, mode)
                outs.append(r.reshape(b, -1, k))
            else:
                # pooled maps become fields directly: [rows_i, m, b, k] -> [b, rows_i*m, k]
                outs.append(x.transpose(2, 0, 1, 3).reshape(b, -1, k))
            rounds.append((conv, argmax, recomb) if mode == "train" else None)
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"feature generation round {i}: {exc}") from exc
    r_all = np.concatenate(outs, axis=1)
    return r_all, ({"rounds": rounds, "config": config, "n_f": n_f}
                   if mode == "train" else None)


def generate_backward(grad_r: np.ndarray, cache: dict, emit) -> np.ndarray:
    """Reverse-mode gradients of generate: returns d_e, emitting each
    parameter's gradient (see nn)."""
    config: FeatureGenConfig = cache["config"]
    n_f = cache["n_f"]
    b, _, k = grad_r.shape
    rows = rows_chain(n_f, config)
    # split the concatenated gradient back into rounds
    per_round = np.split(grad_r, np.cumsum(round_field_counts(n_f, config))[:-1], axis=1)
    d_in: Optional[np.ndarray] = None     # gradient flowing into round i+1's input
    for i in range(config.n_c, 0, -1):
        if config.style == "mlp":
            da = per_round[i - 1].reshape(b, -1)
            if d_in is not None:
                da = da + d_in
            d_in = nn.block_backward(da, cache["rounds"][i - 1], emit)
            continue
        conv, argmax, recomb = cache["rounds"][i - 1]
        if recomb is not None:
            ds = nn.block_backward(per_round[i - 1], recomb, emit).transpose(1, 3, 0, 2)
        else:
            ds = per_round[i - 1].reshape(b, *argmax.shape[:2], k).transpose(1, 2, 0, 3)
        if d_in is not None:
            ds = ds + d_in
        da = pool_backward(ds, argmax, rows[i - 1], config.pool_height)
        d_in = nn.block_backward(da, conv, emit, conv_affine_backward)
    return d_in if config.style == "mlp" else d_in[:, 0].transpose(1, 0, 2)


def augment(e_prime: Optional[np.ndarray], r: Optional[np.ndarray]) -> np.ndarray:
    """Concatenate raw field embeddings (first) with generated ones."""
    parts = [p for p in (e_prime, r) if p is not None]
    if not parts:
        raise ValueError("augment needs at least one of raw or generated embeddings")
    if len(parts) == 2 and (parts[0].shape[2] != parts[1].shape[2]
                            or parts[0].shape[0] != parts[1].shape[0]):
        raise ValueError(
            f"augment shape mismatch: raw {parts[0].shape} vs generated {parts[1].shape}")
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1)
