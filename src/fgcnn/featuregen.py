"""Feature generation: rounds of convolution, max-pooling, and recombination
over the field axis, producing new k-dimensional field embeddings that are
concatenated with the raw ones.

Shapes follow one chain: rows_0 = n_f, rows_i = ceil(rows_{i-1} / pool_height).
Round i emits rows_i * new_maps[i] generated fields. Convolution slides along
the field axis only (kernel width 1) with SAME zero padding, stride 1, and no
bias; each stage ends in tanh, optionally batch-normalized first.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn


class ConfigError(ValueError):
    """Structurally invalid feature-generation configuration."""


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
    config.validate(n_f)
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


# ---------------------------------------------------------------------------
# stage kernels

CONV_CHUNK = 1 << 22     # window-matrix elements gathered per batch slice


def _windows(x: np.ndarray, h: int):
    """Yield (lo, hi, cols) over batch slices of x [b, rows, k, in_maps].

    cols [(hi - lo) * rows * k, h * in_maps] holds, for every output
    position (n, r, c), the h input rows r - pad_top .. r - pad_top + h - 1
    of column c under SAME zero padding, ordered (tap, map) like
    w.reshape(h * in_maps, out_maps). One np.take over each padded,
    flattened example copies runs of in_maps floats; a slice holds at most
    CONV_CHUNK elements (at least one example).
    """
    b, rows, k, in_maps = x.shape
    pad_top = (h - 1) // 2
    # (padded row, column) offset of tap j at output position (r, c)
    idx = ((np.arange(rows)[:, None, None] + np.arange(h)) * k
           + np.arange(k)[:, None]).reshape(-1)
    step = max(1, CONV_CHUNK // (idx.size * in_maps))
    for lo in range(0, b, step):
        xp = np.pad(x[lo:lo + step], ((0, 0), (pad_top, h - 1 - pad_top), (0, 0), (0, 0)))
        cols = np.take(xp.reshape(xp.shape[0], -1, in_maps), idx, axis=1)
        yield lo, lo + xp.shape[0], cols.reshape(-1, h * in_maps)


def conv_affine(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Field-axis convolution, SAME zero padding, stride 1, no bias.

    x: [b, rows, k, in_maps], w: [h, 1, in_maps, out_maps] -> [b, rows, k, out_maps].
    Computed as the window matrix of x times w.reshape(h * in_maps, out_maps),
    written slice by slice into the output.
    """
    b, rows, k, in_maps = x.shape
    h, out_maps = w.shape[0], w.shape[3]
    if w.shape[2] != in_maps:
        raise ValueError(f"conv shape mismatch: input has {in_maps} maps, kernel {w.shape}")
    w2 = w.reshape(h * in_maps, out_maps)
    out = np.empty((b, rows, k, out_maps), dtype=x.dtype)
    out2 = out.reshape(-1, out_maps)
    for lo, hi, cols in _windows(x, h):
        np.matmul(cols, w2, out=out2[lo * rows * k:hi * rows * k])
    return out


def conv_affine_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients (dx, dw) of conv_affine: dw = colsᵀ @ grad over the window
    slices; dx sums one grad @ w[j]ᵀ product per tap, shifted to the input
    rows that tap reads."""
    b, rows, k, in_maps = x.shape
    h, out_maps = w.shape[0], w.shape[3]
    g2 = grad.reshape(-1, out_maps)
    dw = np.zeros((h * in_maps, out_maps), dtype=w.dtype)
    for lo, hi, cols in _windows(x, h):
        dw += cols.T @ g2[lo * rows * k:hi * rows * k]
    pad_top = (h - 1) // 2
    dx = (g2 @ w[pad_top, 0].T).reshape(x.shape)
    for j in range(h):
        s = j - pad_top          # output row r reads input row r + s through tap j
        if s == 0 or abs(s) >= rows:
            continue
        tap = (g2 @ w[j, 0].T).reshape(x.shape)
        if s > 0:
            dx[:, s:] += tap[:, :rows - s]
        else:
            dx[:, :rows + s] += tap[:, -s:]
    return dx, dw.reshape(w.shape)


def pool_forward(x: np.ndarray, pool_height: int):
    """Non-overlapping max over windows of pool_height along the field axis.

    A final partial window (when pool_height does not divide rows) takes the
    max of its remaining rows. Returns (out, argmax) with argmax kept for the
    backward pass; ties resolve to the lowest row index.
    """
    # Running max over window rows: row j of every window is x[:, j::pool_height]
    # (a partial last window may lack it). Strict > keeps the lowest row on ties
    # and j exceeds every index recorded so far; np.maximum(row, out) returns its
    # second operand on ties, so out keeps that row's bits (signed zeros too).
    out = x[:, ::pool_height].copy()
    argmax = np.zeros(out.shape, dtype=np.intp)
    for j in range(1, pool_height):
        row = x[:, j::pool_height]
        head = out[:, :row.shape[1]]
        head_arg = argmax[:, :row.shape[1]]
        np.maximum(head_arg, (row > head) * j, out=head_arg)
        np.maximum(row, head, out=head)
    return out, argmax


def pool_backward(grad: np.ndarray, argmax: np.ndarray, rows: int,
                  pool_height: int) -> np.ndarray:
    """Route gradients to the argmax rows only."""
    b, n_win, k, maps = grad.shape
    dwin = np.zeros((b, n_win, pool_height, k, maps), dtype=grad.dtype)
    np.put_along_axis(dwin, argmax[:, :, None], grad[:, :, None], axis=2)
    return dwin.reshape(b, n_win * pool_height, k, maps)[:, :rows]


# ---------------------------------------------------------------------------
# full generation chain

def generate(e: np.ndarray, params: dict[str, np.ndarray], config: FeatureGenConfig,
             bn_states: Optional[dict] = None, mode: str = "infer"):
    """Run the generation chain over raw embeddings e [b, n_f, k].

    A round is one dense layer block over the previous round's output
    (style "mlp"), or a conv block, max-pooling and a recombination block
    over the pooled maps (style "cnn"; without recombination the pooled
    maps become fields directly). Returns (r, cache, new_bn_states) where
    r is [b, N, k] with the rounds' outputs concatenated in order. The
    cache feeds generate_backward.
    """
    b, n_f, k = e.shape
    config.validate(n_f)
    bn_states = bn_states or {}
    x = e if config.style == "mlp" else e[..., None]      # cnn: [b, rows, k, maps]
    rounds, outs, new_states = [], [], {}
    for i in range(1, config.n_c + 1):
        try:
            if config.style == "mlp":
                x, block, ns = nn.block_forward(x, params, f"fg.mlp{i}", "tanh",
                                                bn_states, mode)
                new_states.update(ns)
                rounds.append({"mlp": block})
                outs.append(x.reshape(b, -1, k))
                continue
            a, block, ns = nn.block_forward(x, params, f"fg.conv{i}", "tanh",
                                            bn_states, mode, linear=conv_affine)
            new_states.update(ns)
            s, argmax = pool_forward(a, config.pool_height)
            round_i = {"conv": block, "argmax": argmax, "rows_in": a.shape[1],
                       "s_shape": s.shape}
            if config.use_recombination:
                r, round_i["recomb"], ns = nn.block_forward(
                    s, params, f"fg.recomb{i}", "tanh", bn_states, mode)
                new_states.update(ns)
                outs.append(r.reshape(b, -1, k))
            else:
                # pooled maps become fields directly: [b, rows_i, k, m] -> [b, rows_i*m, k]
                outs.append(s.transpose(0, 1, 3, 2).reshape(b, -1, k))
            rounds.append(round_i)
            x = s
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"feature generation round {i}: {exc}") from exc
    r_all = np.concatenate(outs, axis=1)
    cache = {"rounds": rounds, "config": config, "shape": (b, n_f, k)}
    return r_all, cache, new_states


def generate_backward(grad_r: np.ndarray, cache: dict):
    """Reverse-mode gradients of generate: returns (d_e, param_grads)."""
    config: FeatureGenConfig = cache["config"]
    b, n_f, k = cache["shape"]
    grads: dict[str, np.ndarray] = {}
    # split the concatenated gradient back into rounds
    per_round = np.split(grad_r, np.cumsum(round_field_counts(n_f, config))[:-1], axis=1)
    d_in: Optional[np.ndarray] = None     # gradient flowing into round i+1's input
    for i in range(config.n_c, 0, -1):
        round_i = cache["rounds"][i - 1]
        if config.style == "mlp":
            da = per_round[i - 1].reshape(b, -1)
            if d_in is not None:
                da = da + d_in
            d_in, g = nn.block_backward(da, round_i["mlp"])
            grads.update(g)
            continue
        if config.use_recombination:
            ds, g = nn.block_backward(per_round[i - 1], round_i["recomb"])
            grads.update(g)
        else:
            sb, rows, sk, maps = round_i["s_shape"]
            ds = per_round[i - 1].reshape(sb, rows, maps, sk).transpose(0, 1, 3, 2)
        if d_in is not None:
            ds = ds + d_in
        da = pool_backward(ds, round_i["argmax"], round_i["rows_in"], config.pool_height)
        d_in, g = nn.block_backward(da, round_i["conv"], conv_affine_backward)
        grads.update(g)
    return d_in.reshape(b, n_f, k), grads


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
