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
from .embedding import glorot_uniform


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
        counts = round_field_counts(n_f, config)
        width_in = n_f * k
        for i, n_i in enumerate(counts, start=1):
            width_out = n_i * k
            shapes[f"fg.mlp{i}.w"] = (width_in, width_out)
            shapes[f"fg.mlp{i}.b"] = (width_out,)
            if config.use_bn:
                shapes[f"fg.mlp{i}.bn.g"] = (width_out,)
                shapes[f"fg.mlp{i}.bn.b"] = (width_out,)
            width_in = width_out
        return shapes
    in_maps = 1
    for i in range(1, config.n_c + 1):
        h = config.kernel_heights[i - 1]
        out_maps = config.feature_maps[i - 1]
        shapes[f"fg.conv{i}.w"] = (h, 1, in_maps, out_maps)
        if config.use_bn:
            shapes[f"fg.conv{i}.bn.g"] = (out_maps,)
            shapes[f"fg.conv{i}.bn.b"] = (out_maps,)
        if config.use_recombination:
            d_in = rows[i] * k * out_maps
            d_out = rows[i] * k * config.new_maps[i - 1]
            shapes[f"fg.recomb{i}.w"] = (d_in, d_out)
            shapes[f"fg.recomb{i}.b"] = (d_out,)
            if config.use_bn:
                shapes[f"fg.recomb{i}.bn.g"] = (d_out,)
                shapes[f"fg.recomb{i}.bn.b"] = (d_out,)
        in_maps = out_maps
    return shapes


def init_params(n_f: int, k: int, config: FeatureGenConfig,
                rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, unit batch-norm scale."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(n_f, k, config).items():
        if name.endswith(".bn.g"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(".b") or name.endswith(".bn.b"):
            params[name] = np.zeros(shape, dtype=dtype)
        elif ".conv" in name:
            h, _, in_maps, out_maps = shape
            params[name] = glorot_uniform(rng, h * in_maps, h * out_maps, shape, dtype)
        else:
            d_in, d_out = shape
            params[name] = glorot_uniform(rng, d_in, d_out, shape, dtype)
    return params


def bn_sites(n_f: int, k: int, config: FeatureGenConfig) -> dict[str, int]:
    """Batch-norm site name -> normalized dimension."""
    if not config.use_bn:
        return {}
    sites = {}
    for name, shape in param_shapes(n_f, k, config).items():
        if name.endswith(".bn.g"):
            sites[name[: -len(".bn.g")] + ".bn"] = shape[0]
    return sites


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


def conv_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Convolution followed by tanh (the plain, batch-norm-free stage)."""
    return np.tanh(conv_affine(x, w))


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


def recombine_forward(s: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense recombination of pooled local patterns into global new features.

    s: [batch, rows, k, maps] flattened row-major; output reshaped to
    [batch, rows * new_maps, k].
    """
    batch = s.shape[0]
    flat = s.reshape(batch, -1)
    if flat.shape[1] != w.shape[0]:
        raise ValueError(
            f"recombination shape mismatch: flattened input {flat.shape[1]} vs "
            f"weights {w.shape}")
    out = np.tanh(nn.affine(flat, w, b))
    k = s.shape[2]
    return out.reshape(batch, -1, k)


# ---------------------------------------------------------------------------
# full generation chain

def generate(e: np.ndarray, params: dict[str, np.ndarray], config: FeatureGenConfig,
             bn_states: Optional[dict] = None, mode: str = "infer"):
    """Run the generation chain over raw embeddings e [b, n_f, k].

    Returns (r, cache, new_bn_states) where r is [b, N, k] with the rounds'
    outputs concatenated in order. The cache feeds generate_backward.
    """
    b, n_f, k = e.shape
    config.validate(n_f)
    bn_states = bn_states or {}
    if config.style == "mlp":
        return _generate_mlp(e, params, config, bn_states, mode)
    x = e[..., None]                                  # [b, rows, k, 1]
    rounds = []
    outs = []
    new_states: dict = {}
    for i in range(1, config.n_c + 1):
        try:
            cache_i: dict = {"x_in": x, "rows_in": x.shape[1]}
            z = conv_affine(x, params[f"fg.conv{i}.w"])
            if config.use_bn:
                site = f"fg.conv{i}.bn"
                flat = z.reshape(-1, z.shape[-1])
                zn, bncache, ns = nn.batchnorm_forward(
                    flat, params[site + ".g"], params[site + ".b"], bn_states[site], mode)
                new_states[site] = ns
                cache_i["conv_bn"] = (bncache, z.shape)
                z = zn.reshape(z.shape)
            a = np.tanh(z)
            cache_i["conv_act"] = a
            s, argmax = pool_forward(a, config.pool_height)
            cache_i["pool_argmax"] = argmax
            cache_i["s"] = s
            if config.use_recombination:
                flat = s.reshape(b, -1)
                zr = nn.affine(flat, params[f"fg.recomb{i}.w"], params[f"fg.recomb{i}.b"])
                if config.use_bn:
                    site = f"fg.recomb{i}.bn"
                    zr, bncache, ns = nn.batchnorm_forward(
                        zr, params[site + ".g"], params[site + ".b"], bn_states[site], mode)
                    new_states[site] = ns
                    cache_i["recomb_bn"] = bncache
                r_flat = np.tanh(zr)
                cache_i["recomb_act"] = r_flat
                cache_i["recomb_in"] = flat
                r = r_flat.reshape(b, -1, k)
            else:
                # pooled maps become fields directly: [b, rows_i, k, m] -> [b, rows_i*m, k]
                r = s.transpose(0, 1, 3, 2).reshape(b, -1, k)
            outs.append(r)
            rounds.append(cache_i)
            x = s
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"feature generation round {i}: {exc}") from exc
    r_all = np.concatenate(outs, axis=1)
    cache = {"rounds": rounds, "config": config, "shape": (b, n_f, k)}
    return r_all, cache, new_states


def generate_backward(grad_r: np.ndarray, cache: dict, params: dict[str, np.ndarray]):
    """Reverse-mode gradients of generate: returns (d_e, param_grads)."""
    config: FeatureGenConfig = cache["config"]
    b, n_f, k = cache["shape"]
    if config.style == "mlp":
        return _generate_mlp_backward(grad_r, cache, params)
    counts = round_field_counts(n_f, config)
    grads: dict[str, np.ndarray] = {}
    # split the concatenated gradient back into rounds
    per_round = np.split(grad_r, np.cumsum(counts)[:-1], axis=1)
    d_next_in: Optional[np.ndarray] = None     # gradient flowing into round i+1's input
    for i in range(config.n_c, 0, -1):
        cache_i = cache["rounds"][i - 1]
        s = cache_i["s"]
        if config.use_recombination:
            r_flat_grad = per_round[i - 1].reshape(b, -1)
            dz = r_flat_grad * nn.tanh_grad_from_output(cache_i["recomb_act"])
            if config.use_bn:
                dz, dg, dbeta = nn.batchnorm_backward(dz, cache_i["recomb_bn"])
                grads[f"fg.recomb{i}.bn.g"] = dg
                grads[f"fg.recomb{i}.bn.b"] = dbeta
            dflat, dw, dbias = nn.affine_backward(dz, cache_i["recomb_in"],
                                                  params[f"fg.recomb{i}.w"])
            grads[f"fg.recomb{i}.w"] = dw
            grads[f"fg.recomb{i}.b"] = dbias
            ds = dflat.reshape(s.shape)
        else:
            ds = per_round[i - 1].reshape(b, s.shape[1], s.shape[3], s.shape[2])
            ds = ds.transpose(0, 1, 3, 2)
        if d_next_in is not None:
            ds = ds + d_next_in
        da = pool_backward(ds, cache_i["pool_argmax"], cache_i["rows_in"],
                           config.pool_height)
        dz = da * nn.tanh_grad_from_output(cache_i["conv_act"])
        if config.use_bn:
            bncache, zshape = cache_i["conv_bn"]
            dzf, dg, dbeta = nn.batchnorm_backward(dz.reshape(-1, zshape[-1]), bncache)
            grads[f"fg.conv{i}.bn.g"] = dg
            grads[f"fg.conv{i}.bn.b"] = dbeta
            dz = dzf.reshape(zshape)
        dx, dwc = conv_affine_backward(dz, cache_i["x_in"], params[f"fg.conv{i}.w"])
        grads[f"fg.conv{i}.w"] = dwc
        d_next_in = dx
    return d_next_in[..., 0], grads


def _generate_mlp(e, params, config, bn_states, mode):
    b, n_f, k = e.shape
    counts = round_field_counts(n_f, config)
    x = e.reshape(b, n_f * k)
    outs = []
    layers = []
    new_states: dict = {}
    for i, n_i in enumerate(counts, start=1):
        z = nn.affine(x, params[f"fg.mlp{i}.w"], params[f"fg.mlp{i}.b"])
        bncache = None
        if config.use_bn:
            site = f"fg.mlp{i}.bn"
            z, bncache, ns = nn.batchnorm_forward(
                z, params[site + ".g"], params[site + ".b"], bn_states[site], mode)
            new_states[site] = ns
        a = np.tanh(z)
        layers.append({"x_in": x, "act": a, "bn": bncache})
        outs.append(a.reshape(b, n_i, k))
        x = a
    cache = {"layers": layers, "config": config, "shape": (b, n_f, k)}
    return np.concatenate(outs, axis=1), cache, new_states


def _generate_mlp_backward(grad_r, cache, params):
    config: FeatureGenConfig = cache["config"]
    b, n_f, k = cache["shape"]
    counts = round_field_counts(n_f, config)
    per_round = np.split(grad_r, np.cumsum(counts)[:-1], axis=1)
    grads: dict[str, np.ndarray] = {}
    d_next: Optional[np.ndarray] = None
    for i in range(config.n_c, 0, -1):
        layer = cache["layers"][i - 1]
        da = per_round[i - 1].reshape(b, -1)
        if d_next is not None:
            da = da + d_next
        dz = da * nn.tanh_grad_from_output(layer["act"])
        if config.use_bn:
            dz, dg, dbeta = nn.batchnorm_backward(dz, layer["bn"])
            grads[f"fg.mlp{i}.bn.g"] = dg
            grads[f"fg.mlp{i}.bn.b"] = dbeta
        dx, dw, dbias = nn.affine_backward(dz, layer["x_in"], params[f"fg.mlp{i}.w"])
        grads[f"fg.mlp{i}.w"] = dw
        grads[f"fg.mlp{i}.b"] = dbias
        d_next = dx
    return d_next.reshape(b, n_f, k), grads


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
