"""Shared dense kernels: affine maps, activations, batch norm, Adam, and
finite-difference gradient checking.

Plain numpy arrays are the only numeric carrier. Training runs float32 by
default; gradient checks run the same code at float64.

Layer forwards (block_forward and those built on it) return (y, cache):
the cache feeds the backward pass and is None in infer mode. A train-mode
forward replaces each batch-norm site's entry of the bn_states dict it is
given with a new BnState.

Backward passes return the input gradient and hand each parameter's
gradient to a required emit callable: emit(name, make), where make()
computes the gradient of params[name]. A pass emits a tensor's gradient once
it has made its last read of that tensor, so the receiver may update the
tensor in place as soon as it has the gradient. gradient_sink() gives an
emit that collects every gradient into a dict.

The process has one helper thread, with no owner, and work reaches it one
way: fork queues a run-once Job (the first fork starts the thread, which
then serves the process for its lifetime), and Job.wait runs it, or helps
with queued jobs until it is done, then re-raises its exception or returns
its value; wait_all waits for a list of them, and beside runs two calls on
the two threads. Whoever forks a job waits for it, so no job outlives the
call that forked it. Large float32 products (matmul: the affine maps and
their input and weight gradients, the convolution and its gradients, the
FM gram and its gradient) split across the two threads, with the bits of
the unsplit product.
"""
from __future__ import annotations

import ctypes
import math
import platform
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


class NumericError(RuntimeError):
    """A kernel produced or received non-finite values, or training diverged."""


class ConfigError(ValueError):
    """An invalid model or training config, or one that does not fit the data."""


_DTYPES = {"f32": np.float32, "f64": np.float64}

BN_EPS = 1e-5
BN_MOMENTUM = 0.99


def as_dtype(precision: str) -> np.dtype:
    if precision not in _DTYPES:
        raise ConfigError(f"unknown precision {precision!r}, expected one of {sorted(_DTYPES)}")
    return np.dtype(_DTYPES[precision])


def check_finite(name: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))
        coord = tuple(int(i) for i in bad[0])
        raise NumericError(f"{name}: non-finite value at coordinate {coord}")


# ---------------------------------------------------------------------------
# helper thread and split products

# A float32 product of at least SPLIT_MIN multiply-adds splits across two
# threads. The cut keeps toy-sized products (35M
# multiply-adds at most) on one thread, where a fork's overhead would be a
# large share, and every half far above the sizes at which OpenBLAS's
# small-matrix kernels (under about 10^6) may give a half other bits than
# the whole product.
SPLIT_MIN = 1 << 26

# OpenBLAS (x86-64, AVX-512) runs a product of at most SMALL_GEMM_MAX
# multiply-adds on its small-matrix kernels, whose bits differ from its large
# kernels': rows 0..991 of a [1000, K] @ [K, N] product with K * N = 1000 had
# the bits of a 999-row product and, for 3 of 4 (K, N) at float32 and at
# float64, not those of a 2000-row one.
SMALL_GEMM_MAX = 10**6


# row_cut keeps a batch whole when the helper's part would write more than
# PART_BYTES_MAX bytes of product outputs: a part takes its working set into
# the helper thread's own malloc arena, and ref's 1024-row batch in two parts
# raised its peak RSS by 106 MiB. At 512 rows the outputs come to 1.0 MiB on
# toy, 3.6 MiB on wide and 60.5 MiB on ref, against tracemalloc peaks of one
# infer forward of 2.8, 3.6 and 52.5 MiB.
PART_BYTES_MAX = 1 << 24


def row_cut(n: int, products, itemsize: int) -> Optional[int]:
    """The row at which a batch of n rows is scored in two parts with the
    bits of the whole batch (mid = n // 32 * 16: the first part is whole
    16-row tiles, the second keeps the batch's tail), or None to score it
    whole. products lists (m, c, o) for each BLAS product whose rows are the
    batch's: c calls, each of m multiply-adds and o output values a row, of
    itemsize bytes each. A batch stays whole when a call would run on the
    small-matrix kernels in a part but not in the whole batch, or when the
    outputs of the helper's n - mid rows exceed PART_BYTES_MAX bytes."""
    mid = n // 32 * 16
    if ((n - mid) * sum(c * o for _, c, o in products) * itemsize > PART_BYTES_MAX
            or any(mid * m <= SMALL_GEMM_MAX < n * m for m, _, _ in products)):
        return None
    return mid


# By default glibc gives a freed block above its mmap threshold back to the
# kernel and trims the heap top, so the next op faults its large arrays in
# again (ref's 38.7 MB recombination gradient and moments). Some glibc cap
# M_MMAP_THRESHOLD below those, so no block is mmapped, and none is trimmed.
# No value changes, but a fresh np.empty may hold an old block's values.
# Each thread keeps glibc's arena of its own and so reuses its own blocks in
# its own order; in one shared arena (M_ARENA_MAX = 1) the two threads'
# blocks interleaved differently on each evaluation, and the heap kept
# growing now and then long after warm-up.
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4


def keep_freed_memory() -> None:
    """Set glibc's malloc to keep freed memory; a no-op on other C libraries."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)       # the largest int: no trim
        mallopt(_M_MMAP_MAX, 0)


keep_freed_memory()


# The process's helper thread and its queue. The thread starts with the
# first fork and serves the process for its lifetime, so a run that forks
# nothing never has one.
_jobs: deque = deque()
_cond = threading.Condition()
_thread: Optional[threading.Thread] = None


def fork(fn: Callable[[], object], first: bool = True) -> "Job":
    """Queue fn as a run-once Job and return it: at the front of the queue,
    or at the back when first is False. The helper thread takes jobs from
    the front; so does a thread waiting for a job that another thread has
    started (Job.wait)."""
    global _thread
    job = Job(fn)
    with _cond:
        (_jobs.appendleft if first else _jobs.append)(job)
        _cond.notify_all()
        if _thread is None:
            _thread = threading.Thread(target=_work, args=(lambda: False,),
                                       name="fgcnn-helper", daemon=True)
            _thread.start()
    return job


def _work(done: Callable[[], bool]) -> None:
    """Run queued jobs on this thread until done(), read under the lock."""
    while True:
        with _cond:
            while not (done() or _jobs):
                _cond.wait()
            if done():
                return
            job = _jobs.popleft()
        job._run()          # drops its fn, and so the fn's arrays


class Job:
    """A forked fn: the first thread to take it runs it, once."""

    def __init__(self, fn: Callable[[], object]):
        self._fn = fn
        self._done = False
        self._value: object = None
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        with _cond:
            fn, self._fn = self._fn, None
        if fn is None:
            return
        try:
            self._value = fn()
        except BaseException as exc:
            self._error = exc
        with _cond:
            self._done = True
            _cond.notify_all()

    def wait(self):
        """Run the job here if no thread has started it; otherwise run queued
        jobs until it is done. Then re-raise its exception, or return its
        value."""
        self._run()
        _work(lambda: self._done)
        if self._error is not None:
            raise self._error
        return self._value


def wait_all(jobs) -> None:
    """Wait for every job, then raise the first exception one raised."""
    error = None
    for job in jobs:
        try:
            job.wait()
        except BaseException as exc:
            error = error or exc
    if error is not None:
        raise error


def beside(there: Callable[[], object], here: Callable[[], object], parallel: bool = True):
    """(there(), here()). When parallel is set, there is forked to the front
    of the queue while here runs on the calling thread, and the fork is
    waited for on every exit path; otherwise here runs, then there, both on
    the calling thread."""
    if not parallel:
        mine = here()
        return there(), mine
    job = fork(there)
    try:
        mine = here()
    finally:
        theirs = job.wait()
    return theirs, mine


def _halves(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]):
    """Two (a, b, output index) parts of a product with output shape, or None.

    A 2-D product splits its columns at a multiple of 16, so the part that
    ends the row keeps the whole product's column tail (a single row is
    numpy's gemv path, whose columns do not split bit-exactly). A batched
    product splits its leading axis, whose items numpy already multiplies
    one BLAS call each (a gram product e @ eᵀ stays syrk per item; its
    columns would not)."""
    if len(shape) == 2:
        if shape[0] < 2 or shape[1] < 32:
            return None
        mid = shape[1] // 32 * 16
        return [(a, b[:, s], (slice(None), s)) for s in (slice(None, mid), slice(mid, None))]
    if shape[0] < 2:
        return None

    def lead(x, s):
        return x[s] if x.ndim == len(shape) and x.shape[0] > 1 else x
    mid = shape[0] // 2
    return [(lead(a, s), lead(b, s), s) for s in (slice(None, mid), slice(mid, None))]


def matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """np.matmul(a, b, out=out), in two halves on two threads when both
    operands are float32 and the product has at least
    SPLIT_MIN multiply-adds (see _halves for the split). Every output
    element is the BLAS reduction the whole product computes, so the bits
    are unchanged. (OpenBLAS's float64 kernels change some elements' bits
    with the column count, so float64 products never split.) The output is
    allocated here, on the calling thread; the other half runs beside
    this one (beside)."""
    # a.size * b.size / depth bounds the multiply-adds from above: a cheap
    # first test, since most products of a small model pass through here
    if (a.dtype != np.float32 or b.dtype != np.float32 or a.ndim < 2 or b.ndim < 2
            or a.size * b.size < SPLIT_MIN * a.shape[-1]):
        return np.matmul(a, b, out=out)
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    halves = _halves(a, b, shape) if math.prod(shape) * a.shape[-1] >= SPLIT_MIN else None
    if halves is None:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    (a0, b0, i0), (a1, b1, i1) = halves
    beside(lambda: np.matmul(a1, b1, out=out[i1]), lambda: np.matmul(a0, b0, out=out[i0]))
    return out


# ---------------------------------------------------------------------------
# affine

def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[-1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(f"affine shape mismatch: x{x.shape} w{w.shape} b{b.shape}")
    y = matmul(x, w)
    y += b
    return y


def gradient_sink():
    """(emit, grads): an emit that computes each gradient at once into grads."""
    grads: dict[str, np.ndarray] = {}

    def emit(name, make):
        grads[name] = make()
    return emit, grads


def affine_backward(grad: np.ndarray, x: np.ndarray, w: np.ndarray, name: str,
                    emit) -> np.ndarray:
    """Gradients for y = x @ w + b at layer name: returns dx and emits
    name + ".w" and name + ".b" after dx, the last product that reads w.
    dw is written into a buffer allocated here, by the calling thread."""
    dx = matmul(grad, w.T)
    dw = np.empty(w.shape, dtype=np.result_type(x, grad))
    emit(name + ".w", lambda: matmul(x.T, grad, out=dw))
    emit(name + ".b", lambda: grad.sum(axis=0))
    return dx


# ---------------------------------------------------------------------------
# activations

def tanh(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.tanh(x, out=out)


def tanh_grad_from_output(y: np.ndarray) -> np.ndarray:
    """1 - y*y in one fresh buffer."""
    d = np.multiply(y, y, out=np.empty_like(y))
    np.subtract(1.0, d, out=d)
    return d


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch form: never exponentiates a large positive argument.
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# batch normalization: axis 1 over all other axes, so one kernel serves the
# dense sites' [b, d] and the conv sites' [rows, maps, b, k]

@dataclass
class BnState:
    """Running statistics for one batch-norm site, updated with momentum
    BN_MOMENTUM."""
    mean: np.ndarray
    var: np.ndarray


def init_bn_state(dim: int, dtype) -> BnState:
    return BnState(mean=np.zeros(dim, dtype=dtype), var=np.ones(dim, dtype=dtype))


def _axis1_sum(x: np.ndarray) -> np.ndarray:
    """Sum over every axis but axis 1, as matmuls with ones: a matrix-vector
    product over the contiguous trailing runs, then ones @ [n, d]."""
    if x.ndim > 2:
        run = x[0, 0].size
        x = (x.reshape(-1, run) @ np.ones(run, dtype=x.dtype)).reshape(x.shape[:2])
    return np.ones(x.shape[0], dtype=x.dtype) @ x


def batchnorm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray, state: BnState,
                      mode: str = "train", out: Optional[np.ndarray] = None):
    """Normalize x [n, d, ...] along axis 1 to zero mean / unit variance over
    all other axes, then scale and shift.

    Train mode uses in-batch statistics and returns an updated running-stat
    state; infer mode normalizes with the running statistics. Returns
    (out, cache, new_state); cache is None in infer mode. The variance is
    a second pass over x - mean, not E[x^2] - E[x]^2, which cancels
    catastrophically. out may be x itself: the result is written there.
    """
    if x.ndim < 2:
        raise ValueError(f"batchnorm expects at least 2-D input, got shape {x.shape}")
    col = (-1,) + (1,) * (x.ndim - 2)      # broadcasts a [d] vector along axis 1
    if mode == "train":
        n = x.size // x.shape[1]
        if n < 2:
            raise ValueError("batchnorm in train mode needs batch size >= 2")
        mu = _axis1_sum(x) / n
        xhat = x - mu.reshape(col)
        out = np.multiply(xhat, xhat, out=out)
        var = _axis1_sum(out) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std.reshape(col)
        np.multiply(xhat, g.reshape(col), out=out)
        out += b.reshape(col)
        m = BN_MOMENTUM
        new_state = BnState(mean=(m * state.mean + (1.0 - m) * mu).astype(x.dtype),
                            var=(m * state.var + (1.0 - m) * var).astype(x.dtype))
        return out, (xhat, inv_std, g), new_state
    if mode == "infer":
        # (x - mean) / std * g + b folded into one scale and one shift
        scale = g / np.sqrt(state.var + BN_EPS)
        out = np.multiply(x, scale.reshape(col), out=out)
        out += (b - state.mean * scale).reshape(col)
        return out, None, state
    raise ValueError(f"unknown batchnorm mode {mode!r}")


def batchnorm_backward(grad: np.ndarray, cache):
    """Gradients (dx, dg, db) for train-mode batchnorm.

    dx = g*inv_std * (grad - db/n - xhat*dg/n): the textbook
    inv_std/n * (n*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)) with
    dxhat = grad*g, so sum(dxhat) = g*db and sum(dxhat*xhat) = g*dg, and
    only two sums (over all axes but 1) are taken.
    """
    xhat, inv_std, g = cache
    col = (-1,) + (1,) * (grad.ndim - 2)
    n = grad.size // grad.shape[1]
    db = _axis1_sum(grad)
    dx = grad * xhat
    dg = _axis1_sum(dx)
    np.multiply(xhat, (dg / n).reshape(col), out=dx)
    np.subtract(grad, dx, out=dx)
    dx -= (db / n).reshape(col)
    dx *= (g * inv_std).reshape(col)
    return dx, dg, db


# ---------------------------------------------------------------------------
# layer block: linear map -> optional batch norm -> activation

# (activation, derivative read off its output, in a fresh buffer): relu's
# output is > 0 exactly where its input is, so the block keeps only the
# output for backward.
_ACTIVATIONS = {"tanh": (tanh, tanh_grad_from_output), "relu": (relu, relu_grad)}


def block_shapes(name: str, w_shape: tuple[int, ...], use_bn: bool,
                 bias: bool = True) -> dict[str, tuple[int, ...]]:
    """Shapes of the tensors block_forward reads for layer name, whose
    weight maps to w_shape[-1] outputs."""
    d_out = (w_shape[-1],)
    shapes = {name + ".w": w_shape}
    if bias:
        shapes[name + ".b"] = d_out
    if use_bn:
        shapes[name + ".bn.g"] = d_out
        shapes[name + ".bn.b"] = d_out
    return shapes


def block_forward(x: np.ndarray, params: dict, name: str, act: str,
                  bn_states: dict, mode: str, linear=None):
    """One layer unit: params[name + ".w"] applied to x, batch norm at site
    name + ".bn" when its scale name + ".bn.g" is in params, then act.

    linear(x, w) is a bias-free map (the field-axis convolution); without
    it, x is flattened to [b, -1] and mapped by affine with params[name + ".b"].
    Batch norm normalizes axis 1 over all others: the units of a dense
    layer, the maps of a conv one ([rows, maps, b, k]). Returns (a, cache)
    (see the module docstring). The cache keeps the input the linear map
    read: the flattened x for the affine, a copy when x is a transposed view.
    Batch norm and the activation are written over the pre-activation, which
    no cache keeps.
    """
    w = params[name + ".w"]
    shape = x.shape
    if linear is None:
        x = x.reshape(shape[0], -1)
        z = affine(x, w, params[name + ".b"])
    else:
        z = linear(x, w)
    bncache = None
    site = name + ".bn"
    if site + ".g" in params:
        z, bncache, bn_states[site] = batchnorm_forward(
            z, params[site + ".g"], params[site + ".b"], bn_states[site], mode, out=z)
    a = _ACTIVATIONS[act][0](z, out=z)
    return a, (name, act, x, shape, w, bncache, a) if mode == "train" else None


def block_backward(da: np.ndarray, cache, emit, linear_backward=None) -> np.ndarray:
    """Gradients of block_forward: returns dx, emitting each parameter's
    gradient (see the module docstring). linear_backward(dz, x, w) -> (dx, dw)
    pairs with the forward's linear. Neither da nor the cached output is
    written: the output is the next block's cached input, which an emitted
    gradient may still read."""
    name, act, x, shape, w, bncache, a = cache
    dz = _ACTIVATIONS[act][1](a)
    dz *= da.reshape(a.shape)
    if bncache is not None:
        dz, dg, db = batchnorm_backward(dz, bncache)
        emit(name + ".bn.g", lambda: dg)
        emit(name + ".bn.b", lambda: db)
    if linear_backward is None:
        dx = affine_backward(dz, x, w, name, emit)
    else:
        dx, dw = linear_backward(dz, x, w)
        emit(name + ".w", lambda: dw)
    return dx.reshape(shape)


# ---------------------------------------------------------------------------
# Adam

ADAM_CHUNK = 1 << 16     # elements per in-place pass; 2^14 and 2^18 measured slower


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3


def _check_adam_operands(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    if param.shape != grad.shape:
        raise ValueError(f"adam shape mismatch: param{param.shape} grad{grad.shape}")
    for name, arr in (("param", param), ("m", state.m), ("v", state.v)):
        if arr.shape != param.shape:
            raise ValueError(f"adam shape mismatch: param{param.shape} {name}{arr.shape}")
        # reshape(-1) of such an array is a copy, and the update would be lost
        if not (arr.flags.c_contiguous and arr.flags.writeable):
            raise ValueError(f"adam {name} must be a C-contiguous writeable array")


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place: overwrites param, state.m and
    state.v and increments state.t.

    Works through flat views in chunks of ADAM_CHUNK elements with one
    (2, chunk) scratch buffer, so no temporary grows with the tensor. Each
    chunk follows the operation order of the textbook update
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g,
    param -= (lr*(m/c1)) / (sqrt(v/c2)+eps), so the result is bit-identical
    to computing it with whole-tensor temporaries.
    """
    _check_adam_operands(param, grad, state)
    state.t += 1
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    p, g, m, v = (a.reshape(-1) for a in (param, grad, state.m, state.v))
    scratch = np.empty((2, min(p.size, ADAM_CHUNK)), dtype=param.dtype)
    for lo in range(0, p.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, p.size)
        s, u = scratch[0, :hi - lo], scratch[1, :hi - lo]
        gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=s)
        mc += s
        vc *= b2
        np.multiply(gc, 1.0 - b2, out=s)
        s *= gc
        vc += s
        np.divide(mc, c1, out=s)
        s *= lr
        np.divide(vc, c2, out=u)
        np.sqrt(u, out=u)
        u += eps
        s /= u
        p[lo:hi] -= s


def adam_parts(param: np.ndarray, grad: np.ndarray, state: AdamState,
               size: int) -> list[tuple[np.ndarray, np.ndarray, AdamState]]:
    """One Adam step split into adam_step arguments over consecutive flat
    ranges of size elements. Advances state.t now; each part's state views
    its range of m and v and carries the old t. The update is elementwise,
    so adam_step over every part, in any order and on any thread, leaves
    param, m and v with the bits of adam_step(param, grad, state)."""
    _check_adam_operands(param, grad, state)
    p, g, m, v = (a.reshape(-1) for a in (param, grad, state.m, state.v))
    parts = [(p[lo:lo + size], g[lo:lo + size],
              replace(state, m=m[lo:lo + size], v=v[lo:lo + size]))
             for lo in range(0, p.size, size)]
    state.t += 1
    return parts


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def grad_check(f: Callable[[dict], tuple[float, dict]], params: dict,
               eps: float = 1e-5, max_coords_per_param: Optional[int] = None,
               rng: Optional[np.random.Generator] = None,
               skip: Optional[Callable[[str, tuple, float], bool]] = None) -> float:
    """Compare analytic gradients of f against central differences.

    f maps the params dict to (scalar loss, {name: grad array}) and must be
    deterministic. Coordinates may be subsampled per parameter via
    max_coords_per_param; skip(name, index, value) can exclude coordinates
    sitting on a kink. Returns the worst relative error
    |a - n| / max(|a|, |n|, 1e-8).
    """
    loss0, grads = f(params)
    if not np.isfinite(loss0):
        raise NumericError(f"grad_check: loss is non-finite at the base point ({loss0})")
    worst = 0.0
    rng = rng or np.random.default_rng(0)
    for name in sorted(params):
        p = params[name]
        if name not in grads:
            raise KeyError(f"grad_check: analytic gradient missing for {name!r}")
        check_finite(f"grad[{name}]", grads[name])
        n_coords = p.size
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            flat = rng.choice(n_coords, size=max_coords_per_param, replace=False)
        else:
            flat = np.arange(n_coords)
        for fi in flat:
            idx = np.unravel_index(fi, p.shape)
            v = p[idx]
            if skip is not None and skip(name, idx, float(v)):
                continue
            p[idx] = v + eps
            lp, _ = f(params)
            p[idx] = v - eps
            lm, _ = f(params)
            p[idx] = v
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(f"grad_check: non-finite loss perturbing {name}{idx}")
            numeric = (lp - lm) / (2.0 * eps)
            analytic = float(grads[name][idx])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
