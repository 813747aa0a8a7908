from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgcnn import nn


# --- affine ----------------------------------------------------------------

def test_affine_identity_weights():
    x = np.random.default_rng(0).standard_normal((3, 4))
    out = nn.affine(x, np.eye(4), np.zeros(4))
    assert np.array_equal(out, x)


def test_affine_zero_input_gives_bias_rows():
    b = np.array([1.0, -2.0])
    out = nn.affine(np.zeros((5, 3)), np.zeros((3, 2)), b)
    assert np.array_equal(out, np.tile(b, (5, 1)))


def test_affine_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            acc = b[j]
            for m in range(4):
                acc += x[i, m] * w[m, j]
            expected[i, j] = acc
    assert np.max(np.abs(nn.affine(x, w, b) - expected)) < 1e-12


def test_affine_shape_mismatch_raises():
    with pytest.raises(ValueError):
        nn.affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


def test_affine_is_bilinear():
    rng = np.random.default_rng(2)
    x1, x2 = rng.standard_normal((2, 3, 4))
    w1, w2 = rng.standard_normal((2, 4, 2))
    b = np.zeros(2)
    lhs = nn.affine(2.0 * x1 + 3.0 * x2, w1, b)
    rhs = 2.0 * nn.affine(x1, w1, b) + 3.0 * nn.affine(x2, w1, b)
    assert np.allclose(lhs, rhs, atol=1e-12)
    lhs = nn.affine(x1, 2.0 * w1 + 3.0 * w2, b)
    rhs = 2.0 * nn.affine(x1, w1, b) + 3.0 * nn.affine(x1, w2, b)
    assert np.allclose(lhs, rhs, atol=1e-12)


# --- activations -------------------------------------------------------------

def test_activation_fixed_points():
    assert nn.tanh(np.array(0.0)) == 0.0
    assert nn.relu(np.array(-1.0)) == 0.0
    assert nn.sigmoid(np.array(0.0)) == 0.5


def test_sigmoid_no_underflow_at_minus_50():
    assert nn.sigmoid(np.array(-50.0)) > 0.0


def test_activation_derivatives_match_central_differences():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, size=10)
    eps = 1e-6
    for x in xs:
        num = (np.tanh(x + eps) - np.tanh(x - eps)) / (2 * eps)
        ana = nn.tanh_grad_from_output(np.tanh(x))
        assert abs(num - ana) / max(abs(num), abs(ana)) < 1e-8
        s = nn.sigmoid(np.array(x))
        num = (nn.sigmoid(np.array(x + eps)) - nn.sigmoid(np.array(x - eps))) / (2 * eps)
        assert abs(num - s * (1.0 - s)) / max(abs(num), 1e-8) < 1e-8
        if abs(x) > 1e-4:  # stay off the relu kink
            num = (nn.relu(np.array(x + eps)) - nn.relu(np.array(x - eps))) / (2 * eps)
            assert abs(num - nn.relu_grad(np.array(x))) < 1e-8


# --- batch norm --------------------------------------------------------------

def test_batchnorm_constant_column_outputs_shift():
    x = np.full((6, 3), 2.5)
    g = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 0.0])
    state = nn.init_bn_state(3, np.float64)
    out, _, _ = nn.batchnorm_forward(x, g, b, state, "train")
    assert np.allclose(out, np.tile(b, (6, 1)), atol=1e-6)


def test_batchnorm_normalizes_in_train_mode():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((64, 5)) * 3.0 + 1.0
    state = nn.init_bn_state(5, np.float64)
    out, _, _ = nn.batchnorm_forward(x, np.ones(5), np.zeros(5), state, "train")
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-4


def test_batchnorm_batch_of_one_rejected_in_train_mode():
    state = nn.init_bn_state(2, np.float64)
    with pytest.raises(ValueError):
        nn.batchnorm_forward(np.zeros((1, 2)), np.ones(2), np.zeros(2), state, "train")


def test_batchnorm_running_stats_feed_infer_mode():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((32, 2)) + 4.0
    state = nn.init_bn_state(2, np.float64)
    for _ in range(800):
        _, _, state = nn.batchnorm_forward(x, np.ones(2), np.zeros(2), state, "train")
    out, _, _ = nn.batchnorm_forward(x, np.ones(2), np.zeros(2), state, "infer")
    # after convergence of the running stats, infer matches train normalization
    assert np.max(np.abs(out.mean(axis=0))) < 1e-2


def test_batchnorm_gradient_vs_finite_differences():
    from fgcnn.checks import check_batchnorm
    assert check_batchnorm(0) < 1e-4


def batchnorm_forward_oracle(x, g, b, state, mode):
    """Axis-0 mean/var reductions and the unfolded infer formula.
    Oracle for nn.batchnorm_forward."""
    if mode == "train":
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
        xhat = (x - mu) * inv_std
        m = nn.BN_MOMENTUM
        new_state = nn.BnState(mean=(m * state.mean + (1.0 - m) * mu).astype(x.dtype),
                               var=(m * state.var + (1.0 - m) * var).astype(x.dtype))
        return xhat * g + b, (xhat, inv_std, g), new_state
    xhat = (x - state.mean) / np.sqrt(state.var + nn.BN_EPS)
    return xhat * g + b, None, state


def batchnorm_backward_oracle(grad, cache):
    """Four axis-0 sums over dxhat = grad * g. Oracle for nn.batchnorm_backward."""
    xhat, inv_std, g = cache
    n = grad.shape[0]
    dg = (grad * xhat).sum(axis=0)
    db = grad.sum(axis=0)
    dxhat = grad * g
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return dx, dg, db


def _bn_case(seed, n, d, scale, shift, constant, trail=()):
    # trail adds the trailing axes of a conv site's [rows, maps, b, k] input
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d) + trail) * scale + shift
    if constant is not None:
        x[:, constant % d] = shift
    g, b = rng.standard_normal((2, d))
    grad = rng.standard_normal(x.shape)
    state = nn.BnState(mean=rng.standard_normal(d), var=rng.random(d) + 0.5)
    return x, g, b, grad, state


def _columns(x):
    """[n, d, ...] -> [n * ..., d]: the oracles' 2-D form, axis 1 as columns."""
    return np.moveaxis(x, 1, -1).reshape(-1, x.shape[1])


def _close(got, want, tol, cond=None):
    # tol is absolute up to magnitude 1 and relative to the oracle's largest
    # entry above it: a constant column makes inv_std ~ 316, so dx reaches
    # the hundreds while the kernels differ only in summation order.
    # cond (per column) widens tol past COND_OK; see the f32 test.
    atol = tol * max(1.0, float(np.abs(want).max()))
    if cond is not None:
        atol = atol * np.maximum(1.0, cond / COND_OK)
    err = np.abs(np.asarray(got, dtype=np.float64) - want)
    assert np.all(err <= atol), f"worst error {float(np.max(err / atol)):.3g} x tolerance"


_TRAILS = st.sampled_from([(), (1,), (3,), (2, 3)])


# Shifts are multiples of 1/4, so a constant column sums exactly and its
# xhat is exactly 0 in both kernels; with other constants xhat is rounding
# noise times inv_std ~ 316, and dg sums that noise differently in each.
@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 64), d=st.integers(1, 6),
       scale=st.sampled_from([0.1, 1.0, 10.0]), shift=st.integers(-20, 20).map(lambda i: i / 4),
       constant=st.none() | st.integers(0, 5), trail=_TRAILS,
       seed=st.integers(0, 2**32 - 1))
def test_batchnorm_matches_axis_sum_oracle(n, d, scale, shift, constant, trail, seed):
    x, g, b, grad, state = _bn_case(seed, n, d, scale, shift, constant, trail)
    out, cache, new = nn.batchnorm_forward(x, g, b, state, "train")
    want_out, want_cache, want_new = batchnorm_forward_oracle(
        _columns(x), g, b, state, "train")
    assert out.shape == x.shape
    _close(_columns(out), want_out, 1e-12)
    _close(new.mean, want_new.mean, 1e-12)
    _close(new.var, want_new.var, 1e-12)
    dx, dg, db = nn.batchnorm_backward(grad, cache)
    want_dx, want_dg, want_db = batchnorm_backward_oracle(_columns(grad), want_cache)
    for got, want in ((_columns(dx), want_dx), (dg, want_dg), (db, want_db)):
        _close(got, want, 1e-12)
    out, cache, same = nn.batchnorm_forward(x, g, b, state, "infer")
    assert cache is None and same is state
    _close(_columns(out), batchnorm_forward_oracle(_columns(x), g, b, state, "infer")[0],
           1e-12)


# An f32 column's mean is off by up to an ulp of its largest entry, and
# xhat = (x - mean) * inv_std magnifies that by cond = max|x| * inv_std.
# A well-conditioned column (cond <= COND_OK: a standard deviation above
# 1/64 of its largest magnitude) keeps the 1e-4 bound; past that the bound
# grows with cond. A constant column (cond ~ 316 * |shift|) is not drawn.
# The pinned example's first column holds 2.3456 and 2.3304 (cond ~ 286):
# its dx missed the fixed bound by about 2x in the old kernel and this one.
COND_OK = 64.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 64), d=st.integers(1, 6), shift=st.floats(-2.0, 2.0),
       trail=_TRAILS, seed=st.integers(0, 2**32 - 1))
@example(n=2, d=2, shift=2.0, trail=(), seed=1)
def test_batchnorm_f32_matches_f64_oracle(n, d, shift, trail, seed):
    x, g, b, grad, state = _bn_case(seed, n, d, 1.0, shift, None, trail)
    x, g, b, grad = (a.astype(np.float32).astype(np.float64) for a in (x, g, b, grad))
    state = nn.BnState(mean=state.mean.astype(np.float32).astype(np.float64),
                       var=state.var.astype(np.float32).astype(np.float64))
    s32 = nn.BnState(mean=state.mean.astype(np.float32), var=state.var.astype(np.float32))
    f32 = [a.astype(np.float32) for a in (x, g, b)]
    out, cache, new = nn.batchnorm_forward(*f32, s32, "train")
    want_out, want_cache, want_new = batchnorm_forward_oracle(
        _columns(x), g, b, state, "train")
    cond = np.abs(_columns(x)).max(axis=0) * want_cache[1]
    assert out.dtype == new.mean.dtype == new.var.dtype == np.float32
    _close(_columns(out), want_out, 1e-4, cond)
    _close(new.mean, want_new.mean, 1e-4)
    _close(new.var, want_new.var, 1e-4)
    dx, dg, db = nn.batchnorm_backward(grad.astype(np.float32), cache)
    want_dx, want_dg, want_db = batchnorm_backward_oracle(_columns(grad), want_cache)
    assert dx.dtype == dg.dtype == db.dtype == np.float32
    _close(_columns(dx), want_dx, 1e-4, cond)
    _close(dg, want_dg, 1e-4, cond)
    _close(db, want_db, 1e-4)       # sum(grad): no x, no inv_std
    out, _, _ = nn.batchnorm_forward(*f32, s32, "infer")
    _close(_columns(out), batchnorm_forward_oracle(_columns(x), g, b, state, "infer")[0],
           1e-4)


# --- layer block ---------------------------------------------------------------

@pytest.mark.parametrize("act", ["tanh", "relu"])
@pytest.mark.parametrize("use_bn", [False, True])
def test_block_backward_writes_neither_its_gradient_nor_the_cached_output(act, use_bn):
    """The output is the next block's cached input, which an emitted weight
    gradient may still read; the incoming gradient is a view of the caller's."""
    rng = np.random.default_rng(4)
    params = {"l.w": rng.standard_normal((12, 5)), "l.b": rng.standard_normal(5)}
    states = {}
    if use_bn:
        params.update({"l.bn.g": rng.standard_normal(5), "l.bn.b": rng.standard_normal(5)})
        states["l.bn"] = nn.init_bn_state(5, np.float64)
    x = rng.standard_normal((6, 3, 4))
    a, cache = nn.block_forward(x, params, "l", act, states, "train")
    da = rng.standard_normal((6, 5))
    a_before, da_before = a.copy(), da.copy()
    emit, grads = nn.gradient_sink()
    dx = nn.block_backward(da, cache, emit)
    assert np.array_equal(a, a_before) and np.array_equal(da, da_before)
    assert dx.shape == x.shape and sorted(grads) == sorted(params)
    emitted = []
    nn.block_backward(da, cache, lambda name, make: emitted.append((name, make())))
    assert [n for n, _ in emitted] == list(grads)
    assert all(np.array_equal(g, grads[n]) for n, g in emitted)


def test_block_keeps_the_flattened_input_in_train_mode_only():
    rng = np.random.default_rng(5)
    params = {"l.w": rng.standard_normal((36, 2)), "l.b": np.zeros(2)}
    x = rng.standard_normal((3, 4, 2, 3)).transpose(2, 0, 3, 1)    # [2, 3, 3, 4] view
    a_train, train_cache = nn.block_forward(x, params, "l", "tanh", {}, "train")
    a_infer, infer_cache = nn.block_forward(x, params, "l", "tanh", {}, "infer")
    assert train_cache[2].shape == (2, 36) and train_cache[2].flags.c_contiguous
    assert infer_cache is None
    assert np.array_equal(a_train, a_infer)
    emit, grads = nn.gradient_sink()
    assert nn.block_backward(rng.standard_normal((2, 2)), train_cache, emit).shape == x.shape
    assert sorted(grads) == ["l.b", "l.w"]


# --- Adam --------------------------------------------------------------------

def adam_step_pure(param, grad, state):
    """The whole-tensor Adam update: returns (new_param, new_state) and
    leaves its inputs alone. Oracle for the in-place nn.adam_step."""
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_param = param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_param, replace(state, m=m, v=v, t=t)


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def _adam_grad(rng, size, dtype, kind):
    fi = np.finfo(dtype)
    if kind == "zero":
        g = np.zeros(size, dtype)
    elif kind == "tiny":         # subnormals and the smallest normals
        g = (rng.standard_normal(size) * float(fi.tiny)).astype(dtype)
    elif kind == "huge":         # g * g overflows to inf
        g = (rng.standard_normal(size) * float(fi.max) / 4).astype(dtype)
    else:
        g = rng.standard_normal(size).astype(dtype)
    # sprinkle signed zeros over every kind
    g[rng.random(size) < 0.1] = 0.0
    g[rng.random(size) < 0.1] = -0.0
    return g


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([0, 1, 7, nn.ADAM_CHUNK - 1, nn.ADAM_CHUNK,
                             nn.ADAM_CHUNK + 1, 2 * nn.ADAM_CHUNK + 5]),
       dtype=st.sampled_from([np.float32, np.float64]),
       kinds=st.lists(st.sampled_from(["zero", "tiny", "huge", "normal"]),
                      min_size=1, max_size=4),
       lr=st.sampled_from([1e-3, 0.1]),
       seed=st.integers(0, 2**32 - 1))
def test_adam_in_place_is_bit_identical_to_pure(size, dtype, kinds, lr, seed):
    rng = np.random.default_rng(seed)
    param = rng.standard_normal(size).astype(dtype)
    param[rng.random(size) < 0.05] = -0.0
    ref_param = param.copy()
    ref_state = nn.AdamState(m=np.zeros_like(param), v=np.zeros_like(param), lr=lr)
    state = nn.AdamState(m=np.zeros_like(param), v=np.zeros_like(param), lr=lr)
    with np.errstate(over="ignore", invalid="ignore"):
        for kind in kinds:
            grad = _adam_grad(rng, size, dtype, kind)
            ref_param, ref_state = adam_step_pure(ref_param, grad, ref_state)
            assert nn.adam_step(param, grad, state) is None
    assert _bits(param) == _bits(ref_param)
    assert _bits(state.m) == _bits(ref_state.m)
    assert _bits(state.v) == _bits(ref_state.v)
    assert state.t == ref_state.t == len(kinds)


def _strided():
    return np.ones(16)[::2]


def _read_only():
    a = np.ones(8)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make", [_strided, _read_only])
@pytest.mark.parametrize("which", ["param", "m", "v"])
def test_adam_rejects_arrays_it_cannot_update_in_place(which, make):
    arrays = {"param": np.ones(8), "m": np.zeros(8), "v": np.zeros(8)}
    arrays[which] = make()
    before = {k: a.copy() for k, a in arrays.items()}
    state = nn.AdamState(m=arrays["m"], v=arrays["v"], lr=0.1)
    with pytest.raises(ValueError, match="C-contiguous writeable"):
        nn.adam_step(arrays["param"], np.ones(8), state)
    assert state.t == 0
    for k, arr in arrays.items():
        assert np.array_equal(arr, before[k]), k


@settings(max_examples=30, deadline=None)
@given(size_part=st.sampled_from([(1, 1), (7, 1), (7, 5), (64, 5), (64, 64), (1000, 64),
                                  (nn.ADAM_CHUNK + 3, nn.ADAM_CHUNK // 3),
                                  (2 * nn.ADAM_CHUNK + 5, nn.ADAM_CHUNK)]),
       dtype=st.sampled_from([np.float32, np.float64]),
       steps=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_adam_parts_in_any_order_match_one_step(size_part, dtype, steps, seed):
    size, part = size_part
    rng = np.random.default_rng(seed)
    shape = (size,) if size % 2 else (2, size // 2)
    param = rng.standard_normal(shape).astype(dtype)
    ref_param = param.copy()
    ref_state = nn.AdamState(m=np.zeros_like(param), v=np.zeros_like(param), lr=0.01)
    state = nn.AdamState(m=np.zeros_like(param), v=np.zeros_like(param), lr=0.01)
    for _ in range(steps):
        grad = rng.standard_normal(shape).astype(dtype)
        nn.adam_step(ref_param, grad, ref_state)
        parts = nn.adam_parts(param, grad, state, part)
        assert state.t == ref_state.t
        assert sum(p.size for p, _, _ in parts) == size
        for i in rng.permutation(len(parts)):
            nn.adam_step(*parts[i])
    assert _bits(param) == _bits(ref_param)
    assert _bits(state.m) == _bits(ref_state.m)
    assert _bits(state.v) == _bits(ref_state.v)
    assert state.t == steps


@pytest.mark.parametrize("which", ["param", "m", "v"])
def test_adam_parts_reject_arrays_they_cannot_update_in_place(which):
    arrays = {"param": np.ones(8), "m": np.zeros(8), "v": np.zeros(8)}
    arrays[which] = _strided()
    state = nn.AdamState(m=arrays["m"], v=arrays["v"], lr=0.1)
    with pytest.raises(ValueError, match="C-contiguous writeable"):
        nn.adam_parts(arrays["param"], np.ones(8), state, 3)
    assert state.t == 0


def test_adam_zero_grad_never_moves_param():
    p = np.array([1.0, -2.0, 3.0])
    state = nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=0.1)
    q = p.copy()
    for _ in range(50):
        nn.adam_step(q, np.zeros(3), state)
    assert np.array_equal(q, p)


def test_adam_converges_on_scalar_quadratic():
    # minimize (x - 3)^2 by running the update recursion itself
    x = np.array([0.0])
    state = nn.AdamState(m=np.zeros_like(x), v=np.zeros_like(x), lr=0.1)
    for _ in range(200):
        grad = 2.0 * (x - 3.0)
        nn.adam_step(x, grad, state)
    assert abs(x[0] - 3.0) < 1e-3


def test_adam_is_deterministic():
    rng = np.random.default_rng(6)
    grads = [rng.standard_normal(4) for _ in range(20)]

    def run():
        p = np.ones(4)
        st = nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=0.01)
        for g in grads:
            nn.adam_step(p, g, st)
        return p

    a, b = run(), run()
    assert np.array_equal(a, b) and not np.array_equal(a, np.ones(4))


# --- grad_check itself --------------------------------------------------------

def test_grad_check_linear_map_is_exact():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(5)

    def f(params):
        return float(c @ params["x"]), {"x": c.copy()}

    # the derivative is constant, so a wide step leaves only rounding noise
    err = nn.grad_check(f, {"x": rng.standard_normal(5)}, eps=1e-3)
    assert err < 1e-9


def test_grad_check_kink_filter_skips_relu_corner():
    def f(params):
        x = params["x"]
        return float(nn.relu(x).sum()), {"x": nn.relu_grad(x)}

    x = np.array([1.0, -1.0, 1e-7])  # last coordinate sits on the kink
    eps = 1e-5

    def skip(name, idx, value):
        return abs(value) < 10 * eps

    err = nn.grad_check(f, {"x": x}, eps=eps, skip=skip)
    assert err < 1e-9


def test_grad_check_reports_nonfinite():
    def f(params):
        return float(params["x"].sum()), {"x": np.array([np.nan])}

    with pytest.raises(nn.NumericError):
        nn.grad_check(f, {"x": np.array([1.0])})


def test_check_finite_names_coordinate():
    arr = np.ones((2, 3))
    arr[1, 2] = np.inf
    with pytest.raises(nn.NumericError, match=r"\(1, 2\)"):
        nn.check_finite("probe", arr)
