import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcnn import classifier as clf
from fgcnn import nn
from fgcnn.checks import check_fm_layer
from fgcnn.data import DatasetSchema, FieldSchema
from fgcnn.model import FgcnnModel, ModelConfig


def fm_oracle(e):
    """Double loop over all pairs i < j."""
    b, t, k = e.shape
    out = np.zeros((b, t * (t - 1) // 2))
    for bi in range(b):
        col = 0
        for i in range(t):
            for j in range(i + 1, t):
                out[bi, col] = float(e[bi, i] @ e[bi, j])
                col += 1
    return out


def fm_backward_oracle(grad, e):
    """Double loop: d<e_i, e_j> flows to e_i as e_j and to e_j as e_i."""
    b, t, k = e.shape
    out = np.zeros_like(e)
    for bi in range(b):
        col = 0
        for i in range(t):
            for j in range(i + 1, t):
                out[bi, i] += grad[bi, col] * e[bi, j]
                out[bi, j] += grad[bi, col] * e[bi, i]
                col += 1
    return out


def _mlp_params(config, t, k, seed=0):
    """The head's tensors as FgcnnModel.build initializes them over t raw fields."""
    schema = DatasetSchema(fields=[FieldSchema(f"f{j}", ("a",)) for j in range(t)])
    model = FgcnnModel.build(schema, ModelConfig(k=k, classifier=config), seed, "f64")
    return {n: p for n, p in model.params.items() if n.startswith("clf.")}


def _predict(e, params, config, mode="infer"):
    logit, _ = clf.classifier_forward(e, params, config, mode=mode)
    return nn.sigmoid(logit)


def _fm_predict(e, linear_w, linear_b):
    """The fm head: bias + per-field linear term + all pairwise inner products."""
    params = {"clf.linear.w": linear_w, "clf.linear.b": np.array([linear_b])}
    return _predict(e, params, clf.ClassifierConfig(kind="fm", hidden_sizes=()))


# --- fm layer -----------------------------------------------------------------

def test_fm_layer_pair_count():
    e = np.random.default_rng(0).standard_normal((2, 5, 3))
    assert clf.fm_layer(e).shape == (2, 10)


def test_fm_layer_orthogonal_rows_all_zero():
    e = np.zeros((1, 3, 3))
    e[0] = np.eye(3)
    assert np.allclose(clf.fm_layer(e), 0.0)


def test_fm_layer_matches_double_loop_oracle():
    e = np.random.default_rng(1).standard_normal((3, 6, 3))
    assert np.allclose(clf.fm_layer(e), fm_oracle(e), atol=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(b=st.integers(1, 4), t=st.integers(2, 12), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_fm_layer_and_backward_match_double_loop_at_f64(b, t, k, seed):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((b, t, k))
    grad = rng.standard_normal((b, t * (t - 1) // 2))
    assert np.allclose(clf.fm_layer(e), fm_oracle(e), rtol=1e-12, atol=1e-12)
    assert np.allclose(clf.fm_layer_backward(grad, e), fm_backward_oracle(grad, e),
                       rtol=1e-12, atol=1e-12)


def test_fm_layer_needs_two_fields():
    with pytest.raises(ValueError):
        clf.fm_layer(np.zeros((1, 1, 4)))


def test_fm_layer_lengths_over_field_range():
    rng = np.random.default_rng(2)
    for t in range(2, 65):
        e = rng.standard_normal((1, t, 2))
        assert clf.fm_layer(e).shape[1] == t * (t - 1) // 2


def test_fm_pair_indices_are_made_once_per_field_count_and_read_only():
    iu, ju = clf._pairs(26)
    assert clf._pairs(26)[0] is iu
    assert all(np.array_equal(a, b) for a, b in zip((iu, ju), np.triu_indices(26, k=1)))
    with pytest.raises(ValueError, match="read-only"):
        iu[0] = 1


def test_fm_layer_pair_set_invariant_under_row_swap():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((1, 5, 3))
    swapped = e.copy()
    swapped[0, [1, 3]] = swapped[0, [3, 1]]
    a = np.sort(clf.fm_layer(e)[0])
    b = np.sort(clf.fm_layer(swapped)[0])
    assert np.allclose(a, b, atol=1e-12)


def test_fm_layer_gradients():
    assert check_fm_layer(0) < 1e-4


# --- ipnn ---------------------------------------------------------------------

def test_ipnn_zero_params_predicts_half():
    config = clf.ClassifierConfig(kind="ipnn", hidden_sizes=(4,))
    t, k = 5, 2
    params = {n: np.zeros(s) for n, s in clf.param_shapes(config, t, k).items()}
    e = np.random.default_rng(4).standard_normal((3, t, k))
    assert np.allclose(_predict(e, params, config), 0.5)


def test_ipnn_input_width():
    assert clf.mlp_input_width("ipnn", 5, 2) == 10 + 10


def test_ipnn_matches_dense_math_oracle():
    config = clf.ClassifierConfig(kind="ipnn", hidden_sizes=(4, 3))
    t, k = 4, 2
    params = _mlp_params(config, t, k, seed=5)
    e = np.random.default_rng(6).standard_normal((2, t, k))
    logit, _ = clf.classifier_forward(e, params, config)
    yhat = nn.sigmoid(logit)
    # straight-line evaluation with independent matrix math
    x = np.concatenate([fm_oracle(e), e.reshape(2, -1)], axis=1)
    h1 = np.maximum(x @ params["clf.fc1.w"] + params["clf.fc1.b"], 0.0)
    h2 = np.maximum(h1 @ params["clf.fc2.w"] + params["clf.fc2.b"], 0.0)
    expect = (h2 @ params["clf.out.w"] + params["clf.out.b"])[:, 0]
    assert np.allclose(logit, expect, atol=1e-12)
    assert np.allclose(yhat, 1.0 / (1.0 + np.exp(-expect)), atol=1e-12)
    assert np.all((yhat > 0.0) & (yhat < 1.0))


def test_ipnn_rejects_wrong_kind():
    # a dnn head's first layer is too narrow for the ipnn input (pairs + fields)
    dnn_params = _mlp_params(clf.ClassifierConfig(kind="dnn", hidden_sizes=(4,)), 3, 2)
    config = clf.ClassifierConfig(kind="ipnn", hidden_sizes=(4,))
    with pytest.raises(ValueError, match="shape mismatch"):
        clf.classifier_forward(np.zeros((1, 3, 2)), dnn_params, config)


# --- dnn ----------------------------------------------------------------------

def test_dnn_zero_params_predicts_half():
    config = clf.ClassifierConfig(kind="dnn", hidden_sizes=(4,))
    t, k = 3, 2
    params = {n: np.zeros(s) for n, s in clf.param_shapes(config, t, k).items()}
    e = np.random.default_rng(7).standard_normal((2, t, k))
    assert np.allclose(_predict(e, params, config), 0.5)


def test_dnn_input_width():
    assert clf.mlp_input_width("dnn", 5, 2) == 10


def test_dnn_equals_ipnn_with_zeroed_fm_block():
    # an ipnn whose first layer ignores the pairwise block reduces to the dnn
    t, k = 4, 3
    dnn_cfg = clf.ClassifierConfig(kind="dnn", hidden_sizes=(5,))
    ipnn_cfg = clf.ClassifierConfig(kind="ipnn", hidden_sizes=(5,))
    dnn_params = _mlp_params(dnn_cfg, t, k, seed=8)
    p = t * (t - 1) // 2
    ipnn_params = dict(dnn_params)
    ipnn_params["clf.fc1.w"] = np.concatenate(
        [np.zeros((p, 5)), dnn_params["clf.fc1.w"]], axis=0)
    e = np.random.default_rng(9).standard_normal((3, t, k))
    y_dnn = _predict(e, dnn_params, dnn_cfg)
    y_ipnn = _predict(e, ipnn_params, ipnn_cfg)
    assert np.allclose(y_dnn, y_ipnn, atol=1e-12)


# --- fm only -------------------------------------------------------------------

def test_fm_only_zero_everything_predicts_half():
    e = np.zeros((2, 3, 4))
    e[:, 0, 0] = 1.0
    e[:, 1, 1] = 1.0
    e[:, 2, 2] = 1.0          # orthogonal rows
    yhat = _fm_predict(e, np.zeros((3, 4)), 0.0)
    assert np.allclose(yhat, 0.5)


def test_fm_only_single_pair_closed_form():
    e = np.zeros((1, 3, 2))
    e[0, 0] = [2.0, 0.0]
    e[0, 2] = [1.0, 0.0]      # <e_0, e_2> = 2, all other pairs zero
    yhat = _fm_predict(e, np.zeros((3, 2)), 0.0)
    assert abs(yhat[0] - 1.0 / (1.0 + math.exp(-2.0))) < 1e-12
    assert abs(yhat[0] - 0.8808) < 1e-4


def test_fm_only_matches_brute_force():
    rng = np.random.default_rng(10)
    e = rng.standard_normal((4, 5, 3))
    w = rng.standard_normal((5, 3))
    bias = 0.7
    logits = np.array([
        bias + sum(float(w[i] @ e[b, i]) for i in range(5))
        + sum(float(e[b, i] @ e[b, j]) for i in range(5) for j in range(i + 1, 5))
        for b in range(4)
    ])
    yhat = _fm_predict(e, w, bias)
    assert np.allclose(yhat, 1.0 / (1.0 + np.exp(-logits)), atol=1e-12)


# --- deepfm ---------------------------------------------------------------------

def test_deepfm_zero_params_predicts_half():
    config = clf.ClassifierConfig(kind="deepfm", hidden_sizes=(4,))
    t, k = 3, 2
    params = {n: np.zeros(s) for n, s in clf.param_shapes(config, t, k).items()}
    e = np.zeros((2, t, k))
    e[:, 0, 0] = 1.0
    e[:, 1, 1] = 1.0
    assert np.allclose(_predict(e, params, config), 0.5)


def test_deepfm_with_zero_mlp_equals_fm_only():
    config = clf.ClassifierConfig(kind="deepfm", hidden_sizes=(4,))
    t, k = 4, 3
    rng = np.random.default_rng(11)
    params = _mlp_params(config, t, k, seed=12)
    params["clf.out.w"] = np.zeros_like(params["clf.out.w"])
    params["clf.out.b"] = np.zeros_like(params["clf.out.b"])
    params["clf.linear.w"] = rng.standard_normal((t, k))
    params["clf.linear.b"] = np.array([0.3])
    e = rng.standard_normal((3, t, k))
    y_deep = _predict(e, params, config)
    y_fm = _fm_predict(e, params["clf.linear.w"], params["clf.linear.b"][0])
    assert np.allclose(y_deep, y_fm, atol=1e-12)


def test_deepfm_matches_independent_evaluation():
    config = clf.ClassifierConfig(kind="deepfm", hidden_sizes=(3,))
    t, k = 3, 2
    rng = np.random.default_rng(13)
    params = _mlp_params(config, t, k, seed=14)
    params["clf.linear.w"] = rng.standard_normal((t, k))
    e = rng.standard_normal((2, t, k))
    h = np.maximum(e.reshape(2, -1) @ params["clf.fc1.w"] + params["clf.fc1.b"], 0.0)
    mlp_logit = (h @ params["clf.out.w"] + params["clf.out.b"])[:, 0]
    pair = np.array([sum(float(e[b, i] @ e[b, j]) for i in range(t)
                         for j in range(i + 1, t)) for b in range(2)])
    lin = np.einsum("btk,tk->b", e, params["clf.linear.w"]) + params["clf.linear.b"][0]
    expect = 1.0 / (1.0 + np.exp(-(mlp_logit + pair + lin)))
    assert np.allclose(_predict(e, params, config), expect, atol=1e-12)


# --- dropout and determinism -------------------------------------------------------

def test_dropout_is_inference_noop():
    config = clf.ClassifierConfig(kind="dnn", hidden_sizes=(8,), dropout_keep=0.5)
    t, k = 3, 2
    params = _mlp_params(config, t, k, seed=15)
    e = np.random.default_rng(16).standard_normal((4, t, k))
    a = _predict(e, params, config, mode="infer")
    b = _predict(e, params, config, mode="infer")
    assert np.array_equal(a, b)


def test_dropout_scales_at_train_time():
    config = clf.ClassifierConfig(kind="dnn", hidden_sizes=(512,), dropout_keep=0.7)
    t, k = 3, 2
    params = _mlp_params(config, t, k, seed=17)
    e = np.random.default_rng(18).standard_normal((2, t, k))
    logit_infer, _ = clf.classifier_forward(e, params, config, mode="infer")
    rng = np.random.default_rng(19)
    samples = []
    for _ in range(300):
        logit, _ = clf.classifier_forward(e, params, config, mode="train",
                                             dropout_rng=rng)
        samples.append(logit)
    # inverted scaling: the train-time expectation matches inference
    assert np.allclose(np.mean(samples, axis=0), logit_infer, atol=0.05)


@pytest.mark.parametrize("kind", clf.KINDS)
def test_classifier_forward_keeps_no_cache_in_infer_mode(kind):
    config = clf.ClassifierConfig(kind=kind, hidden_sizes=() if kind == "fm" else (6,))
    params = _mlp_params(config, 4, 3, seed=22)
    e = np.random.default_rng(23).standard_normal((3, 4, 3))
    logit_infer, infer_cache = clf.classifier_forward(e, params, config, mode="infer")
    logit_train, train_cache = clf.classifier_forward(e, params, config, mode="train")
    assert infer_cache is None and train_cache is not None
    assert np.array_equal(logit_infer, logit_train)


def test_forward_deterministic_without_bn_and_dropout():
    config = clf.ClassifierConfig(kind="ipnn", hidden_sizes=(6,))
    t, k = 4, 3
    params = _mlp_params(config, t, k, seed=20)
    e = np.random.default_rng(21).standard_normal((3, t, k))
    a = _predict(e, params, config)
    b = _predict(e, params, config)
    assert np.array_equal(a, b)


# --- loss ----------------------------------------------------------------------

def test_loss_half_prediction_is_ln2():
    loss, _ = clf.loss_and_grad(np.array([0.5]), np.array([1.0]))
    assert abs(loss[0] - math.log(2.0)) < 1e-12


def test_loss_vanishes_for_confident_correct_negative():
    loss, _ = clf.loss_and_grad(np.array([1e-9]), np.array([0.0]))
    assert loss[0] < 1e-6


def test_loss_batch_mean_matches_elementwise_oracle():
    rng = np.random.default_rng(22)
    yhat = rng.uniform(0.01, 0.99, size=64)
    y = (rng.random(64) < 0.4).astype(float)
    loss, dlogit = clf.loss_and_grad(yhat, y)
    expect = np.array([-yi * math.log(pi) - (1 - yi) * math.log(1 - pi)
                       for pi, yi in zip(yhat, y)])
    assert np.allclose(loss, expect, atol=1e-12)
    assert np.allclose(dlogit, yhat - y, atol=1e-15)
    assert abs(loss.mean() - expect.mean()) < 1e-12


def test_loss_clamps_and_counts():
    stats = clf.ClampStats()
    loss, _ = clf.loss_and_grad(np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, 1.0]),
                                stats)
    assert stats.n_clamped == 2
    assert np.all(np.isfinite(loss))
    assert np.all(loss >= 0.0)
