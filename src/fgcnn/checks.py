"""Finite-difference verification of every hand-written gradient, layer by
layer and through the full composed model. Everything runs at float64.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import featuregen as fg_mod
from . import nn
from .classifier import ClassifierConfig, fm_layer, fm_layer_backward, loss_and_grad
from .data import make_batches, planted_spec, generate_synthetic, synthetic_schema
from .embedding import EmbeddingTable, assemble_embedding_matrix, backward_embedding
from .featuregen import FeatureGenConfig
from .model import FgcnnModel, ModelConfig

THRESHOLD = 1e-4
EPS = 1e-5


def _inner_product_check(forward, backward, arrays: dict[str, np.ndarray],
                         g: np.ndarray, eps: float = EPS,
                         max_coords: Optional[int] = None,
                         rng: Optional[np.random.Generator] = None) -> float:
    """Check d<g, forward(arrays)>/d(arrays) against central differences."""
    def f(params):
        out = forward(params)
        return float((g * out).sum()), backward(params)
    return nn.grad_check(f, arrays, eps=eps, max_coords_per_param=max_coords, rng=rng)


def check_embedding_gather(seed: int) -> float:
    rng = np.random.default_rng(seed)
    spec = planted_spec(n_f=3, cardinality=4, pair=(0, 2), seed=seed)
    schema = synthetic_schema(spec)
    split, _ = generate_synthetic(spec, 6)
    batch = make_batches(split, 6)[0]
    table = EmbeddingTable(rng.standard_normal((schema.t_f, 3)), schema.offsets(),
                           tuple(schema.field_names()),
                           tuple(f.cardinality for f in schema.fields))
    g = rng.standard_normal((6, 3, 3))

    def forward(params):
        table.weights = params["w"]
        return assemble_embedding_matrix(batch, table)

    def backward(params):
        table.weights = params["w"]
        return {"w": backward_embedding(g, batch, table)}

    return _inner_product_check(forward, backward, {"w": table.weights.copy()}, g)


def _block_check(params: dict[str, np.ndarray], name: str, x: np.ndarray,
                 g: np.ndarray, linear=None, linear_backward=None) -> float:
    """Check nn.block_forward/block_backward (no batch norm) with respect to
    x and the layer's parameters."""
    def forward(p):
        return nn.block_forward(p["x"], p, name, "tanh", {}, "train", linear)[0]

    def backward(p):
        _, cache = nn.block_forward(p["x"], p, name, "tanh", {}, "train", linear)
        emit, grads = nn.gradient_sink()
        return {"x": nn.block_backward(g, cache, emit, linear_backward), **grads}

    return _inner_product_check(forward, backward, {"x": x, **params}, g)


def check_conv(seed: int) -> float:
    """Worst error over an odd kernel shorter than its input (h=3, 5 rows,
    2->2 maps) and an even one taller than it (h=4, 3 rows, 3->2 maps),
    whose SAME padding is uneven (1 row above, 2 below)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for h, rows, in_maps, out_maps in ((3, 5, 2, 2), (4, 3, 3, 2)):
        x = rng.standard_normal((rows, in_maps, 2, 4))
        w = rng.standard_normal((h, 1, in_maps, out_maps)) * 0.5
        g = rng.standard_normal((rows, out_maps, 2, 4))
        worst = max(worst, _block_check({"fg.conv1.w": w}, "fg.conv1", x, g,
                                        fg_mod.conv_affine, fg_mod.conv_affine_backward))
    return worst


def check_pool(seed: int) -> float:
    """Worst error over [rows, 2 maps, 2, 3] inputs whose row count the pool
    height divides (6 by 2) and does not (5 by 2, 7 by 3: partial last
    windows of one and two rows)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for rows, pool_height in ((6, 2), (5, 2), (7, 3)):
        x = rng.standard_normal((rows, 2, 2, 3))
        g = rng.standard_normal((fg_mod.ceil_div(rows, pool_height), 2, 2, 3))

        def forward(p):
            out, _ = fg_mod.pool_forward(p["x"], pool_height)
            return out

        def backward(p):
            _, argmax = fg_mod.pool_forward(p["x"], pool_height)
            return {"x": fg_mod.pool_backward(g, argmax, rows, pool_height)}

        worst = max(worst, _inner_product_check(forward, backward, {"x": x}, g))
    return worst


def check_recombination(seed: int) -> float:
    """Affine map over the flattened pooled maps [2, 3, 4, 2], then tanh."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((2, 3, 4, 2))
    params = {"fg.recomb1.w": rng.standard_normal((24, 8)) * 0.3,
              "fg.recomb1.b": rng.standard_normal(8) * 0.1}
    return _block_check(params, "fg.recomb1", s, rng.standard_normal((2, 8)))


def check_fm_layer(seed: int) -> float:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((3, 5, 3))
    g = rng.standard_normal((3, 10))

    def forward(p):
        return fm_layer(p["e"])

    def backward(p):
        return {"e": fm_layer_backward(g, p["e"])}

    return _inner_product_check(forward, backward, {"e": e}, g)


def check_affine(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    g = rng.standard_normal((4, 2))

    def forward(p):
        return nn.affine(p["x"], p["lin.w"], p["lin.b"])

    def backward(p):
        emit, grads = nn.gradient_sink()
        return {"x": nn.affine_backward(g, p["x"], p["lin.w"], "lin", emit), **grads}

    return _inner_product_check(forward, backward, {"x": x, "lin.w": w, "lin.b": b}, g)


def check_batchnorm(seed: int) -> float:
    """Worst error over a dense site's [4, 3] and a conv site's [3, 2, 2, 2]
    ([rows, maps, b, k]) input; both normalize axis 1."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for shape in ((4, 3), (3, 2, 2, 2)):
        d = shape[1]
        x = rng.standard_normal(shape)
        gma = rng.standard_normal(d)
        beta = rng.standard_normal(d)
        g = rng.standard_normal(shape)
        state = nn.init_bn_state(d, np.float64)

        def forward(p):
            out, _, _ = nn.batchnorm_forward(p["x"], p["g"], p["b"], state, "train")
            return out

        def backward(p):
            _, cache, _ = nn.batchnorm_forward(p["x"], p["g"], p["b"], state, "train")
            dx, dg, db = nn.batchnorm_backward(g, cache)
            return {"x": dx, "g": dg, "b": db}

        worst = max(worst, _inner_product_check(forward, backward,
                                                {"x": x, "g": gma, "b": beta}, g))
    return worst


def check_loss(seed: int) -> float:
    rng = np.random.default_rng(seed)
    logit = rng.standard_normal(8)
    y = (rng.random(8) < 0.5).astype(float)

    def f(p):
        yhat = nn.sigmoid(p["logit"])
        loss_vec, dlogit = loss_and_grad(yhat, y)
        return float(loss_vec.mean()), {"logit": dlogit / len(y)}

    return nn.grad_check(f, {"logit": logit}, eps=EPS)


def _tiny_model(seed: int, use_bn: bool, style: str = "cnn",
                kind: str = "ipnn", include_raw: bool = True,
                use_recombination: bool = True) -> tuple[FgcnnModel, object]:
    spec = planted_spec(n_f=4, cardinality=3, pair=(0, 2), seed=seed)
    schema = synthetic_schema(spec)
    split, _ = generate_synthetic(spec, 6)
    batch = make_batches(split, 6)[0]
    config = ModelConfig(
        k=3,
        classifier=ClassifierConfig(kind=kind, hidden_sizes=(5,), use_bn=use_bn),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,),
                                 new_maps=(2,), pool_height=2, use_bn=use_bn,
                                 use_recombination=use_recombination, style=style),
        include_raw=include_raw,
    )
    model = FgcnnModel.build(schema, config, seed, precision="f64")
    return model, batch


def model_loss_fn(model: FgcnnModel, batch):
    """Loss and gradients of a train-mode pass: without batch norm or dropout
    that is the arithmetic of infer mode."""
    def f(params):
        model.params = params
        yhat, cache = model.forward_batch(batch, mode="train")
        loss_vec, dlogit = loss_and_grad(yhat, batch.labels)
        grads = model.backward_batch(cache, dlogit / batch.size)
        for name in params:
            grads.setdefault(name, np.zeros_like(params[name]))
        return float(loss_vec.mean()), grads
    return f


def check_full_model(seed: int, use_bn: bool = False, style: str = "cnn",
                     kind: str = "ipnn", include_raw: bool = True,
                     use_recombination: bool = True,
                     max_coords: Optional[int] = 40) -> float:
    model, batch = _tiny_model(seed, use_bn, style, kind, include_raw,
                               use_recombination)
    f = model_loss_fn(model, batch)
    rng = np.random.default_rng(seed + 1)
    skip = None
    if use_bn:
        # A bias feeding straight into batch norm has an identically-zero
        # gradient (the mean subtraction absorbs it); both sides are float
        # noise there, which the relative-error floor would amplify.
        def skip(name, idx, value):
            return (name.endswith(".b") and ".bn" not in name
                    and name != "clf.out.b" and name != "clf.linear.b")
    return nn.grad_check(f, model.params, eps=EPS,
                         max_coords_per_param=max_coords, rng=rng, skip=skip)


LAYER_CHECKS = {
    "embedding_gather": check_embedding_gather,
    "conv": check_conv,
    "max_pool": check_pool,
    "recombination": check_recombination,
    "fm_layer": check_fm_layer,
    "affine": check_affine,
    "batchnorm": check_batchnorm,
    "loss": check_loss,
}


def run_suite(seeds=(0, 1, 2)) -> dict[str, float]:
    """Worst relative error per check over the given seeds."""
    results: dict[str, float] = {}
    for name, fn in LAYER_CHECKS.items():
        results[name] = max(fn(seed) for seed in seeds)
    results["full_model_ipnn"] = max(check_full_model(s) for s in seeds)
    results["full_model_bn"] = max(check_full_model(s, use_bn=True) for s in seeds)
    results["full_model_deepfm"] = max(
        check_full_model(s, kind="deepfm") for s in seeds)
    results["full_model_mlp_featgen"] = max(
        check_full_model(s, style="mlp") for s in seeds)
    results["full_model_no_recombination"] = max(
        check_full_model(s, use_recombination=False) for s in seeds)
    results["full_model_mlp_featgen_bn"] = max(
        check_full_model(s, use_bn=True, style="mlp") for s in seeds)
    results["full_model_no_recombination_bn"] = max(
        check_full_model(s, use_bn=True, use_recombination=False) for s in seeds)
    results["full_model_dnn"] = max(check_full_model(s, kind="dnn") for s in seeds)
    results["full_model_fm"] = max(check_full_model(s, kind="fm") for s in seeds)
    return results
