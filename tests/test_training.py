import builtins
import errno
import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcnn import model as model_mod
from fgcnn import nn, training
from fgcnn.classifier import KINDS, ClassifierConfig
from fgcnn.data import (DataError, DatasetSchema, FieldSchema, Split, generate_synthetic,
                         make_batches, planted_spec, synthetic_schema)
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig, bn_sites, param_shapes
from fgcnn.training import (CheckpointTensorError, CheckpointVersionError, NotACheckpointError,
                            SchemaDigestError, TrainConfig, TruncatedCheckpointError,
                            auc_score, complexity_report, evaluate, load_checkpoint,
                            logloss_score, save_checkpoint, train)

ROOT = Path(__file__).resolve().parents[1]


def auc_pair_oracle(scores, labels):
    """Probability a random positive outranks a random negative, ties count half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _toy_setup(n=60, seed=0, **model_kw):
    spec = planted_spec(n_f=4, cardinality=4, pair=(0, 2), strength=2.0, seed=seed)
    schema = synthetic_schema(spec)
    instances, _ = generate_synthetic(spec, n)
    defaults = dict(
        k=4,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)),
    )
    defaults.update(model_kw)
    config = ModelConfig(**defaults)
    model = FgcnnModel.build(schema, config, seed)
    return schema, instances, model, config


# --- AUC -----------------------------------------------------------------------

def test_auc_perfect_ranking():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    assert auc_score(scores, labels) == 1.0


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=200).astype(float)  # heavy ties
    labels = (rng.random(200) < 0.4).astype(float)
    assert abs(auc_score(scores, labels) - auc_pair_oracle(scores, labels)) < 1e-12


def auc_loop_oracle(scores, labels):
    """Rank-sum AUC assigning each tie group its average rank in a loop."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores))
    boundaries = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (s + 1 + e)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(2, 300), n_levels=st.sampled_from([2, 5, 1_000_000]),
       seed=st.integers(0, 2**32 - 1))
def test_auc_equals_tie_group_loop_exactly(n, n_levels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, n_levels, size=n) / n_levels
    labels = np.zeros(n)
    labels[rng.permutation(n)[: rng.integers(1, n)]] = 1.0
    assert auc_score(scores, labels) == auc_loop_oracle(scores, labels)


def test_auc_single_class_undefined():
    assert auc_score(np.array([0.2, 0.4]), np.array([1, 1])) is None


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(500)
    labels = (rng.random(500) < 0.3).astype(float)
    base = auc_score(scores, labels)
    for transform in (lambda s: 3 * s + 2, np.exp, lambda s: s ** 3):
        assert abs(auc_score(transform(scores), labels) - base) < 1e-12


def test_logloss_at_uniform_half():
    scores = np.full(100, 0.5)
    labels = (np.arange(100) % 2).astype(float)
    assert abs(logloss_score(scores, labels) - math.log(2.0)) < 1e-12


def test_empty_split_is_rejected_by_train_and_evaluate():
    _, split, model, _ = _toy_setup()
    with pytest.raises(DataError, match="empty"):
        train(model, split[:0], TrainConfig())
    with pytest.raises(DataError, match="empty"):
        evaluate(model, split[:0])


def test_evaluate_counts_classes():
    schema, instances, model, _ = _toy_setup()
    m = evaluate(model, instances)
    assert m.n_pos == instances.labels.sum()
    assert m.n_pos + m.n_neg == len(instances)
    assert m.logloss >= 0.0


@pytest.mark.parametrize("where", ["output_bias", "embedding_row"])
def test_evaluate_refuses_a_non_finite_score_naming_its_row(where):
    """A NaN output bias reaches every score, a NaN raw embedding row only
    the scores of the rows that hold its token; the first such row is named."""
    schema, split, model, _ = _toy_setup()
    if where == "output_bias":
        model.params["clf.out.b"][0] = np.nan
        row = 0
    else:
        token = split.indices[7, 2, 0]
        model.params["emb.clf"][schema.offsets()[2] + token] = np.nan
        row = int(np.flatnonzero(split.indices[:, 2, 0] == token)[0])
    with pytest.raises(nn.NumericError, match=rf"^evaluation scores: non-finite value "
                                              rf"at coordinate \({row},\)$"):
        evaluate(model, split)


# --- train loop ------------------------------------------------------------------

def test_zero_learning_rate_freezes_params():
    schema, instances, model, _ = _toy_setup()
    before = model.clone_params()
    train(model, instances, TrainConfig(batch_size=16, learning_rate=0.0, epochs=3, seed=1))
    for name in before:
        assert np.array_equal(before[name], model.params[name]), name


def test_training_is_deterministic():
    def run():
        schema, instances, model, _ = _toy_setup()
        hist = train(model, instances,
                     TrainConfig(batch_size=16, learning_rate=1e-2, epochs=3, seed=5),
                     eval_split=instances)
        return hist, model

    h1, m1 = run()
    h2, m2 = run()
    assert h1 == h2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_training_reduces_loss():
    schema, instances, model, _ = _toy_setup(n=200)
    hist = train(model, instances,
                 TrainConfig(batch_size=32, learning_rate=1e-2, epochs=10, seed=2))
    assert hist[-1]["train_loss"] < hist[0]["train_loss"]


def test_divergence_restores_last_good_state():
    schema, instances, model, _ = _toy_setup()
    good = model.clone_params()
    model.params["clf.out.w"][:] = np.nan
    with pytest.raises(nn.NumericError, match="diverged"):
        train(model, instances, TrainConfig(batch_size=16, epochs=2, seed=3))
    # epoch 1 never completed, so the restored state is the starting one
    assert np.all(np.isnan(model.params["clf.out.w"]))
    for name in good:
        if name != "clf.out.w":
            assert np.array_equal(model.params[name], good[name])


def test_divergence_restores_bn_stats_of_last_good_epoch(monkeypatch):
    bn_model = dict(
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,), use_bn=True),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,),
                                 use_bn=True))
    cfg = dict(batch_size=16, seed=3)
    _, instances, reference, _ = _toy_setup(**bn_model)
    train(reference, instances, TrainConfig(epochs=1, **cfg))
    _, _, model, _ = _toy_setup(**bn_model)
    steps_per_epoch = -(-len(instances) // cfg["batch_size"])
    real_loss = training.loss_and_grad
    calls = []

    def nan_loss_in_epoch_two(yhat, y, stats=None):
        loss, dlogit = real_loss(yhat, y, stats)
        calls.append(1)
        if len(calls) == steps_per_epoch + 2:
            loss = np.full_like(loss, np.nan)
        return loss, dlogit

    monkeypatch.setattr(training, "loss_and_grad", nan_loss_in_epoch_two)
    with pytest.raises(nn.NumericError, match="diverged at epoch 2"):
        train(model, instances, TrainConfig(epochs=2, **cfg))
    # bit for bit: the in-place steps of epoch 2 must not reach the snapshot
    assert sorted(model.params) == sorted(reference.params)
    for name in reference.params:
        assert model.params[name].tobytes() == reference.params[name].tobytes(), name
    assert sorted(model.bn_states) == sorted(reference.bn_states) != []
    for site, state in reference.bn_states.items():
        assert np.array_equal(model.bn_states[site].mean, state.mean), site
        assert np.array_equal(model.bn_states[site].var, state.var), site


def test_l2_regularization_shrinks_embeddings():
    schema, instances, model, _ = _toy_setup(n=100)
    schema2, instances2, model2, _ = _toy_setup(n=100)
    cfg = dict(batch_size=32, learning_rate=1e-2, epochs=5, seed=4)
    train(model, instances, TrainConfig(**cfg, l2_embedding=0.0))
    train(model2, instances2, TrainConfig(**cfg, l2_embedding=1e-2))
    assert (np.linalg.norm(model2.params["emb.clf"])
            < np.linalg.norm(model.params["emb.clf"]))


def test_one_epoch_train_leaves_cloned_params_unaffected():
    schema, instances, model, _ = _toy_setup()
    before = model.clone_params()
    frozen = {n: p.tobytes() for n, p in before.items()}
    train(model, instances, TrainConfig(batch_size=16, epochs=1, seed=2))
    assert {n: p.tobytes() for n, p in before.items()} == frozen
    assert any(model.params[n].tobytes() != frozen[n] for n in frozen)


def test_bn_requires_batch_of_two():
    schema, instances, model, _ = _toy_setup(
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,), use_bn=True))
    with pytest.raises(ValueError):
        train(model, instances, TrainConfig(batch_size=1, epochs=1, seed=0))


def test_batches_of_one_train_a_model_without_bn_sites():
    # an fm head has no batch-norm site, so use_bn asks for nothing there
    schema, instances, model, _ = _toy_setup(
        featgen=None, classifier=ClassifierConfig(kind="fm", use_bn=True))
    assert model.bn_states == {}
    history = train(model, instances, TrainConfig(batch_size=1, epochs=1, seed=0))
    assert np.isfinite(history[0]["train_loss"])


def test_convex_submodel_loss_slope():
    # fm head with frozen embeddings is convex in the linear weights, so
    # full-batch descent at a small step must lower the loss every epoch
    from fgcnn.classifier import loss_and_grad
    from fgcnn.data import make_batches

    schema, instances, model, _ = _toy_setup(
        n=128,
        classifier=ClassifierConfig(kind="fm", hidden_sizes=()),
        featgen=None,
    )
    batch = make_batches(instances, len(instances))[0]
    opt = {n: nn.AdamState(m=np.zeros_like(model.params[n]),
                           v=np.zeros_like(model.params[n]), lr=1e-3)
           for n in ("clf.linear.w", "clf.linear.b")}
    losses = []
    for _ in range(8):
        yhat, cache = model.forward_batch(batch, mode="train")
        loss_vec, dlogit = loss_and_grad(yhat, batch.labels)
        losses.append(float(loss_vec.mean()))
        grads = model.backward_batch(cache, dlogit / batch.size)
        for n in opt:
            nn.adam_step(model.params[n], grads[n], opt[n])
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_forward_batch_keeps_no_cache_in_infer_mode():
    _, instances, model, _ = _toy_setup()
    batch = make_batches(instances, 16)[0]
    yhat_infer, infer_cache = model.forward_batch(batch, mode="infer")
    yhat_train, train_cache = model.forward_batch(batch, mode="train")
    assert infer_cache is None and train_cache is not None
    assert np.array_equal(yhat_infer, yhat_train)


def test_train_forward_replaces_every_bn_state_and_infer_forward_keeps_them():
    _, instances, model, _ = _toy_setup(
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,), use_bn=True),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,),
                                 use_bn=True))
    batch = make_batches(instances, 16)[0]
    before = dict(model.bn_states)
    arrays = {site: (s.mean.copy(), s.var.copy()) for site, s in before.items()}
    assert sorted(before) == ["clf.fc1.bn", "fg.conv1.bn", "fg.recomb1.bn"]
    model.forward_batch(batch, mode="infer")
    assert all(model.bn_states[site] is state for site, state in before.items())
    model.forward_batch(batch, mode="train")
    for site, state in before.items():
        assert model.bn_states[site] is not state, site
        assert not np.array_equal(model.bn_states[site].mean, arrays[site][0]), site
        # the replaced state keeps its arrays: snapshots of the dict stay valid
        assert np.array_equal(state.mean, arrays[site][0]), site
        assert np.array_equal(state.var, arrays[site][1]), site


def test_evaluate_single_class_reports_undefined_auc():
    schema, instances, model, _ = _toy_setup()
    positives = instances[instances.labels == 1]
    m = evaluate(model, positives)
    assert m.auc is None
    assert m.logloss >= 0.0 and m.n_neg == 0


def test_multivalent_fields_train_end_to_end():
    from fgcnn.data import build_vocab, encode_instances

    rng = np.random.default_rng(13)
    tokens = [f"t{i}" for i in range(6)]
    columns = [[], []]
    labels = []
    for _ in range(80):
        bag = tuple(rng.choice(tokens, size=rng.integers(1, 4), replace=False))
        columns[0].append(str(rng.integers(0, 3)))
        columns[1].append(bag)
        labels.append(int("t0" in bag))
    schema = build_vocab(["plain", "bag"], columns, min_count=1)
    assert schema.fields[1].multivalent
    instances, _ = encode_instances(schema, columns, labels)
    cfg = ModelConfig(
        k=4,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)))
    model = FgcnnModel.build(schema, cfg, seed=0)
    hist = train(model, instances,
                 TrainConfig(batch_size=20, learning_rate=1e-2, epochs=20, seed=0))
    # the bag membership signal is learnable, so loss must fall well below ln 2
    assert hist[-1]["train_loss"] < 0.5
    assert evaluate(model, instances).auc > 0.9


def test_f64_precision_training_runs():
    spec = planted_spec(n_f=4, cardinality=4, pair=(0, 2), seed=3)
    schema = synthetic_schema(spec)
    instances, _ = generate_synthetic(spec, 40)
    cfg = ModelConfig(
        k=3,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(6,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)))
    model = FgcnnModel.build(schema, cfg, seed=0, precision="f64")
    assert all(p.dtype == np.float64 for p in model.params.values())
    train(model, instances,
          TrainConfig(batch_size=20, epochs=2, seed=0, precision="f64"))
    scores = model.predict_scores(instances)
    assert scores.dtype == np.float64
    assert np.all((scores > 0) & (scores < 1))


def test_raw_branch_updates_leave_gen_table_untouched():
    # disconnect the generated block from the classifier: emb.gen gets zero
    # gradient, so one optimizer step leaves it bit-identical
    schema, instances, model, config = _toy_setup(
        classifier=ClassifierConfig(kind="dnn", hidden_sizes=(8,)))
    n_raw = schema.n_f
    k = config.k
    model.params["clf.fc1.w"][n_raw * k:, :] = 0.0
    gen_before = model.params["emb.gen"].copy()
    clf_before = model.params["emb.clf"].copy()
    # a single full-batch step: afterwards the zeroed rows move and reconnect
    train(model, instances, TrainConfig(batch_size=len(instances), learning_rate=1e-2,
                                        epochs=1, seed=7))
    assert np.array_equal(model.params["emb.gen"], gen_before)
    assert not np.array_equal(model.params["emb.clf"], clf_before)


# --- checkpoints --------------------------------------------------------------------

def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    schema, instances, model, _ = _toy_setup()
    train(model, instances, TrainConfig(batch_size=16, epochs=1, seed=8))
    before = model.predict_scores(instances)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded, opt = load_checkpoint(path, schema)
    after = loaded.predict_scores(instances)
    assert np.array_equal(before, after)
    assert opt is None


def test_checkpoint_preserves_bn_state(tmp_path):
    schema, instances, model, _ = _toy_setup(
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,), use_bn=True))
    train(model, instances, TrainConfig(batch_size=16, epochs=2, seed=9))
    path = tmp_path / "bn.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path, schema)
    assert np.array_equal(model.predict_scores(instances),
                          loaded.predict_scores(instances))
    for site, state in model.bn_states.items():
        assert np.array_equal(state.mean, loaded.bn_states[site].mean)
        assert np.array_equal(state.var, loaded.bn_states[site].var)


def checkpoint_bytes_oracle(model, optimizer=None) -> bytes:
    """The checkpoint file as a whole-file BytesIO writer assembles it.
    Oracle for the streaming save_checkpoint."""
    tensors = dict(model.params)
    for site, state in model.bn_states.items():
        tensors[site + ".running_mean"] = state.mean
        tensors[site + ".running_var"] = state.var
    for name, st_ in (optimizer or {}).items():
        tensors[f"opt.{name}.m"] = st_.m
        tensors[f"opt.{name}.v"] = st_.v
        tensors[f"opt.{name}.t"] = np.array([st_.t], dtype=np.float32)
    blob = json.dumps({"model": model.config.to_dict(),
                       "precision": model.precision}, sort_keys=True).encode("utf-8")
    digest = model.schema.digest().encode("ascii")
    buf = io.BytesIO()
    buf.write(training.CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", training.CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(blob)))
    buf.write(blob)
    buf.write(struct.pack("<I", len(digest)))
    buf.write(digest)
    buf.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<I", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.tobytes())
    return buf.getvalue()


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_checkpoint_file_matches_bytesio_writer(tmp_path, precision):
    schema, instances, _, config = _toy_setup(
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,), use_bn=True))
    model = FgcnnModel.build(schema, config, 0, precision)
    train(model, instances, TrainConfig(batch_size=16, epochs=1, seed=8,
                                        precision=precision))
    opt = {n: nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=0.01)
           for n, p in model.params.items()}
    for n, p in model.params.items():
        nn.adam_step(p, np.full_like(p, 0.5), opt[n])
    for optimizer in (None, opt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, optimizer=optimizer)
        assert path.read_bytes() == checkpoint_bytes_oracle(model, optimizer)


def test_loaded_checkpoint_trains_on(tmp_path):
    schema, instances, model, _ = _toy_setup()
    cfg = TrainConfig(batch_size=16, epochs=1, seed=8)
    train(model, instances, cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path, schema)
    assert all(p.flags.c_contiguous and p.flags.writeable for p in loaded.params.values())
    train(model, instances, cfg)
    train(loaded, instances, cfg)
    for name, arr in model.params.items():
        assert loaded.params[name].tobytes() == arr.tobytes(), name


def test_checkpoint_roundtrips_optimizer(tmp_path):
    schema, instances, model, _ = _toy_setup()
    opt = {n: nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=0.01)
           for n, p in model.params.items()}
    g = {n: np.ones_like(p) for n, p in model.params.items()}
    for n in model.params:
        nn.adam_step(model.params[n], g[n], opt[n])
    path = tmp_path / "opt.ckpt"
    save_checkpoint(model, path, optimizer=opt)
    _, opt2 = load_checkpoint(path, schema)
    assert opt2 is not None and opt2["emb.gen"].t == 1
    assert np.allclose(opt2["emb.gen"].m, opt["emb.gen"].m, atol=1e-7)


@pytest.mark.parametrize("model_kw", [
    {},
    dict(include_raw=False),
    dict(classifier=ClassifierConfig(kind="deepfm", hidden_sizes=(8, 4), use_bn=True)),
    dict(classifier=ClassifierConfig(kind="fm")),
    dict(featgen=None),
    dict(featgen=FeatureGenConfig(kernel_heights=(2, 3), feature_maps=(2, 3),
                                  new_maps=(1, 2), use_bn=True)),
    dict(featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,),
                                  use_bn=True, style="mlp")),
    dict(featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,),
                                  use_recombination=False)),
])
def test_param_shapes_and_bn_sites_match_build(model_kw):
    schema, _, model, config = _toy_setup(**model_kw)
    shapes = param_shapes(config, schema.n_f, schema.t_f)
    assert shapes == {n: p.shape for n, p in model.params.items()}
    assert bn_sites(shapes) == {s: st.mean.shape[0] for s, st in model.bn_states.items()}


def _mostly(valid, edges):
    """Each valid value five times as likely as each edge value, so that about
    four in ten drawn configs build."""
    return st.sampled_from(list(valid) * 5 + list(edges))


_SIZE = _mostly([1, 2, 3, 4], [0, -1])
_COUNT = _mostly([1, 2], [0])


@st.composite
def _model_configs(draw):
    """Model configs around every edge ModelConfig.validate checks: sizes from
    -1 to 4, 0 to 2 generation rounds, both styles and every head."""
    def sizes(n):
        return tuple(draw(_SIZE) for _ in range(n))

    featgen = None
    if draw(st.booleans()):
        n_c = draw(_COUNT)
        featgen = FeatureGenConfig(
            kernel_heights=sizes(n_c), feature_maps=sizes(n_c), new_maps=sizes(n_c),
            pool_height=draw(_mostly([2, 3, 4], [1, 0, -1])), use_bn=draw(st.booleans()),
            use_recombination=draw(_mostly([True], [False])),
            style=draw(st.sampled_from(["cnn", "mlp"])))
    classifier = ClassifierConfig(
        kind=draw(st.sampled_from(KINDS)), hidden_sizes=sizes(draw(_COUNT)),
        use_bn=draw(st.booleans()), dropout_keep=draw(_mostly([1.0, 0.5], [0.0])))
    return ModelConfig(k=draw(_COUNT), classifier=classifier, featgen=featgen,
                       include_raw=draw(_mostly([True], [False])))


@settings(max_examples=500, deadline=None, database=None)
@given(n_f=st.integers(1, 5), config=_model_configs())
def test_validate_refuses_exactly_the_configs_that_cannot_build_and_train(n_f, config):
    schema = DatasetSchema(fields=[FieldSchema(f"f{j}", ("a", "b")) for j in range(n_f)],
                           min_count=1)
    try:
        config.validate(n_f)
    except nn.ConfigError:
        with pytest.raises(nn.ConfigError):
            FgcnnModel.build(schema, config, seed=0)
        return
    # accepted: the model builds and takes one train-mode forward and backward pass
    rng = np.random.default_rng(n_f)
    split = Split(rng.integers(1, 3, size=(4, n_f, 1)), np.ones((4, n_f), dtype=np.int64),
                  np.arange(4) % 2)
    batch = make_batches(split, 4)[0]
    model = FgcnnModel.build(schema, config, seed=0)
    yhat, cache = model.forward_batch(batch, mode="train", dropout_rng=rng)
    grads = model.backward_batch(cache, yhat - batch.labels)
    assert grads.keys() == model.params.keys()


def build_oracle(schema, config, seed, precision):
    """The params of FgcnnModel.build with each Glorot tensor drawn in one
    rng.uniform call and cast afterwards."""
    dtype = nn.as_dtype(precision)
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config, schema.n_f, schema.t_f).items():
        if name.endswith(".bn.g"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(".b") or name == "clf.linear.w":
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            rf = math.prod(shape[:-2])
            bound = np.sqrt(6.0 / (rf * shape[-2] + rf * shape[-1]))
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return params


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("cardinality, glorot_slice, forks",
                         [(5000, None, True), (4, 5, True), (4, None, False)],
                         ids=["5000-None", "4-5", "4-None"])
def test_build_draws_the_bytes_of_one_shot_glorot_draws(monkeypatch, precision, cardinality,
                                                         glorot_slice, forks):
    # 5000 values in each of 4 fields at k=4: the embedding tables hold
    # 80016 values each, past one default slice, and the stream of 160780
    # values forks at 80390, value 374 of emb.clf. With a slice of 5 the
    # 908 values at cardinality 4 fork at 454, value 34 of clf.fc1.w, and a
    # slice cuts every tensor; at the default slice they stay on one thread.
    if glorot_slice is not None:
        monkeypatch.setattr(model_mod, "GLOROT_SLICE", glorot_slice)
    forked = []
    fork = nn.fork
    monkeypatch.setattr(nn, "fork", lambda fn, first=True: forked.append(fn) or fork(fn, first))
    schema = DatasetSchema([FieldSchema(f"f{j}", tuple(f"v{i}" for i in range(cardinality)))
                            for j in range(4)])
    config = ModelConfig(k=4, classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,)),
                         featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,),
                                                  new_maps=(2,)))
    want = build_oracle(schema, config, 3, precision)
    sizes = [arr.size for name, arr in want.items()
             if not (name.endswith((".bn.g", ".b")) or name == "clf.linear.w")]
    starts = np.cumsum([0] + sizes)
    mid, slice_ = starts[-1] // 2, model_mod.GLOROT_SLICE
    assert (starts[-1] >= 2 * slice_) == forks
    if forks:       # the split lands inside a tensor and inside a slice of it
        start = starts[np.searchsorted(starts, mid, side="right") - 1]
        assert start < mid and (mid - start) % slice_ != 0
    got = FgcnnModel.build(schema, config, 3, precision).params
    assert len(forked) == forks
    assert got.keys() == want.keys()
    for name, arr in want.items():
        assert (got[name].dtype, got[name].shape) == (arr.dtype, arr.shape), name
        assert got[name].tobytes() == arr.tobytes(), name


def test_toy_build_starts_no_helper_thread():
    """The toy model's Glorot stream is under 2 * GLOROT_SLICE values, so its
    build draws on the calling thread and starts no helper."""
    script = (
        "import threading\n"
        "from fgcnn.config import load_config\n"
        "from fgcnn.data import planted_spec, synthetic_schema\n"
        "from fgcnn.model import FgcnnModel\n"
        "cfg = load_config('configs/toy.cfg')\n"
        "s = cfg.synthetic\n"
        "schema = synthetic_schema(planted_spec(n_f=s.n_fields, cardinality=s.cardinality,\n"
        "                                       pair=s.pair, seed=s.seed))\n"
        "FgcnnModel.build(schema, cfg.model, cfg.train.seed, cfg.train.precision)\n"
        "print(sorted(t.name for t in threading.enumerate()))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['MainThread']"


def _shrink_first_bn_mean(model, opt):
    site = sorted(model.bn_states)[0]
    model.bn_states[site] = nn.BnState(mean=np.zeros(0, np.float32),
                                       var=model.bn_states[site].var)


@pytest.mark.parametrize("edit, words", [
    (lambda m, o: m.params.pop("clf.out.b"), ["lacks", "'clf.out.b'", "(1,)"]),
    (lambda m, o: m.params.update({"clf.extra.w": np.ones(3, np.float32)}),
     ["'clf.extra.w'", "does not use"]),
    (lambda m, o: m.params.update({"emb.gen": m.params["emb.gen"].T.copy()}),
     ["'emb.gen'", "has shape (4, 20)", "needs (20, 4)"]),
    (_shrink_first_bn_mean, ["'clf.fc1.bn.running_mean'", "has shape (0,)", "needs (8,)"]),
    (lambda m, o: o.update({"emb.gen": nn.AdamState(m=np.zeros(3, np.float32),
                                                      v=np.zeros(3, np.float32), lr=0.1)}),
     ["'opt.emb.gen.m'", "has shape (3,)"]),
    (lambda m, o: o.update({"clf.nope": nn.AdamState(m=np.zeros(3, np.float32),
                                                      v=np.zeros(3, np.float32), lr=0.1)}),
     ["'opt.clf.nope.m'", "does not use"]),
])
def test_checkpoint_tensors_checked_against_config(tmp_path, edit, words):
    schema, _, model, _ = _toy_setup(
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,), use_bn=True))
    opt = {n: nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=0.01)
           for n, p in model.params.items()}
    path = tmp_path / "good.ckpt"
    save_checkpoint(model, path, optimizer=opt)
    load_checkpoint(path, schema)
    edit(model, opt)
    path.write_bytes(checkpoint_bytes_oracle(model, opt))    # save_checkpoint refuses some
    with pytest.raises(CheckpointTensorError) as info:
        load_checkpoint(path, schema)
    assert all(word in str(info.value) for word in words), str(info.value)


@pytest.mark.parametrize("entry, words", [
    (("clf.nope", (3,), (3,)), ["'clf.nope'", "names no parameter"]),
    (("emb.gen", (3,), (20, 4)), ["'emb.gen'", "m of shape (3,)", "has (20, 4)"]),
    (("emb.gen", (20, 4), (4, 20)), ["'emb.gen'", "v of shape (4, 20)", "has (20, 4)"]),
])
def test_save_checkpoint_refuses_optimizer_entries_that_do_not_fit(tmp_path, entry, words):
    """The file is neither opened nor replaced: the previous checkpoint stays
    and no temporary file is left beside it."""
    schema, _, model, _ = _toy_setup()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    before = path.read_bytes()
    name, m_shape, v_shape = entry
    opt = {name: nn.AdamState(m=np.zeros(m_shape, np.float32), v=np.zeros(v_shape, np.float32),
                              lr=0.1)}
    with pytest.raises(ValueError) as info:
        save_checkpoint(model, path, optimizer=opt)
    assert all(word in str(info.value) for word in words), str(info.value)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + bytes(64))
    schema, _, _, _ = _toy_setup()
    with pytest.raises(NotACheckpointError):
        load_checkpoint(path, schema)


def test_checkpoint_version_mismatch(tmp_path):
    schema, instances, model, _ = _toy_setup()
    path = tmp_path / "v.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path, schema)


def test_checkpoint_schema_digest_mismatch(tmp_path):
    schema, instances, model, _ = _toy_setup()
    path = tmp_path / "d.ckpt"
    save_checkpoint(model, path)
    other_spec = planted_spec(n_f=4, cardinality=5, pair=(0, 2), seed=1)
    other_schema = synthetic_schema(other_spec)
    with pytest.raises(SchemaDigestError):
        load_checkpoint(path, other_schema)


def test_schema_digest_mismatch_quotes_both_digests_in_full(tmp_path):
    """A stored digest that differs after its 12th character is told apart
    from the expected one in the message, each quoted in full as a repr so
    that a corrupt digest's bytes keep the message on one line."""
    schema, instances, model, _ = _toy_setup()
    path = tmp_path / "d.ckpt"
    save_checkpoint(model, path)
    expected = schema.digest()
    stored = expected[:20] + ("0" if expected[20] != "0" else "1") + expected[21:]
    raw = path.read_bytes()
    assert raw.count(expected.encode("ascii")) == 1
    path.write_bytes(raw.replace(expected.encode("ascii"), stored.encode("ascii")))
    with pytest.raises(SchemaDigestError) as info:
        load_checkpoint(path, schema)
    assert f"stored schema digest {stored!r} does not match {expected!r}" in str(info.value)


def test_checkpoint_truncation(tmp_path):
    schema, instances, model, _ = _toy_setup()
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    for cut in (len(raw) // 2, len(raw) - 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(path, schema)


def test_truncated_tensor_is_refused_before_it_is_allocated(tmp_path, monkeypatch):
    schema, _, model, _ = _toy_setup()
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-2])
    shapes, empty = [], np.empty
    monkeypatch.setattr(np, "empty", lambda shape, *a, **kw: shapes.append(shape) or
                        empty(shape, *a, **kw))
    with pytest.raises(TruncatedCheckpointError):
        load_checkpoint(path, schema)
    assert len(shapes) == len(model.params) - 1     # all but the cut last one


def test_checkpoint_loads_through_a_pipe(tmp_path):
    """A pipe has no size to check reads against; it still loads, and its
    short reads still tell a truncated checkpoint."""
    schema, instances, model, _ = _toy_setup()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    for data in (raw, raw[:10], raw[: len(raw) // 2], raw[:-2]):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            if data is raw:
                loaded, _ = load_checkpoint(fifo, schema)
                for name, arr in model.params.items():
                    assert np.array_equal(loaded.params[name], arr), name
            else:
                with pytest.raises(TruncatedCheckpointError):
                    load_checkpoint(fifo, schema)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()


class _DiskFullFile:
    """Binary file stand-in that stores half of each write, then fails."""

    def __init__(self, path, mode):
        self._fh = builtins.open(path, mode)

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_checkpoint_write_failing_partway_keeps_previous(tmp_path, monkeypatch):
    schema, instances, model, _ = _toy_setup()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    saved = model.clone_params()
    train(model, instances, TrainConfig(batch_size=16, epochs=1, seed=8))
    monkeypatch.setattr(training, "open", _DiskFullFile, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(model, path)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    loaded, _ = load_checkpoint(path, schema)
    for name, arr in saved.items():
        assert np.array_equal(loaded.params[name], arr), name


# --- complexity -----------------------------------------------------------------------

def test_embedding_param_count_is_two_tables():
    config = ModelConfig(
        k=4,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)),
    )
    rep = complexity_report(config, n_f=6, t_f=30)
    assert rep.embedding_params == 2 * 30 * 4
    assert rep.enumerated["embedding"] == 2 * 30 * 4


def test_recombination_weight_count_reference_config():
    # n_f=8, k=2, one round, h=2, conv maps 4, new maps 2, pool height 2:
    # pooled rows 4, so weights are (4*2*4) x (4*2*2)
    config = ModelConfig(
        k=2,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(4,), new_maps=(2,)),
    )
    rep = complexity_report(config, n_f=8, t_f=40)
    expected = (4 * 2 * 4) * (4 * 2 * 2)
    assert rep.recomb_weight_params == expected
    assert rep.enumerated["recomb_weights"] == expected
    # cross-check against tensors the model actually allocates
    schema = synthetic_schema(planted_spec(n_f=8, cardinality=4, pair=(0, 2)))
    model = FgcnnModel.build(schema, config, seed=0)
    assert model.params["fg.recomb1.w"].size == expected


def test_first_layer_width_matches_fm_operand():
    config = ModelConfig(
        k=3,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(16,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)),
    )
    n_f = 6
    rep = complexity_report(config, n_f=n_f, t_f=30)
    t = rep.t_fields
    assert rep.clf_first_layer_weights == (t * (t - 1) // 2 + t * 3) * 16
    assert rep.enumerated["clf_first_layer_weights"] == rep.clf_first_layer_weights


def test_formula_matches_allocation_for_divisible_config():
    config = ModelConfig(
        k=2,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8, 4)),
        featgen=FeatureGenConfig(kernel_heights=(2, 2), feature_maps=(3, 3),
                                 new_maps=(2, 2)),
    )
    n_f = 8
    spec = planted_spec(n_f=n_f, cardinality=4, pair=(0, 2))
    schema = synthetic_schema(spec)
    rep = complexity_report(config, n_f=n_f, t_f=schema.t_f)
    model = FgcnnModel.build(schema, config, seed=1)
    assert rep.predicted_total == model.n_params()
    assert rep.enumerated["total"] == model.n_params()
    # the recombination weights follow the closed form n_f^2/h_p^(2i) k^2 m_c m_r
    closed = sum(n_f ** 2 // 2 ** (2 * i) * 4 * 3 * 2 for i in (1, 2))
    assert rep.recomb_weight_params == closed


@pytest.mark.parametrize("kind", ["ipnn", "dnn", "fm", "deepfm"])
@pytest.mark.parametrize("style, use_recombination", [("cnn", True), ("cnn", False),
                                                      ("mlp", True), (None, True)])
@pytest.mark.parametrize("use_bn", [False, True])
def test_predicted_total_matches_the_allocated_shapes(kind, style, use_recombination, use_bn):
    # n_f = 5 pools unevenly (5 -> 3 -> 2), and batch norm sits at every site
    featgen = None if style is None else FeatureGenConfig(
        kernel_heights=(2, 3), feature_maps=(3, 2), new_maps=(2, 3), use_bn=use_bn,
        use_recombination=use_recombination, style=style)
    config = ModelConfig(k=3, featgen=featgen, classifier=ClassifierConfig(
        kind=kind, hidden_sizes=(7, 5), use_bn=use_bn))
    rep = complexity_report(config, n_f=5, t_f=23)
    total = sum(int(np.prod(s)) for s in param_shapes(config, 5, 23).values())
    assert rep.predicted_total == rep.enumerated["total"] == total
