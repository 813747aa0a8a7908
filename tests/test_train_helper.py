"""train's helper thread: the parameter side of each backward pass (weight
gradients, L2 terms, Adam updates in ranges) runs beside the input-gradient
chain, large products split onto it (nn.matmul), and the results keep the
bits of a serial run. Evaluation splits its products onto the same helper."""
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fgcnn import classifier as clf_mod
from fgcnn import nn, training
from fgcnn.classifier import ClassifierConfig, loss_and_grad
from fgcnn.config import load_config
from fgcnn.data import generate_synthetic, make_batches, planted_spec, synthetic_schema
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig
from fgcnn.training import TrainConfig, train

SERIAL = 1 << 62        # a cut above every tensor and product size: nothing moves
ROOT = Path(__file__).resolve().parents[1]


def _setup(kind="ipnn", use_bn=False, style="cnn", precision="f32", dropout_keep=1.0,
           n=72):
    spec = planted_spec(n_f=5, cardinality=4, pair=(0, 3), strength=2.0, seed=1)
    split, _ = generate_synthetic(spec, n)
    config = ModelConfig(
        k=3,
        classifier=ClassifierConfig(kind=kind, hidden_sizes=() if kind == "fm" else (6, 4),
                                    use_bn=use_bn, dropout_keep=dropout_keep),
        featgen=FeatureGenConfig(kernel_heights=(2, 2), feature_maps=(2, 3),
                                 new_maps=(2, 2), use_bn=use_bn, style=style))
    return FgcnnModel.build(synthetic_schema(spec), config, 0, precision), split


def _split_setup(kind="ipnn", style="cnn", n=192):
    """A float32 model whose first recombination (2048 x 1024) is a product
    of 2^27 multiply-adds at a batch of 64, above nn.SPLIT_MIN."""
    spec = planted_spec(n_f=8, cardinality=6, pair=(1, 5), strength=2.0, seed=2)
    split, _ = generate_synthetic(spec, n)
    config = ModelConfig(
        k=32,
        classifier=ClassifierConfig(kind=kind, hidden_sizes=() if kind == "fm" else (16,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(16,), new_maps=(8,),
                                 style=style))
    return FgcnnModel.build(synthetic_schema(spec), config, 0, "f32"), split


def _record_forks(monkeypatch):
    """Record, for every nn.Helper.fork, whether the main thread made it."""
    forks = []
    fork = nn.Helper.fork

    def recording(self, job, first=True):
        forks.append(threading.current_thread() is threading.main_thread())
        return fork(self, job, first)

    monkeypatch.setattr(nn.Helper, "fork", recording)
    return forks


def serial_train(model, split, config):
    """Oracle: the loop without a helper. Every gradient of a batch first,
    then the L2 terms and every Adam step. Returns (losses, Adam states)."""
    opt = {n: nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=config.learning_rate)
           for n, p in model.params.items()}
    losses = []
    for epoch in range(1, config.epochs + 1):
        shuffle_seed = config.seed * 1_000_003 + epoch
        dropout_rng = np.random.default_rng(shuffle_seed + 500_009)
        epoch_losses = []
        for batch in make_batches(split, config.batch_size, shuffle_seed=shuffle_seed):
            yhat, cache = model.forward_batch(batch, mode="train", dropout_rng=dropout_rng)
            loss_vec, dlogit = loss_and_grad(yhat, batch.labels)
            epoch_losses.append(float(loss_vec.mean()))
            grads = model.backward_batch(cache, dlogit / batch.size)
            for name in ("emb.gen", "emb.clf"):
                if config.l2_embedding > 0.0 and name in grads:
                    grads[name] = grads[name] + 2.0 * config.l2_embedding * model.params[name]
            for name, g in grads.items():
                nn.adam_step(model.params[name], g, opt[name])
        losses.append(float(np.mean(epoch_losses)))
    return losses, opt


def _delay_helper_jobs(monkeypatch, seconds):
    """Sleep before every job the helper thread runs, so the main thread
    takes more of the queue while it waits."""
    run = nn.Job._run

    def slow_run(self):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(seconds)
        run(self)

    monkeypatch.setattr(nn.Job, "_run", slow_run)


def helper_train(monkeypatch, model, split, config, cut, delay=0.0, adam_range=16,
                 split_min=SERIAL):
    """train with the helper cut at cut elements, updates split into ranges
    of adam_range and products split from split_min multiply-adds; returns
    (history, {name: Adam state})."""
    states = []
    adam_state = nn.AdamState

    def recording_state(**kw):
        states.append(adam_state(**kw))
        return states[-1]

    with monkeypatch.context() as mp:
        mp.setattr(training, "HELPER_MIN", cut)
        mp.setattr(training, "ADAM_RANGE", adam_range)
        mp.setattr(nn, "SPLIT_MIN", split_min)
        mp.setattr(nn, "AdamState", recording_state)
        if delay:
            _delay_helper_jobs(mp, delay)
        history = train(model, split, config)
    return history, dict(zip(model.params, states))


class InjectedError(RuntimeError):
    pass


def model_bytes(model, opt):
    out = {name: p.tobytes() for name, p in model.params.items()}
    for site, s in model.bn_states.items():
        out[site + ".mean"], out[site + ".var"] = s.mean.tobytes(), s.var.tobytes()
    for name, s in opt.items():
        out["opt." + name] = (s.m.tobytes(), s.v.tobytes(), s.t)
    return out


CASES = {
    "ipnn_bn_dropout_f32": dict(kind="ipnn", use_bn=True, dropout_keep=0.8),
    "ipnn_bn_f64_l2": dict(kind="ipnn", use_bn=True, precision="f64", l2=1e-2),
    "dnn_f32_l2": dict(kind="dnn", l2=1e-2),
    "fm_f64": dict(kind="fm", precision="f64"),
    "deepfm_f32": dict(kind="deepfm"),
    "deepfm_mlp_featgen_bn_f64": dict(kind="deepfm", style="mlp", use_bn=True,
                                      precision="f64"),
    "ipnn_mlp_featgen_f32_l2": dict(kind="ipnn", style="mlp", l2=1e-2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_helper_runs_keep_the_serial_bits(monkeypatch, case):
    """Parameters, batch-norm statistics, Adam m/v/t and histories match
    the serial oracle with every update inline, every update on the helper,
    and both mixed, the last two with the helper's jobs delayed; each with
    no product split and with every product that can split split (at a cut
    of 0 these models' batched products split; no 2-D product here has the
    32 columns a column split needs)."""
    kw = dict(CASES[case])
    config = TrainConfig(batch_size=16, learning_rate=1e-2, epochs=2, seed=7,
                         l2_embedding=kw.pop("l2", 0.0), precision=kw.get("precision", "f32"))
    model, split = _setup(**kw)
    mid = sorted(p.size for p in model.params.values())[len(model.params) // 2]
    want_losses, want_opt = serial_train(model, split, config)
    want = model_bytes(model, want_opt)
    histories = []
    for cut, delay in ((SERIAL, 0.0), (0, 0.0), (0, 5e-4), (mid, 5e-4)):
        for split_min in (SERIAL, 0):
            model, split = _setup(**kw)
            history, opt = helper_train(monkeypatch, model, split, config, cut, delay,
                                        split_min=split_min)
            case_id = (cut, delay, split_min)
            assert [row["train_loss"] for row in history] == want_losses, case_id
            got = model_bytes(model, opt)
            assert got.keys() == want.keys()
            assert [k for k in want if got[k] != want[k]] == [], case_id
            histories.append(history)
    assert all(h == histories[0] for h in histories)


def test_split_products_keep_the_serial_bits(monkeypatch):
    """A model with products above nn.SPLIT_MIN: the forward products split
    from the main thread, the weight gradients from whichever thread runs
    them, and the training keeps the serial oracle's bits at the shipped
    cuts and with everything moved."""
    config = TrainConfig(batch_size=64, learning_rate=1e-2, epochs=2, seed=5)
    model, split = _split_setup()
    want_losses, want_opt = serial_train(model, split, config)
    want = model_bytes(model, want_opt)
    for cut, delay, split_min in ((training.HELPER_MIN, 0.0, nn.SPLIT_MIN), (0, 5e-4, 0)):
        with monkeypatch.context() as mp:
            forks = _record_forks(mp)
            model, split = _split_setup()
            history, opt = helper_train(mp, model, split, config, cut, delay,
                                        adam_range=training.ADAM_RANGE, split_min=split_min)
        assert any(forks), (cut, split_min)           # the forward forked from main
        assert [row["train_loss"] for row in history] == want_losses, (cut, split_min)
        assert model_bytes(model, opt) == want, (cut, split_min)


@pytest.mark.parametrize("style", ["cnn", "mlp"])
@pytest.mark.parametrize("kind", ["ipnn", "dnn", "fm", "deepfm"])
def test_predict_scores_keep_their_bytes_across_split_cuts(monkeypatch, kind, style):
    """Scores with no product split, at the shipped cut, and with every
    product that can split split. At the shipped cut only the larger
    model's cnn recombination (192 x 2048 x 1024) is above it."""
    forks = {}
    for setup, cuts in ((_setup, (SERIAL, 0)), (_split_setup, (SERIAL, nn.SPLIT_MIN, 0))):
        model, split = setup(kind=kind, style=style)
        scores = {}
        for split_min in cuts:
            with monkeypatch.context() as mp:
                mp.setattr(nn, "SPLIT_MIN", split_min)
                forks[setup, split_min] = _record_forks(mp)
                scores[split_min] = model.predict_scores(split).tobytes()
        assert len(set(scores.values())) == 1, setup.__name__
    assert not forks[_setup, SERIAL] and not forks[_split_setup, SERIAL]
    assert forks[_split_setup, 0]
    assert bool(forks[_split_setup, nn.SPLIT_MIN]) == (style == "cnn")


def test_evaluate_leaves_the_threads_as_it_found_them(monkeypatch):
    model, split = _split_setup()
    before = set(threading.enumerate())
    forks = _record_forks(monkeypatch)
    training.evaluate(model, split)
    assert forks and set(threading.enumerate()) == before
    forward = clf_mod.classifier_forward

    def failing_forward(*args, **kwargs):
        forward(*args, **kwargs)
        raise InjectedError("scoring failed")

    monkeypatch.setattr(clf_mod, "classifier_forward", failing_forward)
    forks.clear()
    with pytest.raises(InjectedError, match="^scoring failed$"):
        training.evaluate(model, split)
    assert forks and set(threading.enumerate()) == before


def _helper_starts(monkeypatch):
    """For each thread started, the number of helper threads then alive."""
    alive = []
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        alive.append(sum(t.name == "fgcnn-helper" for t in threading.enumerate()))

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return alive


def test_a_toy_sized_evaluate_starts_no_thread(monkeypatch):
    cfg = load_config(ROOT / "configs" / "toy.cfg")
    spec = planted_spec(n_f=8, cardinality=10, pair=(1, 5), seed=0)
    split, _ = generate_synthetic(spec, 2048)
    model = FgcnnModel.build(synthetic_schema(spec), cfg.model, 0, cfg.train.precision)
    alive = _helper_starts(monkeypatch)
    training.evaluate(model, split)
    assert alive == []


def test_evaluate_inside_train_reuses_trains_helper(monkeypatch):
    model, split = _split_setup()
    alive = _helper_starts(monkeypatch)
    forks = _record_forks(monkeypatch)
    evaluate, eval_forks = training.evaluate, []

    def counting_evaluate(*args, **kwargs):
        n = len(forks)
        out = evaluate(*args, **kwargs)
        eval_forks.append(len(forks) - n)
        return out

    monkeypatch.setattr(training, "evaluate", counting_evaluate)
    history = train(model, split, TrainConfig(batch_size=64, epochs=2, eval_every=1),
                    eval_split=split)
    assert all("eval_auc" in row for row in history)
    assert len(eval_forks) == 2 and all(eval_forks)
    assert alive == [1]


def test_helper_keeps_the_serial_bits_under_a_short_switch_interval(monkeypatch):
    """Every update on the helper in ranges of 4 elements and every
    product that can split split, with the interpreter switching threads
    every microsecond: a lost or misordered update or half would change
    the bits."""
    config = TrainConfig(batch_size=8, learning_rate=1e-2, epochs=3, seed=11,
                         l2_embedding=1e-2)
    model, split = _setup(kind="deepfm", use_bn=True)
    want_losses, want_opt = serial_train(model, split, config)
    want = model_bytes(model, want_opt)
    model, split = _setup(kind="deepfm", use_bn=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        history, opt = helper_train(monkeypatch, model, split, config, cut=0, adam_range=4,
                                    split_min=0)
        assert time.monotonic() - start < 120.0
    finally:
        sys.setswitchinterval(interval)
    assert [row["train_loss"] for row in history] == want_losses
    assert model_bytes(model, opt) == want


def test_no_thread_outlives_train(monkeypatch):
    before = set(threading.enumerate())
    model, split = _setup()
    helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=2), cut=0)
    assert set(threading.enumerate()) == before
    model, split = _setup()
    model.params["clf.out.w"][:] = np.nan
    with pytest.raises(nn.NumericError):
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=2), cut=0)
    assert set(threading.enumerate()) == before


def test_helper_job_exception_leaves_train_with_its_type_and_message(monkeypatch):
    """The first Adam state job fails on the helper thread; the main thread
    waits for that before running any such job itself."""
    helper_ran = threading.Event()
    start = training._start_tensor

    def failing_start(param, state, snapshot):
        if threading.current_thread() is threading.main_thread():
            helper_ran.wait(10.0)
            return start(param, state, snapshot)
        helper_ran.set()
        raise InjectedError("adam state for a tensor of shape " + str(param.shape))

    monkeypatch.setattr(training, "_start_tensor", failing_start)
    before = set(threading.enumerate())
    model, split = _setup()
    with pytest.raises(InjectedError, match="adam state for a tensor of shape"):
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=1), cut=0)
    assert helper_ran.is_set()
    assert set(threading.enumerate()) == before


def test_update_exception_on_the_helper_reaches_the_caller(monkeypatch):
    helper_ran = threading.Event()
    step = nn.adam_step

    def failing_step(param, grad, state):
        if threading.current_thread() is threading.main_thread():
            helper_ran.wait(10.0)
            return step(param, grad, state)
        helper_ran.set()
        raise InjectedError("update failed")

    monkeypatch.setattr(nn, "adam_step", failing_step)
    before = set(threading.enumerate())
    model, split = _setup()
    with pytest.raises(InjectedError, match="^update failed$"):
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=2),
                     cut=0)
    assert helper_ran.is_set()
    assert set(threading.enumerate()) == before


def test_divergence_restores_the_last_good_epoch_with_the_helper(monkeypatch):
    kw = dict(kind="ipnn", use_bn=True)
    config = TrainConfig(batch_size=16, learning_rate=1e-2, epochs=2, seed=3)
    reference, split = _setup(**kw)
    serial_train(reference, split, TrainConfig(batch_size=16, learning_rate=1e-2,
                                               epochs=1, seed=3))
    model, split = _setup(**kw)
    steps_per_epoch = -(-len(split) // config.batch_size)
    real_loss = training.loss_and_grad
    calls = []

    def nan_loss_in_epoch_two(yhat, y, stats=None):
        loss, dlogit = real_loss(yhat, y, stats)
        calls.append(1)
        if len(calls) == steps_per_epoch + 1:
            loss = np.full_like(loss, np.nan)
        return loss, dlogit

    monkeypatch.setattr(training, "loss_and_grad", nan_loss_in_epoch_two)
    with pytest.raises(nn.NumericError, match="diverged at epoch 2"):
        # the first batch of epoch 2 diverges while the helper may still be
        # copying epoch 1 into the snapshot
        helper_train(monkeypatch, model, split, config, cut=0, delay=5e-4)
    assert model.params.keys() == reference.params.keys()
    for name in reference.params:
        assert model.params[name].tobytes() == reference.params[name].tobytes(), name
    assert model.bn_states.keys() == reference.bn_states.keys() != set()
    for site, state in reference.bn_states.items():
        assert model.bn_states[site].mean.tobytes() == state.mean.tobytes(), site
        assert model.bn_states[site].var.tobytes() == state.var.tobytes(), site
