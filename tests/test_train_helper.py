"""The helper thread in train: the parameter side of each backward pass
(weight gradients, L2 terms, Adam updates in ranges) runs beside the
input-gradient chain, large products split onto it (nn.matmul), and the
results keep the bits of a serial run. Evaluation splits its products onto
the same helper."""
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fgcnn import classifier as clf_mod
from fgcnn import model as model_mod
from fgcnn import nn, training
from fgcnn.classifier import ClassifierConfig, loss_and_grad
from fgcnn.config import load_config
from fgcnn.data import (DataError, DatasetSchema, FieldSchema, Split, generate_synthetic,
                        make_batches, planted_spec, synthetic_schema)
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig
from fgcnn.training import TrainConfig, train

SERIAL = 1 << 62        # a cut above every tensor and product size: nothing moves
ROOT = Path(__file__).resolve().parents[1]


def _setup(kind="ipnn", use_bn=False, style="cnn", precision="f32", dropout_keep=1.0,
           n=72, use_recombination=True, include_raw=True):
    spec = planted_spec(n_f=5, cardinality=4, pair=(0, 3), strength=2.0, seed=1)
    split, _ = generate_synthetic(spec, n)
    config = ModelConfig(
        k=3, include_raw=include_raw,
        classifier=ClassifierConfig(kind=kind, hidden_sizes=() if kind == "fm" else (6, 4),
                                    use_bn=use_bn, dropout_keep=dropout_keep),
        featgen=FeatureGenConfig(kernel_heights=(2, 2), feature_maps=(2, 3),
                                 new_maps=(2, 2), use_bn=use_bn, style=style,
                                 use_recombination=use_recombination))
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


def _wide_setup(n):
    """A float32 model of wide.cfg (a dnn head, k = 16) over 16 fields, half
    of them multivalent with 1..4 values in 4 slots, the rest padded past
    their one value. Its first recombination takes 147,456 multiply-adds a
    row: 75M in a 512-row part, so it splits again inside each part."""
    rng = np.random.default_rng(5)
    n_f, cardinality, slots = 16, 40, 4
    schema = DatasetSchema([FieldSchema(f"f{j}", tuple(f"v{i}" for i in range(1, cardinality)),
                                        multivalent=j % 2 == 0) for j in range(n_f)])
    lengths = np.where(np.arange(n_f) % 2 == 0, rng.integers(1, slots + 1, size=(n, n_f)), 1)
    indices = rng.integers(1, cardinality, size=(n, n_f, slots))
    indices[np.arange(slots) >= lengths[:, :, None]] = 0
    split = Split(indices, lengths, rng.integers(0, 2, size=n))
    config = load_config(ROOT / "perfbench/configs/wide.cfg").model
    return FgcnnModel.build(schema, config, 0, "f32"), split


def _record_forks(monkeypatch):
    """Record, for every nn.fork, whether the main thread made it."""
    forks = []
    fork = nn.fork

    def recording(job, first=True):
        forks.append(threading.current_thread() is threading.main_thread())
        return fork(job, first)

    monkeypatch.setattr(nn, "fork", recording)
    return forks


def _forked_jobs(monkeypatch):
    """Every Job that nn.fork returns from now on, from either thread."""
    jobs = []
    fork = nn.fork

    def recording(job, first=True):
        jobs.append(fork(job, first))
        return jobs[-1]

    monkeypatch.setattr(nn, "fork", recording)
    return jobs


def _added_threads(before):
    """Threads alive now and not in before, other than the one helper thread."""
    return set(threading.enumerate()) - before - {nn._thread}


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
                 split_min=SERIAL, gather_min=SERIAL):
    """train with the helper cut at cut elements, updates split into ranges
    of adam_range, products split from split_min multiply-adds and the raw
    gather forked from gather_min values; returns (history, {name: Adam
    state})."""
    states = []
    adam_state = nn.AdamState

    def recording_state(**kw):
        states.append(adam_state(**kw))
        return states[-1]

    with monkeypatch.context() as mp:
        mp.setattr(training, "HELPER_MIN", cut)
        mp.setattr(training, "ADAM_RANGE", adam_range)
        mp.setattr(nn, "SPLIT_MIN", split_min)
        mp.setattr(model_mod, "GATHER_FORK_MIN", gather_min)
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
    32 columns a column split needs), and each with the raw gather forked
    in every forward pass and in none."""
    kw = dict(CASES[case])
    config = TrainConfig(batch_size=16, learning_rate=1e-2, epochs=2, seed=7,
                         l2_embedding=kw.pop("l2", 0.0), precision=kw.get("precision", "f32"))
    model, split = _setup(**kw)
    mid = sorted(p.size for p in model.params.values())[len(model.params) // 2]
    want_losses, want_opt = serial_train(model, split, config)
    want = model_bytes(model, want_opt)
    histories = []
    for cut, delay in ((SERIAL, 0.0), (0, 0.0), (0, 5e-4), (mid, 5e-4)):
        for split_min, gather_min in ((SERIAL, SERIAL), (0, 0), (SERIAL, 0), (0, SERIAL)):
            model, split = _setup(**kw)
            history, opt = helper_train(monkeypatch, model, split, config, cut, delay,
                                        split_min=split_min, gather_min=gather_min)
            case_id = (cut, delay, split_min, gather_min)
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
    product that can split split, each with the raw gather forked from the
    shipped cut, in every batch and in none, and each batch scored whole,
    at the shipped row cut and in two parts. At the shipped cuts only the
    larger model's cnn recombination (192 x 2048 x 1024) is above them, and
    it splits again inside each part of its batch."""
    forks = {}
    for setup, cuts in ((_setup, (SERIAL, 0)), (_split_setup, (SERIAL, nn.SPLIT_MIN, 0))):
        model, split = setup(kind=kind, style=style)
        scores = {}
        for split_min in cuts:
            for gather_min in (SERIAL, model_mod.GATHER_FORK_MIN, 0):
                for rows_min in (SERIAL, model_mod.EVAL_SPLIT_MIN, 32):
                    with monkeypatch.context() as mp:
                        mp.setattr(nn, "SPLIT_MIN", split_min)
                        mp.setattr(model_mod, "GATHER_FORK_MIN", gather_min)
                        mp.setattr(model_mod, "EVAL_SPLIT_MIN", rows_min)
                        forks[setup, split_min, gather_min, rows_min] = _record_forks(mp)
                        scores[split_min, gather_min, rows_min] = \
                            model.predict_scores(split).tobytes()
        assert len(set(scores.values())) == 1, setup.__name__
    shipped, rows = model_mod.GATHER_FORK_MIN, model_mod.EVAL_SPLIT_MIN
    for setup in (_setup, _split_setup):
        for rows_min in (SERIAL, rows):         # both splits below the shipped row cut
            assert not forks[setup, SERIAL, SERIAL, rows_min]
            assert not forks[setup, SERIAL, shipped, rows_min]
            assert forks[setup, SERIAL, 0, rows_min] and all(forks[setup, SERIAL, 0, rows_min])
        assert forks[setup, SERIAL, SERIAL, 32] == [True]   # the upper part, from main
    assert forks[_split_setup, 0, SERIAL, SERIAL]
    assert bool(forks[_split_setup, nn.SPLIT_MIN, SERIAL, SERIAL]) == (style == "cnn")
    # the larger model's parts write far less than nn.PART_BYTES_MAX, so its
    # batch is cut, and the cnn recombination still splits inside each part
    cut = forks[_split_setup, nn.SPLIT_MIN, SERIAL, 32]
    assert cut[0] and len(cut) == (3 if style == "cnn" else 1)     # the upper part first


def test_a_batch_whose_upper_part_writes_over_the_bound_stays_whole(monkeypatch):
    """nn.row_cut cuts a batch whose helper part writes at most
    nn.PART_BYTES_MAX bytes of product outputs, and only then."""
    model, split = _split_setup(n=192)             # cut at 96: 96 rows a part
    products = model_mod.row_products(model.config, model.schema.n_f)
    part = 96 * sum(c * o for _, c, o in products) * 4
    monkeypatch.setattr(model_mod, "EVAL_SPLIT_MIN", 32)
    monkeypatch.setattr(nn, "SPLIT_MIN", SERIAL)    # products whole: each fork is a part
    want = model.predict_scores(split).tobytes()
    for bound, cut in ((part, True), (part - 1, False)):
        with monkeypatch.context() as mp:
            mp.setattr(nn, "PART_BYTES_MAX", bound)
            forks = _record_forks(mp)
            assert model.predict_scores(split).tobytes() == want
        assert forks == ([True] if cut else []), bound


@pytest.mark.parametrize("path, n_f, cuts, unbounded", [
    ("configs/toy.cfg", 8, {512: None, 904: None, 1024: 512}, {}),
    ("perfbench/configs/wide.cfg", 16, {512: None, 832: None, 1024: 512}, {}),
    ("perfbench/configs/ref.cfg", 24, {512: None, 1024: None}, {512: 256, 1024: 512}),
], ids=["toy", "wide", "ref"])
def test_the_shipped_shapes_cut_their_large_batches_by_the_part_bound(monkeypatch, path,
                                                                      n_f, cuts, unbounded):
    """The row cut of toy's, wide's and ref's evaluation batches (the default
    1024 rows and each test split's tail). Toy's and wide's smaller batches
    stay whole on the small-matrix rule; ref's stay whole on the bound alone,
    its 512-row upper part writing 60.5 MiB of product outputs."""
    products = model_mod.row_products(load_config(ROOT / path).model, n_f)
    assert {n: nn.row_cut(n, products, 4) for n in cuts} == cuts
    monkeypatch.setattr(nn, "PART_BYTES_MAX", SERIAL)
    assert {n: nn.row_cut(n, products, 4) for n in cuts} == {**cuts, **unbounded}


PROPERTY_MODELS = [dict(kind=kind, style=style) for kind in ("ipnn", "dnn", "fm", "deepfm")
                   for style in ("cnn", "mlp")] + [
    dict(use_bn=True), dict(use_recombination=False), dict(include_raw=False)] + [
    dict(precision="f64", **kw) for kw in ({}, dict(style="mlp"), dict(use_recombination=False),
                                            dict(kind="deepfm", use_bn=True))]
WIDE = dict(shape="wide")                   # _wide_setup
PROPERTY_MODELS.append(WIDE)


@pytest.mark.parametrize("kw", PROPERTY_MODELS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_scoring_a_batch_in_two_parts_keeps_its_bytes(monkeypatch, kw):
    """Scores of every head and style, batch norm on, no recombination, no
    raw features, float64 and a wide-shaped model: whole batches, parts from
    the shipped row cut and from 32 rows give the same bytes, for batch
    sizes odd and even, with a short last batch. The 32-row cut splits every
    batch of 32 rows or more."""
    model, split = _wide_setup(n=1100) if kw is WIDE else _setup(**kw, n=1100)
    scores, forks = {}, {}
    for rows_min in (SERIAL, model_mod.EVAL_SPLIT_MIN, 32):
        for batch_size in (1024, 555, 97, 40):
            with monkeypatch.context() as mp:
                mp.setattr(model_mod, "EVAL_SPLIT_MIN", rows_min)
                forks[rows_min, batch_size] = _record_forks(mp)
                scores[rows_min, batch_size] = model.predict_scores(split, batch_size).tobytes()
    for batch_size in (1024, 555, 97, 40):
        assert len({scores[rows_min, batch_size]
                    for rows_min in (SERIAL, model_mod.EVAL_SPLIT_MIN, 32)}) == 1, batch_size
    if kw is WIDE:
        # whole, the 1024-row batch forks half its recombination and its
        # emb.clf gather; cut, it forks its upper part first, then each part
        # forks both of its own
        assert len(forks[SERIAL, 1024]) == 2
        cut = forks[model_mod.EVAL_SPLIT_MIN, 1024]
        assert cut[0] and len(cut) == 5
        return
    assert all(not f for (rows_min, _), f in forks.items() if rows_min == SERIAL)
    assert len(forks[model_mod.EVAL_SPLIT_MIN, 555]) == 2      # 555 and 545 rows
    assert len(forks[32, 97]) == 12                            # 11 of 97 rows, one of 33


def test_evaluate_leaves_the_threads_as_it_found_them(monkeypatch):
    """Evaluation adds no thread but the helper, and every job it forked is
    done when it returns or raises: in both parts of a batch after their
    split products, in the forked upper part of a batch (rows 96..200) or
    in the lower part the calling thread scores."""
    monkeypatch.setattr(model_mod, "EVAL_SPLIT_MIN", 32)
    before = set(threading.enumerate())
    forks = _record_forks(monkeypatch)
    jobs = _forked_jobs(monkeypatch)
    forward = clf_mod.classifier_forward
    for setup, rows, what in ((_split_setup, None, "the batch"), (_setup, 104, "the upper part"),
                              (_setup, 96, "the lower part")):
        model, split = setup(n=200)
        forks.clear()
        training.evaluate(model, split)
        assert forks and not _added_threads(before)
        assert all(job._done for job in jobs)

        def failing_forward(*args, rows=rows, what=what, **kwargs):
            out = forward(*args, **kwargs)
            if rows in (None, args[0].shape[0]):
                raise InjectedError(f"scoring {what} failed")
            return out

        with monkeypatch.context() as mp:
            mp.setattr(clf_mod, "classifier_forward", failing_forward)
            forks.clear()
            with pytest.raises(InjectedError, match=f"^scoring {what} failed$"):
                training.evaluate(model, split)
        assert forks and not _added_threads(before)
        assert all(job._done for job in jobs)


def _helper_starts(monkeypatch):
    """For each thread started, the number of helper threads then alive."""
    alive = []
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        alive.append(sum(t.name == "fgcnn-helper" for t in threading.enumerate()))

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return alive


def test_a_toy_sized_evaluate_forks_one_part_per_large_batch(monkeypatch):
    """In batches of 256 rows nothing forks and no thread starts; in the
    default 1024-row batches each forks its upper part, to the one helper."""
    cfg = load_config(ROOT / "configs" / "toy.cfg")
    spec = planted_spec(n_f=8, cardinality=10, pair=(1, 5), seed=0)
    split, _ = generate_synthetic(spec, 2048)
    model = FgcnnModel.build(synthetic_schema(spec), cfg.model, 0, cfg.train.precision)
    alive = _helper_starts(monkeypatch)
    forks = _record_forks(monkeypatch)
    training.evaluate(model, split, batch_size=256)
    assert alive == [] and forks == []
    training.evaluate(model, split)
    assert forks == [True, True] and alive in ([], [1])


def test_ten_evaluates_start_at_most_one_thread(monkeypatch):
    """Every call forks its large products; the helper thread the first
    fork started serves the later calls."""
    model, split = _split_setup()
    alive = _helper_starts(monkeypatch)
    forks = _record_forks(monkeypatch)
    scores = {model.predict_scores(split).tobytes() for _ in range(10)}
    assert len(scores) == 1 and len(forks) >= 10
    assert alive in ([], [1])


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
    evaluate(model, split)
    assert alive in ([], [1])


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
                                    split_min=0, gather_min=0)
        assert time.monotonic() - start < 120.0
    finally:
        sys.setswitchinterval(interval)
    assert [row["train_loss"] for row in history] == want_losses
    assert model_bytes(model, opt) == want


def _out_of_range_split(n=72):
    """_setup's split with one index of field 2 past its cardinality."""
    model, split = _setup(n=n)
    card = model.schema.fields[2].cardinality
    split.indices[n // 2, 2, 0] = card
    return model, split, f"feature index {card} out of range for field 'f2' (cardinality {card})"


def test_out_of_range_index_in_a_forked_batch_raises_the_serial_error(monkeypatch):
    """Every batch above the gather cut: evaluate and train raise the
    DataError of the unforked forward, which checks the emb.gen gather
    first, and leave no thread behind."""
    before = set(threading.enumerate())
    model, split, message = _out_of_range_split()
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        training.evaluate(model, split)                       # the shipped cut
    with monkeypatch.context() as mp:
        mp.setattr(model_mod, "GATHER_FORK_MIN", 0)
        forks = _record_forks(mp)
        with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
            training.evaluate(model, split)
        assert forks
        forks.clear()
        with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
            train(model, split, TrainConfig(batch_size=72, epochs=1))
        assert forks
    assert not _added_threads(before)


def test_no_thread_outlives_train(monkeypatch):
    """train adds no thread but the helper, and every job it forked is done
    when it returns or raises."""
    before = set(threading.enumerate())
    jobs = _forked_jobs(monkeypatch)
    model, split = _setup()
    helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=2), cut=0)
    assert jobs and all(job._done for job in jobs)
    assert not _added_threads(before)
    model, split = _setup()
    model.params["clf.out.w"][:] = np.nan
    jobs.clear()
    with pytest.raises(nn.NumericError):
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=2), cut=0)
    assert jobs and all(job._done for job in jobs)
    model, split, message = _out_of_range_split()
    jobs.clear()
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        # the first forward raises while the delayed helper still holds the
        # Adam state jobs
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=72, epochs=1), cut=0,
                     delay=5e-4)
    assert jobs and all(job._done for job in jobs)
    assert not _added_threads(before)


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
    jobs = _forked_jobs(monkeypatch)
    model, split = _setup()
    with pytest.raises(InjectedError, match="adam state for a tensor of shape"):
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=1), cut=0)
    assert helper_ran.is_set() and all(job._done for job in jobs)
    assert not _added_threads(before)


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
    jobs = _forked_jobs(monkeypatch)
    model, split = _setup()
    with pytest.raises(InjectedError, match="^update failed$"):
        helper_train(monkeypatch, model, split, TrainConfig(batch_size=16, epochs=2),
                     cut=0)
    assert helper_ran.is_set() and all(job._done for job in jobs)
    assert not _added_threads(before)


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
