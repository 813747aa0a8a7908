"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The synthetic planted-interaction study (criteria 5-7) trains many models and
dominates the runtime; its runs are shared through module-scoped fixtures.
Run with -s to see the per-criterion lines on success.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fgcnn import checks
from fgcnn import experiments as ex
from fgcnn.classifier import ClassifierConfig, fm_layer
from fgcnn.cli import main as cli_main
from fgcnn.data import (DatasetSchema, FieldSchema, bayes_auc, generate_synthetic,
                        planted_spec, synthetic_schema)
from fgcnn.featuregen import FeatureGenConfig, generate, rows_chain
from fgcnn.model import FgcnnModel, ModelConfig
from fgcnn.training import (TrainConfig, auc_score, complexity_report, evaluate,
                            load_checkpoint, logloss_score, save_checkpoint, train)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared synthetic family and trained-model study

BASE_MODEL = ModelConfig(
    k=8,
    classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(64, 32)),
    featgen=FeatureGenConfig(kernel_heights=(2, 2), feature_maps=(3, 3),
                             new_maps=(3, 3), pool_height=2),
)
BASE_TRAIN = TrainConfig(batch_size=256, learning_rate=1e-3, epochs=5)
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def family():
    spec = planted_spec(n_f=8, cardinality=10, pair=(1, 5), strength=2.0, seed=0)
    schema = synthetic_schema(spec)
    instances, probs = generate_synthetic(spec, 25000)
    train_set, test_set = instances[:20000], instances[20000:]
    ceiling = bayes_auc(probs[20000:], test_set.labels)
    return {"schema": schema, "train": train_set, "test": test_set,
            "bayes_auc": ceiling}


def _train_and_score(model_cfg, family, seed):
    model = FgcnnModel.build(family["schema"], model_cfg, seed)
    train(model, family["train"], replace(BASE_TRAIN, seed=seed))
    return evaluate(model, family["test"]).auc


@pytest.fixture(scope="module")
def study(family):
    """AUC per (classifier kind, with/without generation, seed) plus the
    recombination-free arm, with wall-clock split out per criterion."""
    aucs: dict = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        aucs[("full", seed)] = _train_and_score(BASE_MODEL, family, seed)
        cfg = ex.variant_model_config("no_recombination", BASE_MODEL)
        aucs[("no_recombination", seed)] = _train_and_score(cfg, family, seed)
    elapsed_recovery = time.perf_counter() - t0
    for kind in ("fm", "dnn", "ipnn"):
        for seed in SEEDS:
            if kind == "ipnn":
                aucs[(kind, True, seed)] = aucs[("full", seed)]
            else:
                cfg = replace(BASE_MODEL,
                              classifier=replace(BASE_MODEL.classifier, kind=kind))
                aucs[(kind, True, seed)] = _train_and_score(cfg, family, seed)
            cfg = replace(BASE_MODEL,
                          classifier=replace(BASE_MODEL.classifier, kind=kind),
                          featgen=None)
            aucs[(kind, False, seed)] = _train_and_score(cfg, family, seed)
    return {"aucs": aucs, "elapsed_recovery": elapsed_recovery}


# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    results = checks.run_suite(seeds=(0, 1, 2))
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    worst_name = max(results, key=results.get)
    ok = worst < 1e-4 and elapsed < 120.0
    _report(1, "gradient fidelity", ok,
            f"worst {worst:.2e} at {worst_name} over {len(results)} checks x 3 seeds, "
            f"{elapsed:.1f}s")


def test_criterion_2_shape_law():
    rng = np.random.default_rng(42)
    checked = 0
    divisible_checked = 0
    for _ in range(200):
        h_p = int(rng.integers(2, 4))
        n_c = int(rng.integers(1, 4))
        n_f = int(rng.integers(2, 25))
        heights = []
        rows = n_f
        for _ in range(n_c):
            heights.append(int(rng.integers(1, rows + 1)))
            rows = -(-rows // h_p)
        cfg = FeatureGenConfig(
            kernel_heights=tuple(heights),
            feature_maps=tuple(int(rng.integers(1, 4)) for _ in range(n_c)),
            new_maps=tuple(int(rng.integers(1, 4)) for _ in range(n_c)),
            pool_height=h_p)
        k = 2
        schema = DatasetSchema(fields=[FieldSchema(f"f{j}", ("a",)) for j in range(n_f)])
        head = ClassifierConfig(kind="dnn", hidden_sizes=(1,))
        model = FgcnnModel.build(schema, ModelConfig(k=k, classifier=head, featgen=cfg),
                                 0, "f64")
        e = rng.standard_normal((1, n_f, k))
        r, _ = generate(e, model.params, cfg)
        chain = rows_chain(n_f, cfg)
        expected = sum(chain[i + 1] * cfg.new_maps[i] for i in range(n_c))
        assert r.shape[1] == expected, (n_f, cfg)
        checked += 1
        if all(n_f % h_p ** (i + 1) == 0 for i in range(n_c)):
            closed = sum(n_f // h_p ** (i + 1) * cfg.new_maps[i] for i in range(n_c))
            assert r.shape[1] == closed
            divisible_checked += 1
    fm_ok = all(
        fm_layer(np.zeros((1, t, 2))).shape[1] == t * (t - 1) // 2
        for t in range(2, 65))
    _report(2, "shape law", checked >= 200 and fm_ok,
            f"{checked} configs built and counted ({divisible_checked} divisible), "
            f"fm lengths verified for T in [2, 64]")


def test_criterion_3_complexity_cross_check():
    rng = np.random.default_rng(7)
    n_checked = 0
    while n_checked < 50:
        h_p = 2
        n_c = int(rng.integers(1, 3))
        n_f = h_p ** n_c * int(rng.integers(1, 4))
        if n_f < 4:
            continue
        k = int(rng.integers(1, 4))
        card = int(rng.integers(2, 5))
        heights = tuple(int(rng.integers(1, 3)) for _ in range(n_c))
        m_c = tuple(int(rng.integers(1, 4)) for _ in range(n_c))
        m_r = tuple(int(rng.integers(1, 4)) for _ in range(n_c))
        h1 = int(rng.integers(2, 9))
        cfg = ModelConfig(
            k=k,
            classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(h1,)),
            featgen=FeatureGenConfig(kernel_heights=heights, feature_maps=m_c,
                                     new_maps=m_r, pool_height=h_p))
        schema = synthetic_schema(planted_spec(n_f=n_f, cardinality=card,
                                               pair=(0, n_f - 1)))
        model = FgcnnModel.build(schema, cfg, seed=0)
        t_f = schema.t_f
        # closed-form counts, computed independently with integers
        f_emb = 2 * t_f * k
        f_conv = sum(heights[i] * (1 if i == 0 else m_c[i - 1]) * m_c[i]
                     for i in range(n_c))
        f_rec = sum((n_f ** 2 // h_p ** (2 * (i + 1))) * k * k * m_c[i] * m_r[i]
                    for i in range(n_c))
        t_fields = n_f + sum(n_f // h_p ** (i + 1) * m_r[i] for i in range(n_c))
        f_first = (t_fields * (t_fields - 1) // 2 + t_fields * k) * h1
        # enumerate the tensors the model actually allocated
        e_emb = model.params["emb.gen"].size + model.params["emb.clf"].size
        e_conv = sum(v.size for n, v in model.params.items()
                     if ".conv" in n and n.endswith(".w"))
        e_rec = sum(v.size for n, v in model.params.items()
                    if ".recomb" in n and n.endswith(".w"))
        e_first = model.params["clf.fc1.w"].size
        assert (f_emb, f_conv, f_rec, f_first) == (e_emb, e_conv, e_rec, e_first), cfg
        rep = complexity_report(cfg, n_f, t_f)
        assert rep.embedding_params == e_emb
        assert rep.conv_params == e_conv
        assert rep.recomb_weight_params == e_rec
        assert rep.clf_first_layer_weights == e_first
        assert rep.predicted_total == model.n_params()
        n_checked += 1
    _report(3, "complexity cross-check", n_checked >= 50,
            f"{n_checked} divisible configs: formula counts equal allocated tensors")


def test_criterion_4_capacity():
    spec = planted_spec(n_f=8, cardinality=10, pair=(1, 5), strength=8.0, seed=11)
    schema = synthetic_schema(spec)
    instances, _ = generate_synthetic(spec, 200)
    cfg = ModelConfig(
        k=8,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(64,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(3,), new_maps=(3,)))
    model = FgcnnModel.build(schema, cfg, seed=0)
    t0 = time.perf_counter()
    history = train(model, instances,
                    TrainConfig(batch_size=50, learning_rate=3e-3, epochs=500, seed=0))
    elapsed = time.perf_counter() - t0
    best = min(h["train_loss"] for h in history)
    epoch = next(h["epoch"] for h in history if h["train_loss"] == best)
    ok = best < 0.05 and elapsed < 60.0
    _report(4, "capacity", ok,
            f"train logloss {best:.4f} (epoch {epoch}/500) in {elapsed:.1f}s")


def test_criterion_5_planted_interaction_recovery(family, study):
    bayes = family["bayes_auc"]
    full = [study["aucs"][("full", s)] for s in SEEDS]
    no_rec = [study["aucs"][("no_recombination", s)] for s in SEEDS]
    ratio = min(a / bayes for a in full)
    ok = (ratio >= 0.95
          and float(np.mean(full)) >= float(np.mean(no_rec))
          and study["elapsed_recovery"] < 900.0)
    _report(5, "planted-interaction recovery", ok,
            f"bayes {bayes:.4f}, worst-seed ratio {ratio:.3f}, "
            f"mean full {np.mean(full):.4f} vs no-recombination {np.mean(no_rec):.4f}, "
            f"{study['elapsed_recovery']:.0f}s")


def test_criterion_6_compatibility_direction(study):
    details = []
    ok = True
    for kind in ("fm", "dnn", "ipnn"):
        wins = sum(
            1 for s in SEEDS
            if study["aucs"][(kind, True, s)] >= study["aucs"][(kind, False, s)])
        details.append(f"{kind} {wins}/5")
        ok = ok and wins >= 4
    _report(6, "compatibility direction", ok,
            "feature generation wins: " + ", ".join(details))


def test_criterion_7_shuffle_robustness(family):
    result = ex.run_shuffle_study(
        family["train"], family["test"], family["schema"], BASE_MODEL,
        replace(BASE_TRAIN, seed=0), n_permutations=10, seed=7)
    ok = result.std_with <= result.std_without
    _report(7, "shuffle robustness", ok,
            f"std with recombination {result.std_with:.5f} <= "
            f"without {result.std_without:.5f} over 10 shared permutations "
            f"(means {result.mean_with:.4f} / {result.mean_without:.4f})")


def test_criterion_8_metric_correctness():
    perfect = auc_score(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    rng = np.random.default_rng(3)
    scores = rng.random(10000)
    labels = (rng.random(10000) < 0.5).astype(float)
    null_auc = auc_score(scores, labels)
    ll = logloss_score(np.full(1000, 0.5), (np.arange(1000) % 2).astype(float))
    ok = (perfect == 1.0 and abs(null_auc - 0.5) <= 0.02
          and abs(ll - math.log(2.0)) < 1e-12)
    _report(8, "metric correctness", ok,
            f"perfect auc {perfect}, null auc {null_auc:.4f}, "
            f"uniform logloss - ln2 = {ll - math.log(2.0):.2e}")


def test_criterion_9_determinism_and_persistence(tmp_path):
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text("""
[model]
k = 4
[feature_generation]
kernel_heights = 2
feature_maps = 2
new_maps = 2
[classifier]
kind = ipnn
hidden_sizes = 16
[training]
batch_size = 64
learning_rate = 0.003
epochs = 3
seed = 9
[synthetic]
n_fields = 6
cardinality = 5
pair = 0,3
n_train = 600
n_test = 200
""", encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out2)]) == 0
    files_equal = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("metrics.jsonl", "metrics.txt", "model.ckpt"))

    spec = planted_spec(n_f=6, cardinality=5, pair=(0, 3), seed=1)
    schema = synthetic_schema(spec)
    instances, _ = generate_synthetic(spec, 300)
    cfg = ModelConfig(
        k=4, classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(16,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)))
    model = FgcnnModel.build(schema, cfg, seed=2)
    train(model, instances, TrainConfig(batch_size=64, epochs=2, seed=2))
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt", schema)
    max_delta = float(np.max(np.abs(model.predict_scores(instances)
                                    - loaded.predict_scores(instances))))
    ok = files_equal and max_delta == 0.0
    _report(9, "determinism and persistence", ok,
            f"metric files bit-identical: {files_equal}, "
            f"checkpoint max prediction delta {max_delta}")
