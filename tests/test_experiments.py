import json
import re
import struct

import numpy as np
import pytest

from fgcnn import experiments as ex
from fgcnn.classifier import ClassifierConfig
from fgcnn.cli import main as cli_main
from fgcnn.data import generate_synthetic, planted_spec, synthetic_schema
from fgcnn.featuregen import FeatureGenConfig, generated_count
from fgcnn.model import FgcnnModel, ModelConfig
from fgcnn.training import TrainConfig, train


def _base_config(**kw):
    defaults = dict(
        k=4,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(8,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)),
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def _toy_data(n=80, seed=0, n_f=4):
    spec = planted_spec(n_f=n_f, cardinality=4, pair=(0, 2), strength=2.0, seed=seed)
    schema = synthetic_schema(spec)
    instances, _ = generate_synthetic(spec, n)
    return schema, instances


# --- variants ------------------------------------------------------------------

def test_remove_new_parameter_set_is_plain_classifier():
    schema, _ = _toy_data()
    base = _base_config()
    full = FgcnnModel.build(schema, base, seed=0)
    removed = ex.build_variant("remove_new", base, schema, seed=0)
    assert not any(n.startswith("fg.") for n in removed.params)
    assert "emb.gen" not in removed.params
    assert "emb.clf" in removed.params
    expected_gone = {n for n in full.params
                     if n.startswith("fg.") or n == "emb.gen"}
    assert set(full.params) - set(removed.params) == expected_gone


def test_remove_raw_drops_classifier_table():
    schema, _ = _toy_data()
    removed = ex.build_variant("remove_raw", _base_config(), schema, seed=0)
    assert "emb.clf" not in removed.params
    assert "emb.gen" in removed.params
    assert removed.config.augmented_fields(schema.n_f) == generated_count(
        schema.n_f, removed.config.featgen)


def test_mlp_variant_swaps_tensor_families():
    schema, _ = _toy_data()
    model = ex.build_variant("mlp_featgen", _base_config(), schema, seed=0)
    names = list(model.params)
    assert any(n.startswith("fg.mlp") for n in names)
    assert not any(".conv" in n or ".recomb" in n for n in names)


def test_no_recombination_keeps_generated_count():
    schema, _ = _toy_data()
    base = _base_config(featgen=FeatureGenConfig(
        kernel_heights=(2, 2), feature_maps=(5, 5), new_maps=(3, 3)))
    variant_cfg = ex.variant_model_config("no_recombination", base)
    assert not any(".recomb" in n
                   for n in ex.build_variant("no_recombination", base, schema, 0).params)
    assert (generated_count(schema.n_f, variant_cfg.featgen)
            == generated_count(schema.n_f, base.featgen))


def test_no_recombination_config_diff_is_single_flag_when_maps_match():
    base = _base_config(featgen=FeatureGenConfig(
        kernel_heights=(2,), feature_maps=(3,), new_maps=(3,)))
    variant_cfg = ex.variant_model_config("no_recombination", base)
    a, b = base.to_dict(), variant_cfg.to_dict()
    diffs = {k for k in a["featgen"] if a["featgen"][k] != b["featgen"][k]}
    assert diffs == {"use_recombination"}
    assert {k for k in a if a[k] != b[k]} == {"featgen"}


def test_variants_forward_and_train():
    schema, instances = _toy_data()
    base = _base_config()
    tc = TrainConfig(batch_size=20, epochs=1, seed=0)
    for name in ex.VARIANT_NAMES:
        model = ex.build_variant(name, base, schema, seed=0)
        train(model, instances, tc)
        scores = model.predict_scores(instances)
        assert np.all((scores > 0) & (scores < 1))


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        ex.variant_model_config("bogus", _base_config())


def test_variant_without_featgen_rejected():
    with pytest.raises(ValueError):
        ex.variant_model_config("no_recombination", _base_config(featgen=None))


# --- compatibility -----------------------------------------------------------------

def test_compatibility_protocol_shape():
    schema, instances = _toy_data(n=60)
    rows = ex.run_compatibility(["fm", "dnn", "deepfm", "ipnn"], instances, instances,
                                schema, _base_config(),
                                TrainConfig(batch_size=30, epochs=1, seed=0))
    assert len(rows) == 8
    for kind in ("fm", "dnn", "deepfm", "ipnn"):
        flags = [r["with_feature_generation"] for r in rows if r["kind"] == kind]
        assert sorted(flags) == [False, True]


# --- shuffle study ---------------------------------------------------------------------

def test_shuffle_identity_arm_matches_baseline_bit_exactly():
    schema, instances = _toy_data(n=60)
    base = _base_config(featgen=FeatureGenConfig(
        kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)))
    tc = TrainConfig(batch_size=30, epochs=1, seed=0)
    result = ex.run_shuffle_study(instances[:40], instances[40:], schema, base, tc,
                                  n_permutations=2, seed=3)
    assert result.permutations[0] == list(range(schema.n_f))
    baseline = ex.build_variant("full", base, schema, tc.seed)
    train(baseline, instances[:40], tc)
    from fgcnn.training import evaluate
    assert result.auc_with_recombination[0] == evaluate(baseline, instances[40:]).auc


def test_shuffle_arms_share_permutations_and_stats_nonnegative():
    schema, instances = _toy_data(n=60)
    tc = TrainConfig(batch_size=30, epochs=1, seed=0)
    result = ex.run_shuffle_study(instances[:40], instances[40:], schema,
                                  _base_config(), tc, n_permutations=3, seed=4)
    assert len(result.permutations) == 3
    assert len(result.auc_with_recombination) == 3
    assert len(result.auc_without_recombination) == 3
    assert result.std_with >= 0.0 and result.std_without >= 0.0


def test_shuffle_needs_two_permutations():
    schema, instances = _toy_data(n=20)
    with pytest.raises(ValueError):
        ex.run_shuffle_study(instances, instances, schema, _base_config(),
                             TrainConfig(epochs=1), n_permutations=1)


# --- sweep -------------------------------------------------------------------------

def test_sweep_layer_counts_emits_all_points():
    schema, instances = _toy_data(n=40, n_f=8)
    base = _base_config(featgen=FeatureGenConfig(
        kernel_heights=(2,), feature_maps=(2,), new_maps=(2,)))
    tc = TrainConfig(batch_size=20, epochs=1, seed=0)
    points = ex.sweep("n_layers", [1, 2, 3], instances, instances, schema, base, tc)
    assert len(points) == 3
    assert all("auc" in p for p in points)


def test_sweep_skips_invalid_kernel_heights():
    schema, instances = _toy_data(n=40, n_f=4)
    tc = TrainConfig(batch_size=20, epochs=1, seed=0)
    points = ex.sweep("kernel_height", [2, 4, 9], instances, instances, schema,
                      _base_config(), tc)
    assert "auc" in points[0] and "auc" in points[1]
    assert "skipped" in points[2]


def test_sweep_rejects_unknown_knob():
    schema, instances = _toy_data(n=20)
    with pytest.raises(ValueError):
        ex.sweep("width", [1], instances, instances, schema, _base_config(),
                 TrainConfig(epochs=1))


# --- CLI ---------------------------------------------------------------------------

TOY_CFG = """
[model]
k = 4

[feature_generation]
kernel_heights = 2
feature_maps = 2
new_maps = 2

[classifier]
kind = ipnn
hidden_sizes = 8

[training]
batch_size = 32
learning_rate = 0.003
epochs = 2
seed = 1

[synthetic]
n_fields = 4
cardinality = 4
pair = 0,2
strength = 2.0
n_train = 120
n_test = 60
"""


@pytest.fixture
def toy_cfg(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG, encoding="utf-8")
    return path


def test_cli_train_is_deterministic(toy_cfg, tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out1)]) == 0
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out2)]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "metrics.txt").read_bytes() == (out2 / "metrics.txt").read_bytes()
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()


def test_cli_records_carry_seed_and_digest(toy_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in
            (out / "metrics.jsonl").read_text().splitlines()]
    assert all(r["seed"] == 1 for r in rows)
    assert len({r["config_digest"] for r in rows}) == 1


def test_cli_eval_roundtrip(toy_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out)]) == 0
    assert cli_main(["eval", "--config", str(toy_cfg), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(out / "model.ckpt")]) == 0
    rec = json.loads((tmp_path / "ev" / "eval.jsonl").read_text().splitlines()[0])
    assert 0.0 <= rec["auc"] <= 1.0


def test_cli_synth_writes_files(toy_cfg, tmp_path, capsys):
    out = tmp_path / "synth"
    assert cli_main(["synth", "--config", str(toy_cfg), "--out", str(out)]) == 0
    for name in ("train.csv", "test.csv", "train.probs", "test.probs", "schema.txt"):
        assert (out / name).exists()
    assert len((out / "test.probs").read_text().splitlines()) == 60


def test_cli_trains_from_files(toy_cfg, tmp_path, capsys):
    synth_dir = tmp_path / "synthdata"
    assert cli_main(["synth", "--config", str(toy_cfg), "--out", str(synth_dir)]) == 0
    cfg = tmp_path / "files.cfg"
    cfg.write_text(TOY_CFG + f"""
[data]
train = {synth_dir / 'train.csv'}
test = {synth_dir / 'test.csv'}
schema = {synth_dir / 'schema.txt'}
""", encoding="utf-8")
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "fr")]) == 0


@pytest.mark.parametrize("argv", [
    ["train"], ["eval", "--checkpoint", "{ckpt}"], ["ablate"], ["compat", "--kinds", "fm"],
    ["shuffle", "--permutations", "2"], ["sweep", "--knob", "new_maps", "--values", "1"],
], ids=lambda argv: argv[0])
def test_cli_scores_a_configured_empty_test_file_as_a_data_error(toy_cfg, tmp_path, capsys,
                                                                  argv):
    """A header-only test file is a configured test split: every data
    subcommand takes it as the split to score, rather than the train split,
    and exits 2 with nothing written."""
    synth_dir = tmp_path / "synthdata"
    assert cli_main(["synth", "--config", str(toy_cfg), "--out", str(synth_dir)]) == 0
    data = f"""
[data]
train = {synth_dir / 'train.csv'}
schema = {synth_dir / 'schema.txt'}
"""
    full, empty = tmp_path / "full.cfg", tmp_path / "empty.cfg"
    full.write_text(TOY_CFG + data, encoding="utf-8")
    header = (synth_dir / "test.csv").read_text(encoding="utf-8").splitlines()[0]
    (tmp_path / "empty.csv").write_text(header + "\n", encoding="utf-8")
    empty.write_text(TOY_CFG + data + f"test = {tmp_path / 'empty.csv'}\n", encoding="utf-8")
    ckpt = tmp_path / "full" / "model.ckpt"
    if argv[0] == "eval":
        assert cli_main(["train", "--config", str(full), "--out", str(ckpt.parent)]) == 0
    capsys.readouterr()
    argv = [a.format(ckpt=ckpt) for a in argv]
    assert cli_main([*argv, "--config", str(empty), "--out", str(tmp_path / "run")]) == 2
    assert "cannot score an empty test split" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())


def _write_multivalent_csv(path, n, unseen_row=None):
    lines = ["f0,f1,f2,f3,label"]
    for i in range(n):
        f0 = "zz" if i == unseen_row else f"u{i % 4}"
        f1 = "a|b|c" if i % 5 == 0 else f"b{i % 3}"
        lines.append(f"{f0},{f1},v{i % 3},w{i % 2},{i % 2}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_cli_train_names_the_file_line_of_an_encode_fault(tmp_path, capsys):
    # file line 3 of the test file, after a blank line, gives the univalent f1 two values
    (tmp_path / "train.csv").write_text("f0,f1,label\na,x,1\nb,y,0\n", encoding="utf-8")
    (tmp_path / "test.csv").write_text("f0,f1,label\n\na,x|y,1\n", encoding="utf-8")
    cfg = tmp_path / "fault.cfg"
    cfg.write_text(TOY_CFG + f"""
[data]
train = {tmp_path / 'train.csv'}
test = {tmp_path / 'test.csv'}
""", encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'test.csv'}: field 'f1' is univalent but line 3 carries 2 values" \
        in err, err


def test_cli_reports_ingest_counts(toy_cfg, tmp_path, capsys):
    _write_multivalent_csv(tmp_path / "train.csv", 40)
    _write_multivalent_csv(tmp_path / "test.csv", 10, unseen_row=3)
    cfg = tmp_path / "mv.cfg"
    cfg.write_text(TOY_CFG + f"""
[data]
train = {tmp_path / 'train.csv'}
test = {tmp_path / 'test.csv'}
max_vals = 2
""", encoding="utf-8")
    # three-value cells in rows 0, 5, 10, ... lose one value each; "zz" is unseen
    want = ["ingest train rows 40 unknown_tokens 0 truncated_values 8",
            "ingest test rows 10 unknown_tokens 1 truncated_values 2"]
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "metrics.txt").read_text(encoding="utf-8")
    assert text.splitlines()[2:4] == want
    assert text in capsys.readouterr().out
    assert "ingest" not in (out / "metrics.jsonl").read_text(encoding="utf-8")
    assert cli_main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(out / "model.ckpt")]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == want


def test_cli_unknown_flag_exits_one(toy_cfg, capsys):
    code = cli_main(["train", "--config", str(toy_cfg), "--bogus"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_cli_unknown_command_exits_one(capsys):
    assert cli_main(["frobnicate"]) == 1


def test_cli_missing_file_exits_two(tmp_path, capsys):
    assert cli_main(["train", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path)]) == 2


def test_cli_bad_checkpoint_exits_two(toy_cfg, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"definitely not a checkpoint")
    assert cli_main(["eval", "--config", str(toy_cfg), "--out", str(tmp_path),
                     "--checkpoint", str(bad)]) == 2


def _retouched_checkpoint(toy_cfg, tmp_path, edit):
    """Train the toy model, apply edit to its params and save it again."""
    from fgcnn.data import DatasetSchema
    from fgcnn.training import load_checkpoint, save_checkpoint

    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out)]) == 0
    model, _ = load_checkpoint(out / "model.ckpt", DatasetSchema.load(out / "schema.txt"))
    edit(model.params)
    save_checkpoint(model, out / "bad.ckpt")
    return out / "bad.ckpt"


@pytest.mark.parametrize("edit, words", [
    (lambda p: p.pop("fg.conv1.w"), ["lacks", "'fg.conv1.w'", "(2, 1, 1, 2)"]),
    (lambda p: p.update({"clf.fc1.w": p["clf.fc1.w"][:-1]}),
     ["'clf.fc1.w'", "has shape", "needs"]),
])
def test_cli_eval_of_checkpoint_with_bad_tensor_exits_two(toy_cfg, tmp_path, capsys,
                                                         edit, words):
    bad = _retouched_checkpoint(toy_cfg, tmp_path, edit)
    capsys.readouterr()
    assert cli_main(["eval", "--config", str(toy_cfg), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(word in err for word in words), err


def _checkpoint_with_header(toy_cfg, tmp_path, edit):
    """Train the toy model, replace its checkpoint's config blob and schema
    digest bytes by edit(blob, digest) and write the result as bad.ckpt."""
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out)]) == 0
    raw = (out / "model.ckpt").read_bytes()
    # magic, version, config blob length, config blob, digest length, digest, ...
    (n,) = struct.unpack("<I", raw[8:12])
    (d,) = struct.unpack("<I", raw[12 + n:16 + n])
    blob, digest = edit(raw[12:12 + n], raw[16 + n:16 + n + d])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                    + struct.pack("<I", len(digest)) + digest + raw[16 + n + d:])
    return bad


def _checkpoint_with_blob(toy_cfg, tmp_path, edit):
    """Train the toy model, apply edit to its checkpoint's model config dict
    and write the result as bad.ckpt."""
    def edit_blob(raw, digest):
        blob = json.loads(raw)
        edit(blob["model"])
        return json.dumps(blob, sort_keys=True).encode("utf-8"), digest
    return _checkpoint_with_header(toy_cfg, tmp_path, edit_blob)


def _cli_eval_error(toy_cfg, tmp_path, capsys, checkpoint):
    capsys.readouterr()
    assert cli_main(["eval", "--config", str(toy_cfg), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_cli_eval_of_checkpoint_with_unknown_config_key_exits_two(toy_cfg, tmp_path, capsys):
    def rename(model):
        model["classifier"]["hiden_sizes"] = model["classifier"].pop("hidden_sizes")
    bad = _checkpoint_with_blob(toy_cfg, tmp_path, rename)
    err = _cli_eval_error(toy_cfg, tmp_path, capsys, bad)
    assert "'classifier.hiden_sizes'" in err, err


def test_cli_eval_of_checkpoint_with_non_mapping_config_exits_two(toy_cfg, tmp_path, capsys):
    bad = _checkpoint_with_blob(toy_cfg, tmp_path, lambda model: model.update(classifier=3))
    err = _cli_eval_error(toy_cfg, tmp_path, capsys, bad)
    assert "'classifier'" in err and "mapping" in err, err


@pytest.mark.parametrize("edit, words", [
    (lambda blob, digest: (b"{not json", digest), ["Expecting"]),
    (lambda blob, digest: (b'{"model": "\xff"}', digest), ["utf-8"]),
    (lambda blob, digest: (b"[1, 2]", digest), ["not a JSON object"]),
    (lambda blob, digest: (b'{"precision": "f32"}', digest), ["not a JSON object"]),
    (lambda blob, digest: (blob.replace(b'"f32"', b'"f16"'), digest), ["'f16'"]),
    (lambda blob, digest: (re.sub(rb'"k": \d+', b'"k": "abc"', blob), digest),
     ["'k' must be int", "'abc'"]),
    (lambda blob, digest: (blob, "\u00e9".encode("utf-8") * (len(digest) // 2)),
     ["different vocabulary"]),
], ids=["invalid_json", "invalid_utf8", "json_list", "no_model_key", "unknown_precision",
        "wrong_typed_k", "non_ascii_digest"])
def test_cli_eval_of_checkpoint_with_malformed_header_exits_two(toy_cfg, tmp_path, capsys,
                                                                edit, words):
    bad = _checkpoint_with_header(toy_cfg, tmp_path, edit)
    err = _cli_eval_error(toy_cfg, tmp_path, capsys, bad)
    assert "bad.ckpt" in err and all(word in err for word in words), err


@pytest.mark.parametrize("header, row, config_edit, words", [
    # two fields cannot hold a height-3 kernel
    ("a,b,label", "x{i},y{i},{label}",
     "[feature_generation]\nkernel_heights = 3,3\nfeature_maps = 2,2\nnew_maps = 2,2\n",
     ["kernel height 3", "field count 2"]),
    # no fields at all leave the ipnn head nothing to pair
    ("label", "{label}", "[feature_generation]\nenabled = false\n",
     ["'ipnn'", "got 0"]),
])
def test_cli_train_with_config_that_does_not_fit_the_data_exits_two(
        tmp_path, capsys, header, row, config_edit, words):
    lines = [header] + [row.format(i=i % 3, label=i % 2) for i in range(12)]
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"""
[model]
k = 4

{config_edit}
[classifier]
kind = ipnn
hidden_sizes = 8

[training]
batch_size = 4
epochs = 1

[data]
train = {tmp_path / 'train.csv'}
""", encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and all(word in err for word in words), err


def test_cli_complexity_prints_counts(toy_cfg, capsys):
    assert cli_main(["complexity", "--config", str(toy_cfg)]) == 0
    out = capsys.readouterr().out
    assert "embedding parameters" in out
    assert "enumerated tensor totals" in out


def test_cli_ablate_and_sweep_write_records(toy_cfg, tmp_path, capsys):
    out = tmp_path / "ab"
    assert cli_main(["ablate", "--config", str(toy_cfg), "--out", str(out)]) == 0
    lines = (out / "ablation.jsonl").read_text().splitlines()
    assert len(lines) == len(ex.VARIANT_NAMES)
    out2 = tmp_path / "sw"
    assert cli_main(["sweep", "--config", str(toy_cfg), "--knob", "new_maps",
                     "--values", "1,2", "--out", str(out2)]) == 0
    assert len((out2 / "sweep_new_maps.jsonl").read_text().splitlines()) == 2


def test_cli_shuffle_runs(toy_cfg, tmp_path, capsys):
    out = tmp_path / "sh"
    assert cli_main(["shuffle", "--config", str(toy_cfg), "--out", str(out),
                     "--permutations", "2"]) == 0
    blob = json.loads((out / "shuffle.json").read_text())
    assert len(blob["auc_with_recombination"]) == 2


@pytest.mark.parametrize("argv, words", [
    (["sweep", "--knob", "new_maps", "--values", "2,x"], ["--values", "'2,x'"]),
    (["shuffle", "--permutations", "1"], ["--permutations", "at least 2", "'1'"]),
    (["shuffle", "--permutations", "0"], ["--permutations", "at least 2", "'0'"]),
], ids=["sweep_values", "one_permutation", "no_permutations"])
def test_cli_bad_argument_value_is_a_usage_error(toy_cfg, tmp_path, capsys, argv, words):
    assert cli_main([argv[0], "--config", str(toy_cfg), "--out", str(tmp_path),
                     *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "usage" in err, err
    assert all(word in err for word in words), err


def test_cli_gradcheck_exits_zero(tmp_path, capsys):
    assert cli_main(["gradcheck", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gradcheck.json").exists()
    out = capsys.readouterr().out
    assert "full_model_ipnn" in out


def test_cli_gradcheck_failure_exits_three(monkeypatch, capsys):
    from fgcnn import checks

    monkeypatch.setattr(checks, "run_suite", lambda seeds: {"broken": 1.0})
    assert cli_main(["gradcheck", "--seed", "0"]) == 3
