import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fgcnn import experiments as ex
from fgcnn import nn
from fgcnn.classifier import ClassifierConfig
from fgcnn.cli import main as cli_main
from fgcnn.data import DatasetSchema, generate_synthetic, planted_spec, synthetic_schema
from fgcnn.featuregen import FeatureGenConfig, generated_count
from fgcnn.model import FgcnnModel, ModelConfig, param_shapes
from fgcnn.training import (CheckpointError, CheckpointTensorError, TrainConfig,
                            _read_config_blob, load_checkpoint, save_checkpoint, train)


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


def test_no_recombination_of_a_dense_generator_is_the_conv_variant():
    # the variant is the pooled conv maps, whatever style the base generates with
    schema, _ = _toy_data()
    base = _base_config(featgen=FeatureGenConfig(
        kernel_heights=(2, 2), feature_maps=(5, 5), new_maps=(3, 3), style="mlp"))
    variant = ex.build_variant("no_recombination", base, schema, 0)
    assert variant.config.featgen == replace(base.featgen, style="cnn", use_recombination=False,
                                             feature_maps=(3, 3))


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


def test_cli_eval_with_a_sidecar_that_would_not_round_trip_exits_two(toy_cfg, tmp_path,
                                                                       capsys):
    synth_dir = tmp_path / "synthdata"
    assert cli_main(["synth", "--config", str(toy_cfg), "--out", str(synth_dir)]) == 0
    cfg = tmp_path / "files.cfg"
    sidecar = tmp_path / "schema.txt"
    cfg.write_text(TOY_CFG + f"""
[data]
train = {synth_dir / 'train.csv'}
test = {synth_dir / 'test.csv'}
schema = {sidecar}
""", encoding="utf-8")
    good = (synth_dir / "schema.txt").read_text(encoding="utf-8")
    sidecar.write_text(good, encoding="utf-8")
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    for text, words in (
            (good + "zz\n", "after the last declared field"),
            (good.replace("f0 univalent", "f0 bogus", 1), "unknown kind 'bogus'"),
            (good.replace("min_count 1", "min_count 0", 1), "min_count must be >= 1, got 0"),
            (good.replace("f0 univalent 5", "f0 univalent 0", 1),
             "field 'f0': cardinality must be >= 1, got 0")):
        assert text != good
        sidecar.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev"),
                         "--checkpoint", str(tmp_path / "run" / "model.ckpt")]) == 2
        err = capsys.readouterr().err
        assert words in err and "Traceback" not in err, err


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


def test_cli_eval_of_checkpoint_whose_config_does_not_fit_the_schema_exits_two(toy_cfg,
                                                                                  tmp_path, capsys):
    bad = _checkpoint_with_blob(toy_cfg, tmp_path,
                                lambda model: model["featgen"].update(kernel_heights=[9]))
    err = _cli_eval_error(toy_cfg, tmp_path, capsys, bad)
    words = ["bad.ckpt", "stored model config does not fit the schema",
             "round 1: kernel height 9 exceeds the field count 4"]
    assert all(word in err for word in words), err


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


def _tensor_records(raw):
    """A checkpoint's bytes as (head, records): head runs up to the tensor
    count, and each record is (name bytes, shape, data bytes)."""
    (n,) = struct.unpack("<I", raw[8:12])
    (d,) = struct.unpack("<I", raw[12 + n:16 + n])
    pos = 16 + n + d
    (count,) = struct.unpack("<I", raw[pos:pos + 4])
    pos += 4
    records = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", raw[pos:pos + 4])
        name = raw[pos + 4:pos + 4 + name_len]
        pos += 4 + name_len
        (ndim,) = struct.unpack("<I", raw[pos:pos + 4])
        shape = struct.unpack(f"<{ndim}I", raw[pos + 4:pos + 4 + 4 * ndim])
        pos += 4 + 4 * ndim
        records.append((name, shape, raw[pos:pos + 4 * math.prod(shape)]))
        pos += 4 * math.prod(shape)
    assert pos == len(raw)
    return raw[:16 + n + d], records


def _checkpoint_bytes(head, records):
    parts = [head, struct.pack("<I", len(records))]
    for name, shape, data in records:
        parts += [struct.pack("<I", len(name)), name,
                  struct.pack(f"<I{len(shape)}I", len(shape), *shape), data]
    return b"".join(parts)


def _recorded(old, name=None, shape=None):
    """An edit of a record list that renames or reshapes the record named old."""
    return lambda records: [(name or n, shape or s, d) if n == old else (n, s, d)
                            for n, s, d in records]


def test_cli_eval_of_checkpoint_holding_a_nan_exits_three(toy_cfg, tmp_path, capsys):
    bad = _retouched_checkpoint(toy_cfg, tmp_path,
                                lambda p: p["clf.out.b"].__setitem__(0, np.nan))
    capsys.readouterr()
    assert cli_main(["eval", "--config", str(toy_cfg), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err == ("fgcnn: numeric failure: evaluation scores: "
                   "non-finite value at coordinate (0,)\n"), err
    assert not (tmp_path / "ev" / "eval.jsonl").exists()


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """TOY_CFG's config file, the checkpoint bytes `fgcnn train` writes for
    it, and the schema it was trained on."""
    tmp = tmp_path_factory.mktemp("toy_checkpoint")
    cfg = tmp / "toy.cfg"
    cfg.write_text(TOY_CFG, encoding="utf-8")
    assert cli_main(["train", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
    return (cfg, (tmp / "run" / "model.ckpt").read_bytes(),
            DatasetSchema.load(tmp / "run" / "schema.txt"))


def _blob_tensors(raw: bytes, schema):
    """The precision and parameter shapes of the config blob of checkpoint
    bytes raw, as load_checkpoint reads it, or None when it refuses them."""
    (n,) = struct.unpack("<I", raw[8:12])
    try:
        config, precision = _read_config_blob("blob", raw[12:12 + n])
        return precision, param_shapes(config, schema.n_f, schema.t_f)
    except (CheckpointError, nn.ConfigError):
        return None


@st.composite
def _checkpoint_faults(draw, raw: bytes, schema):
    """(bytes, kind) of one fault in raw: a truncation, one changed byte in
    the header (magic, version, config blob and schema digest), or a NaN in
    one value the evaluation reads: any but an unknown-token embedding row."""
    (n,) = struct.unpack("<I", raw[8:12])
    (d,) = struct.unpack("<I", raw[12 + n:16 + n])
    kind = draw(st.sampled_from(["truncated", "header", "nan"]))
    if kind == "truncated":
        return raw[:draw(st.integers(0, len(raw) - 1))], kind
    if kind == "header":
        pos = draw(st.integers(0, 16 + n + d - 1))
        byte = raw[pos] ^ draw(st.integers(1, 255))
        return raw[:pos] + bytes([byte]) + raw[pos + 1:], kind
    head, records = _tensor_records(raw)
    i = draw(st.integers(0, len(records) - 1))
    name, shape, data = records[i]
    unknown = set(schema.offsets().tolist())
    values = [j for j in range(math.prod(shape))
              if not (name.startswith(b"emb.") and j // shape[-1] in unknown)]
    j = draw(st.sampled_from(values))
    records[i] = (name, shape, data[:4 * j] + struct.pack("<f", math.nan) + data[4 * j + 4:])
    return _checkpoint_bytes(head, records), kind


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_faulty_checkpoint_ends_in_its_exit_code_with_a_message(toy_checkpoint, tmp_path,
                                                                  capsys, data):
    """A truncated checkpoint, or one with a changed header byte, exits 2
    with a one-line message, and a NaN the scores read exits 3. A changed
    blob byte that leaves a config of the same tensors (white space, 1.0 as
    1e0, or pool_height 3 for 2 over 4 fields) is no fault the file shows,
    and exits 0."""
    cfg, raw, schema = toy_checkpoint
    bad, kind = data.draw(_checkpoint_faults(raw, schema))
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bad)
    capsys.readouterr()
    code = cli_main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(path)])
    err = capsys.readouterr().err
    want = {"truncated": 2, "header": 2, "nan": 3}[kind]
    (n,) = struct.unpack("<I", raw[8:12])
    if (kind == "header" and bad[:12] + bad[12 + n:] == raw[:12] + raw[12 + n:]
            and _blob_tensors(bad, schema) == _blob_tensors(raw, schema)):
        want = 0
    assert code == want, (kind, err)
    prefix = {0: "", 2: "fgcnn: data error: ", 3: "fgcnn: numeric failure: "}[want]
    assert err.startswith(prefix) and err.count("\n") == (want > 0), err
    assert "Traceback" not in err


# (2^31, 2^31) floats would be 16 EiB: np.empty raises ValueError on that
# shape, so a CheckpointTensorError shows the loader checked it first
@pytest.mark.parametrize("edit, words", [
    (_recorded(b"clf.out.b", shape=(2**31, 2**31)),
     ["'clf.out.b'", "has shape (2147483648, 2147483648)", "needs (1,)"]),
    (_recorded(b"clf.out.b", name=b"clf.out.\xff"),
     ["b'clf.out.\\xff'", "not UTF-8"]),
    (lambda records: records + [r for r in records if r[0] == b"clf.out.b"],
     ["'clf.out.b'", "twice"]),
    (_recorded(b"clf.out.b", name=b"clf.out.bias"),
     ["'clf.out.bias'", "which its config does not use"]),
    (_recorded(b"emb.gen", shape=(4, 20)),
     ["'emb.gen'", "has shape (4, 20)", "its config needs (20, 4)"]),
    (lambda records: [r for r in records if r[0] != b"clf.out.b"],
     ["lacks tensor 'clf.out.b'", "(1,)"]),
    (lambda records: [r for r in records if r[0] != b"opt.emb.gen.t"],
     ["lacks tensor 'opt.emb.gen.t'", "(1,)"]),
], ids=["oversized", "non_utf8_name", "stored_twice", "unknown_name", "wrong_shape",
        "missing", "optimizer_entry_without_t"])
def test_crafted_checkpoint_fails_cleanly_naming_the_tensor(toy_cfg, tmp_path, capsys,
                                                            edit, words):
    out = tmp_path / "run"
    assert cli_main(["train", "--config", str(toy_cfg), "--out", str(out)]) == 0
    schema = DatasetSchema.load(out / "schema.txt")
    model, _ = load_checkpoint(out / "model.ckpt", schema)
    opt = {n: nn.AdamState(m=np.zeros_like(p), v=np.zeros_like(p), lr=0.01)
           for n, p in model.params.items()}
    for n, p in model.params.items():
        nn.adam_step(p, np.ones_like(p), opt[n])
    save_checkpoint(model, out / "opt.ckpt", optimizer=opt)
    raw = (out / "opt.ckpt").read_bytes()
    head, records = _tensor_records(raw)
    assert _checkpoint_bytes(head, records) == raw
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_checkpoint_bytes(head, edit(records)))
    with pytest.raises(CheckpointTensorError) as info:
        load_checkpoint(bad, schema)
    assert all(word in str(info.value) for word in words), str(info.value)
    err = _cli_eval_error(toy_cfg, tmp_path, capsys, bad)
    assert all(word in err for word in words), err


@pytest.mark.parametrize("argv, config_edit, words", [
    (["train", "--out", "{tmp}/run"], ("seed = 1", "seed = 1\nprecision = f16"),
     "unknown precision 'f16'"),
    (["train", "--out", "{tmp}/run"], ("batch_size = 32", "batch_size = 0"),
     "batch_size must be >= 1, got 0"),
    (["train", "--out", "{tmp}/run"], ("seed = 1", "seed = 1\neval_every = 0"),
     "eval_every must be >= 1, got 0"),
    (["train", "--out", "{tmp}/run"], ("hidden_sizes = 8", "hidden_sizes = -3"),
     "classifier kind 'ipnn' needs at least one hidden layer, each of size >= 1, got [-3]"),
    (["train", "--out", "{tmp}/run"],
     ("hidden_sizes = 8\n\n[training]\nbatch_size = 32",
      "hidden_sizes = 8\nuse_bn = true\n\n[training]\nbatch_size = 119"),
     "batch norm needs every batch to hold at least two rows, but 120 rows in batches of "
     "119 leave a batch of one"),
    (["eval", "--checkpoint", "{tmp}", "--out", "{tmp}/run"], None, "Is a directory"),
    (["train", "--out", "{tmp}/file"], None, "File exists"),
    (["complexity"], ("hidden_sizes = 8", "hidden_sizes ="),
     "classifier kind 'ipnn' needs at least one hidden layer"),
    (["complexity"], ("hidden_sizes = 8", "hidden_sizes = -3"),
     "classifier kind 'ipnn' needs at least one hidden layer, each of size >= 1, got [-3]"),
    (["complexity"], ("new_maps = 2", "new_maps = 2\npool_height = 0"),
     "pool_height must be >= 2, got 0"),
    (["complexity"], ("kernel_heights = 2", "kernel_heights = 2,2"),
     "kernel_heights, feature_maps, new_maps must have equal length"),
    (["complexity"], ("n_test = 60", "n_test = 60\n[complexity]\nn_fields = 4\n"
                                     "total_features = -5"),
     "total_features >= n_fields (one dummy row per field), got 4 and -5"),
    (["complexity"], ("n_test = 60", "n_test = 60\n[complexity]\nn_fields = 0\n"
                                     "total_features = 9"),
     "needs n_fields >= 1"),
    (["synth", "--out", "{tmp}/run"], ("strength = 2.0", "strength = -1"),
     "[synthetic] strength must be >= 0, got -1.0"),
    (["synth", "--out", "{tmp}/run"], ("n_train = 120", "n_train = -50"),
     "[synthetic] n_train must be >= 1, got -50"),
    (["synth", "--out", "{tmp}/run"], ("n_test = 60", "n_test = -1"),
     "[synthetic] n_test must be >= 0, got -1"),
], ids=["unknown_precision", "batch_size_0", "eval_every_0", "hidden_size_negative",
        "bn_last_batch_of_one", "checkpoint_is_a_directory", "out_is_a_file",
        "complexity_no_hidden_layer", "complexity_hidden_size_negative",
        "complexity_pool_height_0",
        "complexity_short_feature_maps", "complexity_negative_total_features",
        "complexity_no_fields", "synthetic_negative_strength", "synthetic_negative_n_train",
        "synthetic_negative_n_test"])
def test_cli_config_and_path_faults_exit_two(tmp_path, capsys, argv, config_edit, words):
    cfg = tmp_path / "c.cfg"
    text = TOY_CFG if config_edit is None else TOY_CFG.replace(*config_edit)
    cfg.write_text(text, encoding="utf-8")
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert cli_main([*(a.format(tmp=tmp_path) for a in argv), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err, err


NO_FEATGEN = ("new_maps = 2", "new_maps = 2\nenabled = false")


@pytest.mark.parametrize("argv, config_edits, words", [
    (["compat", "--kinds", "dnn"], [NO_FEATGEN],
     "compatibility runs need feature generation enabled"),
    (["ablate"], [NO_FEATGEN], "remove_raw needs feature generation enabled"),
    (["shuffle", "--permutations", "2"], [NO_FEATGEN],
     "variant 'no_recombination' needs feature generation enabled"),
    # the arm without generation has no batch-norm site, the one with it has
    (["compat", "--kinds", "dnn"],
     [("new_maps = 2", "new_maps = 2\nuse_bn = true"), ("batch_size = 32", "batch_size = 1")],
     "batch norm needs every batch to hold at least two rows"),
    (["compat", "--kinds", "dnn,xyz"], [], "unknown classifier kind 'xyz'"),
    # remove_raw leaves the ipnn head a single generated field
    (["ablate"], [("new_maps = 2", "new_maps = 1\npool_height = 4")],
     "classifier kind 'ipnn' needs T >= 2 raw plus generated fields, got 1"),
], ids=["compat", "ablate", "shuffle", "compat_bn_batch_of_one", "compat_unknown_kind",
        "ablate_one_field"])
def test_cli_protocol_without_feature_generation_trains_nothing(tmp_path, capsys, monkeypatch,
                                                                argv, config_edits, words):
    # every arm's model and training config is checked before the first arm trains
    trained = []
    monkeypatch.setattr(ex, "train", lambda *args, **kw: trained.append(args))
    text = TOY_CFG
    for edit in config_edits:
        text = text.replace(*edit)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err, err
    assert trained == [] and list(out.iterdir()) == []


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


def test_cli_ablate_of_a_dense_generator_writes_every_variant(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TOY_CFG.replace("new_maps = 2", "new_maps = 2\nstyle = mlp"),
                   encoding="utf-8")
    out = tmp_path / "ab"
    assert cli_main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    variants = [json.loads(line)["variant"]
                for line in (out / "ablation.jsonl").read_text().splitlines()]
    assert variants == list(ex.VARIANT_NAMES)


def test_cli_sweep_records_a_value_that_leaves_the_head_one_field_as_skipped(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TOY_CFG.replace("k = 4", "k = 4\ninclude_raw = false")
                   .replace("new_maps = 2", "new_maps = 2\npool_height = 4"), encoding="utf-8")
    out = tmp_path / "sw"
    assert cli_main(["sweep", "--config", str(cfg), "--knob", "new_maps", "--values", "2,1",
                     "--out", str(out)]) == 0
    trained, skipped = map(json.loads, (out / "sweep_new_maps.jsonl").read_text().splitlines())
    assert trained["value"] == 2 and "auc" in trained
    assert skipped["value"] == 1 and "needs T >= 2" in skipped["skipped"]
    assert "got 1" in skipped["skipped"]


def test_cli_shuffle_runs(toy_cfg, tmp_path, capsys):
    out = tmp_path / "sh"
    assert cli_main(["shuffle", "--config", str(toy_cfg), "--out", str(out),
                     "--permutations", "2"]) == 0
    blob = json.loads((out / "shuffle.json").read_text())
    assert len(blob["auc_with_recombination"]) == 2


@pytest.mark.parametrize("argv, words", [
    (["sweep", "--knob", "new_maps", "--values", "2,x"], ["--values", "'2,x'"]),
    (["sweep", "--knob", "new_maps", "--values", ","], ["--values", "integers", "','"]),
    (["compat", "--kinds", ","], ["--kinds", "classifier kinds", "','"]),
    (["shuffle", "--permutations", "1"], ["--permutations", "at least 2", "'1'"]),
    (["shuffle", "--permutations", "0"], ["--permutations", "at least 2", "'0'"]),
], ids=["sweep_values", "sweep_no_values", "compat_no_kinds", "one_permutation",
        "no_permutations"])
def test_cli_bad_argument_value_is_a_usage_error(toy_cfg, tmp_path, capsys, argv, words):
    out = tmp_path / "run"
    assert cli_main([argv[0], "--config", str(toy_cfg), "--out", str(out), *argv[1:]]) == 1
    assert not out.exists()
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
