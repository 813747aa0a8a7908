import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcnn.classifier import KINDS, ClassifierConfig
from fgcnn.cli import main as cli_main
from fgcnn.config import ConfigFileError, load_config
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]


# --- digests ------------------------------------------------------------------------

@pytest.mark.parametrize("name, digest", [
    ("toy.cfg", "f6182dc100d67e618548cd43381ed1c8d7b48b387ea21af8ec70a676c7512ad2"),
    ("avazu_ref.cfg", "3f884d9a5e9a6c27290975ccd669b838d272b3fda1c8905674bf1cc088716db1"),
])
def test_shipped_config_digests_are_pinned(name, digest):
    # the digest is written into every metrics.jsonl row
    assert load_config(ROOT / "configs" / name).digest() == digest


# --- ModelConfig dict round trip ---------------------------------------------------

_sizes = st.lists(st.integers(1, 64), min_size=1, max_size=4).map(tuple)


@st.composite
def _featgen(draw):
    n_c = draw(st.integers(1, 4))
    rounds = st.lists(st.integers(1, 9), min_size=n_c, max_size=n_c).map(tuple)
    return FeatureGenConfig(
        kernel_heights=draw(rounds), feature_maps=draw(rounds), new_maps=draw(rounds),
        pool_height=draw(st.integers(2, 4)), use_bn=draw(st.booleans()),
        use_recombination=draw(st.booleans()), style=draw(st.sampled_from(["cnn", "mlp"])))


_model_configs = st.builds(
    ModelConfig,
    k=st.integers(1, 64),
    classifier=st.builds(ClassifierConfig, kind=st.sampled_from(KINDS), hidden_sizes=_sizes,
                         use_bn=st.booleans(),
                         dropout_keep=st.floats(0.01, 1.0, allow_nan=False)),
    featgen=st.none() | _featgen(),
    include_raw=st.booleans())


@settings(max_examples=100, deadline=None, database=None)
@given(c=_model_configs)
def test_model_config_dict_round_trip(c):
    assert ModelConfig.from_dict(c.to_dict()) == c
    blob = json.loads(json.dumps(c.to_dict()))          # as stored in a checkpoint
    assert ModelConfig.from_dict(blob) == c
    if c.featgen is not None:
        del blob["featgen"]["style"]                    # written before the mlp style
        assert ModelConfig.from_dict(blob).featgen == replace(c.featgen, style="cnn")


@pytest.mark.parametrize("blob, key", [
    ({"k": 3, "classifier": {"kind": "dnn", "hiden_sizes": [4]}}, "'classifier.hiden_sizes'"),
    ({"k": 3, "featgen": {"kernel_heights": [2], "styl": "mlp"}}, "'featgen.styl'"),
    ({"kk": 3}, "'kk'"),
])
def test_model_config_from_dict_rejects_unknown_keys(blob, key):
    with pytest.raises(ValueError, match=key):
        ModelConfig.from_dict(blob)


@pytest.mark.parametrize("blob, where", [
    ({"k": 3, "classifier": 3}, "'classifier'"),
    ({"k": 3, "featgen": [2]}, "'featgen'"),
    (3, "blob"),
])
def test_model_config_from_dict_rejects_non_mapping(blob, where):
    with pytest.raises(ValueError, match=f"{where} must be a mapping"):
        ModelConfig.from_dict(blob)


# --- rejected config files ------------------------------------------------------------

def _load(tmp_path, text):
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


@pytest.mark.parametrize("text, words", [
    ("[classifier]\nhiden_sizes = 8\n", ["'hiden_sizes'", "[classifier]"]),
    ("[clasifier]\nkind = dnn\n", ["[clasifier]", "unknown section"]),
    ("[model]\nclassifier = dnn\n", ["'classifier'", "[model]"]),
    ("[data]\ntrain_path = a.csv\n", ["'train_path'", "[data]"]),
    ("[complexity]\nn_fields = 24\ntotal_features = 9\nk = 3\n", ["'k'", "[complexity]"]),
    ("[DEFAULT]\nseed = 3\n[training]\nepochs = 2\n", ["unknown section [DEFAULT]"]),
    ("[DEFAULT]\nseed = 3\n[classifier]\nkind = dnn\n", ["unknown section [DEFAULT]"]),
], ids=["key_typo", "section_typo", "nested_config_key", "field_name_of_renamed_key",
        "complexity_key", "default_next_to_training", "default_next_to_classifier"])
def test_unknown_section_or_key_is_rejected(tmp_path, text, words):
    with pytest.raises(ConfigFileError) as info:
        _load(tmp_path, text)
    assert all(w in str(info.value) for w in words), info.value


def test_synthetic_pair_needs_two_indices(tmp_path):
    with pytest.raises(ConfigFileError, match="pair"):
        _load(tmp_path, "[synthetic]\npair = 3\n")


def test_complexity_needs_both_dims(tmp_path):
    with pytest.raises(ConfigFileError, match="total_features"):
        _load(tmp_path, "[complexity]\nn_fields = 24\n")


def test_keys_parse_by_field_type(tmp_path):
    cfg = _load(tmp_path, "[model]\nk = 5\ninclude_raw = no\n"
                "[feature_generation]\nkernel_heights = 3, 2\nstyle = mlp \n"
                "[data]\ntrain = a.csv\nmax_vals = 4\n[complexity]\nn_fields = 3\n"
                "total_features = 40\n")
    assert (cfg.model.k, cfg.model.include_raw) == (5, False)
    assert cfg.model.featgen.kernel_heights == (3, 2) and cfg.model.featgen.style == "mlp"
    assert (cfg.data.train_path, cfg.data.max_vals) == ("a.csv", 4)
    assert cfg.schema_dims == (3, 40)
    assert _load(tmp_path, "[feature_generation]\nenabled = false\n").model.featgen is None


@pytest.mark.parametrize("text", [
    "[classifier]\nhiden_sizes = 8\n",
    "[synthetic]\npair = 3\n",
    "[complexity]\nn_fields = 24\n",
    "k = 3\n",
    "[DEFAULT]\nseed = 3\n[training]\nepochs = 2\n",
], ids=["key_typo", "one_pair_index", "half_complexity", "no_section_header",
        "default_section"])
def test_cli_reports_bad_config_with_exit_two(tmp_path, capsys, text):
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["complexity", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "c.cfg" in err
