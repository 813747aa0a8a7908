"""fit_dataset's one-pass fit against build_vocab plus encode_instances, and
the input faults of the text readers as the CLI reports them."""
import csv
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcnn import data as d
from fgcnn.cli import main as cli_main


def _split_bytes(split):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (split.indices, split.lengths, split.labels)]


@st.composite
def _tables(draw):
    """Rows of cell text over a small alphabet, so tokens repeat and some fall
    below min_count; a field drawn as multivalent joins 1..5 values by "|"."""
    n_f = draw(st.integers(1, 4))
    multi = draw(st.lists(st.booleans(), min_size=n_f, max_size=n_f))
    n = draw(st.integers(1, 30))
    rows = [[d.VALUE_SEP.join(draw(st.lists(st.sampled_from("abcdefg"), min_size=1,
                                            max_size=5 if multi[j] else 1)))
             for j in range(n_f)] + [draw(st.sampled_from("01"))] for _ in range(n)]
    return n_f, rows, draw(st.integers(1, 3)), draw(st.one_of(st.none(), st.integers(1, 3)))


@settings(max_examples=200, deadline=None, database=None)
@given(_tables())
def test_fit_dataset_equals_build_vocab_then_encode_instances(case):
    n_f, rows, min_count, max_vals = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[f"f{j}" for j in range(n_f)] + [d.LABEL_COLUMN], *rows])
        schema, split, stats = d.fit_dataset(path, min_count, max_vals=max_vals)
        names, columns, labels = d.read_dataset_file(path)
    want = d.build_vocab(names, columns, min_count)
    want_split, want_stats = d.encode_instances(want, columns, labels, max_vals=max_vals)
    assert schema.to_text() == want.to_text()
    assert _split_bytes(split) == _split_bytes(want_split)
    assert stats == want_stats


def test_fit_dataset_drops_rare_tokens_and_truncates_as_the_two_steps_do(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text("f0,f1,label\nb,x|y|z,1\na,y,0\nb,z|x,1\nc,y|y|q|x,0\n", encoding="utf-8")
    schema, split, stats = d.fit_dataset(path, min_count=2, max_vals=2)
    assert [f.tokens for f in schema.fields] == [("b",), ("x", "y", "z")]
    assert split.indices[:, 1].tolist() == [[1, 2], [2, 0], [3, 1], [2, 2]]
    assert split.indices[:, 0, 0].tolist() == [1, 0, 1, 0]
    assert stats == d.IngestStats(rows=4, truncated_values=3, unknown_tokens=2)


# --- input faults at the CLI boundary -------------------------------------------

_CONFIG = """[model]
k = 2
[feature_generation]
enabled = false
[classifier]
kind = dnn
hidden_sizes = 4
[training]
batch_size = 4
epochs = 1
"""
_ROWS = "a,x,1\nb,y,0\n" * 4


def _files(tmp_path, case):
    """The config of one faulty input case, with the files it names."""
    train, config = tmp_path / "train.csv", tmp_path / "run.cfg"
    train.write_text("f0,f1,label\n" + _ROWS, encoding="utf-8")
    data = f"[data]\ntrain = {train}\n"
    if case == "label only":
        train.write_text("label\n" + "1\n0\n" * 4, encoding="utf-8")
    elif case == "latin-1 train":
        train.write_bytes(("f0,f1,label\n" + _ROWS + "caf\xe9,y,1\n").encode("latin-1"))
    elif case == "latin-1 test":
        test = tmp_path / "test.csv"
        test.write_bytes(("f0,f1,label\ncaf\xe9,y,1\n").encode("latin-1"))
        data += f"test = {test}\n"
    elif case == "latin-1 sidecar":
        sidecar = tmp_path / "schema.txt"
        sidecar.write_bytes(f"{d.SCHEMA_MAGIC} 1\nmin_count 1\nfields 2\n"
                            f"field f0 univalent 2\ncaf\xe9\n".encode("latin-1"))
        data += f"schema = {sidecar}\n"
    elif case == "latin-1 config":
        config.write_bytes((_CONFIG + "# caf\xe9\n").encode("latin-1"))
        return config
    elif case == "spaced name":
        train.write_text("f 0,f1,label\n" + _ROWS, encoding="utf-8")
    elif case == "line-break token":
        train.write_text("f0,f1,label\n" + _ROWS + '"a\nb",y,1\n', encoding="utf-8")
    elif case == "oversize cell":
        train.write_text("f0,f1,label\n" + _ROWS + "b" * (csv.field_size_limit() + 1)
                         + ",y,0\n", encoding="utf-8")
    config.write_text(_CONFIG + data, encoding="utf-8")
    return config


@pytest.mark.parametrize("case, message", [
    ("label only", r"classifier kind 'dnn' needs T >= 1 raw plus generated fields, got 0"),
    ("latin-1 train", r"train\.csv: line 10 is not UTF-8: invalid continuation byte"),
    ("latin-1 test", r"test\.csv: line 2 is not UTF-8"),
    ("latin-1 sidecar", r"schema\.txt: line 5 is not UTF-8"),
    ("latin-1 config", r"run\.cfg: line 11 is not UTF-8"),
    ("oversize cell", r"train\.csv: line 10: field larger than field limit"),
    ("spaced name", r"^fgcnn: data error: field name 'f 0' cannot be saved in a schema file"),
    ("line-break token", r"^fgcnn: data error: field 'f0': token 'a\\nb' cannot be saved"),
])
def test_faulty_input_exits_two_with_one_line(tmp_path, capsys, case, message):
    config = _files(tmp_path, case)
    assert cli_main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fgcnn: data error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    assert re.search(message, err), err
    assert not (tmp_path / "run" / "model.ckpt").exists()
    assert not list((tmp_path / "run").glob("*"))      # nothing written


def test_not_utf8_names_the_line_of_the_first_bad_byte(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"f0,label\n" + b"a,1\n" * 3000 + b"\xff,0\n")
    with pytest.raises(d.DataError, match=r"t\.csv: line 3002 is not UTF-8: invalid start "
                                          r"byte at byte 12009"):
        d.read_dataset_file(path)
