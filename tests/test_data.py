import csv
import io
import tempfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcnn import data as d


@dataclass
class Instance:
    """One example as per-field tuples of local indices: the input format of
    the oracles below, which a Split replaced in the program."""
    per_field_indices: tuple[tuple[int, ...], ...]
    label: int


def to_split(instances, n_f=None):
    """The Split of a list of Instances, padded to its longest cell (n_f is
    needed only for an empty list)."""
    n_f = len(instances[0].per_field_indices) if instances else n_f
    lengths = np.array([[len(c) for c in i.per_field_indices] for i in instances],
                       dtype=np.int64).reshape(len(instances), n_f)
    indices = np.zeros((len(instances), n_f, max(1, int(lengths.max(initial=0)))), np.int64)
    for r, inst in enumerate(instances):
        for j, cell in enumerate(inst.per_field_indices):
            indices[r, j, :len(cell)] = cell
    return d.Split(indices, lengths, np.array([i.label for i in instances], dtype=np.int64))


def to_instances(split):
    """The Instances of a split's rows, cells cut to their lengths."""
    return [Instance(tuple(tuple(cell[:m]) for cell, m in zip(cells, lengths)), label)
            for cells, lengths, label in zip(split.indices.tolist(), split.lengths.tolist(),
                                             split.labels.tolist())]


def assert_same_split(a, b):
    for name in ("indices", "lengths", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


def columns_of(rows, n_f, strings=True):
    """The columns of a table of token rows; with strings, a column whose
    cells all hold one value keeps them as strings, as the file reader does."""
    columns = [list(c) for c in zip(*rows)] or [[] for _ in range(n_f)]
    if strings:
        columns = [[cell[0] for cell in c] if c and all(len(cell) == 1 for cell in c) else c
                   for c in columns]
    return columns


def encode_as_instances(schema, rows, labels, max_vals=None, strings=True):
    """encode_instances over the columns of token rows, with its split as
    Instances, to compare with the row oracle."""
    split, stats = d.encode_instances(schema, columns_of(rows, schema.n_f, strings), labels,
                                      max_vals=max_vals)
    return to_instances(split), stats


def inverse_permutation(permutation):
    return np.argsort(permutation).tolist()


def encode(field, token):
    """Index of one token, 0 for a token the vocabulary dropped or never saw."""
    return field.token_to_index.get(token, 0)


def decode(field, index):
    """Token of one index by a linear scan over the vocabulary: the oracle
    for tokens_in_index_order."""
    if index == 0:
        return d.DUMMY_TOKEN
    for tok, i in field.token_to_index.items():
        if i == index:
            return tok
    raise IndexError(f"field {field.field_name!r} has no index {index}")


# --- build_vocab -------------------------------------------------------------

def test_rare_token_maps_to_dummy_below_min_count():
    schema = d.build_vocab(["f0"], [["X"] * 19 + ["Y"] * 25], min_count=20)
    assert encode(schema.fields[0], "X") == 0
    assert encode(schema.fields[0], "Y") == 1


def test_min_count_one_keeps_everything():
    schema = d.build_vocab(["f0"], [["a", "b", "c", "a"]], min_count=1)
    f = schema.fields[0]
    assert all(encode(f, t) != 0 for t in "abc")


def test_toy_corpus_cardinality():
    # {A:3, B:2, C:1}, min_count=2 -> dummy + A + B
    schema = d.build_vocab(["f0"], [["A", "A", "A", "B", "B", "C"]], min_count=2)
    assert schema.fields[0].cardinality == 3
    assert encode(schema.fields[0], "C") == 0


def test_first_seen_order_assigns_indices():
    schema = d.build_vocab(["f0"], [["b", "a", "c", "a", "b", "c"]], min_count=1)
    f = schema.fields[0]
    assert (encode(f, "b"), encode(f, "a"), encode(f, "c")) == (1, 2, 3)


def test_empty_corpus_rejected():
    with pytest.raises(d.DataError, match="empty corpus"):
        d.build_vocab(["f0"], [[]], min_count=1)


def test_ragged_rows_rejected_with_line_number(tmp_path):
    # a table of columns cannot be ragged: the reader rejects the file's row,
    # here record 3 on file line 6 after a blank line and a two-line cell
    path = tmp_path / "ragged.csv"
    path.write_text('f0,f1,label\na,x,1\n\n"b\nc",y,0\nd,1\n', encoding="utf-8")
    with pytest.raises(d.DataError, match=r"ragged\.csv: ragged row at line 6: "
                                          r"expected 3 columns, got 2"):
        d.fit_dataset(path, min_count=1)


@pytest.mark.parametrize("columns, labels", [
    ([["a", "b"], ["x"]], [1, 0]),            # a short column
    ([["a", "b"]], [1, 0]),                   # a column missing
    ([["a", "b"], ["x", "y"], ["p", "q"]], [1, 0]),   # a column too many
    ([["a", "b"], ["x", "y"]], [1]),          # fewer labels than rows
    ([["a", "b"], ["x", "y"]], [1, 0, 1]),    # more labels than rows
])
def test_table_columns_must_agree(columns, labels):
    if len(labels) == 2:        # build_vocab takes no labels
        with pytest.raises(d.DataError, match="expected 2 columns of"):
            d.build_vocab(["f0", "f1"], columns, min_count=1)
    schema = d.build_vocab(["f0", "f1"], [["a", "b"], ["x", "y"]], min_count=1)
    with pytest.raises(d.DataError, match="expected 2 columns of"):
        d.encode_instances(schema, columns, labels)


def test_max_vals_below_one_rejected():
    schema = d.build_vocab(["f0"], [["a"]], min_count=1)
    with pytest.raises(d.DataError, match="max_vals must be >= 1, got 0"):
        d.encode_instances(schema, [["a"]], [1], max_vals=0)


def test_unseen_token_encodes_to_dummy_in_every_field():
    schema = d.build_vocab(["f0", "f1"], [["a", "b"], ["x", "y"]], min_count=1)
    for f in schema.fields:
        assert encode(f, "never-fitted") == 0


def test_vocab_injective():
    schema = d.build_vocab(["f0"], [["a", "b", "c", "d"]], min_count=1)
    indices = list(schema.fields[0].token_to_index.values())
    assert len(indices) == len(set(indices))


# --- oracles: the row-by-row reader and the per-token loops the columnar ------
# --- ingest replaced --------------------------------------------------------------

def read_dataset_file_oracle(path):
    """(field_names, token rows, labels, file line of each row), one record at
    a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise d.DataError(f"{path}: empty dataset file") from None
        if d.LABEL_COLUMN not in header:
            raise d.DataError(f"{path}: no {d.LABEL_COLUMN!r} column in header {header}")
        label_pos = header.index(d.LABEL_COLUMN)
        field_names = [h for i, h in enumerate(header) if i != label_pos]
        rows, labels, lines = [], [], []
        for cells in reader:
            if not cells:
                continue
            lineno = reader.line_num     # the record's last file line; quoted cells span lines
            if len(cells) != len(header):
                raise d.DataError(
                    f"{path}: ragged row at line {lineno}: expected {len(header)} "
                    f"columns, got {len(cells)}")
            text = cells.pop(label_pos)
            try:
                label = int(text)
            except ValueError:
                raise d.DataError(f"{path}: bad label {text!r} at line {lineno}") from None
            if label not in (0, 1):
                raise d.DataError(f"{path}: label at line {lineno} must be 0 or 1, got {label}")
            labels.append(label)
            lines.append(lineno)
            rows.append(list(map(tuple, map(str.split, cells, repeat(d.VALUE_SEP)))))
    return field_names, rows, labels, lines


def build_vocab_oracle(field_names, rows, min_count):
    if min_count < 1:
        raise d.DataError(f"min_count must be >= 1, got {min_count}")
    if not rows:
        raise d.DataError("cannot build a vocabulary from an empty corpus")
    n_f = len(field_names)
    counts = [{} for _ in range(n_f)]
    first_seen = [[] for _ in range(n_f)]
    multival = [False] * n_f
    for r, row in enumerate(rows):
        if len(row) != n_f:
            raise d.DataError(f"ragged row at line {r + 1}: expected {n_f} fields, got {len(row)}")
        for j, cell in enumerate(row):
            if len(cell) == 0:
                raise d.DataError(f"empty value list in field {field_names[j]!r} at line {r + 1}")
            if len(cell) > 1:
                multival[j] = True
            for tok in cell:
                if tok not in counts[j]:
                    first_seen[j].append(tok)
                counts[j][tok] = counts[j].get(tok, 0) + 1
    fields = []
    for j, name in enumerate(field_names):
        mapping = {}
        for tok in first_seen[j]:
            if counts[j][tok] >= min_count:
                mapping[tok] = len(mapping) + 1
        fields.append(d.FieldSchema(name, mapping, multivalent=multival[j]))
    return d.DatasetSchema(fields=fields, min_count=min_count)


def encode_instances_oracle(schema, rows, labels, max_vals=None, lines=None):
    """lines[r], when given, is the line a fault in row r names (else r + 1)."""
    stats = d.IngestStats()
    out = []
    n_f = schema.n_f
    for r, (row, label) in enumerate(zip(rows, labels)):
        if len(row) != n_f:
            raise d.DataError(f"ragged row at line {r + 1}: expected {n_f} fields, got {len(row)}")
        if label not in (0, 1):
            raise d.DataError(f"label at line {r + 1} must be 0 or 1, got {label!r}")
        encoded = []
        for f, cell in zip(schema.fields, row):
            if not f.multivalent and len(cell) > 1:
                raise d.DataError(
                    f"field {f.field_name!r} is univalent but line "
                    f"{lines[r] if lines else r + 1} carries {len(cell)} values")
            toks = list(cell)
            if max_vals is not None and len(toks) > max_vals:
                stats.truncated_values += len(toks) - max_vals
                toks = toks[:max_vals]
            encoded.append(tuple(encode(f, t) for t in toks))
            stats.unknown_tokens += sum(1 for t in toks if t not in f.token_to_index)
        out.append(Instance(tuple(encoded), int(label)))
        stats.rows += 1
    return out, stats


def _outcome(fn, *args, **kw):
    """The result of fn, or the message of the DataError it raises."""
    try:
        return fn(*args, **kw)
    except d.DataError as exc:
        return f"DataError: {exc}"


@st.composite
def _ingest_cases(draw):
    """A train table of repeated tokens (some fields multivalent), a test table
    that also carries unseen tokens, labels, min_count and max_vals."""
    n_f = draw(st.integers(1, 4))
    multi = draw(st.lists(st.booleans(), min_size=n_f, max_size=n_f))

    def table(alphabet, n):
        return [[tuple(draw(st.lists(st.sampled_from(alphabet), min_size=1,
                                     max_size=4 if multi[j] else 1)))
                 for j in range(n_f)] for _ in range(n)]

    train = table("abcde", draw(st.integers(1, 12)))
    test = table("abcdexyz", draw(st.integers(0, 8)))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=len(test), max_size=len(test)))
    return dict(names=[f"f{j}" for j in range(n_f)], train=train, test=test, labels=labels,
                min_count=draw(st.integers(1, 3)),
                max_vals=draw(st.one_of(st.none(), st.integers(1, 3))))


@settings(max_examples=200, deadline=None, database=None)
@given(_ingest_cases(), st.booleans())
def test_ingest_matches_per_token_oracle(case, strings):
    n_f = len(case["names"])
    columns = columns_of(case["train"], n_f, strings)
    schema = d.build_vocab(case["names"], columns, case["min_count"])
    want = build_vocab_oracle(case["names"], case["train"], case["min_count"])
    assert schema.to_text() == want.to_text()
    split, stats = d.encode_instances(schema, columns, [1] * len(case["train"]),
                                      max_vals=case["max_vals"])
    insts, want_stats = encode_instances_oracle(want, case["train"], [1] * len(split),
                                                max_vals=case["max_vals"])
    assert stats == want_stats
    assert_same_split(split, to_split(insts))
    # a field drawn as multivalent may have fitted univalent, so a test row
    # can be rejected; both must then raise the same message
    assert _outcome(encode_as_instances, schema, case["test"], case["labels"],
                    max_vals=case["max_vals"], strings=strings) == \
        _outcome(encode_instances_oracle, want, case["test"], case["labels"],
                 max_vals=case["max_vals"])


# a ragged row has no columns; the file-level property below injects it
FAULTS = ("label", "multi", "empty")


def _inject(rows, labels, faults):
    """Copies of rows and labels with each (kind, row, field, bad_label) fault applied."""
    rows = [list(row) for row in rows]
    labels = list(labels)
    for kind, r, j, bad in faults:
        r %= len(rows)
        j %= len(rows[r])
        if kind == "label":
            labels[r] = bad
        else:
            rows[r][j] = ("a", "b") if kind == "multi" else ()
    return rows, labels


_FAULT = st.tuples(st.sampled_from(FAULTS), st.integers(0, 50), st.integers(0, 5),
                   st.sampled_from([2, -1, 0.5, "1", None]))


@settings(max_examples=200, deadline=None, database=None)
@given(_ingest_cases(), st.lists(_FAULT, min_size=1, max_size=2), st.booleans())
def test_ingest_faults_raise_the_oracles_first_message(case, faults, strings):
    n_f = len(case["names"])
    labels = [1] * len(case["train"])
    rows, labels = _inject(case["train"], labels, faults)
    got = _outcome(d.build_vocab, case["names"], columns_of(rows, n_f, strings),
                   case["min_count"])
    want = _outcome(build_vocab_oracle, case["names"], rows, case["min_count"])
    assert (got if isinstance(got, str) else got.to_text()) == \
        (want if isinstance(want, str) else want.to_text())
    schema = d.build_vocab(case["names"], columns_of(case["train"], n_f), case["min_count"])
    got = _outcome(encode_as_instances, schema, rows, labels, max_vals=case["max_vals"],
                   strings=strings)
    want = _outcome(encode_instances_oracle, schema, rows, labels, max_vals=case["max_vals"])
    assert got == want


@pytest.mark.parametrize("rows,min_count", [([], 1), ([[("a",)]], 0), ([[("a",)]], -2),
                                            ([], 0)])
def test_vocab_argument_errors_match_oracle(rows, min_count):
    with pytest.raises(d.DataError) as got:
        d.build_vocab(["f0"], columns_of(rows, 1), min_count)
    with pytest.raises(d.DataError) as want:
        build_vocab_oracle(["f0"], rows, min_count)
    assert str(got.value) == str(want.value)


def test_encode_empty_table_matches_oracle():
    schema = d.build_vocab(["f0", "f1"], [["a", "b"], [("x", "y"), ("y",)]], min_count=1)
    split, stats = d.encode_instances(schema, [[], []], [])
    assert stats == encode_instances_oracle(schema, [], [])[1] == d.IngestStats()
    assert_same_split(split, to_split([], n_f=2))


# --- negative sampling ---------------------------------------------------------

def _labeled_stream(n_pos, n_neg, seed=0):
    labels = np.repeat(np.array([1, 0], dtype=np.int64), [n_pos, n_neg])
    np.random.default_rng(seed).shuffle(labels)
    n = n_pos + n_neg
    return d.Split(np.ones((n, 1, 1), dtype=np.int64), np.ones((n, 1), dtype=np.int64), labels)


def test_negative_sample_identity_at_keep_one():
    stream = _labeled_stream(10, 30)
    assert_same_split(d.negative_sample(stream, 1.0, seed=1), stream)


def test_negative_sample_hits_target_ratio():
    stream = _labeled_stream(10000, 90000)
    out = d.negative_sample(stream, 1.0 / 9.0, seed=2)
    n_pos = int((out.labels == 1).sum())
    n_neg = int((out.labels == 0).sum())
    assert n_pos == 10000
    # binomial: mean 10000, sigma = sqrt(90000 * p * (1-p)) ~ 99.4
    sigma = np.sqrt(90000 * (1 / 9) * (8 / 9))
    assert abs(n_neg - 10000) <= 3 * sigma


def test_negative_sample_deterministic_under_seed():
    stream = _labeled_stream(100, 900, seed=3)
    a = d.negative_sample(stream, 0.5, seed=7)
    b = d.negative_sample(stream, 0.5, seed=7)
    assert_same_split(a, b)


def test_negative_sample_validates_probability():
    with pytest.raises(d.DataError):
        d.negative_sample(_labeled_stream(1, 1), 0.0, seed=0)


# --- synthetic generator --------------------------------------------------------

def test_synthetic_zero_weights_gives_half_probability():
    spec = d.SyntheticSpec(n_f=4, cardinalities=(3, 3, 3, 3), interacting_pair=(0, 2),
                           pair_weights=np.zeros((3, 3)), bias=0.0, seed=0)
    _, probs = d.generate_synthetic(spec, 100)
    assert np.allclose(probs, 0.5)


def test_synthetic_strong_negative_bias_rarely_clicks():
    spec = d.SyntheticSpec(n_f=4, cardinalities=(3, 3, 3, 3), interacting_pair=(0, 2),
                           pair_weights=np.zeros((3, 3)), bias=-10.0, seed=0)
    split, _ = d.generate_synthetic(spec, 10000)
    pos_rate = split.labels.sum() / len(split)
    assert pos_rate < 0.01


def test_synthetic_bayes_auc_is_a_meaningful_ceiling():
    spec = d.planted_spec(n_f=6, cardinality=5, pair=(0, 3), strength=2.0, seed=1)
    split, probs = d.generate_synthetic(spec, 5000)
    auc = d.bayes_auc(probs, split.labels)
    assert 0.7 < auc < 1.0


def test_synthetic_rejects_adjacent_pair():
    with pytest.raises(d.DataError):
        d.SyntheticSpec(n_f=4, cardinalities=(3,) * 4, interacting_pair=(1, 2),
                        pair_weights=np.zeros((3, 3))).validate()


def test_synthetic_deterministic():
    spec = d.planted_spec(seed=5)
    a, pa = d.generate_synthetic(spec, 50)
    b, pb = d.generate_synthetic(spec, 50)
    assert_same_split(a, b)
    assert np.array_equal(pa, pb)


# --- batching -------------------------------------------------------------------

def _univalent_split(n, n_f=3, card=4, seed=0):
    rng = np.random.default_rng(seed)
    return to_split([
        Instance(tuple((int(rng.integers(1, card)),) for _ in range(n_f)),
                 int(rng.integers(0, 2)))
        for _ in range(n)
    ])


def batches_oracle(instances, batch_size, shuffle_seed=None):
    """Per-instance densifier: pad each batch to its own longest cell."""
    order = np.arange(len(instances))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(instances))
    batches = []
    for start in range(0, len(instances), batch_size):
        chunk = [instances[i] for i in order[start:start + batch_size]]
        n_f = len(chunk[0].per_field_indices)
        max_vals = max(1, max(len(v) for inst in chunk for v in inst.per_field_indices))
        idx = np.zeros((len(chunk), n_f, max_vals), dtype=np.int64)
        mask = np.zeros((len(chunk), n_f, max_vals), dtype=np.float64)
        labels = np.zeros(len(chunk), dtype=np.float64)
        for b, inst in enumerate(chunk):
            labels[b] = inst.label
            for f, vals in enumerate(inst.per_field_indices):
                idx[b, f, :len(vals)] = vals
                mask[b, f, :len(vals)] = 1.0
        batches.append(d.Batch(indices=idx, value_mask=mask, labels=labels))
    return batches


@st.composite
def _instance_lists(draw, min_size=0):
    """(n_f, instances) with univalent or multivalent cells; the empty and the
    one-row list are drawn often."""
    n_f = draw(st.integers(1, 4))
    longest = draw(st.sampled_from([1, 4]))         # univalent or multivalent cells
    cell = st.lists(st.integers(0, 50), min_size=1 if longest == 1 else 0, max_size=longest)
    instance = st.builds(Instance, st.tuples(*[cell.map(tuple)] * n_f), st.integers(0, 1))
    n = draw(st.sampled_from([min_size, 1]) | st.integers(min_size, 30))
    return n_f, draw(st.lists(instance, min_size=n, max_size=n))


@st.composite
def _batching_cases(draw):
    _, instances = draw(_instance_lists(min_size=1))
    batch_size = draw(st.integers(1, len(instances) + 2))
    shuffle_seed = draw(st.none() | st.integers(0, 1000))
    return instances, batch_size, shuffle_seed


@settings(max_examples=150, deadline=None, database=None)
@given(_batching_cases())
def test_make_batches_matches_per_instance_densifier(case):
    instances, batch_size, shuffle_seed = case
    got = d.make_batches(to_split(instances), batch_size, shuffle_seed=shuffle_seed)
    want = batches_oracle(instances, batch_size, shuffle_seed)
    assert isinstance(got, list) and len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("indices", "value_mask", "labels"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name


@pytest.mark.parametrize("shapes", [
    ((4, 2, 1), (4, 3), (4,)),
    ((4, 2, 1), (3, 2), (4,)),
    ((4, 2, 1), (4, 2), (5,)),
    ((4, 2), (4, 2), (4,)),
], ids=["field_count", "row_count", "label_count", "no_slot_axis"])
def test_split_rejects_shapes_that_disagree(shapes):
    arrays = [np.zeros(shape, dtype=np.int64) for shape in shapes]
    with pytest.raises(d.DataError, match="split arrays disagree"):
        d.Split(*arrays)


def test_split_slices_rows():
    split = _univalent_split(10)
    for rows in (slice(2, 5), np.array([7, 0, 7]), split.labels == 1):
        part = split[rows]
        assert len(part) == len(split.labels[rows])
        for name in ("indices", "lengths", "labels"):
            assert np.array_equal(getattr(part, name), getattr(split, name)[rows])
    assert len(split[10:]) == 0


def test_batch_sizes_with_short_tail():
    batches = d.make_batches(_univalent_split(10), 4)
    assert [b.size for b in batches] == [4, 4, 2]


def test_no_shuffle_preserves_order():
    split = _univalent_split(7)
    batches = d.make_batches(split, 3)
    flat = np.concatenate([b.indices[:, :, 0] for b in batches])
    assert np.array_equal(flat, split.indices[:, :, 0])


def test_univalent_schema_mask_and_max_vals():
    batches = d.make_batches(_univalent_split(5), 5)
    b = batches[0]
    assert b.indices.shape[2] == 1
    assert np.all(b.value_mask[:, :, 0] == 1.0)


def test_shuffle_is_deterministic():
    split = _univalent_split(20)
    a = d.make_batches(split, 6, shuffle_seed=3)
    b = d.make_batches(split, 6, shuffle_seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.indices, y.indices)
        assert np.array_equal(x.labels, y.labels)


def test_empty_dataset_rejected():
    with pytest.raises(d.DataError):
        d.make_batches(to_split([], n_f=3), 4)


def test_mask_count_matches_value_count():
    insts = [Instance(((1,), (2, 3), (1, 2, 3)), 1),
             Instance(((2,), (1,), (3,)), 0)]
    batch = d.make_batches(to_split(insts), 2)[0]
    for row, inst in enumerate(insts):
        n_values = sum(len(v) for v in inst.per_field_indices)
        assert int(batch.value_mask[row].sum()) == n_values


# --- field permutation -----------------------------------------------------------

def _schema_and_split():
    columns = [["a", "b"], ["x", "y"], ["p", "q"], ["m", "n"]]
    schema = d.build_vocab(["f0", "f1", "f2", "f3"], columns, min_count=1)
    split, _ = d.encode_instances(schema, columns, [1, 0])
    return schema, split


def test_identity_permutation_is_noop():
    schema, split = _schema_and_split()
    out, out_schema = d.permute_fields(split, [0, 1, 2, 3], schema)
    assert_same_split(out, split)
    assert out_schema.to_text() == schema.to_text()


def test_permutation_then_inverse_restores():
    schema, split = _schema_and_split()
    perm = [2, 0, 3, 1]
    mid, mid_schema = d.permute_fields(split, perm, schema)
    back, back_schema = d.permute_fields(mid, inverse_permutation(perm), mid_schema)
    assert_same_split(back, split)
    assert back_schema.to_text() == schema.to_text()


def test_reversal_moves_first_field_last():
    schema, split = _schema_and_split()
    out, out_schema = d.permute_fields(split, [3, 2, 1, 0], schema)
    assert out_schema.fields[3].field_name == "f0"
    assert np.array_equal(out.indices[0, 3], split.indices[0, 0])


def test_non_bijective_permutation_rejected():
    schema, split = _schema_and_split()
    with pytest.raises(d.DataError):
        d.permute_fields(split, [0, 0, 1, 2], schema)


# --- oracles: the per-instance loops the array operations replaced ------------------

def negative_sample_oracle(instances, keep_prob_negative, seed):
    rng = np.random.default_rng(seed)
    out = []
    for inst in instances:
        if inst.label == 1:
            out.append(inst)
        elif rng.random() < keep_prob_negative:
            out.append(inst)
    return out


def permute_fields_oracle(instances, permutation):
    return [Instance(tuple(inst.per_field_indices[p] for p in permutation), inst.label)
            for inst in instances]


def _schema_of(n_f):
    return d.DatasetSchema(fields=[d.FieldSchema(f"f{j}", {}) for j in range(n_f)])


@settings(max_examples=150, deadline=None, database=None)
@given(_instance_lists(), st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_negative_sample_selects_as_the_per_instance_loop(case, keep_prob, seed):
    n_f, instances = case
    got = d.negative_sample(to_split(instances, n_f), keep_prob, seed)
    assert to_instances(got) == negative_sample_oracle(instances, keep_prob, seed)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_permute_fields_matches_per_instance_loop_and_inverts(data):
    n_f, instances = data.draw(_instance_lists())
    perm = data.draw(st.permutations(range(n_f)))
    split, schema = to_split(instances, n_f), _schema_of(n_f)
    out, out_schema = d.permute_fields(split, perm, schema)
    assert to_instances(out) == permute_fields_oracle(instances, perm)
    assert out_schema.field_names() == [f"f{p}" for p in perm]
    back, back_schema = d.permute_fields(out, inverse_permutation(perm), out_schema)
    assert_same_split(back, split)
    assert back_schema.field_names() == schema.field_names()


# --- files and sidecar -------------------------------------------------------------

def test_dataset_file_roundtrip(tmp_path):
    spec = d.planted_spec(n_f=4, cardinality=3, pair=(0, 2), seed=2)
    schema = d.synthetic_schema(spec)
    split, _ = d.generate_synthetic(spec, 25)
    path = tmp_path / "toy.csv"
    d.write_dataset_file(path, schema, split)
    loaded, stats = d.load_dataset(path, schema)
    assert_same_split(loaded, split)
    assert stats.rows == 25


def test_multivalent_cells_roundtrip(tmp_path):
    columns = [["a", "b"], [("x", "y"), ("y",)]]
    schema = d.build_vocab(["f0", "f1"], columns, min_count=1)
    split, _ = d.encode_instances(schema, columns, [1, 0])
    path = tmp_path / "mv.csv"
    d.write_dataset_file(path, schema, split)
    names, back_columns, labels = d.read_dataset_file(path)
    assert back_columns == columns      # the univalent column keeps its cells as strings
    assert labels == [1, 0]


def test_schema_sidecar_roundtrip(tmp_path):
    schema = d.build_vocab(["f0", "f1"], [["a", "b"], [("x", "y"), ("y",)]], min_count=1)
    path = tmp_path / "schema.txt"
    schema.save(path)
    loaded = d.DatasetSchema.load(path)
    assert loaded.to_text() == schema.to_text()
    assert loaded.digest() == schema.digest()
    assert loaded.fields[1].multivalent


def test_ragged_file_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\na,x,1\nb,0\n", encoding="utf-8")
    with pytest.raises(d.DataError, match="line 3"):
        d.read_dataset_file(path)


def test_bad_label_names_file_line_after_blank_line(tmp_path):
    path = tmp_path / "badlabel.csv"
    path.write_text("f0,f1,label\na,x,1\nb,y,0\n\nc,z,1\nd,w,2\n", encoding="utf-8")
    with pytest.raises(d.DataError, match=r"badlabel\.csv: label at line 6 must be 0 or 1, got 2"):
        d.read_dataset_file(path)


def test_bad_label_names_file_line_after_multiline_cell(tmp_path):
    # the quoted cell of record 2 spans file lines 2 and 3
    path = tmp_path / "badlabel.csv"
    path.write_text('f0,f1,label\n"a\nb",x,1\nc,y,2\n', encoding="utf-8")
    with pytest.raises(d.DataError, match=r"badlabel\.csv: label at line 4 must be 0 or 1, got 2"):
        d.read_dataset_file(path)


def test_encode_fault_names_file_line_after_blank_line(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("f0,f1,label\na,x,1\nb,y,0\n", encoding="utf-8")
    test.write_text("f0,f1,label\n\na,x|y,1\n", encoding="utf-8")
    schema, _, _ = d.fit_dataset(train, min_count=1)
    with pytest.raises(d.DataError, match=r"^.*test\.csv: field 'f1' is univalent but "
                                          r"line 3 carries 2 values$"):
        d.load_dataset(test, schema)


def test_encode_fault_names_file_line_after_multiline_cell(tmp_path):
    # the quoted cell of record 1 spans file lines 2 and 3
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_text("f0,f1,label\na,x,1\nb,y,0\n", encoding="utf-8")
    test.write_text('f0,f1,label\n"a\nb",x,1\nb,y,0\nc,x|y|x,1\n', encoding="utf-8")
    schema, _, _ = d.fit_dataset(train, min_count=1)
    with pytest.raises(d.DataError, match=r"test\.csv: field 'f1' is univalent but "
                                          r"line 5 carries 3 values"):
        d.load_dataset(test, schema)


# --- file-level property: fit_dataset/load_dataset against the row oracles ---------

TOKENS = ("a", "b", "", "x,y", 'q"t', "n\nl", " s")


def fit_dataset_oracle(path, min_count, max_vals=None):
    field_names, rows, labels, lines = read_dataset_file_oracle(path)
    schema = build_vocab_oracle(field_names, rows, min_count)
    return (schema, *_encode_file_oracle(path, schema, rows, labels, lines, max_vals))


def load_dataset_oracle(path, schema, max_vals=None):
    field_names, rows, labels, lines = read_dataset_file_oracle(path)
    if field_names != schema.field_names():
        raise d.DataError(f"{path}: field order {field_names} does not match schema "
                          f"{schema.field_names()}")
    return _encode_file_oracle(path, schema, rows, labels, lines, max_vals)


def _encode_file_oracle(path, schema, rows, labels, lines, max_vals):
    """A fault names the file and the row's file line."""
    try:
        instances, stats = encode_instances_oracle(schema, rows, labels, max_vals, lines)
    except d.DataError as exc:
        raise d.DataError(f"{path}: {exc}") from None
    return to_split(instances, schema.n_f), stats


def _split_bytes(split):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (split.indices, split.lengths, split.labels)]


def _ingest_outcome(fit, load, train, test, min_count, max_vals):
    """Schema text, split bytes and stats of fitting train and loading test,
    up to the message of the first DataError."""
    out = []
    try:
        schema, split, stats = fit(train, min_count, max_vals)
        out += [schema.to_text(), _split_bytes(split), stats]
        split, stats = load(test, schema, max_vals)
        out += [_split_bytes(split), stats]
    except d.DataError as exc:
        out.append(f"DataError: {exc}")
    return out


@st.composite
def _file_cases(draw):
    """Train and test tables as cell text, the label at any header position,
    tokens holding commas, quotes, newlines or nothing, multivalent cells,
    blank lines, and up to two injected faults."""
    n_f = draw(st.integers(0, 4))
    multi = draw(st.lists(st.booleans(), min_size=n_f, max_size=n_f))

    def table(alphabet):
        n = draw(st.integers(0, 8))
        rows = [[d.VALUE_SEP.join(draw(st.lists(st.sampled_from(alphabet), min_size=1,
                                                max_size=4 if multi[j] else 1)))
                 for j in range(n_f)] for _ in range(n)]
        labels = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
        return rows, labels

    case = dict(n_f=n_f, train=table(TOKENS), test=table(TOKENS + ("new",)),
                label_pos=draw(st.integers(0, n_f)), min_count=draw(st.integers(1, 3)),
                max_vals=draw(st.one_of(st.none(), st.integers(1, 3))),
                blanks=draw(st.lists(st.integers(0, 9), max_size=3)))
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from(["train", "test"]))
        rows, labels = case[part]
        if not rows:
            continue
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["ragged", "label", "pipe"]))
        if kind == "ragged":
            rows[r] = rows[r][:-1] if rows[r] and draw(st.booleans()) else rows[r] + ["a"]
        elif kind == "label":
            # " 1", "+0" and "01" are read as labels, the rest are faults
            labels[r] = draw(st.sampled_from(["2", "-1", "x", "", "1.0", " 1", "+0", "01"]))
        elif n_f and part == "test":
            rows[r][draw(st.integers(0, n_f - 1))] = "a|b"
    return case


def _write_table(path, case, part):
    rows, labels = case[part]
    names = [f"f{j}" for j in range(case["n_f"])]
    out = io.StringIO()
    writer = csv.writer(out)
    pos = case["label_pos"]
    lines = [[*names[:pos], d.LABEL_COLUMN, *names[pos:]]]
    lines += [[*row[:pos], label, *row[pos:]] for row, label in zip(rows, labels)]
    for i, line in enumerate(lines):
        writer.writerow(line)
        out.write("\n" * case["blanks"].count(i))
    path.write_text(out.getvalue(), encoding="utf-8", newline="")


@settings(max_examples=300, deadline=None, database=None)
@given(_file_cases())
def test_file_ingest_matches_the_row_oracles(case):
    with tempfile.TemporaryDirectory() as tmp:
        train, test = Path(tmp) / "train.csv", Path(tmp) / "test.csv"
        _write_table(train, case, "train")
        _write_table(test, case, "test")
        args = (train, test, case["min_count"], case["max_vals"])
        assert _ingest_outcome(d.fit_dataset, d.load_dataset, *args) == \
            _ingest_outcome(fit_dataset_oracle, load_dataset_oracle, *args)
        for path in (train, test):
            try:
                _, rows, labels, _ = read_dataset_file_oracle(path)
            except d.DataError:
                continue
            _, columns, got_labels = d.read_dataset_file(path)
            assert got_labels == labels
            for j, column in enumerate(columns):
                cells = [row[j] for row in rows]
                # a column without a "|" cell comes back as strings
                if all(len(cell) == 1 for cell in cells):
                    cells = [cell[0] for cell in cells]
                assert column == cells


def test_write_read_encode_roundtrip_with_multivalent_fields(tmp_path):
    columns = [["a", "b", "a", "c"],
               [("x", "y", "z"), ("y",), ("w", "x"), ("x",)],
               [("p",), ("q", "p"), ("r",), ("p", "q", "r")]]
    schema = d.build_vocab(["f0", "f1", "f2"], columns, min_count=2)
    split, _ = d.encode_instances(schema, columns, [1, 0, 1, 0])
    path = tmp_path / "mv.csv"
    d.write_dataset_file(path, schema, split)
    names, back_columns, labels = d.read_dataset_file(path)
    assert [c[0] for c in back_columns] == ["a", ("x", "y", d.DUMMY_TOKEN), ("p",)]
    back, _ = d.encode_instances(schema, back_columns, labels)
    assert names == schema.field_names()
    assert_same_split(back, split)
    for f in schema.fields:
        order = [d.DUMMY_TOKEN] + f.tokens_in_index_order()
        assert [decode(f, i) for i in range(f.cardinality)] == order
        with pytest.raises(IndexError):
            decode(f, f.cardinality)


def test_missing_label_column_rejected(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f0,f1\na,x\n", encoding="utf-8")
    with pytest.raises(d.DataError):
        d.read_dataset_file(path)


def test_truncation_counted_in_stats():
    columns = [[("a", "b", "c", "d"), ("a",)]]
    schema = d.build_vocab(["f0"], columns, min_count=1)
    split, stats = d.encode_instances(schema, columns, [1, 0], max_vals=2)
    assert stats.truncated_values == 2
    assert split.lengths[0, 0] == 2 and split.indices.shape[2] == 2


def test_univalent_field_rejects_multiple_values():
    schema = d.build_vocab(["f0"], [["a", "b"]], min_count=1)
    with pytest.raises(d.DataError):
        d.encode_instances(schema, [[("a", "b")]], [1])


def test_probs_file_roundtrip(tmp_path):
    probs = np.array([0.25, 0.5, 1e-9])
    path = tmp_path / "p.probs"
    d.write_probs_file(path, probs)
    assert np.allclose(d.read_probs_file(path), probs, rtol=1e-12)


def test_schema_sidecar_rejects_foreign_text():
    with pytest.raises(d.DataError):
        d.DatasetSchema.from_text("something else entirely\n")


def test_schema_sidecar_rejects_future_version():
    schema = d.build_vocab(["f0"], [["a"]], min_count=1)
    text = schema.to_text().replace(f"{d.SCHEMA_MAGIC} 1", f"{d.SCHEMA_MAGIC} 9")
    with pytest.raises(d.DataError):
        d.DatasetSchema.from_text(text)
