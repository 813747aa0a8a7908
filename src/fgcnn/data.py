"""Multi-field categorical data: vocabularies, negative sampling, batching,
field permutation, synthetic generation, and the dataset file format.

Dataset files are UTF-8 CSV: the first row names the fields plus a "label"
column, one column per field, multivalent values joined by "|". A fitted
vocabulary is persisted as a versioned text sidecar.
"""
from __future__ import annotations

import csv
import hashlib
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Optional

import numpy as np

DUMMY_TOKEN = "other"
VALUE_SEP = "|"
LABEL_COLUMN = "label"
SCHEMA_MAGIC = "fgcnn-schema"
SCHEMA_VERSION = 1
EMPTY_CORPUS = "cannot build a vocabulary from an empty corpus"


class DataError(ValueError):
    """Malformed input data, invalid parameters, or incompatible schema."""


# ---------------------------------------------------------------------------
# schema types

@dataclass
class FieldSchema:
    """Vocabulary of one categorical field.

    Index 0 is reserved for the rare-token dummy; retained tokens occupy
    1..cardinality-1 in first-seen order.
    """
    field_name: str
    token_to_index: dict[str, int]
    multivalent: bool = False

    @property
    def cardinality(self) -> int:
        return len(self.token_to_index) + 1

    def tokens_in_index_order(self) -> list[str]:
        toks = sorted(self.token_to_index.items(), key=lambda kv: kv[1])
        return [t for t, _ in toks]


@dataclass
class DatasetSchema:
    """Ordered field vocabularies; the field order is part of the contract."""
    fields: list[FieldSchema]
    min_count: int = 1

    @property
    def n_f(self) -> int:
        return len(self.fields)

    @property
    def t_f(self) -> int:
        return sum(f.cardinality for f in self.fields)

    def offsets(self) -> np.ndarray:
        """Global row offset of each field in the flat feature space."""
        card = [f.cardinality for f in self.fields]
        return np.concatenate([[0], np.cumsum(card[:-1])]).astype(np.int64)

    def field_names(self) -> list[str]:
        return [f.field_name for f in self.fields]

    def to_text(self) -> str:
        lines = [f"{SCHEMA_MAGIC} {SCHEMA_VERSION}", f"min_count {self.min_count}",
                 f"fields {self.n_f}"]
        for f in self.fields:
            kind = "multivalent" if f.multivalent else "univalent"
            lines.append(f"field {f.field_name} {kind} {f.cardinality}")
            lines.extend(f.tokens_in_index_order())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DatasetSchema":
        lines = text.splitlines()
        try:
            magic, version = lines[0].split()
            if magic != SCHEMA_MAGIC:
                raise DataError(f"not a schema file (magic {magic!r})")
            if int(version) != SCHEMA_VERSION:
                raise DataError(f"unsupported schema version {version}")
            min_count = int(lines[1].split()[1])
            n_fields = int(lines[2].split()[1])
            fields: list[FieldSchema] = []
            pos = 3
            for _ in range(n_fields):
                _, name, kind, card = lines[pos].split()
                pos += 1
                n_tokens = int(card) - 1
                tokens = lines[pos:pos + n_tokens]
                pos += n_tokens
                mapping = {tok: i + 1 for i, tok in enumerate(tokens)}
                if len(mapping) != n_tokens:
                    raise DataError(f"duplicate tokens in field {name!r}")
                fields.append(FieldSchema(name, mapping, multivalent=(kind == "multivalent")))
        except (IndexError, ValueError) as exc:
            if isinstance(exc, DataError):
                raise
            raise DataError(f"malformed schema file: {exc}") from exc
        return cls(fields=fields, min_count=min_count)

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DatasetSchema":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))


@dataclass(eq=False)
class Split:
    """N examples as arrays: indices [N, n_f, W] int64 local feature indices,
    0 in each cell's slots past its length; lengths [N, n_f], the number of
    values in each cell; labels [N], 0 or 1. Indexing by a slice or an index
    array selects rows and returns a Split of them (of views, for a slice)."""
    indices: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if (self.indices.ndim != 3 or self.lengths.shape != self.indices.shape[:2]
                or self.labels.shape != self.indices.shape[:1]):
            raise DataError(
                f"split arrays disagree: indices {self.indices.shape}, lengths "
                f"{self.lengths.shape}, labels {self.labels.shape}")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> "Split":
        return Split(self.indices[rows], self.lengths[rows], self.labels[rows])


@dataclass
class Batch:
    """Rows of a split; indices/value_mask are [b, n_f, max_vals]. Padded
    positions carry index 0 and mask 0 so they contribute nothing to sums."""
    indices: np.ndarray
    value_mask: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.indices.shape[0]


@dataclass
class IngestStats:
    rows: int = 0
    truncated_values: int = 0
    unknown_tokens: int = 0


# ---------------------------------------------------------------------------
# vocabulary fitting and encoding
#
# A table is one column per field, all of the same length. A column's cells
# are either all strings, one token each (the reader keeps a column without
# VALUE_SEP this way), or all tuples of tokens.

class RowError(DataError):
    """A fault in row `row` (0-based) of a table, named as line row + 1 between
    before and after; fit_dataset and load_dataset restate it at the file line.
    Of a table's faults the least (row, key) is raised, key -1 for the label
    and j for field j: the fault a row-by-row scan meets first."""

    def __init__(self, row: int, key: int, before: str, after: str):
        super().__init__(f"{before}{row + 1}{after}")
        self.row, self.before, self.after = row, before, after


def _table_rows(columns: Sequence[Sequence], n_f: int, n: int) -> int:
    """n, once the table is checked to have n_f columns of n cells."""
    if list(map(len, columns)) != [n] * n_f:
        raise DataError(f"expected {n_f} columns of {n} cells, got columns of "
                        f"{list(map(len, columns))}")
    return n


def build_vocab(field_names: Sequence[str], columns: Sequence[Sequence],
                min_count: int) -> DatasetSchema:
    """Fit per-field vocabularies over a table (one column per field name).

    Tokens seen fewer than min_count times map to the dummy index 0; all other
    tokens get unique indices in first-seen order. A field is multivalent when
    one of its cells holds more than one value.
    """
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    n = _table_rows(columns, len(field_names), len(columns[0]) if columns else 0)
    if field_names and not n:
        raise DataError(EMPTY_CORPUS)
    faults: list = []
    fields = []
    for j, (name, column) in enumerate(zip(field_names, columns)):
        multivalent = False
        if not isinstance(column[0], str):
            lengths = list(map(len, column))
            if 0 in lengths:
                faults.append((lengths.index(0), j,
                               f"empty value list in field {name!r} at line ", ""))
            multivalent = max(lengths) > 1
            column = chain.from_iterable(column)
        # Counter keeps first-seen order, so retained tokens are numbered in it.
        counts = Counter(column)
        kept = list(compress(counts, map(min_count.__le__, counts.values())))
        fields.append(FieldSchema(name, dict(zip(kept, range(1, len(kept) + 1))),
                                  multivalent=multivalent))
    if faults:
        raise RowError(*min(faults))
    return DatasetSchema(fields=fields, min_count=min_count)


def encode_instances(schema: DatasetSchema, columns: Sequence[Sequence],
                     labels: Sequence[int], max_vals: Optional[int] = None
                     ) -> tuple[Split, IngestStats]:
    """Map a table (one column per schema field, one row per label) to a Split.

    Unknown tokens encode to the dummy index 0. Cells longer than max_vals
    (>= 1) are truncated; truncations are counted in the returned stats.
    The split is padded to its longest cell (at least 1 slot).
    """
    if max_vals is not None and max_vals < 1:
        raise DataError(f"max_vals must be >= 1, got {max_vals}")
    labels = list(labels)
    n = _table_rows(columns, schema.n_f, len(labels))
    faults: list = []
    if labels.count(0) + labels.count(1) != n:
        r = next(r for r, label in enumerate(labels) if label not in (0, 1))
        faults.append((r, -1, "label at line ", f" must be 0 or 1, got {labels[r]!r}"))
    tuples = [n > 0 and not isinstance(column[0], str) for column in columns]
    lengths = np.ones((n, schema.n_f), dtype=np.int64)
    for j in np.flatnonzero(tuples):
        lengths[:, j] = np.fromiter(map(len, columns[j]), dtype=np.int64, count=n)
    kept = lengths if max_vals is None else np.minimum(lengths, max_vals)
    stats = IngestStats(rows=n, truncated_values=int(lengths.sum() - kept.sum()))
    indices = np.zeros((n, schema.n_f, int(kept.max(initial=1))), dtype=np.int64)
    for j, (f, column, m) in enumerate(zip(schema.fields, columns, lengths.T)):
        # Indices start at 1, so a 0 marks exactly the unknown tokens.
        enc = np.fromiter(map(f.token_to_index.get, chain.from_iterable(column) if tuples[j]
                              else column, repeat(0)), dtype=np.int64, count=int(m.sum()))
        if not tuples[j]:
            indices[:, j, 0] = enc
        else:
            if m.max() > 1 and not f.multivalent:
                r = int(np.argmax(m > 1))
                faults.append((r, j, f"field {f.field_name!r} is univalent but line ",
                               f" carries {m[r]} values"))
            if m.max() > kept[:, j].max():      # keep positions < max_vals in each cell
                enc = enc[np.arange(enc.size) - np.repeat(np.cumsum(m) - m, m) < max_vals]
            # the boolean mask fills the cells in (row, position) order
            indices[:, j][np.arange(indices.shape[2]) < kept[:, j, None]] = enc
        stats.unknown_tokens += int(np.count_nonzero(enc == 0))
    if faults:
        raise RowError(*min(faults))
    return Split(indices, kept, np.array(labels, dtype=np.int64)), stats


# ---------------------------------------------------------------------------
# sampling and batching

def negative_sample(split: Split, keep_prob_negative: float, seed: int) -> Split:
    """Keep every positive; keep each negative independently with the given
    probability. Deterministic under the seed: the negatives draw one uniform
    each, in row order."""
    if not (0.0 < keep_prob_negative <= 1.0):
        raise DataError(f"keep_prob_negative must be in (0, 1], got {keep_prob_negative}")
    keep = split.labels == 1
    negatives = np.flatnonzero(~keep)
    keep[negatives] = np.random.default_rng(seed).random(len(negatives)) < keep_prob_negative
    return split[np.flatnonzero(keep)]


def make_batches(split: Split, batch_size: int,
                 shuffle_seed: Optional[int] = None) -> list[Batch]:
    """Cut a split into padded batches; the last batch may be short.

    Without a shuffle seed the original order is preserved. Each batch is
    trimmed to the longest cell among its own rows (at least 1 slot).
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    if not split:
        raise DataError("cannot batch an empty dataset")
    n = len(split)
    order = np.arange(n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(n)
    batches = []
    for start in range(0, n, batch_size):
        rows = order[start:start + batch_size]
        lengths = split.lengths[rows]
        width = max(1, int(lengths.max()))
        batches.append(Batch(indices=split.indices[rows, :, :width],
                             value_mask=(np.arange(width) < lengths[..., None]).astype(np.float64),
                             labels=split.labels[rows].astype(np.float64)))
    return batches


def permute_fields(split: Split, permutation: Sequence[int],
                   schema: DatasetSchema) -> tuple[Split, DatasetSchema]:
    """Reorder fields so new position p carries old field permutation[p]."""
    n_f = schema.n_f
    if sorted(permutation) != list(range(n_f)):
        raise DataError(f"permutation {list(permutation)} is not a bijection on [0, {n_f})")
    new_schema = DatasetSchema(fields=[schema.fields[p] for p in permutation],
                               min_count=schema.min_count)
    return (Split(split.indices[:, permutation], split.lengths[:, permutation], split.labels),
            new_schema)


# ---------------------------------------------------------------------------
# synthetic data with one planted pairwise interaction

@dataclass
class SyntheticSpec:
    """Uniform categorical fields where the label depends on exactly one
    non-adjacent pair of fields through a joint weight table."""
    n_f: int
    cardinalities: tuple[int, ...]
    interacting_pair: tuple[int, int]
    pair_weights: np.ndarray
    bias: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        a, b = self.interacting_pair
        if len(self.cardinalities) != self.n_f:
            raise DataError("cardinalities must list one entry per field")
        if any(c < 1 for c in self.cardinalities):
            raise DataError("cardinalities must be >= 1")
        if not (0 <= a < self.n_f and 0 <= b < self.n_f):
            raise DataError(f"interacting pair {self.interacting_pair} out of range")
        if abs(a - b) < 2:
            raise DataError("interacting fields must be non-adjacent (|a-b| >= 2)")
        w = np.asarray(self.pair_weights)
        if w.shape != (self.cardinalities[a], self.cardinalities[b]):
            raise DataError(
                f"pair_weights shape {w.shape} does not match cardinalities "
                f"({self.cardinalities[a]}, {self.cardinalities[b]})")


def planted_spec(n_f: int = 8, cardinality: int = 10, pair: tuple[int, int] = (1, 5),
                 strength: float = 2.0, bias: float = 0.0, seed: int = 0) -> SyntheticSpec:
    """Convenience constructor: random normal interaction table of the given scale."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, strength, size=(cardinality, cardinality))
    return SyntheticSpec(n_f=n_f, cardinalities=(cardinality,) * n_f,
                         interacting_pair=pair, pair_weights=weights,
                         bias=bias, seed=seed)


def synthetic_schema(spec: SyntheticSpec) -> DatasetSchema:
    spec.validate()
    fields = []
    for j, card in enumerate(spec.cardinalities):
        mapping = {f"v{i}": i + 1 for i in range(card)}
        fields.append(FieldSchema(f"f{j}", mapping, multivalent=False))
    return DatasetSchema(fields=fields, min_count=1)


def generate_synthetic(spec: SyntheticSpec, n: int) -> tuple[Split, np.ndarray]:
    """Sample a split of n univalent rows plus their true click probabilities.

    Field values are uniform over each field's retained tokens; the label is
    Bernoulli(sigmoid(bias + pair_weights[v_a, v_b])).
    """
    spec.validate()
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    a, b = spec.interacting_pair
    values = np.stack([rng.integers(0, card, size=n) for card in spec.cardinalities], axis=1)
    logits = spec.bias + np.asarray(spec.pair_weights)[values[:, a], values[:, b]]
    probs = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.random(n) < probs).astype(np.int64)
    return Split((values + 1)[:, :, None], np.ones(values.shape, dtype=np.int64), labels), probs


def bayes_auc(true_probs: np.ndarray, labels: Sequence[int]) -> float:
    """AUC achieved by ranking with the generator's true probabilities; the
    performance ceiling for any model on the synthetic data."""
    from .training import auc_score  # local import to avoid a cycle

    auc = auc_score(np.asarray(true_probs, dtype=float),
                    np.asarray(labels, dtype=float))
    if auc is None:
        raise DataError("bayes_auc needs both classes present")
    return auc


# ---------------------------------------------------------------------------
# file format

def write_dataset_file(path, schema: DatasetSchema, split: Split) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.field_names() + [LABEL_COLUMN])
        tokens = [[DUMMY_TOKEN] + f.tokens_in_index_order() for f in schema.fields]
        for cells, lengths, label in zip(split.indices.tolist(), split.lengths.tolist(),
                                         split.labels.tolist()):
            row = [VALUE_SEP.join(map(toks.__getitem__, vals[:m]))
                   for toks, vals, m in zip(tokens, cells, lengths)]
            row.append(label)
            writer.writerow(row)


def write_probs_file(path, probs: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in probs:
            fh.write(f"{float(p):.17g}\n")


def read_probs_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()], dtype=float)


def _records(path) -> list:
    """(line, cells) of each non-blank record after the header; line is the
    file line the record ends on, as a quoted cell may span lines."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return [(reader.line_num, cells) for cells in reader if cells]


def read_dataset_file(path) -> tuple[list[str], list[list], list[int]]:
    """Parse a dataset file into (field_names, columns, labels): one column per
    field in header order. A column whose text holds no VALUE_SEP keeps its
    cells as strings; the cells of any other column are tuples of values.
    A ragged row or a bad label raises DataError naming the file line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset file") from None
        if LABEL_COLUMN not in header:
            raise DataError(f"{path}: no {LABEL_COLUMN!r} column in header {header}")
        records = list(filter(None, reader))     # a blank line reads as []
    label_pos, n, width = header.index(LABEL_COLUMN), len(records), len(header)
    columns = list(zip(*records)) or [()] * width
    text = columns.pop(label_pos) if len(columns) == width else ()
    if list(map(len, records)).count(width) == n == text.count("0") + text.count("1"):
        labels = list(map(int, text))
    else:   # a fault, raised at its file line by reading record by record, or
            # labels int() reads as 0 or 1 (" 1", "+0")
        labels = []
        for line, cells in _records(path):
            if len(cells) != width:
                raise DataError(f"{path}: ragged row at line {line}: expected {width} "
                                f"columns, got {len(cells)}")
            cell = cells[label_pos]
            try:
                labels.append(int(cell))
            except ValueError:
                raise DataError(f"{path}: bad label {cell!r} at line {line}") from None
            if labels[-1] not in (0, 1):
                raise DataError(f"{path}: label at line {line} must be 0 or 1, "
                                f"got {labels[-1]}")
    columns = [list(map(tuple, map(str.split, c, repeat(VALUE_SEP))))
               if VALUE_SEP in "".join(c) else list(c) for c in columns]
    return header[:label_pos] + header[label_pos + 1:], columns, labels


def _at_file_line(path, fn, *args, **kwargs):
    """fn(*args, **kwargs), a RowError restated at path and its row's file line."""
    try:
        return fn(*args, **kwargs)
    except RowError as exc:
        line = _records(path)[exc.row][0]
        raise DataError(f"{path}: {exc.before}{line}{exc.after}") from None


def load_dataset(path, schema: DatasetSchema,
                 max_vals: Optional[int] = None) -> tuple[Split, IngestStats]:
    """Read a dataset file and encode it under an existing schema."""
    field_names, columns, labels = read_dataset_file(path)
    if field_names != schema.field_names():
        raise DataError(
            f"{path}: field order {field_names} does not match schema "
            f"{schema.field_names()}")
    return _at_file_line(path, encode_instances, schema, columns, labels, max_vals=max_vals)


def fit_dataset(path, min_count: int,
                max_vals: Optional[int] = None) -> tuple[DatasetSchema, Split, IngestStats]:
    """Read a dataset file once, fit the vocabulary on its columns and encode them."""
    field_names, columns, labels = read_dataset_file(path)
    schema = _at_file_line(path, build_vocab, field_names, columns, min_count)
    if not labels:      # a table of no fields has no column to show build_vocab its rows
        raise DataError(EMPTY_CORPUS)
    split, stats = _at_file_line(path, encode_instances, schema, columns, labels,
                                 max_vals=max_vals)
    return schema, split, stats
