"""Multi-field categorical data: vocabularies, negative sampling, batching,
field permutation, synthetic generation, and the dataset file format.

Dataset files are UTF-8 CSV: the first row names the fields plus a "label"
column, one column per field, multivalent values joined by "|". A fitted
vocabulary is persisted as a versioned text sidecar.
"""
from __future__ import annotations

import csv
import hashlib
import re
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Optional

import numpy as np

DUMMY_TOKEN = "other"
VALUE_SEP = "|"
LABEL_COLUMN = "label"
SCHEMA_MAGIC = "fgcnn-schema"
SCHEMA_VERSION = 1
EMPTY_CORPUS = "cannot build a vocabulary from an empty corpus"
# the characters at which str.splitlines, and so from_text, ends a line
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class DataError(ValueError):
    """Malformed input data, invalid parameters, or incompatible schema."""


# ---------------------------------------------------------------------------
# schema types

@dataclass(frozen=True)
class FieldSchema:
    """Vocabulary of one categorical field.

    Index 0 is reserved for the rare-token dummy; tokens[i] has index i + 1,
    so the retained tokens are numbered 1..cardinality-1 in their order
    (first-seen order, from build_vocab). token_to_index is derived from
    tokens when the object is built, and a repeated token raises DataError.
    """
    field_name: str
    tokens: tuple[str, ...]
    multivalent: bool = False
    token_to_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "token_to_index", dict(zip(tokens, range(1, len(tokens) + 1))))
        if len(self.token_to_index) != len(tokens):
            raise DataError(f"duplicate tokens in field {self.field_name!r}")

    @property
    def cardinality(self) -> int:
        return len(self.tokens) + 1


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
            lines.extend(f.tokens)
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
            if min_count < 1:
                raise DataError(f"line 2: min_count must be >= 1, got {min_count}")
            n_fields = int(lines[2].split()[1])
            fields: list[FieldSchema] = []
            pos = 3
            for _ in range(n_fields):
                _, name, kind, card = lines[pos].split()
                pos += 1
                if kind not in ("univalent", "multivalent"):
                    raise DataError(f"field {name!r}: unknown kind {kind!r}, expected "
                                    f"univalent or multivalent")
                if int(card) < 1:
                    raise DataError(f"field {name!r}: cardinality must be >= 1, got {card}")
                n_tokens = int(card) - 1
                tokens = lines[pos:pos + n_tokens]
                pos += n_tokens
                if len(tokens) != n_tokens:
                    raise DataError(f"field {name!r}: the file ends after {len(tokens)} "
                                    f"of its {n_tokens} tokens")
                fields.append(FieldSchema(name, tokens, multivalent=(kind == "multivalent")))
            if pos != len(lines):
                raise DataError(f"line {pos + 1}: {len(lines) - pos} lines after the "
                                f"last declared field")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, DataError):
                raise
            raise DataError(f"malformed schema file: {exc}") from exc
        return cls(fields=fields, min_count=min_count)

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def check_savable(self) -> None:
        """Raise DataError naming the first field name or token that from_text
        would not read back from to_text: a name must be one run of
        non-white-space characters (from_text splits a field's line on white
        space), and a token must hold no line break."""
        for f in self.fields:
            if f.field_name.split() != [f.field_name]:
                raise DataError(f"field name {f.field_name!r} cannot be saved in a schema "
                                f"file: it must be non-empty and hold no white space")
            if _LINE_BREAK.search("".join(f.tokens)):
                token = next(filter(_LINE_BREAK.search, f.tokens))
                raise DataError(f"field {f.field_name!r}: token {token!r} cannot be saved in "
                                f"a schema file: it holds a line break")

    def save(self, path) -> None:
        self.check_savable()
        Path(path).write_text(self.to_text(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "DatasetSchema":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise DataError(not_utf8(path)) from None
        return cls.from_text(text)


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
    positions carry index 0 and mask False (a 0/1 float mask is accepted
    too) so they contribute nothing to sums. Every index, padded or real,
    lies in [0, cardinality) of its field."""
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


def _fit(field_names: Sequence[str], columns: Sequence[Sequence],
         min_count: int) -> tuple[DatasetSchema, list[np.ndarray]]:
    """build_vocab's schema, and each column's values encoded under it in
    (row, position) order: every value is hashed once, as it is counted."""
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    n = _table_rows(columns, len(field_names), len(columns[0]) if columns else 0)
    if field_names and not n:
        raise DataError(EMPTY_CORPUS)
    faults: list = []
    fields, codes = [], []
    for j, (name, column) in enumerate(zip(field_names, columns)):
        multivalent, size = False, n
        if not isinstance(column[0], str):
            lengths = list(map(len, column))
            if 0 in lengths:
                faults.append((lengths.index(0), j,
                               f"empty value list in field {name!r} at line ", ""))
            multivalent, size = max(lengths) > 1, sum(lengths)
            column = chain.from_iterable(column)
        # Each token is numbered 1, 2, ... as it is first met, so the keys
        # are the tokens in index order.
        first_seen = defaultdict(count(1).__next__)
        enc = np.fromiter(map(first_seen.__getitem__, column), dtype=np.int64, count=size)
        tokens = list(first_seen)
        if min_count > 1:
            # index 0 counts nothing, so it is never kept; the kept tokens are
            # renumbered 1.. in their order and the rest sent to 0
            keep = np.bincount(enc) >= min_count
            tokens = list(compress(tokens, keep[1:].tolist()))
            enc = (np.cumsum(keep) * keep)[enc]
        fields.append(FieldSchema(name, tokens, multivalent=multivalent))
        codes.append(enc)
    if faults:
        raise RowError(*min(faults))
    return DatasetSchema(fields=fields, min_count=min_count), codes


def build_vocab(field_names: Sequence[str], columns: Sequence[Sequence],
                min_count: int) -> DatasetSchema:
    """Fit per-field vocabularies over a table (one column per field name).

    Tokens seen fewer than min_count times map to the dummy index 0; all other
    tokens get unique indices in first-seen order. A field is multivalent when
    one of its cells holds more than one value.
    """
    return _fit(field_names, columns, min_count)[0]


def _check_max_vals(max_vals: Optional[int]) -> None:
    if max_vals is not None and max_vals < 1:
        raise DataError(f"max_vals must be >= 1, got {max_vals}")


def _assemble(schema: DatasetSchema, columns: Sequence[Sequence], labels: list,
              codes: Sequence[np.ndarray], max_vals: Optional[int]
              ) -> tuple[Split, IngestStats]:
    """The Split and IngestStats of a table of len(labels) rows whose values
    are encoded: codes[j] holds column j's indices in (row, position) order.
    Cells are truncated to max_vals, and the table's first label or univalent
    fault is raised."""
    n = len(labels)
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
    for j, (f, enc, m) in enumerate(zip(schema.fields, codes, lengths.T)):
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
        # Indices start at 1, so a 0 marks exactly the dropped and unknown tokens.
        stats.unknown_tokens += int(np.count_nonzero(enc == 0))
    if faults:
        raise RowError(*min(faults))
    return Split(indices, kept, np.array(labels, dtype=np.int64)), stats


def encode_instances(schema: DatasetSchema, columns: Sequence[Sequence],
                     labels: Sequence[int], max_vals: Optional[int] = None
                     ) -> tuple[Split, IngestStats]:
    """Map a table (one column per schema field, one row per label) to a Split.

    Unknown tokens encode to the dummy index 0. Cells longer than max_vals
    (>= 1) are truncated; truncations are counted in the returned stats.
    The split is padded to its longest cell (at least 1 slot).
    """
    _check_max_vals(max_vals)
    labels = list(labels)
    n = _table_rows(columns, schema.n_f, len(labels))
    codes = [np.fromiter(map(f.token_to_index.get, chain.from_iterable(column)
                             if n and not isinstance(column[0], str) else column,
                             repeat(0)), dtype=np.int64)
             for f, column in zip(schema.fields, columns)]
    return _assemble(schema, columns, labels, codes, max_vals)


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
                             value_mask=np.arange(width) < lengths[..., None],
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
    fields = [FieldSchema(f"f{j}", tuple(f"v{i}" for i in range(card)))
              for j, card in enumerate(spec.cardinalities)]
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
        tokens = [(DUMMY_TOKEN, *f.tokens) for f in schema.fields]
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


def not_utf8(path) -> str:
    """The message for a file that is not UTF-8: it names the line of the
    first bad byte (a text reader decodes in chunks, so its UnicodeDecodeError
    does not know the line)."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"{path}: line {line} is not UTF-8: {exc.reason} at byte {exc.start}"
    return f"{path}: not UTF-8"


@contextmanager
def _csv_reader(path):
    """A csv.reader over a UTF-8 file. A byte that is not UTF-8, or a record
    csv refuses (a cell over csv.field_size_limit()), raises DataError naming
    the file and line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError:
            raise DataError(not_utf8(path)) from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _records(path) -> list:
    """(line, cells) of each non-blank record after the header; line is the
    file line the record ends on, as a quoted cell may span lines."""
    with _csv_reader(path) as reader:
        next(reader, None)
        return [(reader.line_num, cells) for cells in reader if cells]


def read_dataset_file(path) -> tuple[list[str], list[list], list[int]]:
    """Parse a dataset file into (field_names, columns, labels): one column per
    field in header order. A column whose text holds no VALUE_SEP keeps its
    cells as strings; the cells of any other column are tuples of values.
    A ragged row or a bad label raises DataError naming the file line."""
    with _csv_reader(path) as reader:
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
    """Read a dataset file once, fit the vocabulary on its columns and encode
    them in the same pass: build_vocab's schema and encode_instances' split."""
    field_names, columns, labels = read_dataset_file(path)
    schema, codes = _at_file_line(path, _fit, field_names, columns, min_count)
    if not labels:      # a table of no fields has no column to show _fit its rows
        raise DataError(EMPTY_CORPUS)
    _check_max_vals(max_vals)
    # the labels were read as 0 or 1, and a field fitted univalent has no
    # cell of two values, so the table has no fault left to raise
    return (schema, *_assemble(schema, columns, labels, codes, max_vals))
