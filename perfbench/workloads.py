"""Seeded input generation for the benchmark workloads.

Each workload is a fixed task (field layout, label law) from which the
benchmark seed draws the rows. The program only ever sees the CSV files and
a config file written here; the true click probabilities stay with the
benchmark, which uses them for the toy workload's Bayes-AUC floor.
"""
from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
INGEST_ROWS = (2048, 1024)      # leading train and test rows in the timed ingest files


@dataclass
class Workload:
    name: str
    base_config: Path           # config file the program trains with
    n_train: int
    n_test: int
    chunk_train: int            # rows per timed train op
    chunk_test: int             # rows per timed eval op
    auc_floor: float            # absolute floor on the full evaluation
    bayes_ratio: float = 0.0    # floor as a share of the Bayes AUC (0 = unused)
    max_vals: int | None = None
    short_op_repeats: int = 1   # ingest and checkpoint ops per round
    epochs: int | None = None   # overrides the config's epochs when set
    smoke: dict = field(default_factory=dict)   # overrides for smoke-size runs


WORKLOADS = {
    # configs/toy.cfg unchanged: tiny tensors, so per-batch Python and dispatch
    # overhead decide its speed. The floor is acceptance criterion 5's.
    "toy": Workload("toy", ROOT / "configs" / "toy.cfg", n_train=20000, n_test=5000,
                    chunk_train=2048, chunk_test=1024, auc_floor=0.0, bayes_ratio=0.95,
                    smoke={"n_train": 2000, "n_test": 1000, "chunk_train": 512,
                           "chunk_test": 512, "epochs": 1, "auc_floor": 0.5,
                           "bayes_ratio": 0.0}),
    # ROADMAP ref shape (T = 93, 6720x1440 first recombination): compute-bound.
    # A round trains and evaluates one batch of 128; see configs/ref.cfg.
    "ref": Workload("ref", BENCH_DIR / "configs" / "ref.cfg", n_train=512, n_test=1024,
                    chunk_train=128, chunk_test=128, auc_floor=0.40, short_op_repeats=3,
                    smoke={"n_train": 256, "n_test": 256, "auc_floor": 0.3}),
    # Large sparse vocabularies, multivalent truncation and unseen test tokens
    # behind a dnn head: embedding gather/scatter, dense Adam and the Python
    # ingest loops decide its speed; the FM layer is bypassed.
    "wide": Workload("wide", BENCH_DIR / "configs" / "wide.cfg", n_train=16000,
                     n_test=8000, chunk_train=2048, chunk_test=1024, auc_floor=0.60,
                     max_vals=4, short_op_repeats=2,
                     smoke={"n_train": 2000, "n_test": 1000, "chunk_train": 512,
                            "chunk_test": 512, "auc_floor": 0.5}),
}


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    return Workload(**{**w.__dict__, **w.smoke}) if smoke else w


# ---------------------------------------------------------------------------
# label laws


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _synthetic_section(path: Path) -> configparser.SectionProxy:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise FileNotFoundError(path)
    return parser["synthetic"]


def planted_rows(n_fields: int, cardinality: int, pair: tuple[int, int],
                 strength: float, bias: float, task_seed: int,
                 rng: np.random.Generator, n: int):
    """Uniform categorical fields; the label depends on one non-adjacent pair
    through a normal weight table drawn from task_seed (the planted law of
    fgcnn.data.planted_spec). Rows are drawn from rng."""
    weights = np.random.default_rng(task_seed).normal(0.0, strength,
                                                      size=(cardinality, cardinality))
    values = rng.integers(0, cardinality, size=(n, n_fields))
    probs = _sigmoid(bias + weights[values[:, pair[0]], values[:, pair[1]]])
    labels = (rng.random(n) < probs).astype(np.int64)
    cells = [[f"v{int(v) + 1}" for v in row] for row in values]
    return [f"f{j}" for j in range(n_fields)], cells, labels, probs


def toy_rows(w: Workload, rng: np.random.Generator, n: int):
    s = _synthetic_section(w.base_config)
    pair = tuple(int(p) for p in s.get("pair", "1,5").split(","))
    return planted_rows(s.getint("n_fields", 8), s.getint("cardinality", 10), pair,
                        s.getfloat("strength", 2.0), s.getfloat("bias", 0.0),
                        s.getint("seed", 0), rng, n)


REF_FIELDS = 24
REF_CARDINALITY = 20
REF_PAIR = (4, 15)


def ref_rows(w: Workload, rng: np.random.Generator, n: int):
    return planted_rows(REF_FIELDS, REF_CARDINALITY, REF_PAIR, strength=2.0, bias=0.0,
                        task_seed=7, rng=rng, n=n)


# (vocabulary size, multivalent) per field, from ~1e5 values down to a handful.
WIDE_FIELDS = [(100_000, False), (60_000, False), (30_000, False), (15_000, False),
               (8_000, False), (4_000, True), (2_000, False), (1_000, False),
               (500, False), (200, True), (100, False), (50, False),
               (20, True), (10, False), (5, False), (3, False)]
WIDE_MAX_CELL = 6           # multivalent cells carry 1..6 values
WIDE_UNSEEN_SHARE = 0.05    # test values replaced by tokens no train row has
WIDE_ZIPF_A = 1.3


def _wide_values(vocab: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Half uniform, half Zipf (clipped to the vocabulary), per value."""
    uniform = rng.integers(0, vocab, size=size)
    zipf = np.minimum(rng.zipf(WIDE_ZIPF_A, size=size) - 1, vocab - 1)
    return np.where(rng.random(size) < 0.5, uniform, zipf)


def wide_rows(rng: np.random.Generator, n: int, unseen_share: float = 0.0):
    """Sixteen fields with Zipf/uniform values; the label law is a sum of
    per-value weights on the eight smallest fields (a fixed task) plus a
    head-token effect on the largest, so a dnn head can learn it."""
    law = np.random.default_rng(11)
    names = [f"w{j}" for j in range(len(WIDE_FIELDS))]
    logit = np.full(n, -0.5)
    columns: list[list[str]] = []
    for j, (vocab, multi) in enumerate(WIDE_FIELDS):
        counts = rng.integers(1, WIDE_MAX_CELL + 1, size=n) if multi else np.ones(n, int)
        vals = _wide_values(vocab, rng, int(counts.sum()))
        fresh = rng.random(vals.size) < unseen_share
        if vocab <= 500:
            weights = law.normal(0.0, 0.8, size=vocab)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            logit += np.add.reduceat(weights[vals], starts) / counts
        elif j == 0:
            logit += np.where(vals < 20, 1.0, -0.3)
        toks = np.char.add(f"{names[j]}_", vals.astype(str))
        if fresh.any():
            toks[fresh] = np.char.add(f"{names[j]}_new", vals[fresh].astype(str))
        if multi:
            col, pos = [], 0
            for c in counts:
                col.append("|".join(toks[pos:pos + c]))
                pos += c
            columns.append(col)
        else:
            columns.append(toks.tolist())
    probs = _sigmoid(logit)
    labels = (rng.random(n) < probs).astype(np.int64)
    cells = [list(row) for row in zip(*columns)]
    return names, cells, labels, probs


def write_csv(path: Path, names, cells, labels) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for row, y in zip(cells, labels):
            writer.writerow(list(row) + [int(y)])


def ingest_expectation(train_cells, test_cells, max_vals: int | None) -> dict:
    """IngestStats the program must report, counted independently: the
    vocabulary holds every train token (truncation happens after fitting),
    and a test value is unknown when it survives truncation but no train row
    carries it in that field."""
    seen = [set() for _ in train_cells[0]]
    expect = {"train_rows": len(train_cells), "test_rows": len(test_cells),
              "train_truncated": 0, "test_truncated": 0, "test_unknown": 0}
    for part, cells in (("train", train_cells), ("test", test_cells)):
        for row in cells:
            for j, cell in enumerate(row):
                toks = cell.split("|")
                if part == "train":
                    seen[j].update(toks)
                if max_vals is not None and len(toks) > max_vals:
                    expect[f"{part}_truncated"] += len(toks) - max_vals
                    toks = toks[:max_vals]
                if part == "test":
                    expect["test_unknown"] += sum(t not in seen[j] for t in toks)
    return expect


@dataclass
class Inputs:
    config: Path
    train_csv: Path
    test_csv: Path
    test_labels: np.ndarray
    test_probs: np.ndarray      # the generator's true click probabilities
    expect: dict                # see ingest_expectation
    ingest_train_csv: Path       # the leading INGEST_ROWS rows
    ingest_test_csv: Path
    ingest_expect: dict


def generate(w: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's train and test CSV files, the files of their
    leading INGEST_ROWS rows, and run.cfg."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    if w.name == "wide":
        names, train_cells, train_labels, _ = wide_rows(rng, w.n_train)
        _, test_cells, test_labels, test_probs = wide_rows(rng, w.n_test, WIDE_UNSEEN_SHARE)
    else:
        rows = toy_rows if w.name == "toy" else ref_rows
        names, cells, labels, probs = rows(w, rng, w.n_train + w.n_test)
        train_cells, train_labels = cells[:w.n_train], labels[:w.n_train]
        test_cells, test_labels = cells[w.n_train:], labels[w.n_train:]
        test_probs = probs[w.n_train:]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    n_train, n_test = INGEST_ROWS
    for name, cells, labels in (
            ("train", train_cells, train_labels), ("test", test_cells, test_labels),
            ("ingest_train", train_cells[:n_train], train_labels[:n_train]),
            ("ingest_test", test_cells[:n_test], test_labels[:n_test])):
        paths[name] = out_dir / f"{name}.csv"
        write_csv(paths[name], names, cells, labels)
    data = f"\n[data]\ntrain = {paths['train']}\ntest = {paths['test']}\n"
    if w.max_vals is not None:
        data += f"max_vals = {w.max_vals}\n"
    config = out_dir / "run.cfg"
    config.write_text(w.base_config.read_text(encoding="utf-8") + data, encoding="utf-8")
    return Inputs(config, paths["train"], paths["test"],
                  np.asarray(test_labels, dtype=float), np.asarray(test_probs, dtype=float),
                  ingest_expectation(train_cells, test_cells, w.max_vals),
                  paths["ingest_train"], paths["ingest_test"],
                  ingest_expectation(train_cells[:n_train], test_cells[:n_test], w.max_vals))
