"""Training orchestration: epochs, evaluation metrics, binary checkpoints,
and the parameter/multiply bookkeeping report.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import classifier as clf_mod
from . import featuregen as fg_mod
from . import nn
from .classifier import ClampStats, loss_and_grad
from .data import DatasetSchema, Split, make_batches
from .model import FgcnnModel, ModelConfig, bn_sites, param_shapes

CHECKPOINT_MAGIC = b"FGCN"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 1
    seed: int = 0
    l2_embedding: float = 0.0
    eval_every: int = 1
    precision: str = "f32"

    def validate(self, uses_bn: bool, n_rows: int) -> None:
        """ConfigError naming the first bad field for training on n_rows rows;
        uses_bn says the model has a batch-norm site, which needs every batch
        to hold at least two rows: the last one, the smallest, holds
        n_rows % batch_size rows, or batch_size when that divides n_rows."""
        for name in ("epochs", "batch_size", "eval_every"):
            if getattr(self, name) < 1:
                raise nn.ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if uses_bn and (n_rows % self.batch_size or self.batch_size) == 1:
            raise nn.ConfigError(
                f"batch norm needs every batch to hold at least two rows, but {n_rows} rows "
                f"in batches of {self.batch_size} leave a batch of one")
        nn.as_dtype(self.precision)


@dataclass
class Metrics:
    auc: Optional[float]
    logloss: float
    n_pos: int
    n_neg: int

    def to_dict(self) -> dict:
        return {"auc": self.auc, "logloss": self.logloss,
                "n_pos": self.n_pos, "n_neg": self.n_neg}


# ---------------------------------------------------------------------------
# metrics

def auc_score(scores: np.ndarray, labels: np.ndarray) -> Optional[float]:
    """Rank-statistic AUC with average ranks on tied scores.

    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores), dtype=float)
    # average rank within each tied group
    boundaries = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    rank_sum_pos = ranks[labels == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def logloss_score(scores: np.ndarray, labels: np.ndarray) -> float:
    loss, _ = loss_and_grad(np.asarray(scores, dtype=float),
                            np.asarray(labels, dtype=float))
    return float(loss.mean())


def evaluate(model: FgcnnModel, split: Split, batch_size: int = 1024) -> Metrics:
    """Score a dataset and report AUC plus mean log loss.

    Single-class datasets get auc=None; log loss is still computed.
    NumericError, naming the row, when a score is not finite.
    """
    scores = model.predict_scores(split, batch_size=batch_size)
    nn.check_finite("evaluation scores", scores)
    labels = split.labels.astype(float)
    return Metrics(
        auc=auc_score(scores, labels),
        logloss=logloss_score(scores, labels),
        n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
    )


# ---------------------------------------------------------------------------
# training loop

# Tensors of at least HELPER_MIN elements get their gradient product and Adam
# update on the helper thread; smaller ones update inline on the main thread,
# where a queue round trip costs more than the work (every tensor of
# configs/toy.cfg is smaller). A helper-side update is split into ranges of
# ADAM_RANGE elements that either thread may take.
HELPER_MIN = 1 << 16
ADAM_RANGE = 1 << 18


def _start_tensor(param: np.ndarray, state: nn.AdamState, snapshot: np.ndarray) -> None:
    """Zero a tensor's Adam moments and copy it into its divergence snapshot."""
    state.m.fill(0)
    state.v.fill(0)
    np.copyto(snapshot, param)


def train(model: FgcnnModel, split: Split, config: TrainConfig,
          eval_split: Optional[Split] = None) -> list[dict]:
    """Run Adam over mini-batches for the configured number of epochs.

    Deterministic under config.seed. History rows carry the epoch's mean
    training loss and, every eval_every epochs, eval metrics. The arrays in
    model.params are updated in place; a caller that needs the old values
    takes model.clone_params() first. On divergence (non-finite loss) the
    parameters and batch-norm running statistics are restored to the last
    epoch that completed cleanly and NumericError is raised.

    The parameter side runs beside the backward pass on the helper thread
    (nn.fork; the evaluation's and other large products split onto it
    too): for each tensor of at least HELPER_MIN elements, its gradient
    product, the L2 term and its Adam update (in ranges either thread may
    take); smaller tensors update inline. The input-gradient chain stays on
    the calling thread, but its large products split onto the helper like
    the forward's, whose large raw-branch gathers run there too
    (FgcnnModel.forward_batch).
    Ordering:
    - no update starts before the last backward read of its tensor:
      backward_batch emits a gradient only after that read;
    - the Adam state and the divergence snapshot are allocated here, filled
      by the helper during the first forward pass, and waited for before
      the first backward pass, so they exist before the first update;
    - each batch ends by waiting for every job it forked, so no forward
      pass starts before the previous batch's updates finish;
    - every job this call forked is done when it returns or raises, and an
      exception raised in one of its jobs leaves this call with its type
      and message.
    Every tensor sees the operations of a serial run in the same order, so
    the results are bit-identical to one.
    """
    config.validate(uses_bn=bool(model.bn_states), n_rows=len(split))
    clamp_stats = ClampStats()
    history: list[dict] = []
    jobs: list[nn.Job] = []     # forked and not yet waited for

    def dispatch(size: int, job) -> None:
        if size >= HELPER_MIN:
            jobs.append(nn.fork(job, first=False))
        else:
            job()

    def wait_jobs() -> None:
        pending = jobs.copy()
        jobs.clear()
        nn.wait_all(pending)

    opt: dict[str, nn.AdamState] = {}
    last_good: dict[str, np.ndarray] = {}

    def update(name: str, make_grad) -> None:
        param, state = model.params[name], opt[name]

        def job():
            grad = make_grad()
            if config.l2_embedding > 0.0 and name in ("emb.gen", "emb.clf"):
                grad += 2.0 * config.l2_embedding * param
            if param.size < HELPER_MIN:
                nn.adam_step(param, grad, state)
                return
            first, *rest = nn.adam_parts(param, grad, state, ADAM_RANGE)
            parts = [nn.fork(functools.partial(nn.adam_step, *part)) for part in rest]
            try:
                nn.adam_step(*first)
            finally:
                nn.wait_all(parts)
        dispatch(param.size, job)

    try:
        for name, p in model.params.items():
            opt[name] = nn.AdamState(m=np.empty_like(p), v=np.empty_like(p),
                                     lr=config.learning_rate)
            last_good[name] = np.empty_like(p)
            dispatch(p.size, functools.partial(_start_tensor, p, opt[name], last_good[name]))
        # a train forward replaces bn_states entries, so a shallow copy is a snapshot
        last_good_bn = dict(model.bn_states)
        for epoch in range(1, config.epochs + 1):
            shuffle_seed = config.seed * 1_000_003 + epoch
            dropout_rng = np.random.default_rng(shuffle_seed + 500_009)
            losses = []
            for batch in make_batches(split, config.batch_size, shuffle_seed=shuffle_seed):
                yhat, cache = model.forward_batch(batch, mode="train", dropout_rng=dropout_rng)
                loss_vec, dlogit = loss_and_grad(yhat, batch.labels, clamp_stats)
                loss = float(loss_vec.mean())
                wait_jobs()         # the Adam state and the snapshot are complete
                if not np.isfinite(loss):
                    model.params = last_good
                    model.bn_states = last_good_bn
                    raise nn.NumericError(
                        f"training diverged at epoch {epoch}; restored epoch {epoch - 1} state")
                losses.append(loss)
                model.backward_batch(cache, dlogit / batch.size, update)
                wait_jobs()         # the next forward pass reads finished updates
            row = {"epoch": epoch, "train_loss": float(np.mean(losses)),
                   "n_clamped": clamp_stats.n_clamped}
            if eval_split is not None and epoch % config.eval_every == 0:
                m = evaluate(model, eval_split)
                row["eval_auc"] = m.auc
                row["eval_logloss"] = m.logloss
            history.append(row)
            if epoch < config.epochs:
                for name, snapshot in last_good.items():
                    dispatch(snapshot.size,
                             functools.partial(np.copyto, snapshot, model.params[name]))
                last_good_bn = dict(model.bn_states)
    finally:
        wait_jobs()
    return history


# ---------------------------------------------------------------------------
# checkpoints

class CheckpointError(RuntimeError):
    """A checkpoint that cannot be loaded; each subclass names one way."""


class NotACheckpointError(CheckpointError):
    """The file does not start with the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """The format version is not CHECKPOINT_VERSION."""


class SchemaDigestError(CheckpointError):
    """The checkpoint was written against another vocabulary."""


class TruncatedCheckpointError(CheckpointError):
    """The file ends before the data its headers declare."""


class CheckpointTensorError(CheckpointError):
    """A stored tensor the stored config cannot take: badly named, unknown,
    repeated, misshaped or missing."""


def save_checkpoint(model: FgcnnModel, path, optimizer: Optional[dict] = None) -> None:
    """Binary layout: magic, version, config blob, schema digest, then named
    tensors as little-endian float32, row-major. Each tensor is written
    straight from its array into the file. ValueError, before the file is
    opened, when an optimizer entry names no parameter of the model or its
    m or v has another shape than that parameter."""
    tensors: dict[str, np.ndarray] = dict(model.params)
    for site, state in model.bn_states.items():
        tensors.update(zip(_stat_names(site), (state.mean, state.var)))
    for name, st in (optimizer or {}).items():
        if name not in model.params:
            raise ValueError(f"optimizer entry {name!r} names no parameter of the model")
        if not st.m.shape == st.v.shape == model.params[name].shape:
            raise ValueError(
                f"optimizer entry {name!r} has m of shape {st.m.shape} and v of "
                f"shape {st.v.shape}; its parameter has {model.params[name].shape}")
        tensors.update(zip(_moment_names(name), (st.m, st.v, np.array([st.t], np.float32))))
    blob = json.dumps({"model": model.config.to_dict(),
                       "precision": model.precision}, sort_keys=True).encode("utf-8")
    digest = model.schema.digest().encode("ascii")
    with _atomic_file(Path(path)) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(digest)))
        fh.write(digest)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(_bytes_of(arr))


def _bytes_of(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array as a flat uint8 view (no copy)."""
    return arr.reshape(-1).view(np.uint8)


@contextmanager
def _atomic_file(path: Path):
    """Yield a binary file that replaces path when the block completes. It is
    written as a temporary file beside path and renamed over it, so a write
    that fails partway leaves the previous file intact. (This guards against
    a failing process, not a power loss: nothing is fsynced.)"""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, schema: DatasetSchema):
    """Rebuild a model (and optimizer state, when present) from a checkpoint.

    Refuses to load if the file is not a checkpoint, its format version is
    unknown, its config blob holds no valid model config and precision, the
    schema digest does not match, or the stored config does not fit the
    schema. The tensors are then read in one pass
    against _tensor_layout of the stored config, each checked before it is
    allocated: a UTF-8 name in the layout and not seen before, the layout's
    shape, and bytes the file still holds. Every parameter and batch-norm
    statistic must be present, and each optimizer entry needs m, v and t.
    Returns (model, optimizer_or_None)."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        left = st.st_size if stat.S_ISREG(st.st_mode) else math.inf  # a pipe: short reads tell

        def read(n: int) -> bytes:
            """The next n bytes, refused before reading when the file cannot
            hold them (fh.read would allocate the n bytes first)."""
            nonlocal left
            if n > left or len(b := fh.read(n)) != n:
                raise TruncatedCheckpointError(f"checkpoint truncated: wanted {n} more bytes")
            left -= n
            return b

        def u32() -> int:
            return struct.unpack("<I", read(4))[0]

        if (magic := read(4)) != CHECKPOINT_MAGIC:
            raise NotACheckpointError(f"{path} is not a checkpoint (magic {magic!r})")
        if (version := u32()) != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint format version {version} unsupported "
                f"(expected {CHECKPOINT_VERSION})")
        config, precision = _read_config_blob(path, read(u32()))
        digest = read(u32()).decode("ascii", "replace")
        expected = schema.digest()
        if digest != expected:
            raise SchemaDigestError(
                f"{path} was written against a different vocabulary: stored "
                f"schema digest {digest!r} does not match {expected!r}")
        try:
            shapes = param_shapes(config, schema.n_f, schema.t_f)
        except nn.ConfigError as exc:
            raise CheckpointError(
                f"{path}: stored model config does not fit the schema: {exc}") from exc
        known, stats, moments = _tensor_layout(shapes)
        tensors: dict[str, np.ndarray] = {}
        for _ in range(u32()):
            raw = read(u32())
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointTensorError(
                    f"checkpoint tensor name {raw!r} is not UTF-8") from None
            if name not in known:
                raise CheckpointTensorError(
                    f"checkpoint holds tensor {name!r}, which its config does not use")
            if name in tensors:
                raise CheckpointTensorError(f"checkpoint holds tensor {name!r} twice")
            ndim = u32()
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            if shape != known[name]:
                raise CheckpointTensorError(
                    f"checkpoint tensor {name!r} has shape {shape}, "
                    f"its config needs {known[name]}")
            if (nbytes := 4 * math.prod(shape)) > left:
                raise TruncatedCheckpointError(
                    f"checkpoint truncated: wanted {nbytes} more bytes")
            left -= nbytes
            arr = np.empty(shape, dtype="<f4")
            if fh.readinto(_bytes_of(arr)) != nbytes:
                raise TruncatedCheckpointError(
                    f"checkpoint truncated: wanted {nbytes} more bytes")
            tensors[name] = arr
    present = [names for names in moments.values() if not tensors.keys().isdisjoint(names)]
    for name in itertools.chain(shapes, *stats.values(), *present):
        if name not in tensors:
            raise CheckpointTensorError(
                f"checkpoint lacks tensor {name!r} of shape {known[name]}")
    dtype = nn.as_dtype(precision)
    loaded = {name: arr.astype(dtype, copy=False) for name, arr in tensors.items()}
    params = {name: loaded[name] for name in shapes}
    bn_states = {site: nn.BnState(mean=loaded[mean], var=loaded[var])
                 for site, (mean, var) in stats.items()}
    optimizer = {name: nn.AdamState(m=loaded[m], v=loaded[v], t=int(loaded[t][0]))
                 for name, (m, v, t) in moments.items() if m in loaded}
    return FgcnnModel(schema, config, params, bn_states, precision), optimizer or None


def _tensor_layout(shapes: dict[str, tuple[int, ...]]) -> tuple[dict, dict, dict]:
    """The tensors a checkpoint may hold for a model of these parameter
    shapes, as (known, stats, moments). known maps each name to its shape;
    stats maps each batch-norm site (model.bn_sites) to its running mean and
    variance, moments each parameter to its Adam m, v and t (all or none),
    by the names _stat_names and _moment_names give, as in save_checkpoint."""
    sites = bn_sites(shapes)
    stats = {site: _stat_names(site) for site in sites}
    moments = {name: _moment_names(name) for name in shapes}
    known = dict(shapes)
    known.update({n: (sites[site],) for site, names in stats.items() for n in names})
    for name, (m, v, t) in moments.items():
        known.update({m: shapes[name], v: shapes[name], t: (1,)})
    return known, stats, moments


def _stat_names(site: str) -> tuple[str, str]:
    return site + ".running_mean", site + ".running_var"


def _moment_names(name: str) -> tuple[str, str, str]:
    return "opt." + name + ".m", "opt." + name + ".v", "opt." + name + ".t"


def _read_config_blob(path, raw: bytes) -> tuple[ModelConfig, str]:
    """The model config and precision a checkpoint's config blob holds;
    CheckpointError naming path when it holds no valid pair."""
    try:
        blob = json.loads(raw.decode("utf-8"))
        if not (isinstance(blob, dict) and "model" in blob
                and isinstance(blob.get("precision"), str)):
            raise ValueError("not a JSON object with 'model' and a 'precision' string")
        nn.as_dtype(blob["precision"])
        return ModelConfig.from_dict(blob["model"]), blob["precision"]
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad config blob: {exc}") from exc


# ---------------------------------------------------------------------------
# parameter and multiply bookkeeping

@dataclass
class ComplexityReport:
    n_f: int
    t_f: int
    k: int
    t_fields: int
    round_fields: list[int]
    embedding_params: int
    conv_params: int
    recomb_weight_params: int
    recomb_bias_params: int
    clf_first_layer_weights: int
    clf_other_params: int
    predicted_total: int
    multiplies_featgen: int
    multiplies_classifier: int
    enumerated: dict[str, int]

    def to_text(self) -> str:
        lines = [
            f"fields (raw)              n_f = {self.n_f}",
            f"one-hot features          t_f = {self.t_f}",
            f"embedding size            k   = {self.k}",
            f"generated fields per round    {self.round_fields}",
            f"classifier input fields   T   = {self.t_fields}",
            "",
            f"embedding parameters (2*t_f*k)      {self.embedding_params}",
            f"conv kernel parameters              {self.conv_params}",
            f"recombination weights               {self.recomb_weight_params}",
            f"recombination biases                {self.recomb_bias_params}",
            f"classifier first-layer weights      {self.clf_first_layer_weights}",
            f"classifier remaining parameters     {self.clf_other_params}",
            f"predicted total                     {self.predicted_total}",
            "",
            f"multiplies per instance, generation {self.multiplies_featgen}",
            f"multiplies per instance, classifier {self.multiplies_classifier}",
            "",
            "enumerated tensor totals:",
        ]
        for key, val in self.enumerated.items():
            lines.append(f"  {key:<34}{val}")
        return "\n".join(lines)


def complexity_report(config: ModelConfig, n_f: int, t_f: int) -> ComplexityReport:
    """Predict per-component parameter counts from the configuration alone and
    enumerate the tensors the model would actually allocate. An invalid
    config raises ConfigError before any formula runs."""
    shapes = param_shapes(config, n_f, t_f)
    k = config.k
    n_tables = int(config.include_raw) + int(config.featgen is not None)
    embedding = n_tables * t_f * k
    conv = recomb_w = recomb_b = mult_fg = other = 0
    fg = config.featgen
    round_fields = [] if fg is None else fg_mod.round_field_counts(n_f, fg)
    if fg is not None and fg.style == "cnn":
        rows = fg_mod.rows_chain(n_f, fg)
        in_maps = 1
        for i in range(fg.n_c):
            conv += fg.kernel_heights[i] * in_maps * fg.feature_maps[i]
            mult_fg += rows[i] * k * fg.feature_maps[i] * fg.kernel_heights[i] * in_maps
            mult_fg += rows[i] * k * fg.feature_maps[i]        # pooling comparisons
            bn_width = fg.feature_maps[i]       # units the round's batch-norm sites normalize
            if fg.use_recombination:
                d_in = rows[i + 1] * k * fg.feature_maps[i]
                d_out = rows[i + 1] * k * fg.new_maps[i]
                recomb_w += d_in * d_out
                recomb_b += d_out
                mult_fg += d_in * d_out
                bn_width += d_out
            other += 2 * bn_width if fg.use_bn else 0
            in_maps = fg.feature_maps[i]
    t_fields = config.augmented_fields(n_f)

    clf = config.classifier
    first_w = 0
    if clf.kind in ("fm", "deepfm"):
        other += t_fields * k + 1                       # linear weights + bias
    if clf.kind != "fm":
        width = clf_mod.mlp_input_width(clf.kind, t_fields, k)
        sizes = list(clf.hidden_sizes)
        first_w = width * sizes[0]
        other += sizes[0]                               # first-layer bias
        if clf.use_bn:
            other += 2 * sizes[0]
        for prev, h in zip(sizes, sizes[1:]):
            other += prev * h + h + (2 * h if clf.use_bn else 0)
        other += sizes[-1] + 1                          # output projection
    if fg is not None and fg.style == "mlp":
        prev = n_f * k
        for n_i in round_fields:
            other += prev * (n_i * k) + n_i * k + (2 * n_i * k if fg.use_bn else 0)
            prev = n_i * k

    predicted = embedding + conv + recomb_w + recomb_b + first_w + other

    mult_clf = 0
    if clf.kind in ("ipnn", "fm", "deepfm"):
        mult_clf += t_fields * (t_fields - 1) * k // 2      # pairwise inner products
    if clf.kind != "fm":
        width = clf_mod.mlp_input_width(clf.kind, t_fields, k)
        for h in clf.hidden_sizes:
            mult_clf += width * h
            width = h
        mult_clf += width

    enumerated = _enumerate_shapes(shapes)
    return ComplexityReport(
        n_f=n_f, t_f=t_f, k=k, t_fields=t_fields, round_fields=round_fields,
        embedding_params=embedding, conv_params=conv,
        recomb_weight_params=recomb_w, recomb_bias_params=recomb_b,
        clf_first_layer_weights=first_w, clf_other_params=other,
        predicted_total=predicted, multiplies_featgen=mult_fg,
        multiplies_classifier=mult_clf, enumerated=enumerated,
    )


def _enumerate_shapes(shapes: dict[str, tuple[int, ...]]) -> dict[str, int]:
    """Tensor sizes grouped by component, from the shapes the builder
    allocates (no allocation)."""
    sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
    groups = {
        "embedding": 0, "conv_weights": 0, "recomb_weights": 0, "recomb_biases": 0,
        "clf_first_layer_weights": 0, "other": 0, "total": 0,
    }
    for name, size in sizes.items():
        groups["total"] += size
        if name.startswith("emb."):
            groups["embedding"] += size
        elif ".conv" in name and name.endswith(".w"):
            groups["conv_weights"] += size
        elif ".recomb" in name and name.endswith(".w") and ".bn" not in name:
            groups["recomb_weights"] += size
        elif ".recomb" in name and name.endswith(".b") and ".bn" not in name:
            groups["recomb_biases"] += size
        elif name == "clf.fc1.w":
            groups["clf_first_layer_weights"] += size
        else:
            groups["other"] += size
    return groups
