#!/usr/bin/env python3
"""Compute the pinned outputs of tests/test_golden.py, or rewrite its fixture.

    PYTHONPATH=src python3 tools/regen_golden.py

writes tests/golden/golden.json from this checkout. Run it only for a change
that means to change these bits; the fixture's diff then shows them. The
pinned outputs are:

- the sha256 of the four artifacts of `fgcnn train --config configs/toy.cfg`,
  with the metrics records and each checkpoint tensor's norm;
- one epoch of training (tests/test_train_helper.py's `_split_setup()`
  model) with every cut forced: HELPER_MIN, SPLIT_MIN and GATHER_FORK_MIN
  at 0 and ADAM_RANGE at 64, in one batch of 192. Each parameter and Adam
  moment is pinned by its sha256 and norm, and the scores of predict_scores
  on the trained model, also with every cut forced, by their values;
- the `checks.run_suite()` dict;
- the committed format-1 checkpoint tests/golden/v1/model.ckpt and its
  schema sidecar: a tiny model with batch norm in generation and classifier,
  trained one epoch and saved with its Adam state. What load_checkpoint
  reads from it is pinned: every tensor by its sha256 and norm, each Adam
  t, and the scores of v1_split() by their values. These two files are
  frozen: they are format 1 as the first writer wrote it, the bytes every
  later loader must still read. The tool writes them only where they are
  missing (write_v1_checkpoint), and otherwise pins the committed files;
  to write them anew, delete tests/golden/v1/ first.

The fixture also records the BLAS as perfbench/run.py reads it. BLAS and
OpenMP pools are pinned to one thread, as in the tests and the benchmark.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from fgcnn import checks, nn, training  # noqa: E402
from fgcnn import model as model_mod  # noqa: E402
from fgcnn.classifier import ClassifierConfig  # noqa: E402
from fgcnn.cli import main as cli_main  # noqa: E402
from fgcnn.data import DatasetSchema, generate_synthetic, planted_spec, synthetic_schema  # noqa: E402
from fgcnn.featuregen import FeatureGenConfig  # noqa: E402
from fgcnn.model import FgcnnModel, ModelConfig  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "golden" / "golden.json"
V1 = ROOT / "tests" / "golden" / "v1"
ARTIFACTS = ("metrics.jsonl", "metrics.txt", "model.ckpt", "schema.txt")
FORCED = ((training, "HELPER_MIN", 0), (training, "ADAM_RANGE", 64),
          (nn, "SPLIT_MIN", 0), (model_mod, "GATHER_FORK_MIN", 0))


def blas() -> str:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tensor(arr: np.ndarray) -> dict:
    return {"sha256": _sha256(np.ascontiguousarray(arr).tobytes()),
            "norm": float(np.linalg.norm(arr.astype(np.float64).reshape(-1)))}


def toy_train(out: Path) -> dict:
    """The artifacts of `fgcnn train --config configs/toy.cfg --out out`."""
    if cli_main(["train", "--config", str(ROOT / "configs" / "toy.cfg"), "--out", str(out)]):
        raise RuntimeError("fgcnn train failed")
    model, _ = training.load_checkpoint(out / "model.ckpt",
                                        DatasetSchema.load(out / "schema.txt"))
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    return {"sha256": {name: _sha256((out / name).read_bytes()) for name in ARTIFACTS},
            "records": records,
            "checkpoint": {name: _tensor(p) for name, p in model.params.items()}}


def split_setup():
    """tests/test_train_helper.py's _split_setup(): a float32 model whose
    first recombination is a product above nn.SPLIT_MIN at a batch of 64."""
    spec = planted_spec(n_f=8, cardinality=6, pair=(1, 5), strength=2.0, seed=2)
    split, _ = generate_synthetic(spec, 192)
    config = ModelConfig(
        k=32, classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(16,)),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(16,), new_maps=(8,),
                                 style="cnn"))
    return FgcnnModel.build(synthetic_schema(spec), config, 0, "f32"), split


def train_keeping_adam(model, split, config) -> tuple[list[dict], dict]:
    """training.train's history and the Adam state it made for each
    parameter, by name."""
    states = []
    adam_state = nn.AdamState

    def recording_state(**kw):
        states.append(adam_state(**kw))
        return states[-1]

    nn.AdamState = recording_state
    try:
        history = training.train(model, split, config)
    finally:
        nn.AdamState = adam_state
    return history, dict(zip(model.params, states))


def _state_tensors(model, optimizer) -> dict:
    tensors = {name: _tensor(p) for name, p in model.params.items()}
    for site, s in model.bn_states.items():
        tensors[site + ".mean"], tensors[site + ".var"] = _tensor(s.mean), _tensor(s.var)
    for name, s in optimizer.items():
        tensors["opt." + name + ".m"], tensors["opt." + name + ".v"] = _tensor(s.m), _tensor(s.v)
        tensors["opt." + name + ".t"] = s.t
    return tensors


def forced_cuts() -> dict:
    """One epoch of split_setup()'s model and its scores, with every cut forced."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in FORCED]
    try:
        for mod, name, value in FORCED:
            setattr(mod, name, value)
        model, split = split_setup()
        history, states = train_keeping_adam(model, split, training.TrainConfig(
            batch_size=192, learning_rate=1e-2, epochs=1, seed=5))
        scores = model.predict_scores(split)
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
    return {"train_loss": history[0]["train_loss"], "tensors": _state_tensors(model, states),
            "scores": [float(x) for x in scores]}


def v1_split():
    """The 48-row synthetic split the v1 checkpoint was trained on, and its schema."""
    spec = planted_spec(n_f=4, cardinality=3, pair=(0, 2), strength=2.0, seed=3)
    return generate_synthetic(spec, 48)[0], synthetic_schema(spec)


def write_v1_checkpoint() -> None:
    """Train a tiny float32 model with batch norm at every site one epoch
    and write its checkpoint, with the Adam state, and its schema to V1."""
    split, schema = v1_split()
    config = ModelConfig(
        k=2, classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(4,), use_bn=True),
        featgen=FeatureGenConfig(kernel_heights=(2,), feature_maps=(2,), new_maps=(1,),
                                 use_bn=True))
    model = FgcnnModel.build(schema, config, 3, "f32")
    _, states = train_keeping_adam(model, split, training.TrainConfig(
        batch_size=16, learning_rate=1e-2, epochs=1, seed=3))
    V1.mkdir(parents=True, exist_ok=True)
    training.save_checkpoint(model, V1 / "model.ckpt", optimizer=states)
    schema.save(V1 / "schema.txt")


def v1_checkpoint() -> dict:
    """What load_checkpoint reads from the committed v1 checkpoint: every
    tensor and Adam t, and the model's scores of v1_split()."""
    model, optimizer = training.load_checkpoint(V1 / "model.ckpt",
                                                DatasetSchema.load(V1 / "schema.txt"))
    return {"tensors": _state_tensors(model, optimizer),
            "scores": [float(x) for x in model.predict_scores(v1_split()[0])]}


def compute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        toy = toy_train(Path(tmp))
    return {"blas": blas(), "toy_train": toy, "forced_cuts": forced_cuts(),
            "run_suite": checks.run_suite(), "v1_checkpoint": v1_checkpoint()}


def main() -> int:
    if not ((V1 / "model.ckpt").exists() and (V1 / "schema.txt").exists()):
        write_v1_checkpoint()
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
