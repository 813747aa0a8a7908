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
- the `checks.run_suite()` dict.

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


def forced_cuts() -> dict:
    """One epoch of split_setup()'s model and its scores, with every cut forced."""
    states = []
    adam_state = nn.AdamState

    def recording_state(**kw):
        states.append(adam_state(**kw))
        return states[-1]

    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in FORCED]
    try:
        for mod, name, value in FORCED:
            setattr(mod, name, value)
        nn.AdamState = recording_state
        model, split = split_setup()
        history = training.train(model, split, training.TrainConfig(
            batch_size=192, learning_rate=1e-2, epochs=1, seed=5))
        scores = model.predict_scores(split)
    finally:
        nn.AdamState = adam_state
        for mod, name, value in saved:
            setattr(mod, name, value)
    tensors = {name: _tensor(p) for name, p in model.params.items()}
    for site, s in model.bn_states.items():
        tensors[site + ".mean"], tensors[site + ".var"] = _tensor(s.mean), _tensor(s.var)
    for name, s in zip(model.params, states):
        tensors["opt." + name + ".m"], tensors["opt." + name + ".v"] = _tensor(s.m), _tensor(s.v)
        tensors["opt." + name + ".t"] = s.t
    return {"train_loss": history[0]["train_loss"], "tensors": tensors,
            "scores": [float(x) for x in scores]}


def compute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        toy = toy_train(Path(tmp))
    return {"blas": blas(), "toy_train": toy, "forced_cuts": forced_cuts(),
            "run_suite": checks.run_suite()}


def main() -> int:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
