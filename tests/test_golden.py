"""The same numbers as the fixture in tests/golden/: the toy `fgcnn train`
artifacts, one epoch with every helper and split cut forced and the scores
after it, checks.run_suite(), and what the committed format-1 checkpoint
loads to. tools/regen_golden.py computes them here and rewrites the fixture
for a change that means to change them.

On the BLAS the fixture records, every output must match bit for bit. On
another BLAS, whose kernels may sum in another order, the test compares
within tolerances instead, and its message names both BLAS and every
mismatch:
- floats (losses, AUCs, scores, tensor norms): relative 1e-3;
- run_suite's float64 gradient-check errors: absolute 1e-6, against the
  gate of 1e-4;
- the schema sidecar, which no BLAS touches, by its sha256; the other
  sha256s are left to the norms beside them.
"""
import filecmp
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("regen_golden", ROOT / "tools" / "regen_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

WANT = json.loads(golden.FIXTURE.read_text(encoding="utf-8"))
SAME_BLAS = golden.blas() == WANT["blas"]


def _diff(got, want, close, path=""):
    """Paths where got differs from want: every leaf exactly when close is
    None, otherwise floats by close(got, want) and no sha256 but the
    schema's."""
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got.keys() ^ want.keys())}"]
        return [d for k in want for d in _diff(got[k], want[k], close, f"{path}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items, want {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _diff(g, w, close, f"{path}/{i}")]
    if close is None:
        same = got == want
    elif "sha256" in path.split("/"):
        same = got == want or not path.endswith("schema.txt")
    else:
        same = close(got, want) if isinstance(want, float) else got == want
    return [] if same else [f"{path}: {got!r}, want {want!r}"]


def _check(name, got, rel=1e-3, abs_=0.0):
    got = json.loads(json.dumps(got))
    close = None if SAME_BLAS else (lambda g, w: math.isclose(g, w, rel_tol=rel, abs_tol=abs_))
    bad = _diff(got, WANT[name], close, name)
    where = ("" if SAME_BLAS else
             f"BLAS {golden.blas()!r} is not the fixture's {WANT['blas']!r}: compared "
             f"within tolerance; ")
    assert not bad, where + f"{len(bad)} mismatches (tools/regen_golden.py rewrites the " \
                            f"fixture for an intended change): " + "; ".join(bad[:20])


def test_toy_train_artifacts_match_the_fixture(tmp_path):
    _check("toy_train", golden.toy_train(tmp_path))


def test_a_forced_cut_epoch_and_its_scores_match_the_fixture():
    _check("forced_cuts", golden.forced_cuts())


def test_run_suite_matches_the_fixture():
    _check("run_suite", golden.checks.run_suite(), rel=0.0, abs_=1e-6)


def test_the_committed_v1_checkpoint_loads_to_its_pinned_values(tmp_path):
    _check("v1_checkpoint", golden.v1_checkpoint())
    # and saving what it loads writes its bytes again
    model, optimizer = golden.training.load_checkpoint(
        golden.V1 / "model.ckpt", golden.DatasetSchema.load(golden.V1 / "schema.txt"))
    golden.training.save_checkpoint(model, tmp_path / "model.ckpt", optimizer=optimizer)
    assert (tmp_path / "model.ckpt").read_bytes() == (golden.V1 / "model.ckpt").read_bytes()


def test_cli_train_writes_the_same_bytes_whether_or_not_the_environment_pins_blas(tmp_path):
    """Importing fgcnn pins the BLAS pools where the environment does not."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    runs = {"pinned": {**env, "OPENBLAS_NUM_THREADS": "1"}, "unset": env}
    procs = [subprocess.Popen([sys.executable, "-m", "fgcnn.cli", "train", "--config",
                               str(ROOT / "configs" / "toy.cfg"), "--out", str(tmp_path / name)],
                              env=run_env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for name, run_env in runs.items()]
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err.decode()
    for name in golden.ARTIFACTS:
        assert filecmp.cmp(tmp_path / "pinned" / name, tmp_path / "unset" / name,
                           shallow=False), name
