"""The process keeps freed memory (nn.keep_freed_memory), so a fresh array
may be a reused block that holds old values. The poison test makes every
np.empty and np.empty_like that src/ calls return NaN (floats) or the
dtype's maximum (integers): a read before write then changes the bytes of
a run every time, not only when a block happens to be reused. The fault
test checks that repeated ops no longer fault their arrays in again."""
import os
import platform
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from fgcnn import featuregen, model as model_mod, nn, training
from fgcnn.classifier import ClassifierConfig
from fgcnn.data import generate_synthetic, planted_spec, synthetic_schema
from fgcnn.featuregen import FeatureGenConfig
from fgcnn.model import FgcnnModel, ModelConfig
from fgcnn.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


POISONED = []      # the dtype of every poisoned array


def _poisoned(make):
    def poisoned(*args, **kwargs):
        out = make(*args, **kwargs)
        POISONED.append(out.dtype)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        elif out.dtype.kind in "iu":
            out.fill(np.iinfo(out.dtype).max)
        return out
    return poisoned


class _PoisonedNumpy:
    """numpy, but with poisoned empty and empty_like."""
    empty = staticmethod(_poisoned(np.empty))
    empty_like = staticmethod(_poisoned(np.empty_like))

    def __getattr__(self, name):
        return getattr(np, name)


def _poison(mp):
    for mod in (nn, featuregen, model_mod, training):
        mp.setattr(mod, "np", _PoisonedNumpy())


def _setup():
    """A float32 model with batch norm, dropout and both generation rounds;
    the first recombination is a product nn.matmul can split."""
    spec = planted_spec(n_f=8, cardinality=6, pair=(1, 5), strength=2.0, seed=2)
    split, _ = generate_synthetic(spec, 160)
    config = ModelConfig(
        k=16,
        classifier=ClassifierConfig(kind="ipnn", hidden_sizes=(16, 8), use_bn=True,
                                    dropout_keep=0.8),
        featgen=FeatureGenConfig(kernel_heights=(2, 2), feature_maps=(8, 6),
                                 new_maps=(4, 3), use_bn=True))
    schema = synthetic_schema(spec)
    return FgcnnModel.build(schema, config, 3, "f32"), split, schema


def _model_bytes(model, opt=None):
    out = {name: p.tobytes() for name, p in model.params.items()}
    for site, s in model.bn_states.items():
        out[site + ".bn"] = (s.mean.tobytes(), s.var.tobytes())
    for name, s in (opt or {}).items():
        out["opt." + name] = (s.m.tobytes(), s.v.tobytes(), s.t)
    return out


def _run(tmp_path, poison):
    """Every output of a forced-split train, evaluate and checkpoint round
    trip, as bytes."""
    states = []
    adam_state = nn.AdamState

    def recording_state(**kw):
        states.append(adam_state(**kw))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "HELPER_MIN", 0)       # every update on the helper
        mp.setattr(training, "ADAM_RANGE", 64)      # in ranges either thread takes
        mp.setattr(nn, "SPLIT_MIN", 0)              # every product that can split
        mp.setattr(model_mod, "GATHER_FORK_MIN", 0)
        mp.setattr(model_mod, "EVAL_SPLIT_MIN", 32)    # batches scored in two parts
        mp.setattr(nn, "AdamState", recording_state)
        if poison:
            _poison(mp)
        model, split, schema = _setup()
        config = TrainConfig(batch_size=48, learning_rate=1e-2, epochs=2, seed=4,
                             l2_embedding=1e-3)
        history = training.train(model, split, config, eval_split=split[:64])
        opt = dict(zip(model.params, states))
        trained = _model_bytes(model, opt)
        mp.setattr(nn, "SPLIT_MIN", 1 << 62)        # products whole: forks are parts alone
        metrics = training.evaluate(model, split, batch_size=64)
        scores = model.predict_scores(split).tobytes()
        path = tmp_path / f"poison{int(poison)}.ckpt"
        training.save_checkpoint(model, path, opt)
        loaded, loaded_opt = training.load_checkpoint(path, schema)
    return {"history": history, "trained": trained, "metrics": metrics, "scores": scores,
            "loaded": _model_bytes(loaded, loaded_opt), "file": path.read_bytes()}


def test_poisoned_fresh_arrays_leave_every_output_unchanged(tmp_path):
    """A 2-epoch train with the helper on and every split forced, evaluate,
    and a checkpoint round trip keep the bytes of an unpoisoned run."""
    want = _run(tmp_path, poison=False)
    assert all(np.isfinite(row["train_loss"]) for row in want["history"])
    assert want["loaded"] == want["trained"]
    POISONED.clear()
    got = _run(tmp_path, poison=True)
    assert np.dtype(np.float32) in POISONED
    assert [k for k in want if got[k] != want[k]] == []


# --- the malloc policy -------------------------------------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_repeated_evaluate_takes_almost_no_page_faults():
    """The toy model's 1024-row evaluate, four times in a fresh process:
    the third and fourth calls reuse the blocks of the first two."""
    script = textwrap.dedent("""
        import resource
        from fgcnn.config import load_config
        from fgcnn.data import generate_synthetic, planted_spec, synthetic_schema
        from fgcnn.model import FgcnnModel
        from fgcnn.training import evaluate

        cfg = load_config("configs/toy.cfg")
        spec = planted_spec()
        split, _ = generate_synthetic(spec, 1024)
        model = FgcnnModel.build(synthetic_schema(spec), cfg.model, 0, "f32")
        for _ in range(4):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            evaluate(model, split)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 4 and max(faults[2:]) < 64, faults


@pytest.mark.parametrize("libc, lib", [
    (("musl", "1.2.4"), None),
    (("", ""), None),
    (("glibc", "2.36"), types.SimpleNamespace()),          # no mallopt
])
def test_the_policy_makes_no_call_off_glibc_or_without_mallopt(monkeypatch, libc, lib):
    opened = []
    monkeypatch.setattr(nn.platform, "libc_ver", lambda *a, **kw: libc)
    monkeypatch.setattr(nn.ctypes, "CDLL", lambda name: opened.append(name) or lib)
    nn.keep_freed_memory()
    assert opened == ([None] if lib is not None else [])


def test_the_policy_keeps_freed_blocks_out_of_mmap_and_trim(monkeypatch):
    calls = []
    monkeypatch.setattr(nn.platform, "libc_ver", lambda *a, **kw: ("glibc", "2.36"))
    monkeypatch.setattr(nn.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        mallopt=lambda param, value: calls.append((param, value)) or 1))
    nn.keep_freed_memory()
    assert calls == [(-1, 2**31 - 1), (-4, 0)]     # M_TRIM_THRESHOLD, M_MMAP_MAX
