#!/usr/bin/env python3
"""Benchmark of the fgcnn package: train, eval, ingest and checkpoint
throughput on the toy, ref and wide workloads.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from src/.
--trace 0 times calls into the public functions with no hooks installed and
prints the end-to-end metrics; --trace 1 wraps each layer's functions and
prints per-layer self times, percentiles and counters. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy is imported: results (and the
# loss digest) are only comparable at one thread count.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import workloads
from hostspeed import REFERENCE_S, Calibration
from spans import COUNTER_SPAN, ONCE_PER_RUN, PER_BATCH, SpanStats, Tracer, tail_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_PROBES = 7
SABOTAGE = ("eval", "checkpoint")
PHASES = ("ingest", "build", "train", "eval", "checkpoint")


def import_package():
    """Import fgcnn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fgcnn
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fgcnn from {src}: {exc}")
    if src.resolve() not in Path(fgcnn.__file__).resolve().parents:
        raise SystemExit(f"perfbench: fgcnn imported from {fgcnn.__file__}, not {src}")
    return fgcnn


def probe_setup(config_path: str, schema_path: str) -> None:
    """Child process for setup_s: import, config and FgcnnModel.build."""
    import_package()
    from fgcnn.config import load_config
    from fgcnn.data import DatasetSchema
    from fgcnn.model import FgcnnModel

    cfg = load_config(config_path)
    schema = DatasetSchema.load(schema_path)
    model = FgcnnModel.build(schema, cfg.model, cfg.train.seed, cfg.train.precision)
    print(model.n_params(), time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


# ---------------------------------------------------------------------------
# independent output checks and summaries


@dataclass
class Sample:
    seconds: float              # wall time of one op
    units: int                  # examples or rows it processed
    calibration_s: float        # mean calibration kernel time around it (0: traced)

    @property
    def normalized(self) -> float:
        """Seconds on a host running the calibration kernel in REFERENCE_S."""
        return self.seconds * REFERENCE_S / self.calibration_s


def rank_auc(scores, labels) -> float:
    """Mann-Whitney AUC with average ranks on ties, for checking evaluate()."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    order = np.argsort(scores, kind="mergesort")
    _, inverse, counts = np.unique(scores[order], return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = np.empty(len(scores))
    ranks[order] = ((ends - counts + 1 + ends) / 2.0)[inverse]
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mean_logloss(scores, labels) -> float:
    p = np.clip(np.asarray(scores, dtype=float), 1e-7, 1 - 1e-7)
    y = np.asarray(labels, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log1p(-p))))


def loss_digest(history: list[dict]) -> str:
    blob = json.dumps([repr(row["train_loss"]) for row in history])
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"threads": THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# one workload


class Bench:
    """Runs one workload and accounts ops, timings and checks.

    A reference pass runs the workload as configured: ingest of the full
    files, build, training for the config's epochs, evaluation of the full
    test set and a checkpoint round trip. Every check anchors on it, and its
    timings are printed but not used for metrics. The metrics come from
    rounds of short fixed-size ops repeated until the deadline: ingest of
    files holding the leading rows, build, one epoch over the leading train
    chunk from a fresh build, evaluation of the reference model on the
    leading test chunk, and a checkpoint round trip of the reference model.
    Short ops give many samples, and each is scaled to a reference host
    speed (hostspeed.py), so the medians are stable on a shared host.

    An op is one phase call; it fails when it raises or fails one of its
    correctness checks. Checks run outside the timed regions.
    """

    def __init__(self, w, inputs, work: Path, sabotage: str | None):
        from fgcnn.config import load_config

        self.w = w
        self.inputs = inputs
        self.work = work
        self.sabotage = sabotage
        self.cfg = load_config(inputs.config)
        if w.epochs is not None:
            self.cfg.train = replace(self.cfg.train, epochs=w.epochs)
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_s: dict[str, float] = {}
        self.samples: dict[str, list[Sample]] = {p: [] for p in PHASES + ("setup",)}
        self.calibration = Calibration()
        self.first: dict[str, object] = {}   # first round result per phase
        self.ref: dict = {}                  # the reference pass's inputs and model
        self.round: dict = {}                # the current round's ingest and model
        self.history = None                  # reference loss history
        self.round_history = None
        self.metrics = None                  # (auc, logloss) of the full evaluation
        self.scores = None                   # reference model's full test scores
        self.stats = None                    # reference IngestStats, train and test
        self.checkpoint_bytes = 0
        self.probes = 0
        self.floor = max(w.auc_floor, w.bayes_ratio * rank_auc(inputs.test_probs,
                                                               inputs.test_labels))

    # -- plumbing --------------------------------------------------------

    def _op(self, phase: str, fn, check, reference: bool) -> bool:
        """fn returns (result, units of work); check(result) returns problems.
        Round ops of untraced runs are bracketed by the calibration kernel."""
        self.attempted += 1
        traced = self.tracer is not None and self.tracer.installed
        calibrate = not reference and self.tracer is None
        try:
            cal = self.calibration.seconds() if calibrate else 0.0
            with self.tracer.span("bench." + phase) if traced else nullcontext():
                t0 = time.perf_counter()
                result, units = fn()
                elapsed = time.perf_counter() - t0
            cal = (cal + self.calibration.seconds()) / 2 if calibrate else 0.0
            with self.tracer.suspended() if traced else nullcontext():
                problems = check(result)
        except Exception as exc:  # a phase that raises is a failed op, not a crash
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.extend(f"{phase}: {p}" for p in problems)
            return False
        if reference:
            self.reference_s[phase] = elapsed
        else:
            self.samples[phase].append(Sample(elapsed, units, cal))
        return True

    def _ingest(self, train_csv, test_csv, into: dict):
        from fgcnn import data

        d = self.cfg.data
        schema, train_set, s_train = data.fit_dataset(train_csv, d.min_count,
                                                      max_vals=d.max_vals)
        test_set, s_test = data.load_dataset(test_csv, schema, max_vals=d.max_vals)
        into.update(schema=schema, train=train_set, test=test_set)
        stats = {"train_rows": s_train.rows, "test_rows": s_test.rows,
                 "train_truncated": s_train.truncated_values,
                 "test_truncated": s_test.truncated_values,
                 "train_unknown": s_train.unknown_tokens,
                 "test_unknown": s_test.unknown_tokens}
        return stats, len(train_set) + len(test_set)

    def _build(self, into: dict):
        from fgcnn.model import FgcnnModel

        t = self.cfg.train
        into["model"] = FgcnnModel.build(self.ref["schema"], self.cfg.model, t.seed,
                                         t.precision)
        return into["model"], 1

    def _checkpoint(self):
        from fgcnn import training

        path = self.work / "model.ckpt"
        training.save_checkpoint(self.ref["model"], path)
        return training.load_checkpoint(path, self.ref["schema"])[0], 1

    # -- passes ------------------------------------------------------------

    def reference_pass(self) -> bool:
        from fgcnn import training

        ref, inputs = self.ref, self.inputs

        def train():
            t = self.cfg.train
            return training.train(ref["model"], ref["train"], t), len(ref["train"]) * t.epochs

        def evaluate():
            return training.evaluate(ref["model"], ref["test"]), len(ref["test"])

        return (self._op("ingest", lambda: self._ingest(inputs.train_csv, inputs.test_csv, ref),
                         self._check_reference_ingest, True)
                and self._op("build", lambda: self._build(ref), self._check_build, True)
                and self._op("train", train, self._check_reference_train, True)
                and self._op("eval", evaluate, self._check_reference_eval, True)
                and self._op("checkpoint", self._checkpoint, self._check_checkpoint, True))

    def one_round(self) -> bool:
        from fgcnn import training

        ref, rnd, inputs, w = self.ref, self.round, self.inputs, self.w
        t = replace(self.cfg.train, epochs=1)

        def train():
            return training.train(rnd["model"], ref["train"][:w.chunk_train], t), \
                min(w.chunk_train, len(ref["train"]))

        def evaluate():
            chunk = ref["test"][:w.chunk_test]
            return training.evaluate(ref["model"], chunk), len(chunk)

        def same_as_first(phase):
            def check(value):
                self.first.setdefault(phase, value)
                return [] if value == self.first[phase] else [
                    f"{value} differs from the first round's {self.first[phase]}"]
            return check

        def check_train(history):
            self.round_history = history
            return self._check_finite(history) + same_as_first("train")(loss_digest(history))

        def ingest():
            return self._ingest(inputs.ingest_train_csv, inputs.ingest_test_csv, {})

        short = range(w.short_op_repeats)
        return (all(self._op("ingest", ingest,
                             lambda stats: self._check_stats(stats, inputs.ingest_expect),
                             False) for _ in short)
                and self._op("build", lambda: self._build(rnd), self._check_build, False)
                and self._op("train", train, check_train, False)
                and self._op("eval", evaluate,
                             lambda m: same_as_first("eval")((m.auc, m.logloss)), False)
                and all(self._op("checkpoint", self._checkpoint, self._check_checkpoint,
                                 False) for _ in short))

    # -- correctness checks ------------------------------------------------

    @staticmethod
    def _check_stats(stats: dict, expect: dict) -> list[str]:
        want = {**expect, "train_unknown": 0}
        return [] if stats == want else [f"ingest stats {stats} != expected {want}"]

    def _check_reference_ingest(self, stats: dict) -> list[str]:
        self.stats = stats
        self.ref["schema"].save(self.work / "schema.txt")
        return self._check_stats(stats, self.inputs.expect)

    @staticmethod
    def _check_build(model) -> list[str]:
        bad = [n for n, p in model.params.items() if not np.all(np.isfinite(p))]
        return [f"non-finite initial tensors {bad}"] if bad else []

    @staticmethod
    def _check_finite(history) -> list[str]:
        losses = [row["train_loss"] for row in history]
        return [] if all(np.isfinite(losses)) else [f"non-finite epoch loss in {losses}"]

    def _check_reference_train(self, history) -> list[str]:
        self.history = history
        if self.sabotage == "eval":
            p = self.ref["model"].params
            p["clf.out.w"], p["clf.out.b"] = -p["clf.out.w"], -p["clf.out.b"]
        return self._check_finite(history)

    def _check_reference_eval(self, m) -> list[str]:
        if m.auc is None or m.auc < self.floor:
            return [f"eval auc {m.auc} below floor {self.floor:.4f}"]
        self.metrics = (m.auc, m.logloss)
        self.scores = self.ref["model"].predict_scores(self.ref["test"])
        labels = self.inputs.test_labels
        auc, ll = rank_auc(self.scores, labels), mean_logloss(self.scores, labels)
        if abs(auc - m.auc) > 1e-9 or abs(ll - m.logloss) > 1e-6:
            return [f"evaluate() reports auc {m.auc}, logloss {m.logloss}; "
                    f"its scores give {auc}, {ll}"]
        return []

    def _check_checkpoint(self, loaded) -> list[str]:
        # Unlinking drops the file's dirty pages, so no writeback from one
        # round trip slows the next.
        path = self.work / "model.ckpt"
        self.checkpoint_bytes = path.stat().st_size
        path.unlink()
        model, problems = self.ref["model"], []
        if self.sabotage == "checkpoint":
            first = sorted(loaded.params)[0]
            loaded.params[first] = loaded.params[first] + 1.0
        if set(loaded.params) != set(model.params) or not all(
                np.array_equal(loaded.params[n], model.params[n]) for n in model.params):
            problems.append("reloaded tensors differ from the trained model")
        if set(loaded.bn_states) != set(model.bn_states) or not all(
                np.array_equal(loaded.bn_states[k].mean, s.mean)
                and np.array_equal(loaded.bn_states[k].var, s.var)
                for k, s in model.bn_states.items()):
            problems.append("reloaded batch-norm statistics differ from the trained model")
        if self.scores is not None:
            # once per run; later round trips compare the reloaded tensors only
            if not np.array_equal(loaded.predict_scores(self.ref["test"]), self.scores):
                problems.append("reloaded model's scores differ bit-wise at f32")
            self.scores = None
        return problems

    # -- setup probes --------------------------------------------------------

    def probe_setup(self) -> None:
        """Time a fresh process from launch to a built model. Both sides read
        CLOCK_MONOTONIC, which is system-wide, so the child's interpreter
        teardown stays out of the figure."""
        self.attempted += 1
        self.probes += 1
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
               str(self.inputs.config), str(self.work / "schema.txt")]
        cal = self.calibration.seconds()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            out, err = proc.stdout.split(), proc.stderr
        except subprocess.TimeoutExpired:
            proc, out, err = None, [], "timed out"
        cal = (cal + self.calibration.seconds()) / 2
        if proc and proc.returncode == 0 and out[:1] == [str(self.ref["model"].n_params())]:
            self.samples["setup"].append(Sample(float(out[1]) - t0, 1, cal))
        else:
            self.failed += 1
            self.failures.append(f"setup probe printed {out}, stderr {err.strip()[-300:]!r}")

    # -- runs ----------------------------------------------------------------

    def run(self, seconds: float, probes: int) -> dict:
        """Rounds until the next one would overrun the deadline, with one
        setup probe after each of the first rounds."""
        deadline = time.perf_counter() + seconds
        ok, rounds, last = self.reference_pass(), 0, 0.0
        while ok and (rounds == 0 or time.perf_counter() + last <= deadline):
            t0 = time.perf_counter()
            ok = self.one_round()
            rounds += 1
            if ok and self.probes < probes:
                self.probe_setup()
            last = time.perf_counter() - t0
        while ok and self.probes < probes:
            self.probe_setup()
        return self.end_to_end()

    def run_traced(self, seconds: float) -> dict:
        """Reference pass, then rounds alternating traced and untraced until
        the deadline, at least one of each. The untraced rounds are the
        baseline for trace.overhead_ratio."""
        deadline = time.perf_counter() + seconds
        ok = self.reference_pass()
        self.tracer = Tracer()
        traced = {p: [] for p in PHASES}       # indices of traced samples
        rounds = 0
        while ok and (rounds == 0 or time.perf_counter() < deadline):
            start = {p: len(self.samples[p]) for p in PHASES}
            self.tracer.install()
            try:
                ok = self.one_round()
            finally:
                self.tracer.uninstall()
            rounds += ok
            for p in PHASES:
                traced[p].extend(range(start[p], len(self.samples[p])))
            ok = ok and self.one_round()
        train_s = [x.seconds for x in self.samples["train"]]
        untraced_s = [x for i, x in enumerate(train_s) if i not in traced["train"]]
        ratio = (statistics.median(train_s[i] for i in traced["train"])
                 / statistics.median(untraced_s) if rounds and untraced_s else 0.0)
        wall = sum(self.samples[p][i].seconds for p in PHASES for i in traced[p])
        return self.per_layer(rounds, ratio, wall)

    # -- metrics -------------------------------------------------------------

    def _rate(self, phase: str) -> float:
        """Median units per host-normalized second."""
        xs = self.samples[phase]
        return statistics.median(x.units / x.normalized for x in xs) if xs else 0.0

    def _seconds(self, phase: str) -> float:
        xs = self.samples[phase]
        return statistics.median(x.normalized for x in xs) if xs else 0.0

    def end_to_end(self) -> dict:
        auc, ll = self.metrics or (0.0, 0.0)
        return {
            "train_examples_per_s": (self._rate("train"), "examples/s"),
            "eval_examples_per_s": (self._rate("eval"), "examples/s"),
            "ingest_rows_per_s": (self._rate("ingest"), "rows/s"),
            "checkpoint_roundtrip_s": (self._seconds("checkpoint"), "s"),
            "setup_s": (self._seconds("setup"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MiB"),
            "eval_auc": (auc, "1"),
            "eval_logloss": (ll, "nats"),
        }

    def per_layer(self, rounds: int, overhead_ratio: float, wall: float) -> dict:
        """Per-span figures are per traced round; every round does the same work."""

        tr = self.tracer
        rounds = max(rounds, 1)
        out: dict[str, tuple[float, str]] = {}
        tails = {}
        for name in ONCE_PER_RUN + PER_BATCH:
            st = tr.stats.get(name, SpanStats())
            calls = st.calls / rounds
            out[f"{name}.self_s"] = (st.self_s / rounds, "s")
            out[f"{name}.calls"] = (int(calls) if calls.is_integer() else calls, "count")
            if name in PER_BATCH:
                ms = np.asarray(st.durations) * 1000.0
                q = tail_percentile(len(ms))
                tails[name] = q
                out[f"{name}.p50_ms"] = (float(np.median(ms)) if len(ms) else 0.0, "ms")
                out[f"{name}.tail_ms"] = (
                    float(np.percentile(ms, q)) if q else float(ms.max(initial=0.0)), "ms")
        c, s = tr.counters, self.stats or {}
        steps = tr.stats.get("model.backward_batch", SpanStats()).calls
        history = self.round_history or [{"n_clamped": 0}]
        out.update({
            "data.rows": (s.get("train_rows", 0) + s.get("test_rows", 0), "count"),
            "data.unknown_tokens": (s.get("train_unknown", 0) + s.get("test_unknown", 0),
                                    "count"),
            "data.truncated_values": (s.get("train_truncated", 0)
                                      + s.get("test_truncated", 0), "count"),
            "embedding.rows_gathered": (c.get("embedding.rows_gathered", 0.0) / rounds,
                                        "count"),
            "embedding.unique_row_ratio": (c.get("embedding.unique_rows", 0.0)
                                           / max(c.get("embedding.scatter_rows", 0.0), 1.0),
                                           "1"),
            "embedding.grad_bytes": (c.get("embedding.grad_bytes", 0.0), "bytes"),
            "nn.adam_bytes": (c.get("nn.adam_bytes_total", 0.0) / max(steps, 1), "bytes"),
            "classifier.clamped_ratio": (
                history[-1]["n_clamped"] / len(self.ref["train"][:self.w.chunk_train]), "1"),
            "training.checkpoint_bytes": (self.checkpoint_bytes, "bytes"),
            "trace.overhead_ratio": (overhead_ratio, "1"),
        })
        by_parent = {n: {p: v / rounds for p, v in tr.stats[n].self_by_parent.items()}
                     for n in sorted(tr.stats) if n.startswith("nn.")}
        print("trace " + json.dumps({
            "rounds": rounds, "wall_s": wall, "self_sum_s": tr.self_total(),
            "counter_s": tr.stats.get(COUNTER_SPAN, SpanStats()).self_s,
            "absent": tr.absent, "broken_counters": sorted(tr.broken_counters),
            "tail_percentile": tails, "nn_self_s_by_parent": by_parent}))
        return out

    def report(self) -> None:
        print("detail " + json.dumps({
            "workload": self.w.name, "ops_total": self.attempted, "ops_failed": self.failed,
            "loss_digest": loss_digest(self.history or []),
            "history": self.history, "auc_floor": self.floor,
            "reference_s": self.reference_s,
            "samples_s": {p: [round(x.seconds, 6) for x in xs]
                          for p, xs in self.samples.items()},
            "calibration_s": {p: [round(x.calibration_s, 6) for x in xs]
                              for p, xs in self.samples.items()},
            "failures": self.failures[:20]}))


def run_workload(args) -> dict:
    w = workloads.workload(args.workload, args.smoke)
    work = BENCH_DIR / "_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        inputs = workloads.generate(w, args.seed, work)
        bench = Bench(w, inputs, work, args.sabotage)
        if args.trace:
            metrics = bench.run_traced(args.seconds)
        else:
            metrics = bench.run(args.seconds, 2 if args.smoke else SETUP_PROBES)
        bench.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": bench.failed == 0 and bench.attempted > 0,
            "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name} {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--sabotage", choices=SABOTAGE,
                        help="break one output on purpose; its check must fail")
    parser.add_argument("--probe-setup", nargs=2, metavar=("CONFIG", "SCHEMA"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(*args.probe_setup)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        import_package()
        print("env " + json.dumps(environment()))
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
