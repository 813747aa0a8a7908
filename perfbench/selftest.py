#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark, run from the checkout root:

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names with its
unit, that traced self times add up to the traced wall time, that bypassed
spans report zero calls, that a correctness check broken on purpose fails
the run, and that the benchmark refuses to run without the package source.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(proc, lines) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_metrics(result: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{label}: metric names/units {got} != {want}"
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], label


def main() -> int:
    zero_spans = {"toy": ["nn.batchnorm_fwd", "nn.batchnorm_bwd"],
                  "wide": ["nn.batchnorm_fwd", "nn.batchnorm_bwd",
                           "classifier.fm_fwd", "classifier.fm_bwd"],
                  "ref": []}
    for workload in ("toy", "ref", "wide"):
        res = result_of(*run(workload, 0))
        check_metrics(res, SPEC["end_to_end"], f"{workload} end-to-end")
        assert res["correct"] and res["failed"] == 0, f"{workload}: {res}"
        assert all(v["value"] > 0 for v in res["metrics"].values()), f"{workload}: zero metric"

        proc, lines = run(workload, 1)
        res = result_of(proc, lines)
        check_metrics(res, SPEC["per_layer"], f"{workload} per-layer")
        assert res["correct"] and res["failed"] == 0, f"{workload} traced: {lines[-2:]}"
        trace = json.loads(next(l for l in lines if l.startswith("trace "))[6:])
        gap = abs(trace["self_sum_s"] - trace["wall_s"])
        assert gap <= 0.01 * trace["wall_s"] + 0.005, f"{workload}: self times {trace}"
        assert trace["absent"] == [] and trace["broken_counters"] == [], trace
        m = res["metrics"]
        for span in zero_spans[workload]:
            assert m[f"{span}.calls"]["value"] == 0, f"{workload}: {span} was called"
        if workload == "ref":
            assert m["nn.batchnorm_fwd.calls"]["value"] > 0
        assert m["trace.overhead_ratio"]["value"] > 0
        print(f"ok {workload}: end-to-end and traced runs")

    for workload, sabotage in (("wide", "eval"), ("toy", "checkpoint")):
        proc, lines = run(workload, 0, "--sabotage", sabotage)
        res = result_of(proc, lines)
        detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
        assert not res["correct"] and res["failed"] >= 1, f"{sabotage}: {res}"
        assert all(f.startswith(sabotage) for f in detail["failures"]), detail["failures"]
        print(f"ok broken {sabotage} check fails the run: {detail['failures'][0]}")

    bare = BENCH_DIR / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, lines = run("toy", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the package source"
        assert not any(l.startswith("{") for l in lines), lines
        print("ok refuses to run without the package source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
