"""The benchmark at smoke size, one short run per workload and one traced
wide run: every run is correct with no failed operation, and a traced run
finds every hooked span and computes every counter."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> dict[str, dict]:
    """The benchmark's tagged lines by tag, and its final JSON line as "result"."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--smoke", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(" ")
        tagged.setdefault(tag, json.loads(rest))
    return {**tagged, "result": json.loads(lines[-1])}


@pytest.mark.parametrize("workload, trace", [("toy", 0), ("ref", 0), ("wide", 0), ("wide", 1)])
def test_smoke_run_is_correct_with_no_failed_operation(workload, trace):
    out = _run("--workload", workload, "--trace", str(trace))
    result = out["result"]
    assert result["correct"] is True, out["detail"]
    assert result["attempted"] > 0 and result["failed"] == 0, out["detail"]
    assert out["detail"]["ops_failed"] == 0
    if trace:
        assert out["trace"]["absent"] == [] and out["trace"]["broken_counters"] == []
        assert result["metrics"]["embedding.assemble.calls"]["value"] > 0
    else:
        assert "trace" not in out
