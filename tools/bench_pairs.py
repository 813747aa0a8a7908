#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write the perf record.

    python3 tools/bench_pairs.py --parent ../parent --change . --seeds 701-710 \\
        --pr N --claim ref.train_examples_per_s --trace ref

For every seed, `python3 perfbench/run.py --workload all --seed N` runs once
in each checkout, at the benchmark's own run length; the first pair starts with the change and the
order alternates from there. The final JSON line of every run is kept, and
BENCH_<pr>.json (written into the change checkout, or --out) is rewritten
after each pair, so an interrupted series keeps the pairs it finished. The
summary gives, per end-to-end metric of BENCHMARK.json and per workload,
the parent's and the change's quartiles, the wins of each side, whether the
median gain exceeds the parent's interquartile range, and whether the
change's median stays within the metric's bound ("unresolved" when either
side's interquartile range is wider than the bound allows, unless every change
run reads better than every parent run). It also totals
each side's attempted and failed operations; a change run that is not
correct, or a larger share of failed operations than the parent's, is
flagged and fails the claim. With --trace WORKLOAD, one
`perfbench/run.py --workload WORKLOAD --seed <first seed> --trace 1` runs
in each checkout, and the record's "trace" keeps every per-span self time
(the *.self_s metrics) and the loss digest of each side. Last, the Tier-1
test command runs once in each checkout and its pass counts and wall time
are recorded. The record
also carries each checkout's src_lines, the total `wc -l src/**/*.py`
prints, so the net line change of the change comes from the same command,
and in its "host" block the PYTHONDONTWRITEBYTECODE value the runs inherit
(null when unset): without a bytecode cache, every setup probe compiles the
package's sources, so setup_s figures compare only under the same value.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_seeds(text: str) -> list[int]:
    """'701-703,710' -> [701, 702, 703, 710]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def final_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    return json.loads(lines[-1])


def tagged_line(stdout: str, tag: str) -> dict:
    """The object of the first `<tag> {...}` line of a perfbench run
    (`--workload all` prefixes it with the workload name), or {} when there
    is none."""
    for line in stdout.splitlines():
        m = re.match(rf"(?:\S+ )?{tag} (\{{.*\}})$", line)
        if m:
            return json.loads(m.group(1))
    return {}


def env_line(stdout: str) -> dict:
    return tagged_line(stdout, "env")


def _side(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(median), 6),
            "q3": round(float(q3), 6)}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per-metric summary of pairs [{"parent": final_line, "change": final_line}].

    spec is BENCHMARK.json: every end-to-end metric is summarized for every
    workload whose name prefixes a metric key in the runs. A win is a pair
    in which one side is strictly better; ties count for neither.
    """
    summary: dict = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{wl}.{metric['name']}"
            if not all(key in p[s]["metrics"] for p in pairs for s in ("parent", "change")):
                continue
            par = [p["parent"]["metrics"][key]["value"] for p in pairs]
            chg = [p["change"]["metrics"][key]["value"] for p in pairs]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            ps, cs = _side(par), _side(chg)
            gain = sign * (cs["median"] - ps["median"])
            bound = metric["bound"]
            if min(sign * c for c in chg) > max(sign * p for p in par):
                within = True                 # every change run reads better
            elif any(q["q3"] - q["q1"] > bound * abs(q["median"]) for q in (ps, cs)):
                within = "unresolved"
            elif sign > 0:
                within = bool(cs["median"] >= ps["median"] * (1.0 - bound))
            else:
                within = bool(cs["median"] <= ps["median"] * (1.0 + bound))
            summary[key] = {
                "better": metric["better"],
                "bound": bound,
                "parent": ps,
                "change": cs,
                "change_over_parent": (round(cs["median"] / ps["median"], 4)
                                       if ps["median"] else None),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(par, chg)),
                "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(par, chg)),
                "median_gain_exceeds_parent_iqr": bool(gain > ps["q3"] - ps["q1"]),
                "within_bound": within,
            }
    return summary


def operations(pairs: list[dict]) -> dict:
    """Per side: operations attempted and failed over all runs, the failed
    share, and whether every run reported correct."""
    ops = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ops[side] = {"attempted": attempted, "failed": failed,
                     "failed_share": round(failed / max(attempted, 1), 6),
                     "all_correct": all(r["correct"] for r in runs)}
    return ops


def flags(ops: dict) -> list[str]:
    """What makes a comparison of the two sides untrustworthy."""
    out = [f"a {side} run is not correct" for side in ("parent", "change")
           if not ops[side]["all_correct"]]
    if ops["change"]["failed_share"] > ops["parent"]["failed_share"]:
        out.append("the change fails a larger share of operations than the parent")
    return out


def claim_block(summary: dict, key: str, pairs: list[dict]) -> dict:
    """The claimed metric: met when the change wins at least 9 pairs in 10,
    its median gain exceeds the parent's interquartile range and no run
    is flagged."""
    s, n_pairs, bad = summary[key], len(pairs), flags(operations(pairs))
    sign = 1.0 if s["better"] == "higher" else -1.0
    gain = sign * (s["change"]["median"] - s["parent"]["median"])
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    return {"metric": key,
            "parent_median": s["parent"]["median"],
            "parent_quartiles": [s["parent"]["q1"], s["parent"]["q3"]],
            "change_median": s["change"]["median"],
            "change_quartiles": [s["change"]["q1"], s["change"]["q3"]],
            "change_wins": s["change_wins"], "pairs": n_pairs,
            "median_gain": round(gain, 6), "parent_iqr": round(iqr, 6),
            "flags": bad,
            "met": bool(s["change_wins"] >= 0.9 * n_pairs and gain > iqr and not bad)}


def _perfbench(checkout: Path, *args: str) -> str:
    """Standard output of one `perfbench/run.py *args` run in checkout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark failed in {checkout}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_bench(checkout: Path, seed: int) -> tuple[dict, dict]:
    """(final line, env line) of one benchmark run in checkout."""
    stdout = _perfbench(checkout, "--workload", "all", "--seed", str(seed))
    return final_line(stdout), env_line(stdout)


def run_trace(checkout: Path, workload: str, seed: int) -> dict:
    """The loss digest and every per-span self time of one traced run."""
    stdout = _perfbench(checkout, "--workload", workload, "--seed", str(seed), "--trace", "1")
    metrics = final_line(stdout)["metrics"]
    return {"loss_digest": tagged_line(stdout, "detail").get("loss_digest"),
            "self_s": {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}}


def run_tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", tail)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "wall_s": round(wall, 2)}


def src_lines(checkout: Path) -> int:
    """Newlines in the checkout's src/**/*.py files: the total `wc -l` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def _head(checkout: Path) -> str:
    """HEAD's commit when checkout is the top level of a git work tree, with
    "+dirty" when tracked files differ from HEAD; "" otherwise, as in a
    `git archive` directory, which git would place in any enclosing
    repository."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    top = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "--verify", "-q", "HEAD").stdout.strip()
    if top.returncode or not head or Path(top.stdout.strip()).resolve() != checkout.resolve():
        return ""
    return head + ("+dirty" if git("diff", "--quiet", "HEAD").returncode else "")


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "?"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent commit checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--seeds", required=True, help="e.g. 701-710 or 701,703")
    ap.add_argument("--pr", required=True, help="number in the BENCH_<pr>.json name")
    ap.add_argument("--claim", help="claimed metric, e.g. ref.train_examples_per_s")
    ap.add_argument("--trace", metavar="WORKLOAD",
                    help="also record one --trace 1 run of WORKLOAD per side")
    ap.add_argument("--what", default="", help="one line on what the change does")
    ap.add_argument("--out", type=Path, help="default: <change>/BENCH_<pr>.json")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    out = args.out or args.change / f"BENCH_{args.pr}.json"
    seeds = parse_seeds(args.seeds)
    record: dict = {
        "what": args.what,
        "parent_commit": _head(args.parent),
        "change_commit": _head(args.change),
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "command": "python3 perfbench/run.py --workload all --seed <seed>",
        "host": {"cpu": _cpu(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "seeds": seeds,
        "order": "one parent run and one change run per seed, alternating which "
                 "goes first; the change ran first on the first seed",
        "runs": [],
    }
    for i, seed in enumerate(seeds):
        sides = ("change", "parent") if i % 2 == 0 else ("parent", "change")
        run = {"seed": seed, "first": sides[0]}
        for side in sides:
            run[side], env = run_bench(getattr(args, side), seed)
            record["host"].update(env)
        record["runs"].append(run)
        record["operations"] = operations(record["runs"])
        record["flags"] = flags(record["operations"])
        record["summary"] = summarize(record["runs"], spec)
        if args.claim:
            record["claim"] = claim_block(record["summary"], args.claim, record["runs"])
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"seed {seed}: {len(record['runs'])}/{len(seeds)} pairs written to {out}",
              flush=True)
    if args.trace:
        record["trace"] = {"command": f"python3 perfbench/run.py --workload {args.trace} "
                                      f"--seed {seeds[0]} --trace 1"}
        for side in ("change", "parent"):
            record["trace"][side] = run_trace(getattr(args, side), args.trace, seeds[0])
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:])}
    for side in ("parent", "change"):
        record["tier1"][side] = run_tier1(getattr(args, side))
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
