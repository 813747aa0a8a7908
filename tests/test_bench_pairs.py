import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"workloads": [{"name": "ref"}, {"name": "toy"}],
        "end_to_end": [{"name": "train_examples_per_s", "better": "higher", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]}


def _line(train, rss, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "ref.train_examples_per_s": {"value": train, "unit": "examples/s"},
        "ref.peak_rss_mb": {"value": rss, "unit": "MiB"}}})


def _pairs(parent, change):
    def run(final):
        return bench_pairs.final_line(f"env {{}}\ndetail {{}}\n{final}\n\n")
    return [{"parent": run(_line(*p)), "change": run(_line(*c))}
            for p, c in zip(parent, change)]


def test_summary_of_canned_final_lines():
    pairs = _pairs(parent=[(100, 500), (110, 510), (90, 490), (105, 505), (95, 495)],
                   change=[(120, 600), (130, 590), (100, 580), (104, 500), (125, 610)])
    s = bench_pairs.summarize(pairs, SPEC)
    assert set(s) == {"ref.train_examples_per_s", "ref.peak_rss_mb"}   # no toy keys
    t = s["ref.train_examples_per_s"]
    assert t["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert t["change"] == {"q1": 104.0, "median": 120.0, "q3": 125.0}
    assert (t["change_wins"], t["parent_wins"]) == (4, 1)
    assert t["change_over_parent"] == 1.2
    assert t["median_gain_exceeds_parent_iqr"] is True       # 20 > 10
    assert t["within_bound"] is True
    r = s["ref.peak_rss_mb"]                                  # lower is better
    assert r["parent"]["median"] == 500.0 and r["change"]["median"] == 590.0
    assert (r["change_wins"], r["parent_wins"]) == (1, 4)
    assert r["median_gain_exceeds_parent_iqr"] is False
    assert r["within_bound"] is False                         # 590 > 500 * 1.15
    claim = bench_pairs.claim_block(s, "ref.train_examples_per_s", pairs)
    assert claim["median_gain"] == 20.0 and claim["parent_iqr"] == 10.0
    assert claim["change_wins"] == 4 and claim["met"] is False   # 4 of 5 < 90%
    assert claim["flags"] == []


def test_ties_count_for_neither_side_and_claim_needs_nine_in_ten():
    parent = [(100, 500)] * 10
    change = [(100, 500)] + [(150, 500)] * 9
    s = bench_pairs.summarize(_pairs(parent, change), SPEC)
    r = s["ref.peak_rss_mb"]
    assert (r["change_wins"], r["parent_wins"]) == (0, 0) and r["within_bound"] is True
    claim = bench_pairs.claim_block(s, "ref.train_examples_per_s", _pairs(parent, change))
    assert claim["change_wins"] == 9 and claim["met"] is True


def test_failed_operations_flag_the_record_and_fail_the_claim():
    parent = [(100, 500)] * 10
    change = [(150, 500)] * 9 + [(150, 500, 3)]                  # one run fails 3 of 10
    pairs = _pairs(parent, change)
    ops = bench_pairs.operations(pairs)
    assert ops["parent"] == {"attempted": 100, "failed": 0, "failed_share": 0.0,
                             "all_correct": True}
    assert ops["change"] == {"attempted": 100, "failed": 3, "failed_share": 0.03,
                             "all_correct": False}
    assert bench_pairs.flags(ops) == [
        "a change run is not correct",
        "the change fails a larger share of operations than the parent"]
    s = bench_pairs.summarize(pairs, SPEC)
    claim = bench_pairs.claim_block(s, "ref.train_examples_per_s", pairs)
    assert claim["change_wins"] == 10 and claim["median_gain"] == 50.0
    assert claim["met"] is False and len(claim["flags"]) == 2
    # failures at the parent only: the comparison is still flagged
    pairs = _pairs([(100, 500, 1)] + parent[1:], [(150, 500)] * 10)
    assert bench_pairs.flags(bench_pairs.operations(pairs)) == ["a parent run is not correct"]
    claim = bench_pairs.claim_block(bench_pairs.summarize(pairs, SPEC),
                                    "ref.train_examples_per_s", pairs)
    assert claim["met"] is False


def test_within_bound_is_unresolved_when_a_side_spreads_wider_than_the_bound():
    steady = [(100, 500)] * 4
    wide = [(60, 500), (80, 500), (120, 500), (140, 500)]       # IQR 30 > 0.25 * 100
    for parent, change in ((wide, steady), (steady, wide)):
        s = bench_pairs.summarize(_pairs(parent, change), SPEC)
        assert s["ref.train_examples_per_s"]["within_bound"] == "unresolved"
        assert s["ref.peak_rss_mb"]["within_bound"] is True
    better = [(150, 500), (160, 500), (190, 500), (200, 500)]     # all above the parent
    s = bench_pairs.summarize(_pairs(wide, better), SPEC)
    assert s["ref.train_examples_per_s"]["within_bound"] is True


@pytest.mark.parametrize("text, seeds", [("701-703", [701, 702, 703]),
                                         ("5,9-10", [5, 9, 10]), ("4", [4])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_final_line_rejects_empty_output():
    with pytest.raises(ValueError):
        bench_pairs.final_line("\n \n")


def test_env_line_with_and_without_workload_prefix():
    env = {"threads": 1, "nproc": 2}
    assert bench_pairs.env_line(f"toy env {json.dumps(env)}\ntoy {{}}\n") == env
    assert bench_pairs.env_line(f"env {json.dumps(env)}\n{{}}\n") == env
    assert bench_pairs.env_line("detail {}\n{}\n") == {}


@pytest.mark.parametrize("code", [0, 1])
def test_run_bench_rejects_a_failing_exit_even_with_output(tmp_path, code):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('toy env {\"nproc\": 2}')\n"
        f"print({_line(100, 500)!r})\n"
        f"sys.exit({code})\n")
    if code:
        with pytest.raises(RuntimeError):
            bench_pairs.run_bench(tmp_path, seed=1)
    else:
        final, env = bench_pairs.run_bench(tmp_path, seed=1)
        assert final["correct"] is True and env == {"nproc": 2}


def _checkout(path, src_files):
    """A checkout whose benchmark prints one canned final line."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(f"print({_line(100, 500)!r})\n")
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for name, text in src_files.items():
        (path / "src" / name).parent.mkdir(parents=True, exist_ok=True)
        (path / "src" / name).write_text(text)
    return path


def test_src_lines_is_the_wc_total_of_the_python_sources(tmp_path):
    root = _checkout(tmp_path, {"pkg/a.py": "a\nb\nc\n", "pkg/sub/b.py": "d\ne",
                                "pkg/notes.txt": "x\ny\n", "top.py": ""})
    assert bench_pairs.src_lines(root) == 3 + 1
    if shutil.which("wc"):
        files = sorted(str(p) for p in (root / "src").rglob("*.py"))
        out = subprocess.run(["wc", "-l", *files], capture_output=True, text=True).stdout
        assert int(out.splitlines()[-1].split()[0]) == 4


def test_record_carries_src_lines_of_each_side(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", {"m.py": "1\n2\n3\n"})
    change = _checkout(tmp_path / "change", {"m.py": "1\n"})
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: {})
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--seeds", "1", "--pr", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}


@pytest.mark.parametrize("value", [None, "1"])
def test_record_host_carries_pythondontwritebytecode(tmp_path, monkeypatch, value):
    parent = _checkout(tmp_path / "parent", {"m.py": "1\n"})
    change = _checkout(tmp_path / "change", {"m.py": "1\n"})
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: {})
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--seeds", "1", "--pr", "0", "--out", str(out)]) == 0
    host = json.loads(out.read_text())["host"]
    assert "PYTHONDONTWRITEBYTECODE" in host and host["PYTHONDONTWRITEBYTECODE"] == value


def _traced_checkout(path, save_s, digest):
    """A checkout whose benchmark prints canned pair lines, and for --trace 1
    a detail line with digest and a final line with save_s as a self time."""
    _checkout(path, {"m.py": "1\n"})
    traced = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "training.save_checkpoint.self_s": {"value": save_s, "unit": "s"},
        "data.build_vocab.self_s": {"value": 0.5, "unit": "s"},
        "data.build_vocab.calls": {"value": 1, "unit": "count"}}})
    (path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "if sys.argv[1:] == ['--workload', 'wide', '--seed', '7', '--trace', '1']:\n"
        "    print('env {}')\n"
        f"    print('detail ' + json.dumps({{'loss_digest': {digest!r}}}))\n"
        f"    print({traced!r})\n"
        "elif sys.argv[1:3] == ['--workload', 'all']:\n"
        f"    print({_line(100, 500)!r})\n"
        "else:\n"
        "    sys.exit('unexpected arguments %s' % sys.argv[1:])\n")
    return path


def test_trace_records_every_self_time_of_one_traced_run_per_side(tmp_path, monkeypatch):
    parent = _traced_checkout(tmp_path / "parent", 0.25, "aa")
    change = _traced_checkout(tmp_path / "change", 0.125, "bb")
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda checkout: {})
    out = tmp_path / "BENCH_0.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--seeds", "7-8", "--pr", "0", "--out", str(out),
                             "--trace", "wide"]) == 0
    record = json.loads(out.read_text())
    assert len(record["runs"]) == 2
    assert record["trace"] == {
        "command": "python3 perfbench/run.py --workload wide --seed 7 --trace 1",
        "parent": {"loss_digest": "aa", "self_s": {"training.save_checkpoint.self_s": 0.25,
                                                   "data.build_vocab.self_s": 0.5}},
        "change": {"loss_digest": "bb", "self_s": {"training.save_checkpoint.self_s": 0.125,
                                                   "data.build_vocab.self_s": 0.5}}}
    out.unlink()
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--seeds", "7", "--pr", "0", "--out", str(out)])
    assert "trace" not in json.loads(out.read_text())


def test_tagged_line_reads_the_first_line_of_its_tag():
    text = 'env {"a": 1}\nwide detail {"loss_digest": "x"}\ndetail {"loss_digest": "y"}\n{}\n'
    assert bench_pairs.tagged_line(text, "detail") == {"loss_digest": "x"}
    assert bench_pairs.tagged_line(text, "trace") == {}


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                   cwd=cwd, check=True, capture_output=True)


def test_head_names_a_commit_only_for_a_work_tree_top_level(tmp_path):
    """Clean: the commit. Tracked changes: the commit + "+dirty" (an
    untracked file is not a change). A `git archive` directory, inside
    another repository or not, and a subdirectory of a work tree: ""."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                            text=True, check=True).stdout.strip()
    assert len(commit) == 40
    (repo / "notes.txt").write_text("untracked\n")
    assert bench_pairs._head(repo) == commit
    (repo / "src" / "a.py").write_text("x = 2\n")
    assert bench_pairs._head(repo) == commit + "+dirty"
    _git(repo, "add", "src/a.py")                  # staged counts as a change too
    assert bench_pairs._head(repo) == commit + "+dirty"
    assert bench_pairs._head(repo / "src") == ""
    archive = tmp_path / "parent.tar"
    _git(repo, "archive", "-o", str(archive), "HEAD")
    for where in (tmp_path / "outside", repo / "inside"):
        where.mkdir()
        shutil.unpack_archive(archive, where)
        assert (where / "src" / "a.py").read_text() == "x = 1\n"
        assert bench_pairs._head(where) == ""
