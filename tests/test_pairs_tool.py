"""``tools/pairs.py``: seed ranges, the alternating order, the summary of a
round, the rounds kept in one BENCH file and the one path both sides run
from; ``perfbench/run.py`` is replaced by a stub that reports fixed metrics."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

DECLARED = [{"name": "wall_s", "better": "lower"}, {"name": "steps_per_s", "better": "higher"}]


def test_seed_ranges():
    assert pairs.parse_seeds("3-6") == [3, 4, 5, 6]
    assert pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        pairs.parse_seeds("6-3")


def _run(seed, side, wall, correct=True):
    return {"seed": seed, "side": side, "correct": correct, "metrics": {"wall_s": wall, "steps_per_s": 1.0 / wall}}


def test_summary_counts_wins_over_correct_pairs_only():
    runs = []
    for seed, (parent, change) in enumerate([(1.0, 0.9), (1.1, 0.95), (0.9, 1.0), (1.0, 0.5)]):
        runs += [_run(seed, "parent", parent), _run(seed, "change", change, correct=seed != 3)]
    s = pairs.summarize(runs, DECLARED)
    assert s["wall_s"]["pairs"] == 3 and s["wall_s"]["change_wins"] == 2
    assert s["steps_per_s"]["change_wins"] == 2
    assert s["wall_s"]["parent"]["median"] == 1.0 and s["wall_s"]["change"]["median"] == 0.95
    assert s["wall_s"]["gap_exceeds_parent_iqr"] is False  # 0.05 against the parent's 0.9 .. 1.1
    assert pairs.summarize([_run(0, "parent", 1.0)], DECLARED) == {}


def test_alternating_order_and_rounds_in_one_file(tmp_path, monkeypatch):
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    seen = []

    def stub(tree, workload, seed, seconds, scale, where):
        side = pathlib.Path(tree).name
        seen.append((seed, side))
        return {"correct": True, "failed": 0, "metrics": {"wall_s": 1.0 if side == "parent" else 0.8, "steps_per_s": 2.0}, "host": "host: stub"}

    monkeypatch.setattr(pairs, "run_once", stub)
    monkeypatch.setattr(pairs, "ROOT", str(tmp_path))
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--seeds", "10-12", "--label", "t"]
    assert pairs.main([*argv, "--workload", "sim"]) == 0
    assert seen == [(10, "parent"), (10, "change"), (11, "change"), (11, "parent"), (12, "parent"), (12, "change")]
    assert pairs.main([*argv, "--workload", "verify"]) == 0
    assert pairs.main([*argv, "--workload", "sim"]) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [r["workload"] for r in doc["rounds"]] == ["verify", "sim"]
    sim = doc["rounds"][1]
    assert [(r["seed"], r["order"]) for r in sim["runs"]][:2] == [(10, 1), (10, 2)]
    assert sim["summary"]["wall_s"]["change_wins"] == 3 and sim["summary"]["wall_s"]["gap_exceeds_parent_iqr"]


def _files(tree: pathlib.Path) -> dict:
    return {str(p.relative_to(tree)): p.read_bytes() for p in sorted(tree.rglob("*")) if p.is_file()}


def test_both_sides_run_from_one_path_and_the_trees_stay_as_they_were(tmp_path, monkeypatch):
    for side, name in (("parent", "p.d"), ("change", "change_with_a_longer_name.d")):
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(f"SIDE = {side!r}\n")
        (tree / ".git").mkdir()
        (tree / ".git" / "HEAD").write_text("ref\n")
    (tmp_path / "change_with_a_longer_name.d" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    before = {name: _files(tmp_path / name) for name in ("p.d", "change_with_a_longer_name.d")}
    seen = {}

    def fake_run(cmd, cwd, **kwargs):
        script = pathlib.Path(cmd[1])
        side = script.read_text().split("'")[1]  # the copy holds the side's own run.py
        assert not (pathlib.Path(cwd) / ".git").exists()
        (pathlib.Path(cwd) / "perfbench" / "out.txt").write_text("a run's output\n")
        seen.setdefault(side, set()).add((cmd[1], cwd))
        report = {"correct": True, "failed": 0, "metrics": {m["name"]: {"value": 1.0} for m in DECLARED}}
        return subprocess.CompletedProcess(cmd, 0, "host: stub\n" + json.dumps(report) + "\n", "")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(pairs, "ROOT", str(tmp_path))
    argv = ["--parent", str(tmp_path / "p.d"), "--change", str(tmp_path / "change_with_a_longer_name.d")]
    assert pairs.main([*argv, "--workload", "verify", "--seeds", "1-2", "--label", "t"]) == 0
    assert len(seen["parent"]) == 1 and seen["parent"] == seen["change"]  # one script path and cwd for all four runs
    assert {name: _files(tmp_path / name) for name in before} == before
    assert not pathlib.Path(next(iter(seen["parent"]))[1]).exists()  # the copy went with its temporary directory
