"""``tools/pairs.py``: seed ranges, the alternating order, the summary of a
round and the rounds kept in one BENCH file; ``perfbench/run.py`` is
replaced by a stub that reports fixed metrics."""

import importlib.util
import json
import pathlib

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

    def stub(tree, workload, seed, seconds, scale):
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


def test_trees_whose_paths_differ_in_length_are_refused(tmp_path, monkeypatch, capsys):
    (tmp_path / "change").mkdir()
    monkeypatch.setattr(pairs, "run_once", lambda *args: pytest.fail("a run started"))
    argv = ["--parent", str(tmp_path / "parent0"), "--change", str(tmp_path / "change"), "--workload", "sim"]
    with pytest.raises(SystemExit) as exc:
        pairs.main([*argv, "--seeds", "1"])
    assert exc.value.code == 2
    n = len(str(tmp_path / "change"))
    assert f"differ in length ({n + 1} and {n} characters)" in capsys.readouterr().err
