"""Interleaved parent/change pairs of the benchmark, written to one JSON file.

Usage:
    python3 tools/pairs.py --parent DIR --change DIR --workload W --seeds A-B
        [--seconds S] [--scale full|smoke] [--label LABEL]

DIR is a source tree each (for example a ``git archive`` of a commit).  For
every seed from A to B it runs ``perfbench/run.py --trace 0`` once for each
tree, alternating which side goes first (the parent in the first pair), so
that a drift of the host falls on both sides alike.  Each run starts from a
fresh copy of its tree (without ``.git`` and ``__pycache__``) at one path in
a temporary directory, the same for both sides, so that the path they run
from is no difference between them (verify's ``peak_rss_mb`` has stepped by
4-7 MB with the tree's path, and steps as well with the size of the
environment, which both sides share).  It changes nothing in the trees.

The round goes into ``BENCH_<LABEL>.json`` at the root of this repository,
next to the rounds of other workloads under the same label (a new round of
the same workload and scale replaces the old one).  A round holds every run
(seed, side, order, correctness, metrics and the host line) and, for each
end-to-end metric of the change tree's BENCHMARK.json, the medians and
quartiles of both sides, the number of pairs the change won and whether the
gap between the medians exceeds the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or one seed ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: float, scale: str, where: str) -> dict:
    """One untraced ``perfbench/run.py`` run of ``tree``, copied to ``where``
    and run from there: its correctness, metrics and host line."""
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(tree, where, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    cmd = [
        sys.executable, os.path.join(where, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--scale", scale,
    ]
    proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"correct": False, "failed": None, "metrics": {}}
    return {
        "correct": proc.returncode == 0 and report["correct"] is True,
        "failed": report["failed"],
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        "host": next((ln for ln in lines if ln.startswith("host:")), None),
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric: both sides' spread over the pairs where both runs
    were correct, the change's wins and whether the medians' gap exceeds the
    parent's quartile spread."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [p for p in by_seed.values() if all(p.get(side, {}).get("correct") for side in SIDES)]
    out = {}
    for m in declared if pairs else ():
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        parent, change = spread(values["parent"]), spread(values["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "better": m["better"],
            "parent": parent,
            "change": change,
            "rel_change": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the parent's source tree")
    ap.add_argument("--change", required=True, help="the change's source tree")
    ap.add_argument("--workload", required=True, choices=["sim", "monitor", "verify"])
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    ap.add_argument("--seconds", type=float, default=16.0, help="run.py --seconds")
    ap.add_argument("--scale", default="full", choices=["full", "smoke"])
    ap.add_argument("--label", default="pairs", help="writes BENCH_<label>.json at the repository root")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]

    runs = []
    with tempfile.TemporaryDirectory(prefix="bq2d-pairs-") as tmp:
        for k, seed in enumerate(args.seeds):
            for order, side in enumerate(SIDES if k % 2 == 0 else SIDES[::-1], start=1):
                result = run_once(trees[side], args.workload, seed, args.seconds, args.scale, os.path.join(tmp, "tree"))
                runs.append({"seed": seed, "side": side, "order": order, **result})
                shown = " ".join(f"{name}={value:.4g}" for name, value in result["metrics"].items())
                print(f"seed {seed} {side:6} correct={result['correct']} {shown}", flush=True)

    summary = summarize(runs, declared)
    for name, s in summary.items():
        print(
            f"{name}: {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}] -> "
            f"{s['change']['median']:.4g}, change better in {s['change_wins']}/{s['pairs']}"
        )
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    doc = {"label": args.label, "rounds": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    round_ = {
        "workload": args.workload,
        "scale": args.scale,
        "seconds": args.seconds,
        "seeds": [args.seeds[0], args.seeds[-1]],
        "command": "perfbench/run.py --trace 0",
        "runs": runs,
        "summary": summary,
    }
    doc["rounds"] = [r for r in doc["rounds"] if (r["workload"], r["scale"]) != (args.workload, args.scale)]
    doc["rounds"].append(round_)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
    print(f"wrote {path}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
