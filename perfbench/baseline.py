"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json: SEEDS untraced runs (seeds 0, 1, ...) give each
end-to-end metric's median, quartiles and spread (IQR over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), and one traced
run (seed 0) gives the per-layer split.  The host and the run length are
recorded with the figures, which are comparable only on the same host.
The record is written to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    import numpy

    record = {
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
                 "machine": platform.machine()},
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(SEEDS)),
        "workloads": {},
    }
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run(w, seed, bench["run_seconds"], 0) for seed in range(SEEDS)]
        e2e = {m["name"]: summary([r[m["name"]] for r in runs]) for m in bench["end_to_end"]}
        for name, s in e2e.items():
            print(f"{w} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f}",
                  flush=True)
        record["workloads"][w] = {"end_to_end": e2e, "per_layer": run(w, 0, bench["run_seconds"], 1)}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
