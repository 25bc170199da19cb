"""bq2d benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sim --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads (see BENCHMARK.json and
workloads.py): ``sim``, ``monitor``, ``verify``.

``--trace 0`` reports the end-to-end metrics, measured untraced.  The times
are in reference seconds (probe.py): each timed interval is scaled by the
host-speed reference measured just before and after it, which removes the
drift of the shared host between runs.  The raw figures are printed too.

* ``setup_s``: median time from starting a fresh interpreter until it is
  ready to run (imports, config validation, initial data or calibration
  bump, grid caches), over SETUP_STARTS starts.
* ``wall_s``: median wall time of the workload's fixed job, repeated in one
  warm process for about ``--seconds`` seconds.
* ``steps_per_s``: median of solver steps per wall second over those jobs.
* ``peak_rss_mb``: peak resident memory of that process.

``--trace 1`` reports the per-layer metrics of BENCHMARK.json from traced
jobs (tracer.py); a span the workload declares but never fires fails the run.
The FFT flops and bytes are computed from array sizes and printed as such.

Every job's outputs are checked (workloads.check).  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it repeat the figures for a reader, with the error rate and the host
noise record (host reference before and after, steal share).  Spans of traced
runs are written to .perfbench_out/<workload>/spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 7
# per-layer metrics computed from array sizes in tracer.py (5 N log2 N flops, input + output bytes)
COMPUTED = ("fft.flops_per_step", "fft.bytes_per_step")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BQ2D_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, mode: str, out: str, timeout: float) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds until it reported ready, its result or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--mode", mode, "--seconds", str(args.seconds), "--out", out,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or rc != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {rc} before finishing")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def scales(refs: list[float]) -> list[float]:
    """Factor to reference seconds for each interval between consecutive reference timings."""
    return [probe.REFERENCE_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4g} q3={q3:.4g} n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["sim", "monitor", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", default="full", choices=["full", "smoke"], help="smoke: tiny n, for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "bq2d", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"no bq2d source tree (src/bq2d) and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        bench = json.load(fh)

    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    timeout = 3 * args.seconds + 120
    mode = "trace" if args.trace else "measure"
    res = spawn(args, mode, out, timeout)[1]

    if args.trace:
        declared = bench["per_layer"]
        values = dict(res["layers"])
        values["host.reference_ms"] = 1e3 * statistics.mean(res["refs"])
        values["host.steal_frac"] = res["steal_frac"]
    else:
        declared = bench["end_to_end"]
        raw_setups, setup_refs = [], [probe.reference_s()]
        for _ in range(SETUP_STARTS):
            raw_setups.append(spawn(args, "setup", out, timeout)[0])
            setup_refs.append(probe.reference_s())
        setups = [t * k for t, k in zip(raw_setups, scales(setup_refs))]
        walls = [t * k for t, k in zip(res["walls"], scales(res["refs"]))]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "steps_per_s": statistics.median(n / w for n, w in zip(res["steps"], walls)),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        print(f"setup_s samples: {quartiles(setups)}; raw seconds: median={statistics.median(raw_setups):.4g}")
        print(f"wall_s samples: {quartiles(walls)}; raw seconds: median={statistics.median(res['walls']):.4g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (" (computed)" if name in COMPUTED else ""))
    attempted, failed = res["attempted"], res["failed"]
    print(f"error_rate = {failed / max(attempted, 1):.6g} 1/op ({failed} of {attempted} operations failed)")
    refs = res["refs"]
    print(f"host: reference_s first={refs[0]:.4f} last={refs[-1]:.4f} median={statistics.median(refs):.4f} "
          f"(nominal {probe.REFERENCE_S}) steal_frac={res['steal_frac']:.4f}")
    for msg in res["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
