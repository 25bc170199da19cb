"""One workload process, started by run.py.

It sets up (imports, config, initial data, grid caches), prints ``ready``,
and then, unless ``--mode setup``, runs the workload's job repeatedly for
about ``--seconds`` seconds (at least MIN_JOBS times) and prints one JSON line with the results:

* ``measure``: untraced jobs; wall time and steps of each job, and the
  host-speed reference (probe.py) before the first job and after every job.
* ``trace``: untraced and traced jobs alternately; the per-layer figures of
  the traced ones and the tracing overhead.

Every job's outputs go through the correctness oracle after its timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import probe
import workloads
from tracer import Tracer, layer_metrics

# The median of at least three jobs ignores one slow job: the first in a process runs about
# 10% slower (the allocator has not yet adapted its mmap threshold), and host contention
# slows single jobs by up to 30%.
MIN_JOBS = 3


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host, from /proc/stat; (0, 0) if unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice], guests already in user/nice
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


class Runner:
    def __init__(self, spec: workloads.Spec, out: str):
        self.spec = spec
        self.work = os.path.join(out, "work")
        self.frozen = workloads.load_frozen()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def job(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """One timed job plus its oracle; returns (wall seconds, solver steps)."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if tracer is not None:
            tracer.run_id += 1
            tracer.install()
        try:
            t0 = time.perf_counter()
            ops = workloads.run_job(self.spec, self.work)
            wall = time.perf_counter() - t0
        except Exception:  # a crash inside the library is a failed operation, not a benchmark error
            self.attempted += 1
            self.failed += 1
            self.failures.append(traceback.format_exc())
            return time.perf_counter() - t0, 0
        finally:
            if tracer is not None:
                tracer.uninstall()
        fails = workloads.check(self.spec, self.work, ops, self.frozen)
        self.attempted += len(fails)
        for label, msgs in fails.items():
            if msgs:
                self.failed += 1
                self.failures += [f"{label}: {m}" for m in msgs]
        return wall, workloads.steps(self.spec, ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    ap.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = workloads.Spec(args.workload, args.scale, args.seed)
    workloads.setup(spec)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(spec, args.out)
    steal0, total0 = cpu_ticks()
    refs = [probe.reference_s()]
    start = time.perf_counter()
    result: dict = {}
    if args.mode == "measure":
        walls, steps = [], []
        while True:
            wall, n = runner.job()
            refs.append(probe.reference_s())
            walls.append(wall)
            steps.append(n)
            if runner.failed or (
                len(walls) >= MIN_JOBS and time.perf_counter() - start + statistics.median(walls) > args.seconds
            ):
                break
        result.update(walls=walls, steps=steps)
    else:
        tracer = Tracer()
        untraced, traced = [], []
        while True:
            untraced.append(runner.job()[0])
            traced.append(runner.job(tracer)[0])
            if runner.failed or time.perf_counter() - start + untraced[-1] + traced[-1] > args.seconds:
                break
        layers = layer_metrics(tracer, statistics.median(traced), statistics.median(untraced), len(traced))
        fired = tracer.fired()
        missing = [name for name in workloads.DECLARED_SPANS[spec.workload] if name not in fired]
        runner.attempted += 1
        if missing:
            runner.failed += 1
            runner.failures.append(f"declared spans never fired: {', '.join(missing)}")
        tracer.dump(os.path.join(args.out, "spans.jsonl"))
        result.update(walls=untraced, traced_walls=traced, layers=layers)
        refs.append(probe.reference_s())
    steal1, total1 = cpu_ticks()
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        refs=refs,
        steal_frac=(steal1 - steal0) / max(total1 - total0, 1),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
