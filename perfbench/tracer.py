"""In-memory span tracer installed from outside the package.

``Tracer.install()`` replaces every traced ``bq2d`` function at each module
binding that holds it (``bq2d.cli`` imports ``snapshot_record`` by name, for
example), and replaces ``numpy.fft.{fft2,ifft2,rfft2,irfft2}`` and
``numpy.roll`` with counting wrappers.  ``uninstall()`` restores every
binding, so untraced jobs run the original code.

A span is (name, start, end, parent, run id) plus counters, which include
those of its descendants once it has ended.  FFT and roll calls are leaf
events: they add to the counters of the innermost open span and their time
counts as its child time, so a span's self time is its duration minus its
child spans and the FFT/roll calls made directly from it.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time

import numpy as np

# (module, function) pairs wrapped in spans; span name is "<module>.<function>"
TRACED = {
    "cli": ("main", "cmd_run", "cmd_resume", "cmd_kernel_verify", "cmd_inequality_suite", "cmd_besov"),
    "solver": (
        "step",
        "nonstiff_rhs",
        "initial_data",
        "initial_report",
        "compute_G",
        "oss_check",
        "oss_weighted_profile",
        "write_checkpoint",
        "read_checkpoint",
    ),
    "monitors": (
        "snapshot_record",
        "dissipation_rates",
        "cordoba_margin",
        "cordoba_scale",
        "gradient_lower_bound_margin",
        "difference_lower_bound_margin",
    ),
    "lp": ("besov_norm", "besov_norm_fd", "dyadic_blocks"),
    "kernels": ("quadrature_errors", "calibrate_C_beta", "symgrad_v_quadrature", "split_symgrad_bound"),
    "spectral": ("to_spectral", "to_physical", "fractional_laplacian", "riesz_alpha", "biot_savart"),
}
MULTIPLIERS = ("spectral.fractional_laplacian", "spectral.riesz_alpha", "spectral.biot_savart")
FFT_FUNCS = {"fft2": False, "ifft2": False, "rfft2": True, "irfft2": True}  # name -> real transform
CHECKPOINT_IO = ("solver.write_checkpoint", "solver.read_checkpoint")

# span tuple layout, kept flat for speed
NAME, START, END, PARENT, RUN, CHILD_S, COUNTS = range(7)


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.run_id = 0
        self.totals = {"fft_calls": 0, "fft_s": 0.0, "roll_calls": 0, "roll_s": 0.0}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        if parent is not None and name in MULTIPLIERS:
            _add(parent[COUNTS], "multiplier_calls", 1)
        span = [name, time.perf_counter(), 0.0, parent, self.run_id, 0.0, {}]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: list) -> None:
        """Ends the span and adds its duration and counts to its parent's."""
        span[END] = time.perf_counter()
        self.stack.pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD_S] += span[END] - span[START]
            for key, value in span[COUNTS].items():
                _add(parent[COUNTS], key, value)

    def _leaf(self, kind: str, elapsed: float, **counts) -> None:
        self.totals[f"{kind}_s"] += elapsed
        self.totals[f"{kind}_calls"] += 1
        if not self.stack:
            return
        span = self.stack[-1]
        span[CHILD_S] += elapsed
        _add(span[COUNTS], f"{kind}_s", elapsed)
        for key, value in counts.items():
            _add(span[COUNTS], key, value)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name in CHECKPOINT_IO:
                span[COUNTS]["bytes"] = os.path.getsize(args[0])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _fft_wrapper(self, fname: str, real: bool):
        tracer = self
        fn = getattr(np.fft, fname)
        real_out = real and fname.startswith("i")

        def wrapper(a, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            points = int(np.size(out if real_out else a))
            per = 2.5 if real else 5.0  # computed: 5 N log2 N per complex, half for real
            tracer._leaf(
                "fft",
                elapsed,
                fft_calls=1,
                fft_points=points,
                fft_flops=per * points * math.log2(max(points, 2)),
                fft_bytes=np.asarray(a).nbytes + out.nbytes,
            )
            return out

        return wrapper

    def _roll_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            tracer._leaf("roll", time.perf_counter() - t0, roll_calls=1)
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        targets = {short: importlib.import_module(f"bq2d.{short}") for short in TRACED}
        modules = [m for key, m in list(sys.modules.items()) if key == "bq2d" or key.startswith("bq2d.")]
        for short, names in TRACED.items():
            for fname in names:
                orig = getattr(targets[short], fname, None)
                if orig is None:
                    self.uninstall()
                    raise LookupError(f"traced function bq2d.{short}.{fname} does not exist")
                wrapper = self._span_wrapper(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapper)
        for fname, real in FFT_FUNCS.items():
            self._patch(np.fft, fname, self._fft_wrapper(fname, real))
        self._patch(np, "roll", self._roll_wrapper(np.roll))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def fired(self) -> set[str]:
        names = {s[NAME] for s in self.spans}
        if self.totals["fft_calls"]:
            names.add("fft")
        if self.totals["roll_calls"]:
            names.add("roll")
        return names

    def dump(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s[PARENT])] if s[PARENT] is not None else None
                row = {"name": s[NAME], "start": s[START], "end": s[END], "parent": parent, "run": s[RUN]}
                row.update(s[COUNTS])
                fh.write(json.dumps(row) + "\n")


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, jobs: int) -> dict:
    """Per-layer figures per job from the spans of ``jobs`` traced jobs."""
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s[NAME], []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans(name)) / jobs

    def busy(name):
        return sum(s[END] - s[START] for s in spans(name)) / jobs

    def selftime(name):
        return sum(s[END] - s[START] - s[CHILD_S] for s in spans(name)) / jobs

    def count(name, key):
        return sum(s[COUNTS].get(key, 0) for s in spans(name))

    def per_call(name, key):
        return count(name, key) / max(len(spans(name)), 1)

    # a step cycle of the run loop is one step plus the dissipation_rates call on its result;
    # the loop also calls dissipation_rates once per run start, which adds no FFTs
    steps = len(spans("solver.step"))
    cycle = ("solver.step", "monitors.dissipation_rates")

    def per_step(key):
        return sum(count(n, key) for n in cycle) / max(steps, 1)

    step_ms = [1e3 * (s[END] - s[START]) for s in spans("solver.step")]
    snap_ms = [1e3 * (s[END] - s[START]) for s in spans("monitors.snapshot_record")]
    oss = spans("solver.oss_check")
    fft_busy = tracer.totals["fft_s"] / jobs
    kernel_points = sum(
        s[COUNTS].get("fft_points", 0)
        for s in tracer.spans
        if s[NAME].startswith("kernels.") and not (s[PARENT] and s[PARENT][NAME].startswith("kernels."))
    )
    return {
        "fft.calls_per_step": per_step("fft_calls"),
        "fft.points_per_step": per_step("fft_points"),
        "fft.flops_per_step": per_step("fft_flops"),
        "fft.bytes_per_step": per_step("fft_bytes"),
        "fft.busy_s": fft_busy,
        "fft.share": fft_busy / traced_wall,
        "spectral.multiplier_calls_per_step": per_step("multiplier_calls"),
        "solver.step.calls": calls("solver.step"),
        "solver.step.self_s": selftime("solver.step"),
        "solver.step.ms_p50": _pct(step_ms, 0.5),
        "solver.step.ms_p90": _pct(step_ms, 0.9),
        "solver.nonstiff_rhs.calls": calls("solver.nonstiff_rhs"),
        "solver.nonstiff_rhs.self_s": selftime("solver.nonstiff_rhs"),
        "monitors.dissipation_rates.calls": calls("monitors.dissipation_rates"),
        "monitors.dissipation_rates.busy_s": busy("monitors.dissipation_rates"),
        "monitors.dissipation_rates.share": busy("monitors.dissipation_rates") / traced_wall,
        "monitors.snapshot_record.calls": calls("monitors.snapshot_record"),
        "monitors.snapshot_record.busy_s": busy("monitors.snapshot_record"),
        "monitors.snapshot_record.ms_p50": _pct(snap_ms, 0.5),
        "monitors.cordoba_margin.busy_s": busy("monitors.cordoba_margin"),
        "lp.besov_norm.calls": calls("lp.besov_norm"),
        "lp.besov_norm.busy_s": busy("lp.besov_norm"),
        "cli.self_s": sum(selftime(f"cli.{n}") for n in TRACED["cli"]),
        "solver.oss_check.calls": calls("solver.oss_check"),
        "solver.oss_check.busy_s": busy("solver.oss_check"),
        "solver.oss_check.roll_calls": per_call("solver.oss_check", "roll_calls"),
        "solver.oss_check.vacuous_frac": sum(1 for s in oss if not s[COUNTS].get("roll_calls")) / max(len(oss), 1),
        "solver.write_checkpoint.calls": calls("solver.write_checkpoint"),
        "solver.write_checkpoint.busy_s": busy("solver.write_checkpoint"),
        "solver.write_checkpoint.bytes": per_call("solver.write_checkpoint", "bytes"),
        "solver.read_checkpoint.calls": calls("solver.read_checkpoint"),
        "solver.read_checkpoint.busy_s": busy("solver.read_checkpoint"),
        "solver.read_checkpoint.bytes": per_call("solver.read_checkpoint", "bytes"),
        "lp.besov_norm_fd.calls": calls("lp.besov_norm_fd"),
        "lp.besov_norm_fd.busy_s": busy("lp.besov_norm_fd"),
        "lp.besov_norm_fd.roll_calls": per_call("lp.besov_norm_fd", "roll_calls"),
        "solver.oss_weighted_profile.busy_s": busy("solver.oss_weighted_profile"),
        "solver.oss_weighted_profile.roll_calls": per_call("solver.oss_weighted_profile", "roll_calls"),
        "kernels.quadrature_errors.busy_s": busy("kernels.quadrature_errors"),
        "kernels.symgrad_v_quadrature.busy_s": busy("kernels.symgrad_v_quadrature"),
        "kernels.split_symgrad_bound.busy_s": busy("kernels.split_symgrad_bound"),
        "kernels.fft_points": kernel_points / jobs,
        "solver.initial_data.busy_s": busy("solver.initial_data"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
