"""The benchmark's workloads: inputs from the seed, the timed job, and the
correctness oracle.

Every workload calls the package only through its public entry points
(``bq2d.cli.main`` in-process, and ``bq2d.lp`` / ``bq2d.solver`` functions
for the verify scan block).  A seed selects one of ``POOL`` frozen cases
(``seed % POOL``), which fixes the random-band initial data; every case has
values frozen from the seed code in ``frozen.json``, so every run is checked
against them at 1e-10 relative (1e-12 absolute near 0).

Each workload exists at two scales: ``full`` (the benchmark) and ``smoke``
(tiny n, for the benchmark's own tests).  ``kernel-verify`` keeps n = 256 at
both scales because it fails its own residual bound at n <= 128.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import math
import os

POOL = 32
REL_TOL = 1e-10
ROUNDING_LEVEL = 1e-12  # absolute tolerance for frozen values near 0, where a relative one is meaningless
HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN = os.path.join(HERE, "frozen.json")
FIXTURE = os.path.join(os.path.dirname(HERE), "tests", "fixtures", "reference.json")

SCALES = {
    "full": {
        "sim": {"n": 256, "n_steps": 40, "diag_every": 20},
        "monitor": {"n": 128},
        "verify": {"kv_n": 256, "iq_n": 128, "iq_steps": 10, "scan_n": 128},
    },
    "smoke": {
        "sim": {"n": 32, "n_steps": 4, "diag_every": 2},
        "monitor": {"n": 32},
        "verify": {"kv_n": 256, "iq_n": 32, "iq_steps": 4, "scan_n": 32},
    },
}

# spans each workload must fire in a traced run (see tracer.TRACED)
DECLARED_SPANS = {
    "sim": (
        "cli.main", "cli.cmd_run", "solver.initial_data", "solver.step", "solver.nonstiff_rhs",
        "monitors.dissipation_rates", "monitors.snapshot_record", "monitors.cordoba_margin",
        "lp.besov_norm", "solver.oss_check", "solver.write_checkpoint",
        "spectral.fractional_laplacian", "spectral.riesz_alpha", "spectral.biot_savart", "fft", "roll",
    ),
    "monitor": (
        "cli.main", "cli.cmd_run", "cli.cmd_resume", "cli.cmd_besov", "solver.initial_data",
        "solver.step", "solver.nonstiff_rhs", "monitors.dissipation_rates", "monitors.snapshot_record",
        "monitors.cordoba_margin", "lp.besov_norm", "solver.oss_check", "solver.write_checkpoint",
        "solver.read_checkpoint", "spectral.fractional_laplacian", "spectral.riesz_alpha",
        "spectral.biot_savart", "fft", "roll",
    ),
    "verify": (
        "cli.main", "cli.cmd_kernel_verify", "cli.cmd_inequality_suite", "kernels.quadrature_errors",
        "kernels.symgrad_v_quadrature", "kernels.split_symgrad_bound", "solver.initial_data",
        "solver.step", "monitors.snapshot_record", "lp.besov_norm", "solver.oss_check",
        "lp.besov_norm_fd", "solver.oss_weighted_profile", "fft", "roll",
    ),
}

# physical diagnostics columns compared against frozen values (margins have their own band check)
PHYSICAL = (
    "t", "theta_l2", "theta_linf", "u_l2", "omega_linf", "grad_theta_linf", "G_l2", "G_lq",
    "G_besov", "diss_u_accum", "diss_G_accum", "oss_delta_measured",
)

# the frozen reference recipe of tests/fixtures/reference.json
MONITOR_RECIPE = {"alpha": 0.95, "dt_init": 0.01, "cfl_number": 0.9, "t_end": 1.0}
SCAN_BESOV = {"besov_fd_p4_r2": (0.5, 4.0, 2.0), "besov_fd_p2_inf": (0.5, 2.0, math.inf)}
SCAN_BETA, SCAN_PSI = 0.1, 1.0


class Spec:
    """One workload at one scale for one frozen case."""

    def __init__(self, workload: str, scale: str, seed: int):
        if workload not in DECLARED_SPANS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.scale = scale
        self.case = seed % POOL
        self.p = SCALES[scale][workload]


# ---------------------------------------------------------------------------
# configs, set-up


def _flags(cfg: dict) -> list[str]:
    return [tok for key, val in cfg.items() for tok in (f"--{key.replace('_', '-')}", str(val))]


def _sim_config(spec: Spec, out: str) -> dict:
    p = spec.p
    return {
        "n": p["n"], "alpha": 0.9, "critical": True, "init_kind": "random-band", "seed": spec.case,
        "n_steps": p["n_steps"], "diag_every": p["diag_every"], "checkpoint_every": 0, "out_dir": out,
    }


def _monitor_config(spec: Spec, out: str) -> dict:
    return {
        "n": spec.p["n"], **MONITOR_RECIPE, "init_kind": "random-band", "seed": spec.case,
        "diag_every": 1, "checkpoint_every": 1, "out_dir": out,
    }


def _inequality_config(spec: Spec) -> dict:
    return {"n": spec.p["iq_n"], "seed": spec.case, "n_steps": spec.p["iq_steps"]}


def _scan_field(spec: Spec):
    from bq2d import solver, spectral

    return solver.initial_data("random-band", spec.case, spectral.GridSpec(spec.p["scan_n"])).theta


def setup(spec: Spec) -> None:
    """Imports, config validation, initial data or calibration bump, grid caches."""
    from bq2d import cli, kernels, solver, spectral

    if spec.workload == "verify":
        grid = spectral.GridSpec(spec.p["kv_n"])
        kernels.oracle_bump(grid, width=kernels.oracle_width(0.5))
        kernels.annulus_kernel_mass(grid, 0.0, 1.0, 2.5)  # fills the padded-grid displacement cache
        cfg = cli.build_config(None, _inequality_config(spec))
        _scan_field(spec)
    else:
        make = _sim_config if spec.workload == "sim" else _monitor_config
        cfg = cli.build_config(None, make(spec, "unused"))
    solver.initial_data(cfg.init_kind, cfg.seed, cfg.grid(), cfg.amplitude)


# ---------------------------------------------------------------------------
# the timed jobs


def _cli(argv: list[str]) -> tuple[int, str]:
    from bq2d import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_job(spec: Spec, work: str) -> dict:
    """Run the workload's fixed job with outputs under ``work``; returns
    {operation label: (exit code, stdout or scan result)}."""
    from bq2d import lp, solver

    ops = {}
    if spec.workload == "sim":
        ops["run"] = _cli(["run", *_flags(_sim_config(spec, os.path.join(work, "run")))])
    elif spec.workload == "monitor":
        ops["run"] = _cli(["run", *_flags(_monitor_config(spec, os.path.join(work, "run")))])
        resume = {k: v for k, v in _monitor_config(spec, os.path.join(work, "resume")).items() if k not in ("n", "alpha")}
        # the recipe runs 100 steps of dt = 0.01, so step 50 is the midpoint
        ops["resume"] = _cli(["resume", os.path.join(work, "run", "ckpt_00000050.chk"), *_flags(resume)])
        final = os.path.join(work, "run", "final.chk")
        ops["besov"] = _cli(["besov", final, "--s", "0.5", "--field", "G", "--out", os.path.join(work, "besov.csv")])
    else:
        kv_out, iq_out = os.path.join(work, "kernel_verify.csv"), os.path.join(work, "inequality.csv")
        ops["kernel-verify"] = _cli(["kernel-verify", "--beta", "0.5", "--n", str(spec.p["kv_n"]), "--out", kv_out])
        ops["inequality-suite"] = _cli(["inequality-suite", *_flags(_inequality_config(spec)), "--out", iq_out])
        theta = _scan_field(spec)
        for label, (s, p, r) in SCAN_BESOV.items():
            ops[label] = (0, lp.besov_norm_fd(theta, s, p, r))
        ops["oss_weighted_profile"] = (0, solver.oss_weighted_profile(theta, SCAN_BETA, SCAN_PSI))
    return ops


# ---------------------------------------------------------------------------
# the correctness oracle


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _steps(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("steps="):
            return int(line.split()[0].split("=")[1])
    raise ValueError("no 'steps=' line in the run summary")


def _band_failures(rows: list[dict]) -> list[str]:
    """Margins must stay above -1e-6 (1 + t) times the initial norm, as in inequality-suite."""
    first = rows[0]
    theta0_l2, theta0_linf = float(first["theta_l2"]), float(first["theta_linf"])
    u0 = max(float(first["u_l2"]), 1.0)
    out = []
    for row in rows:
        band = 1e-6 * (1.0 + float(row["t"]))
        for col, scale in (
            ("margin_maxprinciple_l2", theta0_l2),
            ("margin_maxprinciple_linf", theta0_linf),
            ("margin_energy_linear", u0),
        ):
            if float(row[col]) < -band * scale:
                out.append(f"{col}={row[col]} below the tolerance band at t={row['t']}")
    return out


def _check_table(path: str) -> list[str]:
    return [f"{row['check']} reports pass={row['pass']}" for row in _read_csv(path) if row["pass"] not in ("True", "")]


def steps(spec: Spec, ops: dict) -> int:
    """Solver steps the job completed (0 when a run summary is missing)."""
    if spec.workload == "verify":
        return spec.p["iq_steps"]
    try:
        return sum(_steps(ops[label][1]) for label in ("run", "resume") if label in ops)
    except ValueError:
        return 0


def observe(spec: Spec, work: str, ops: dict) -> dict:
    """Values of one job that are compared against the frozen ones."""
    if spec.workload in ("sim", "monitor"):
        final = _read_csv(os.path.join(work, "run", "diagnostics.csv"))[-1]
        out = {"steps": _steps(ops["run"][1]), "final": {k: float(final[k]) for k in PHYSICAL}}
        if spec.workload == "monitor":
            out["checkpoints"] = len(glob.glob(os.path.join(work, "run", "ckpt_*.chk")))
            out["besov_total"] = float(_read_csv(os.path.join(work, "besov.csv"))[-1]["weighted_block_norm"])
        return out
    radii, sups = ops["oss_weighted_profile"][1]
    return {
        "kernel_verify": {r["check"]: float(r["value"]) for r in _read_csv(os.path.join(work, "kernel_verify.csv"))},
        "inequality_suite": {r["check"]: float(r["value"]) for r in _read_csv(os.path.join(work, "inequality.csv"))},
        **{label: float(ops[label][1]) for label in SCAN_BESOV},
        "oss_weighted_profile": {
            "count": int(len(sups)),
            "sum": float(sups.sum()),
            "max": float(sups.max()),
            "radius_moment": float((radii * sups).sum()),
        },
    }


def _compare(got, want, path: tuple) -> list[tuple[tuple, str]]:
    """(path, message) for each value that differs from its frozen one."""
    where = ".".join(path)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [(path, f"{where}: keys differ from the frozen ones")]
        return [hit for key in want for hit in _compare(got[key], want[key], (*path, key))]
    if isinstance(want, int):
        return [] if got == want else [(path, f"{where}: {got} != frozen {want}")]
    if abs(got - want) <= max(REL_TOL * abs(want), ROUNDING_LEVEL):
        return []
    return [(path, f"{where}: {got!r} differs from frozen {want!r} by {abs(got - want):.2e}")]


# observed key -> operation that produced it, where the names differ
_OP_OF = {
    "steps": "run", "final": "run", "checkpoints": "run", "besov_total": "besov",
    "kernel_verify": "kernel-verify", "inequality_suite": "inequality-suite",
}


def load_frozen() -> dict:
    with open(FROZEN) as fh:
        return json.load(fh)


def check(spec: Spec, work: str, ops: dict, frozen: dict) -> dict[str, list[str]]:
    """Failures per operation label (empty lists for operations that passed)."""
    fails = {label: [] for label in ops}
    for label, (rc, _) in ops.items():
        if rc != 0:
            fails[label].append(f"exit code {rc}")
    if any(fails.values()):
        return fails
    try:
        seen = observe(spec, work, ops)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        fails[next(iter(ops))].append(f"unreadable output: {exc!r}")
        return fails
    if spec.workload in ("sim", "monitor"):
        fails["run"] += _band_failures(_read_csv(os.path.join(work, "run", "diagnostics.csv")))
    if spec.workload == "monitor":
        with open(os.path.join(work, "run", "final.chk"), "rb") as a, open(
            os.path.join(work, "resume", "final.chk"), "rb"
        ) as b:
            if a.read() != b.read():
                fails["resume"].append("resumed final.chk differs from the unsplit final.chk")
        if spec.case == 0 and spec.scale == "full":
            fails["run"] += _fixture_failures(seen["final"])
    if spec.workload == "verify":
        fails["kernel-verify"] += _check_table(os.path.join(work, "kernel_verify.csv"))
        fails["inequality-suite"] += _check_table(os.path.join(work, "inequality.csv"))
    want = frozen.get(spec.workload, {}).get(spec.scale, {}).get(str(spec.case))
    if want is None:
        fails[next(iter(ops))].append(f"no frozen values for case {spec.case}")
    else:
        for path, msg in _compare(seen, want, ()):
            fails[_OP_OF.get(path[0], path[0]) if path else next(iter(ops))].append(msg)
    return fails


def _fixture_failures(final: dict) -> list[str]:
    """Seed-0 monitor run against the repository's frozen reference run (alpha = 0.95)."""
    with open(FIXTURE) as fh:
        ref = json.load(fh)["alpha_0.95"]
    got = {
        "t_final": final["t"],
        "theta_l2_final": final["theta_l2"],
        "u_l2_final": final["u_l2"],
        "grad_theta_linf_final": final["grad_theta_linf"],
        "G_l2_final": final["G_l2"],
        "G_lq_final": final["G_lq"],
        "G_besov_final": final["G_besov"],
        "G_l2_monitor_final": final["G_l2"] ** 2 + final["diss_G_accum"],
    }
    return [
        f"fixture {key}: {got[key]!r} != {ref[key]!r}"
        for key in got
        if abs(got[key] - ref[key]) > REL_TOL * abs(ref[key])
    ]
