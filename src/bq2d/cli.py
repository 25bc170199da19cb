"""Command-line front end: simulation runs, resumption, and the
verification suites.

Configuration is a flat ``key = value`` text file ('#' starts a comment);
every command-line flag mirrors a config key, is parsed as in the file (by
``_coerce``) and wins over the file.  All values are validated before any
file output is created; a command line that does not parse and an output
location that cannot be created are refused before any computation.  Exit codes:
0 success, 2 config error, 3 blow-up abort, 4 assertion failure inside a
verification suite.  A command reports bad input by raising ``ConfigError``;
``main`` alone turns it into the ``config error:`` line and exit 2.  The
only environment variable honored is ``BQ2D_OUT_DIR``, which overrides the
output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import kernels, solver
from .lp import BesovIndex, block_norms, lr_combine
from .spectral import FlowParams, GridSpec, PhysicalField, lp_norm
from .monitors import (
    CONVEX_GAMMAS,
    check_besov_index,
    check_lq_index,
    cordoba_margin,
    cordoba_scale,
    csv_header,
    difference_lower_bound_margin,
    dissipation_rates,
    energy_margin,
    gradient_lower_bound_margin,
    index_window,
    max_principle_margins,
    snapshot_record,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ASSERTION = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is bad input too; subparsers share the class
        raise ConfigError(message)


def _check_output(path: str | None, directory: bool = False) -> None:
    """ConfigError unless ``path`` can be written: an output file needs its
    parent, an output directory its nearest existing ancestor (itself
    included), to be a writable directory."""
    if not path:
        if directory:
            raise ConfigError("out_dir must not be empty")
        return
    where = os.path.abspath(path)
    if not directory:
        if os.path.isdir(where):
            raise ConfigError(f"output file {path!r} is a directory")
        where = os.path.dirname(where)
    while directory and not os.path.lexists(where):
        where = os.path.dirname(where)
    if not (os.path.isdir(where) and os.access(where, os.W_OK)):
        raise ConfigError(f"cannot write {path!r}: {where!r} is not a writable directory")


@dataclass
class RunConfig:
    n: int = 64
    side_length: float = 2.0 * math.pi
    dealias_fraction: float = 2.0 / 3.0
    nu: float = 1.0
    kappa: float = 1.0
    alpha: float = 0.9
    beta: float = -1.0  # -1 means: derive from the critical relation
    critical: bool = True
    dt_init: float = 0.01
    cfl_number: float = 0.4
    t_end: float = 1.0
    n_steps: int | None = None
    init_kind: str = "random-band"
    seed: int = 0
    amplitude: float = 1.0
    diag_every: int = 10
    checkpoint_every: int = 0
    out_dir: str = "bq2d_out"
    monitor_q: float = -1.0  # -1 means: pick inside the admissible window
    monitor_s: float = -1.0
    oss_delta_c: float = 1.0
    oss_L: float = 0.2

    def _window(self):
        try:
            return index_window(self.alpha)
        except ValueError:
            return None  # monitors fall back to plain norms outside (4/5, 1)

    def resolve(self) -> "RunConfig":
        if self.critical and self.beta < 0:
            self.beta = 1.0 - self.alpha
        if self.beta < 0:
            raise ConfigError("beta must be given when critical = false")
        win = self._window()
        if self.monitor_q < 0:
            if win is None:
                self.monitor_q = 3.0
            else:
                # inside the Besov index window when it is nonempty, else the L^q one
                lo = win.q_low_sqdef if win.q_low_sqdef < win.q0 else 2.0
                self.monitor_q = 0.5 * (lo + win.q0)
        if self.monitor_s < 0:
            self.monitor_s = win.s_max if win is not None else 0.5
        return self

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        try:
            self.grid()
            self.flow_params()
            self.stepper()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.init_kind not in ("taylor-green-like", "gaussian-bumps", "random-band"):
            raise ConfigError(f"unknown init_kind {self.init_kind!r}")
        if self.diag_every < 1:
            raise ConfigError("diag_every must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")
        if self.n_steps is not None and self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.cfl_number * self.grid().spacing < solver.DT_UNDERFLOW:
            raise ConfigError(f"cfl_number * side_length / n is below the step floor {solver.DT_UNDERFLOW:g}")
        if self.oss_L > self.side_length / 2.0:
            raise ConfigError("oss_L must not exceed side_length / 2")
        win = self._window()
        if win is not None:
            try:
                # startup gate: the L^q window plus the smoothness cap; the
                # stricter Besov q-window applies only where it is nonempty
                check_lq_index(self.alpha, self.monitor_q)
                if not 0.0 < self.monitor_s <= win.s_max:
                    raise ValueError(
                        f"monitor_s={self.monitor_s} violates 0 < s <= 3*alpha - 2 = {win.s_max:.6f}"
                    )
                if win.q_low_sqdef < win.q0:
                    check_besov_index(self.alpha, self.monitor_s, self.monitor_q)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        elif self.monitor_q < 1.0 or not 0.0 < self.monitor_s:
            raise ConfigError("monitor indices must satisfy q >= 1 and s > 0")

    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.side_length, self.dealias_fraction)

    def flow_params(self) -> FlowParams:
        return FlowParams(self.nu, self.kappa, self.alpha, self.beta, critical=self.critical)

    def stepper(self) -> solver.StepperConfig:
        return solver.StepperConfig(self.dt_init, self.cfl_number, self.t_end)


_BOOL_KEYS = {"critical"}
_INT_KEYS = {"n", "seed", "diag_every", "checkpoint_every", "n_steps"}
_STR_KEYS = {"init_kind", "out_dir"}
_FLAG_KEYS = [f.name for f in fields(RunConfig)]


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    if key in _INT_KEYS:
        if key == "n_steps" and raw.lower() == "none":
            return None
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from exc
    if key in _STR_KEYS:
        return raw
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FLAG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def build_config(config_path: str | None, overrides: dict, header: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then a checkpoint ``header`` (when
    resuming), then the ``overrides``, a None included; BQ2D_OUT_DIR last.

    A header value that the file contradicts is an error unless a flag
    overrides it; n is never overridden.  With a header, ``critical``
    follows alpha + beta == 1.
    """
    file_vals = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        file_vals = parse_config_text(text)
    layers = dict(file_vals)
    for key, ckpt_val in (header or {}).items():
        if key in overrides:
            continue
        if key in file_vals and file_vals[key] != ckpt_val:
            raise ConfigError(
                f"header mismatch on {key!r}: checkpoint has {ckpt_val!r}, "
                f"config has {file_vals[key]!r} (pass --{key.replace('_', '-')} to override)"
            )
        layers[key] = ckpt_val
    layers.update(overrides)
    cfg = RunConfig(**layers)
    env_out = os.environ.get("BQ2D_OUT_DIR")
    if env_out:
        cfg.out_dir = env_out
    if header is not None:
        if cfg.n != header["n"]:
            raise ConfigError(f"checkpoint has n={header['n']!r}; a resume cannot change n to {cfg.n!r}")
        cfg.critical = cfg.alpha + cfg.beta == 1.0
    cfg.resolve()
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# run / resume


def _float_fmt(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _initial_monitors():
    """Monitors taken on the initial state: one that overflows there is a
    config error, raised without numpy's overflow warnings ahead of it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"the monitors overflow on the initial state: {exc}") from exc


def _run_loop(
    cfg: RunConfig, state: solver.SimState, params: FlowParams, out_dir: str, announce: bool = False
) -> int:
    """Step, monitor and checkpoint from ``state``; with ``announce``, first
    print the ``initial:`` line from the starting snapshot record.  That
    record and its margins are taken before any output."""
    stepper = cfg.stepper()
    diss_u = diss_G = 0.0
    gamma, gamma_p = CONVEX_GAMMAS["square"]
    worst = dict.fromkeys(("margin_maxprinciple_l2", "margin_maxprinciple_linf", "margin_energy_linear"), 0.0)

    def record(st, fh=None):
        """The snapshot record of ``st`` with its margins, written as one CSV
        row to ``fh`` when given; updates the running worst margins."""
        rec = snapshot_record(st, params, cfg.monitor_q, cfg.monitor_s, diss_u, diss_G)
        m2, minf = max_principle_margins(rec, theta0_l2, theta0_linf)
        rec.margin_maxprinciple_l2, rec.margin_maxprinciple_linf = m2, minf
        rec.margin_energy_linear = energy_margin(rec, u0_l2, theta0_l2)[0]
        rec.cordoba_min = cordoba_margin(st.theta, params.beta, gamma, gamma_p)
        rec.oss_delta_measured = solver.oss_check(st.theta, delta_target, cfg.oss_L).delta_measured
        for key in worst:
            worst[key] = min(worst[key], getattr(rec, key))
        if fh is not None:
            fh.write(rec.csv_row() + "\n")
            fh.flush()
        return rec

    with _initial_monitors():
        theta0_l2 = lp_norm(state.theta, 2)
        theta0_linf = lp_norm(state.theta, math.inf)
        u0_l2 = solver._velocity_l2(state)
        delta_target = solver.delta_star(max(theta0_linf, 1e-300), params.beta, cfg.oss_delta_c)
        rec = record(state)
    if announce:
        print(
            "initial: theta_l2={!r} theta_linf={!r} grad_theta_linf={!r} u_l2={!r}".format(
                rec.theta_l2, rec.theta_linf, rec.grad_theta_linf, rec.u_l2
            )
        )
    os.makedirs(out_dir, exist_ok=True)
    rate_u, rate_G = dissipation_rates(state, params)

    step_count = 0
    cur = state
    prev_t = state.t
    try:
        with open(os.path.join(out_dir, "diagnostics.csv"), "w") as csv:
            csv.write(csv_header() + "\n" + rec.csv_row() + "\n")
            for cur in solver.run(state, params, stepper, n_steps=cfg.n_steps):
                step_count += 1
                new_u, new_G = dissipation_rates(cur, params)
                dt = cur.t - prev_t
                diss_u += 0.5 * dt * (rate_u + new_u)
                diss_G += 0.5 * dt * (rate_G + new_G)
                rate_u, rate_G = new_u, new_G
                prev_t = cur.t
                if cfg.checkpoint_every and step_count % cfg.checkpoint_every == 0:
                    solver.write_checkpoint(
                        os.path.join(out_dir, f"ckpt_{step_count:08d}.chk"), cur, params
                    )
                if step_count % cfg.diag_every == 0:
                    rec = record(cur, csv)
            if step_count % cfg.diag_every != 0:
                rec = record(cur, csv)
    except solver.BlowUpError as exc:
        post = os.path.join(out_dir, "post_mortem.csv")
        with open(post, "w") as fh:
            fh.write(f"# blow-up at t={exc.t!r} max_omega={exc.omega_max!r}\n")
            fh.write(csv_header() + "\n")
            record(cur, fh)  # the last finite state
        print(f"blow-up abort: {exc} (post-mortem: {post})", file=sys.stderr)
        return EXIT_BLOWUP
    solver.write_checkpoint(os.path.join(out_dir, "final.chk"), cur, params)
    print(f"steps={step_count} t_final={_float_fmt(cur.t)}")
    print(
        "final: theta_l2={} theta_linf={} omega_linf={}".format(
            _float_fmt(rec.theta_l2), _float_fmt(rec.theta_linf), _float_fmt(rec.omega_linf)
        )
    )
    print("worst margins:", *(f"{k.removeprefix('margin_')}={_float_fmt(v)}" for k, v in worst.items()))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = build_config(args.config, _collect_overrides(args))
    _check_output(cfg.out_dir, directory=True)
    state = solver.initial_data(cfg.init_kind, cfg.seed, cfg.grid(), cfg.amplitude)
    return _run_loop(cfg, state, cfg.flow_params(), cfg.out_dir, announce=True)


def cmd_resume(args) -> int:
    try:
        state, params = solver.read_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot resume: {exc}") from exc
    header = {
        "n": state.grid.n,
        "side_length": state.grid.side_length,
        "dealias_fraction": state.grid.dealias_fraction,
        "nu": params.nu,
        "kappa": params.kappa,
        "alpha": params.alpha,
        "beta": params.beta,
    }
    cfg = build_config(args.config, _collect_overrides(args), header)
    _check_output(cfg.out_dir, directory=True)
    grid = cfg.grid()
    state = solver.SimState(
        PhysicalField(grid, state.theta.values), PhysicalField(grid, state.omega.values), state.t
    )
    return _run_loop(cfg, state, cfg.flow_params(), cfg.out_dir)


# ---------------------------------------------------------------------------
# verification subcommands


def _emit(rows, out_path: str | None):
    text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _CheckTable:
    """The check,value,threshold,pass table of the verification suites."""

    def __init__(self):
        self.rows = [["check", "value", "threshold", "pass"]]
        self.ok = True

    def add(self, name, value, threshold, passed) -> None:
        self.ok = self.ok and bool(passed)
        self.rows.append([name, repr(float(value)), repr(float(threshold)), bool(passed)])

    def emit(self, out_path: str | None) -> int:
        """Write the table; exit 0 when every check passed, else 4."""
        _emit(self.rows, out_path)
        return EXIT_OK if self.ok else EXIT_ASSERTION


def cmd_kernel_verify(args) -> int:
    beta, n = args.beta, args.n
    try:
        kcfg = kernels.KernelConfig(beta=beta)
        grid = GridSpec(n=n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_output(args.out)
    checks = _CheckTable()
    cm = np.abs(kernels.circle_mean_sigma(1.0, 64)).max()
    checks.add("sigma_circle_mean", cm, 1e-12, cm <= 1e-12)
    try:
        res = kernels.quadrature_errors(beta, n)
        res2 = kernels.quadrature_errors(beta, 2 * n)
    except kernels.CalibrationError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    checks.add("v_residual_n", res["v_residual"], 1e-3, res["v_residual"] <= 1e-3)
    checks.add("symgrad_error_n", res["symgrad_error"], 1e-2, res["symgrad_error"] <= 1e-2)
    checks.add("v_residual_2n", res2["v_residual"], 1e-3, res2["v_residual"] <= 1e-3)
    ratio = res["v_residual"] / max(res2["v_residual"], 1e-300)
    checks.add("v_refinement_ratio", ratio, 2.0, ratio >= 2.0)
    c_drift = abs(res2["C_star"] / res["C_star"] - 1.0)
    checks.add("C_star_drift", c_drift, 0.01, c_drift <= 0.01)

    theta = kernels.gaussian_bump(grid)
    full = kernels.symgrad_v_quadrature(theta, kcfg, 1.0)
    near, mid, far = kernels.split_symgrad_bound(theta, rho=0.05, L_split=1.0, beta=beta)
    scale = max(np.abs(f.values).max() for f in full) + 1e-300
    worst = max(
        np.abs(near[i].values + mid[i].values + far[i].values - full[i].values).max()
        for i in range(3)
    )
    checks.add("split_partition_identity", worst / scale, 1e-12, worst / scale <= 1e-12)
    checks.rows.append(["C_star", repr(float(res["C_star"])), "", ""])
    return checks.emit(args.out)


def cmd_inequality_suite(args) -> int:
    cfg = build_config(args.config, _collect_overrides(args))
    _check_output(args.out)
    grid = cfg.grid()
    params = cfg.flow_params()
    state = solver.initial_data(cfg.init_kind, cfg.seed, grid, cfg.amplitude)
    with _initial_monitors():
        rec0 = snapshot_record(state, params, cfg.monitor_q, cfg.monitor_s, 0.0, 0.0)
    theta0_l2, theta0_linf, u0_l2 = rec0.theta_l2, rec0.theta_linf, rec0.u_l2

    snapshots = [state]
    try:
        for st in solver.run(state, params, cfg.stepper(), n_steps=cfg.n_steps):
            snapshots.append(st)
    except solver.BlowUpError as exc:
        print(f"blow-up abort: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    picks = snapshots[:: max(1, len(snapshots) // 4)][:5]

    checks = _CheckTable()
    final = snapshots[-1]
    rec = snapshot_record(final, params, cfg.monitor_q, cfg.monitor_s, 0.0, 0.0)
    m2, minf = max_principle_margins(rec, theta0_l2, theta0_linf)
    band = 1e-6 * (1.0 + final.t)
    checks.add("maxprinciple_l2", m2, -band * theta0_l2, m2 >= -band * theta0_l2)
    checks.add("maxprinciple_linf", minf, -band * theta0_linf, minf >= -band * theta0_linf)
    lin, _ = energy_margin(rec, u0_l2, theta0_l2)
    checks.add("energy_linear", lin, -band * max(u0_l2, 1.0), lin >= -band * max(u0_l2, 1.0))

    for name, (gam, gam_p) in CONVEX_GAMMAS.items():
        worst = math.inf
        for st in picks:
            margin = cordoba_margin(st.theta, params.beta, gam, gam_p)
            scale = cordoba_scale(st.theta, params.beta, gam, gam_p)
            worst = min(worst, margin / scale)
        checks.add(f"cordoba_{name}", worst, -1e-8, worst >= -1e-8)

    theta = picks[-1].theta
    exact, _ = gradient_lower_bound_margin(theta, params.beta, 4.0)
    scale = max(np.abs(theta.values).max() ** 2, 1e-300)
    checks.add("gradlower_exact_part", exact / scale, -1e-8, exact / scale >= -1e-8)
    exact_h, _ = difference_lower_bound_margin(theta, (grid.n // 4, 0), params.beta)
    checks.add("difflower_exact_part", exact_h / scale, -1e-8, exact_h / scale >= -1e-8)

    m0 = rec0.grad_theta_linf
    if m0 > 0:
        delta = solver.delta_star(theta0_linf, params.beta, cfg.oss_delta_c)
        L = min(delta / (4.0 * m0), grid.side_length / 2.0)
        report = solver.oss_check(final.theta, delta, L)
        checks.add("oss_lipschitz_choice", report.delta_measured, delta, report.holds)

    try:
        check_lq_index(params.alpha, index_window(params.alpha).q0 + 0.1)
        checks.add("window_rejection", 0.0, 1.0, False)
    except ValueError:
        checks.add("window_rejection", 1.0, 1.0, True)
    return checks.emit(args.out)


def cmd_besov(args) -> int:
    _check_output(args.out)
    try:
        index = BesovIndex(args.s, args.p, args.r)
        state, params = solver.read_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if args.field == "theta":
        fh = state.theta_hat
    elif args.field == "omega":
        fh = state.omega_hat
    else:  # argparse limits --field to theta, omega and G
        fh = solver.G_hat(state, params.alpha)
    try:
        norms = block_norms(fh, index)
        total = lr_combine([v for _, v in norms], index.r)  # besov_norm's total, from the same norms
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [["j", "weighted_block_norm"]] + [[j, repr(float(v))] for j, v in norms]
    rows.append(["total", repr(float(total))])
    _emit(rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key = value config file")
    for key in _FLAG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), default=None)


def _collect_overrides(args) -> dict:
    return {key: _coerce(key, raw) for key in _FLAG_KEYS if (raw := getattr(args, key, None)) is not None}


def main(argv=None) -> int:
    parser = _Parser(prog="bq2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_res = sub.add_parser("resume", help="resume from a checkpoint")
    p_res.add_argument("checkpoint")
    _add_config_flags(p_res)
    p_res.set_defaults(fn=cmd_resume)

    p_kv = sub.add_parser("kernel-verify", help="kernel-quadrature oracle suite")
    p_kv.add_argument("--beta", type=float, required=True)
    p_kv.add_argument("--n", type=int, default=256)
    p_kv.add_argument("--out", default=None)
    p_kv.set_defaults(fn=cmd_kernel_verify)

    p_iq = sub.add_parser("inequality-suite", help="a-priori-bound battery on a short run")
    _add_config_flags(p_iq)
    p_iq.add_argument("--out", default=None)
    p_iq.set_defaults(fn=cmd_inequality_suite)

    p_bs = sub.add_parser("besov", help="per-band Besov table for a checkpoint field")
    p_bs.add_argument("checkpoint")
    p_bs.add_argument("--s", type=float, required=True)
    p_bs.add_argument("--p", type=float, default=2.0)
    p_bs.add_argument("--r", type=float, default=math.inf)
    p_bs.add_argument("--field", default="theta", choices=["theta", "omega", "G"])
    p_bs.add_argument("--out", default=None)
    p_bs.set_defaults(fn=cmd_besov)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
