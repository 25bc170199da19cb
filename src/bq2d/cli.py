"""Command-line front end: simulation runs, resumption, and the
verification suites.

Configuration is a flat ``key = value`` text file ('#' starts a comment);
every command-line flag mirrors a config key, is matched by its full name
only, is parsed as in the file (by ``_coerce``, as the type of its
``RunConfig`` field) and wins over the file.  All
values are validated before any file output is created; a command line that
does not parse and an output location that cannot be created are refused
before any computation.  Exit codes:
0 success, 2 config error, 3 blow-up abort (or a monitor that fails on a
stepped state), 4 assertion failure inside a verification suite.  A
command reports bad input by raising ``ConfigError``; ``main`` alone turns
it into the ``config error:`` line and exit 2.  The
only environment variable honored is ``BQ2D_OUT_DIR``, which overrides the
output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import kernels, solver
from .lp import BesovIndex, block_norms, lr_combine
from .spectral import FlowParams, GridSpec, dealias_mask
from .monitors import (
    CONVEX_GAMMAS,
    RunMonitor,
    bound_margins,
    check_lq_index,
    cordoba_ratios,
    csv_header,
    difference_lower_bound_margin,
    gradient_lower_bound_margin,
    index_window,
    monitor_indices,
    snapshot_record,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_ASSERTION = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Subparsers share the class; a flag's prefix is no alias; -1e300 and -inf are values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$", re.I)

    def error(self, message):  # a bad command line is bad input too
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
    beta: float | None = None  # None: derive from the critical relation
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
    monitor_q: float | None = None  # None: monitors.monitor_indices picks it
    monitor_s: float | None = None
    oss_delta_c: float = 1.0
    oss_L: float = 0.2

    def validate(self) -> None:
        """Derive beta, check every value in turn and end with the monitor
        indices (``monitor_indices`` fills a None one); a ConfigError names
        the first value that fails."""
        if self.critical and self.beta is None:
            self.beta = 1.0 - self.alpha
            if self.beta <= 0:
                raise ConfigError(f"critical = true derives beta = 1 - alpha = {self.beta!r} <= 0")
        if self.beta is None:
            raise ConfigError("beta must be given when critical = false")
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
        _check_addressable(self.n, self.n)
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
        if not 0.0 < self.oss_L <= self.side_length / 2.0:
            raise ConfigError("oss_L must lie in (0, side_length / 2]")
        if self.oss_delta_c <= 0.0:
            raise ConfigError("oss_delta_c must be positive")
        try:
            self.monitor_q, self.monitor_s = monitor_indices(self.alpha, self.monitor_q, self.monitor_s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.side_length, self.dealias_fraction)

    def flow_params(self) -> FlowParams:
        return FlowParams(self.nu, self.kappa, self.alpha, self.beta, critical=self.critical)

    def stepper(self) -> solver.StepperConfig:
        return solver.StepperConfig(self.dt_init, self.cfl_number, self.t_end)


_KEY_TYPES = typing.get_type_hints(RunConfig)
_FLAG_KEYS = [f.name for f in fields(RunConfig)]


def _coerce(key: str, raw: str):
    """``raw`` as the type ``RunConfig`` annotates ``key`` with; a key that
    may be None also takes ``none``."""
    raw = raw.strip()
    kinds = typing.get_args(_KEY_TYPES[key]) or (_KEY_TYPES[key],)  # a union's members, or the one type
    if str in kinds:
        return raw
    if bool in kinds:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    if raw.lower() == "none" and type(None) in kinds:
        return None
    parse, what = (int, "an integer") if int in kinds else (float, "a number")
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: expected {what}, got {raw!r}") from exc


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
    overrides it; n is never overridden.  A critical resume given an alpha
    flag and no beta flag derives beta from that alpha, as ``run`` does.
    """
    header = dict(header or {})
    if "alpha" in overrides and "beta" not in overrides and overrides.get("critical", header.get("critical")):
        header.pop("beta", None)
    file_vals = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        file_vals = parse_config_text(text)
    layers = dict(file_vals)
    for key, ckpt_val in header.items():
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
    if header and cfg.n != header["n"]:
        raise ConfigError(f"checkpoint has n={header['n']!r}; a resume cannot change n to {cfg.n!r}")
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


def _check_addressable(n: int, side: int) -> None:
    """ConfigError unless numpy can address the half-plane coefficients of a
    side x side grid, the largest array that a command at grid size n makes."""
    if 16 * side * (side // 2 + 1) > np.iinfo(np.intp).max:
        raise ConfigError(f"n={n} is too large: a {side} x {side} grid exceeds numpy's addressable size")


def _run_loop(cfg: RunConfig, state: solver.SimState, announce: bool = False) -> int:
    """Step, monitor and checkpoint from ``state`` into ``cfg.out_dir``; with
    ``announce``, first print the ``initial:`` line from the starting snapshot
    record.  That record and its margins are taken before any output.  A
    blow-up is exit 3 with the last finite state's record in
    ``post_mortem.csv``; so is a monitor that fails on a stepped state (a
    ValueError or ArithmeticError), with the last good record."""
    params, stepper, out_dir = cfg.flow_params(), cfg.stepper(), cfg.out_dir

    def post_mortem(comment, rec):
        """``post_mortem.csv``: a ``# comment`` line, the CSV header and ``rec``'s row; returns its path."""
        path = os.path.join(out_dir, "post_mortem.csv")
        with open(path, "w") as fh:
            fh.write(f"# {comment}\n{csv_header()}\n{rec.csv_row()}\n")
        return path

    with _initial_monitors():
        monitor = RunMonitor(state, params, cfg.monitor_q, cfg.monitor_s, cfg.oss_L)
    rec = monitor.initial
    if announce:
        print(
            "initial: theta_l2={!r} theta_linf={!r} grad_theta_linf={!r} u_l2={!r}".format(
                rec.theta_l2, rec.theta_linf, rec.grad_theta_linf, rec.u_l2
            )
        )
    os.makedirs(out_dir, exist_ok=True)

    cur = state
    try:
        with open(os.path.join(out_dir, "diagnostics.csv"), "w") as csv:
            csv.write(csv_header() + "\n" + rec.csv_row() + "\n")
            for cur in solver.run(state, params, stepper, n_steps=cfg.n_steps):
                monitor.advance(cur)
                if cfg.checkpoint_every and monitor.steps % cfg.checkpoint_every == 0:
                    solver.write_checkpoint(os.path.join(out_dir, f"ckpt_{monitor.steps:08d}.chk"), cur, params)
                if monitor.steps % cfg.diag_every == 0:
                    rec = monitor.record(cur)
                    print(rec.csv_row(), file=csv, flush=True)
            if monitor.steps % cfg.diag_every != 0:
                rec = monitor.record(cur)
                print(rec.csv_row(), file=csv, flush=True)
    except solver.BlowUpError as exc:
        post = post_mortem(f"blow-up at t={exc.t!r} max_omega={exc.omega_max!r}", monitor.record(cur))  # the last finite state
        print(f"blow-up abort: {exc} (post-mortem: {post})", file=sys.stderr)
        return EXIT_BLOWUP
    except (ValueError, ArithmeticError) as exc:  # a monitor that fails on a stepped state
        post = post_mortem(f"monitor error at t={cur.t!r}: {exc!r}", rec)  # the last good record
        print(f"monitor abort at t={cur.t!r}: {exc!r} (post-mortem: {post})", file=sys.stderr)
        return EXIT_BLOWUP
    solver.write_checkpoint(os.path.join(out_dir, "final.chk"), cur, params)
    print(f"steps={monitor.steps} t_final={_float_fmt(cur.t)}")
    print(
        "final: theta_l2={} theta_linf={} omega_linf={}".format(
            _float_fmt(rec.theta_l2), _float_fmt(rec.theta_linf), _float_fmt(rec.omega_linf)
        )
    )
    print("worst margins:", *(f"{k.removeprefix('margin_')}={_float_fmt(v)}" for k, v in monitor.worst.items()))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = build_config(args.config, _collect_overrides(args))
    _check_output(cfg.out_dir, directory=True)
    state = solver.initial_data(cfg.init_kind, cfg.seed, cfg.grid(), cfg.amplitude)
    return _run_loop(cfg, state, announce=True)


def cmd_resume(args) -> int:
    try:
        state, params = solver.read_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot resume: {exc}") from exc
    header = {**asdict(state.grid), **asdict(params)}
    cfg = build_config(args.config, _collect_overrides(args), header)
    _check_output(cfg.out_dir, directory=True)
    grid = cfg.grid()
    if grid != state.grid:  # a flag changed the side length or the dealias fraction
        keep = dealias_mask(grid)
        state = solver.SimState(grid, tuple(np.where(keep, c, 0.0) for c in state.hats), state.t)
    return _run_loop(cfg, state)


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

    def add(self, name, value, threshold, floor: bool = False) -> None:
        """A check passes when ``value`` is at most its cap ``threshold``, or at
        least it when the threshold is a ``floor``; NaN fails either way."""
        value, threshold = float(value), float(threshold)
        passed = value >= threshold if floor else value <= threshold
        self.ok = self.ok and passed
        self.rows.append([name, repr(value), repr(threshold), passed])

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
    _check_addressable(n, 4 * n)  # the 2n run's zero-padded kernel grid
    _check_output(args.out)
    checks = _CheckTable()
    checks.add("sigma_circle_mean", np.abs(kernels.circle_mean_sigma(1.0, 64)).max(), 1e-12)
    try:
        res = kernels.quadrature_errors(beta, n)
        # the 2n pass reads only C_star and the velocity residual: the fit alone
        c2, resid2 = kernels.calibrate_C_beta(beta, 2 * n, residual_tol=math.inf)
    except kernels.CalibrationError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    checks.add("v_residual_n", res["v_residual"], 1e-3)
    checks.add("symgrad_error_n", res["symgrad_error"], 1e-2)
    checks.add("v_residual_2n", resid2, 1e-3)
    checks.add("v_refinement_ratio", res["v_residual"] / max(resid2, 1e-300), 2.0, floor=True)
    checks.add("C_star_drift", abs(c2 / res["C_star"] - 1.0), 0.01)

    theta = kernels.gaussian_bump(grid)
    full = kernels.symgrad_v_quadrature(theta, kcfg, 1.0)
    near, mid, far = kernels.split_symgrad_bound(theta, rho=0.05, L_split=1.0, beta=beta)
    scale = max(np.abs(f.values).max() for f in full) + 1e-300
    worst = max(
        np.abs(near[i].values + mid[i].values + far[i].values - full[i].values).max()
        for i in range(3)
    )
    checks.add("split_partition_identity", worst / scale, 1e-12)
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
        m0 = rec0.grad_theta_linf
        delta = solver.delta_star(rec0.theta_linf, params.beta, cfg.oss_delta_c) if m0 > 0 else 0.0

    # keeps the last state and every stride-th from t = 0, at most 5; to t_end, a first pass counts
    steps = lambda: solver.run(state, params, cfg.stepper(), n_steps=cfg.n_steps)
    picks, final = [state], state
    try:
        count = cfg.n_steps or sum(1 for _ in steps())  # a given n_steps is >= 1
        stride = max(1, (count + 1) // 4)  # of the count + 1 states
        for i, final in enumerate(steps(), 1):
            if i % stride == 0 and len(picks) < 5:
                picks.append(final)
    except solver.BlowUpError as exc:
        print(f"blow-up abort: {exc}", file=sys.stderr)
        return EXIT_BLOWUP

    checks = _CheckTable()
    rec = snapshot_record(final, params, cfg.monitor_q, cfg.monitor_s, 0.0, 0.0)
    bound_margins(rec, rec0)
    band = 1e-6 * (1.0 + final.t)
    checks.add("maxprinciple_l2", rec.margin_maxprinciple_l2, -band * rec0.theta_l2, floor=True)
    checks.add("maxprinciple_linf", rec.margin_maxprinciple_linf, -band * rec0.theta_linf, floor=True)
    checks.add("energy_linear", rec.margin_energy_linear, -band * max(rec0.u_l2, 1.0), floor=True)

    worst = dict.fromkeys(CONVEX_GAMMAS, math.inf)
    for st in picks:
        for name, ratio in cordoba_ratios(st.theta, params.beta).items():
            worst[name] = min(worst[name], ratio)
    for name, w in worst.items():
        checks.add(f"cordoba_{name}", w, -1e-8, floor=True)

    theta = picks[-1].theta
    scale = max(np.abs(theta.values).max() ** 2, 1e-300)
    exact = gradient_lower_bound_margin(theta, params.beta, 4.0)[0]
    checks.add("gradlower_exact_part", exact / scale, -1e-8, floor=True)
    exact = difference_lower_bound_margin(theta, (grid.n // 4, 0), params.beta)[0]
    checks.add("difflower_exact_part", exact / scale, -1e-8, floor=True)

    if m0 > 0:
        L = min(delta / (4.0 * m0), grid.side_length / 2.0)
        checks.add("oss_lipschitz_choice", solver.oss_check(final.theta, L), delta)

    try:
        check_lq_index(params.alpha, index_window(params.alpha).q0 + 0.1)
        rejected = 0.0
    except ValueError:
        rejected = 1.0
    checks.add("window_rejection", rejected, 1.0, floor=True)
    return checks.emit(args.out)


def cmd_besov(args) -> int:
    _check_output(args.out)
    try:
        index = BesovIndex(args.s, args.p, args.r)
        state, params = solver.read_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        if args.field == "G":
            fh = solver.G_hat(state, params.alpha)
        else:  # argparse limits --field to theta, omega and G
            fh = state.theta_hat if args.field == "theta" else state.omega_hat
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
    except (ConfigError, MemoryError) as exc:  # a MemoryError: an n too large for this machine
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
