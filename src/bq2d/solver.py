"""Time integration of the coupled vorticity-temperature system

  d_t omega + u.grad omega + nu Lambda^alpha omega = d1 theta
  d_t theta + u.grad theta + kappa Lambda^beta theta = 0,
  u = perp_grad(Delta^{-1} omega),

with an integrating-factor RK2 scheme: the diagonal fractional dissipation
is applied exactly through exp(-c |k|^g dt), the transport and buoyancy
terms explicitly.  Advection uses the divergence form div(u f) with
dealiased products, which conserves the theta mean to rounding.

The canonical prognostic state between steps is the pair of physical
collocation arrays; spectral views are derived on demand.  Checkpoints
store exactly those arrays, which is what makes a split run bitwise equal
to an unsplit one.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    SpectralField,
    biot_savart,
    coordinates,
    dealias,
    dealias_mask,
    field_from_function,
    fractional_laplacian,
    grad_sup,
    kpow,
    lp_norm,
    mean_free,
    random_band_field,
    riesz_alpha,
    shift_norms,
    to_physical,
    to_spectral,
    wavevectors,
)

OMEGA_BLOWUP_LIMIT = 1e8
DT_UNDERFLOW = 1e-12


class BlowUpError(RuntimeError):
    def __init__(self, t: float, omega_max: float):
        super().__init__(f"solution blew up at t={t:.6g} (max |omega| = {omega_max:.3e})")
        self.t = t
        self.omega_max = omega_max


@dataclass
class SimState:
    """Prognostic state: physical theta/omega arrays plus simulation time.

    ``theta_hat`` / ``omega_hat`` are the dealiased spectral views (cached;
    treat states as immutable snapshots).
    """

    theta: PhysicalField
    omega: PhysicalField
    t: float = 0.0

    @cached_property
    def theta_hat(self) -> SpectralField:
        return dealias(to_spectral(self.theta))

    @cached_property
    def omega_hat(self) -> SpectralField:
        return dealias(to_spectral(self.omega))

    @property
    def grid(self) -> GridSpec:
        return self.theta.grid


@dataclass(frozen=True)
class StepperConfig:
    dt_init: float
    cfl_number: float = 0.4
    t_end: float = 1.0

    def __post_init__(self):
        if self.dt_init <= 0 or self.t_end <= 0:
            raise ValueError("dt_init and t_end must be positive")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")


@dataclass(frozen=True)
class OssReport:
    delta_measured: float
    delta_target: float
    L: float
    holds: bool


# ---------------------------------------------------------------------------
# right-hand side


def _velocity(omega_hat: SpectralField):
    u1h, u2h = biot_savart(omega_hat)
    return to_physical(u1h), to_physical(u2h)


def _advection(u, f: PhysicalField, grid: GridSpec) -> np.ndarray:
    """Divergence-form transport coefficient array: i k . (u f)^ (dealiased).

    Works on raw arrays (no field validation) so an overflowing state
    surfaces as a blow-up diagnostic in the caller, not a type error.
    """
    k1, k2, _ = wavevectors(grid)
    keep = dealias_mask(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        p1 = np.where(keep, np.fft.fft2(u[0].values * f.values), 0.0) / grid.n**2
        p2 = np.where(keep, np.fft.fft2(u[1].values * f.values), 0.0) / grid.n**2
        return 1j * k1 * p1 + 1j * k2 * p2


def nonstiff_rhs(state: SimState, params: FlowParams):
    """Explicitly integrated tendencies (transport + buoyancy) and max |u|.

    Returns (N_theta, N_omega, u_max); the diagonal dissipation is excluded
    here and handled exactly by the integrating factor.
    """
    grid = state.grid
    th_hat, w_hat = state.theta_hat, state.omega_hat
    u = _velocity(w_hat)
    u_max = max(np.abs(u[0].values).max(), np.abs(u[1].values).max())
    if not math.isfinite(u_max):
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))
    theta_p = to_physical(th_hat)
    omega_p = to_physical(w_hat)
    k1, _, _ = wavevectors(grid)
    n_theta = -_advection(u, theta_p, grid)
    n_omega = -_advection(u, omega_p, grid) + 1j * k1 * th_hat.coeffs
    if not (np.isfinite(n_theta).all() and np.isfinite(n_omega).all()):
        raise BlowUpError(state.t, float(np.abs(omega_p.values).max()))
    return SpectralField(grid, n_theta), SpectralField(grid, n_omega), float(u_max)


def rhs(state: SimState, params: FlowParams):
    """Full tendencies (d theta^/dt, d omega^/dt) including dissipation."""
    n_theta, n_omega, _ = nonstiff_rhs(state, params)
    grid = state.grid
    d_theta = n_theta.coeffs - params.kappa * kpow(grid, params.beta) * state.theta_hat.coeffs
    d_omega = n_omega.coeffs - params.nu * kpow(grid, params.alpha) * state.omega_hat.coeffs
    return SpectralField(grid, d_theta), SpectralField(grid, d_omega)


def _integrating_factors(grid: GridSpec, params: FlowParams, dt: float):
    e_theta = np.exp(-params.kappa * dt * kpow(grid, params.beta))
    e_omega = np.exp(-params.nu * dt * kpow(grid, params.alpha))
    return e_theta, e_omega


def choose_dt(state: SimState, params: FlowParams, cfg: StepperConfig, u_max: float) -> float:
    dx = state.grid.spacing
    dt = cfg.dt_init
    if u_max > 0:
        dt = min(dt, cfg.cfl_number * dx / u_max)
    dt = min(dt, cfg.cfl_number * dx)  # buoyancy cap: zeroth-order coupling
    if dt < DT_UNDERFLOW:
        raise RuntimeError(f"time step underflow: dt={dt:.3e}")
    return dt


def _physical_checked(grid: GridSpec, coeffs: np.ndarray, t: float) -> PhysicalField:
    """Inverse transform that reports non-finite intermediates as blow-up."""
    vals = np.fft.ifft2(coeffs).real * grid.n**2
    if not np.isfinite(vals).all():
        finite = vals[np.isfinite(vals)]
        peak = float(np.abs(finite).max()) if finite.size else math.inf
        raise BlowUpError(t, peak)
    return PhysicalField(grid, vals)


def step(state: SimState, params: FlowParams, cfg: StepperConfig, dt: float | None = None) -> SimState:
    """One integrating-factor Heun step; dt defaults to the CFL choice."""
    grid = state.grid
    n1_theta, n1_omega, u_max = nonstiff_rhs(state, params)
    if dt is None:
        dt = choose_dt(state, params, cfg, u_max)
    if dt < DT_UNDERFLOW:
        raise RuntimeError(f"time step underflow: dt={dt:.3e}")
    e_theta, e_omega = _integrating_factors(grid, params, dt)

    th0, w0 = state.theta_hat.coeffs, state.omega_hat.coeffs
    th_pred = e_theta * (th0 + dt * n1_theta.coeffs)
    w_pred = e_omega * (w0 + dt * n1_omega.coeffs)
    pred = SimState(
        _physical_checked(grid, th_pred, state.t + dt),
        _physical_checked(grid, w_pred, state.t + dt),
        state.t + dt,
    )
    n2_theta, n2_omega, _ = nonstiff_rhs(pred, params)

    th_new = e_theta * th0 + 0.5 * dt * (e_theta * n1_theta.coeffs + n2_theta.coeffs)
    w_new = e_omega * w0 + 0.5 * dt * (e_omega * n1_omega.coeffs + n2_omega.coeffs)
    keep = dealias_mask(grid)
    theta_p = _physical_checked(grid, np.where(keep, th_new, 0.0), state.t + dt)
    omega_p = _physical_checked(grid, np.where(keep, w_new, 0.0), state.t + dt)

    omega_max = float(np.abs(omega_p.values).max())
    if omega_max > OMEGA_BLOWUP_LIMIT:
        raise BlowUpError(state.t + dt, omega_max)
    return SimState(theta_p, omega_p, state.t + dt)


def run(state: SimState, params: FlowParams, cfg: StepperConfig, n_steps: int | None = None):
    """Advance until t >= t_end (or exactly n_steps), yielding each new state."""
    count = 0
    while True:
        if n_steps is not None:
            if count >= n_steps:
                return
        elif state.t >= cfg.t_end:
            return
        state = step(state, params, cfg)
        count += 1
        yield state


# ---------------------------------------------------------------------------
# the combined quantity G and its evolution residual


def G_hat(state: SimState, alpha: float) -> SpectralField:
    """Coefficients of G = omega - R_alpha theta."""
    return SpectralField(
        state.grid, state.omega_hat.coeffs - riesz_alpha(state.theta_hat, alpha).coeffs
    )


def compute_G(state: SimState, alpha: float) -> PhysicalField:
    """G = omega - R_alpha theta in physical space."""
    return to_physical(G_hat(state, alpha))


def g_equation_residual(states, params: FlowParams) -> float:
    """L2 residual of the combined-quantity evolution equation on a
    three-state window at uniform dt (central difference in time).

    The transported equation reads
      d_t G + u.grad G + nu Lambda^alpha G
        = [R_alpha, u.grad] theta + (1-nu) d1 theta + kappa Lambda^{beta-alpha} d1 theta,
    which for nu = kappa = 1 is the familiar critical form.
    """
    if len(states) != 3:
        raise ValueError("need exactly three consecutive states")
    s0, s1, s2 = states
    dt1 = s1.t - s0.t
    dt2 = s2.t - s1.t
    if abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise ValueError("nonuniform time spacing in residual window")
    grid = s1.grid
    k1, _, _ = wavevectors(grid)
    alpha, beta = params.alpha, params.beta

    g1_hat = G_hat(s1, alpha)
    dt_g = (compute_G(s2, alpha).values - compute_G(s0, alpha).values) / (dt1 + dt2)

    u = _velocity(s1.omega_hat)
    adv = _advection(u, to_physical(g1_hat), grid)
    diss = params.nu * fractional_laplacian(g1_hat, alpha).coeffs

    th = s1.theta_hat
    comm = riesz_alpha(SpectralField(grid, _advection(u, to_physical(th), grid)), alpha).coeffs
    comm -= _advection(u, to_physical(riesz_alpha(th, alpha)), grid)
    d1_theta = SpectralField(grid, 1j * k1 * th.coeffs)
    forcing = (1.0 - params.nu) * d1_theta.coeffs + params.kappa * fractional_laplacian(
        d1_theta, beta - alpha
    ).coeffs

    spatial = to_physical(SpectralField(grid, adv + diss - comm - forcing))
    return lp_norm(PhysicalField(grid, dt_g + spatial.values), 2)


# ---------------------------------------------------------------------------
# initial data


def initial_data(kind: str, seed: int, grid: GridSpec, amplitude: float = 1.0) -> SimState:
    """Smooth band-limited initial states, reproducible from the seed."""
    if kind == "taylor-green-like":
        omega = field_from_function(
            grid, lambda x1, x2: 2.0 * amplitude * np.sin(x1) * np.sin(x2)
        )
        theta = field_from_function(grid, lambda x1, x2: amplitude * np.cos(x2))
    elif kind == "gaussian-bumps":
        rng = np.random.default_rng(seed)
        L = grid.side_length
        x1, x2 = coordinates(grid)

        def bumps():
            out = np.zeros((grid.n, grid.n))
            for _ in range(3):
                cx, cy = rng.uniform(0.25 * L, 0.75 * L, size=2)
                amp = rng.uniform(-1.0, 1.0)
                width = rng.uniform(L / 24.0, L / 12.0)
                d1 = np.minimum(np.abs(x1 - cx), L - np.abs(x1 - cx))
                d2 = np.minimum(np.abs(x2 - cy), L - np.abs(x2 - cy))
                out += amp * np.exp(-(d1**2 + d2**2) / (2.0 * width**2))
            return amplitude * out

        theta = PhysicalField(grid, bumps())
        omega = PhysicalField(grid, bumps())
    elif kind == "random-band":
        rng = np.random.default_rng(seed)
        theta = random_band_field(grid, 2.0, 6.0, rng, amplitude)
        omega = random_band_field(grid, 2.0, 6.0, rng, amplitude)
    else:
        raise ValueError(f"unknown initial data kind {kind!r}")
    theta = to_physical(dealias(to_spectral(theta)))
    omega = to_physical(mean_free(dealias(to_spectral(omega))))  # vorticity is mean-free
    return SimState(theta=theta, omega=omega, t=0.0)


def initial_report(state: SimState) -> dict:
    u1, u2 = _velocity(state.omega_hat)
    umag = np.hypot(u1.values, u2.values)
    return {
        "theta_l2": lp_norm(state.theta, 2),
        "theta_linf": lp_norm(state.theta, math.inf),
        "grad_theta_linf": grad_sup(state.theta_hat),
        "u_l2": float(math.sqrt(np.sum(umag**2) * state.grid.cell_weight)),
    }


# ---------------------------------------------------------------------------
# only-small-shocks machinery


def oss_check(theta: PhysicalField, delta: float, L: float) -> OssReport:
    """Exhaustive oscillation scan: max over grid shifts |h| < L of
    sup_x |theta(x+h) - theta(x)|."""
    grid = theta.grid
    if L > grid.side_length / 2.0:
        raise ValueError("L must not exceed half the domain size")
    tnorm = shift_norms(grid)
    shifts = np.argwhere((tnorm > 0) & (tnorm < L))
    measured = 0.0
    vals = theta.values
    for i, j in shifts:
        diff = np.abs(np.roll(vals, (-i, -j), axis=(0, 1)) - vals).max()
        measured = max(measured, float(diff))
    return OssReport(delta_measured=measured, delta_target=delta, L=L, holds=measured <= delta)


def delta_star(theta0_sup: float, beta: float, C_user: float) -> float:
    """Shock threshold C * ||theta0||_inf^{-2 beta / (2 - beta)}."""
    if theta0_sup <= 0:
        raise ValueError("theta0_sup must be positive")
    return C_user * theta0_sup ** (-2.0 * beta / (2.0 - beta))


def oss_weighted_profile(theta: PhysicalField, beta: float, psi_coeff: float):
    """Diagnostic profile of sup_x (delta_h theta)^2 * exp(-c |h|^{1-beta})
    over the grid of shifts; returns (|h| array, sup array) sorted by |h|."""
    grid = theta.grid
    tnorm = shift_norms(grid)
    shifts = np.argwhere(tnorm >= 0)
    vals = theta.values
    radii, sups = [], []
    for i, j in shifts:
        h = tnorm[i, j]
        if h > grid.side_length / 2.0:
            continue
        diff2 = (np.roll(vals, (-i, -j), axis=(0, 1)) - vals) ** 2
        weight = math.exp(-psi_coeff * h ** (1.0 - beta))
        radii.append(h)
        sups.append(float(diff2.max()) * weight)
    order = np.argsort(radii)
    return np.asarray(radii)[order], np.asarray(sups)[order]


# ---------------------------------------------------------------------------
# checkpoint format: text header + length-prefixed little-endian float64 arrays


def write_checkpoint(path, state: SimState, params: FlowParams) -> None:
    grid = state.grid
    header = "BQCHK1 {n} {L} {t} {nu} {kappa} {alpha} {beta}\n".format(
        n=grid.n,
        L=repr(grid.side_length),
        t=repr(state.t),
        nu=repr(params.nu),
        kappa=repr(params.kappa),
        alpha=repr(params.alpha),
        beta=repr(params.beta),
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for arr in (state.theta.values, state.omega.values):
            flat = np.ascontiguousarray(arr, dtype="<f8").reshape(-1)
            fh.write(struct.pack("<Q", flat.size))
            fh.write(flat.tobytes())


def read_checkpoint(path, dealias_fraction: float = 2.0 / 3.0):
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if len(header) != 8 or header[0] != "BQCHK1":
            raise ValueError(f"corrupt checkpoint header in {path}")
        n = int(header[1])
        L, t, nu, kappa, alpha, beta = (float(x) for x in header[2:])
        arrays = []
        for _ in range(2):
            (count,) = struct.unpack("<Q", fh.read(8))
            if count != n * n:
                raise ValueError("checkpoint array length does not match grid")
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError("truncated checkpoint payload")
            arrays.append(np.frombuffer(raw, dtype="<f8").reshape(n, n).astype(float))
    grid = GridSpec(n=n, side_length=L, dealias_fraction=dealias_fraction)
    state = SimState(PhysicalField(grid, arrays[0]), PhysicalField(grid, arrays[1]), t=t)
    params = FlowParams(nu=nu, kappa=kappa, alpha=alpha, beta=beta)
    return state, params
