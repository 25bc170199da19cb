"""Time integration of the coupled vorticity-temperature system

  d_t omega + u.grad omega + nu Lambda^alpha omega = d1 theta
  d_t theta + u.grad theta + kappa Lambda^beta theta = 0,
  u = perp_grad(Delta^{-1} omega),

with an integrating-factor RK2 scheme: the diagonal fractional dissipation
is applied exactly through exp(-c |k|^g dt), the transport and buoyancy
terms explicitly.  Advection uses the divergence form div(u f) with
dealiased products, which conserves the theta mean to rounding.

Stepping runs on real transforms: the half-plane (rfft2) coefficients of
the real fields with the symbol tables of ``spectral``; the diagnostics
(``G_hat``, ``initial_report``) take the same coefficients through the
spectral operators.  A step costs 18 real n x n transforms: the forward
pair of the state (shared with the dissipation rates on it), then per stage
2 inverse for the velocity and 4 forward for the products, and 2 inverse
each for the predictor and the new state.  With per-grid symbol tables,
spectra are multiplied and masked in place only on arrays the step allocated.

The canonical prognostic state between steps is the pair of physical
collocation arrays; spectral views are derived from them on demand (the
predictor hands its coefficients on without a round trip).  Checkpoints
store exactly those arrays, which is what makes a split run bitwise equal
to an unsplit one; the checkpoint format does not depend on the transforms.
"""

from __future__ import annotations

import contextlib
import math
import os
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
    biot_savart_symbols,
    derivative_symbols,
    dealias,
    dealias_mask,
    field_from_function,
    grad_sup,
    image_distance2,
    irfft2,
    kpow,
    l2_norm_spectral,
    lp_norm,
    mean_free,
    random_band_field,
    rfft2,
    riesz_alpha,
    shift_norms,
    shift_scan,
    to_physical,
    to_spectral,
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

    ``hats`` are the dealiased half-plane coefficients of (theta, omega),
    computed once and shared by the step from this state, the dissipation
    rates and the diagnostics on it; ``theta_hat`` / ``omega_hat`` wrap the
    same arrays as ``SpectralField``s.
    All are cached: treat states as immutable snapshots.
    """

    theta: PhysicalField
    omega: PhysicalField
    t: float = 0.0

    @cached_property
    def hats(self) -> tuple[np.ndarray, np.ndarray]:
        out = rfft2(self.theta.values), rfft2(self.omega.values)
        for c in out:
            c[~dealias_mask(self.grid)] = 0.0
        return out

    @cached_property
    def theta_hat(self) -> SpectralField:
        return SpectralField(self.grid, self.hats[0])

    @cached_property
    def omega_hat(self) -> SpectralField:
        return SpectralField(self.grid, self.hats[1])

    @property
    def grid(self) -> GridSpec:
        return self.theta.grid


@dataclass(frozen=True)
class StepperConfig:
    dt_init: float
    cfl_number: float = 0.4
    t_end: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dt_init, self.cfl_number, self.t_end)):
            raise ValueError("dt_init, cfl_number and t_end must be finite")
        if self.dt_init < DT_UNDERFLOW or self.t_end <= 0:
            raise ValueError(f"dt_init must be >= {DT_UNDERFLOW:g} and t_end positive")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")


@dataclass(frozen=True)
class OssReport:
    delta_measured: float
    delta_target: float
    L: float
    holds: bool


# ---------------------------------------------------------------------------
# right-hand side, on half-plane coefficient arrays


def _velocity(w: np.ndarray, grid: GridSpec):
    """Raw physical (u1, u2) from half-plane vorticity coefficients, for the
    step (``biot_savart`` is the diagnostics' path)."""
    return tuple(irfft2(s * w) for s in biot_savart_symbols(grid))


def _velocity_l2(state: SimState) -> float:
    """||u||_2 by Parseval from the Biot-Savart coefficients."""
    return math.hypot(*(l2_norm_spectral(c) for c in biot_savart(state.omega_hat)))


def _advection(u, f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Divergence-form transport, half-plane coefficients of i k . (u f)^
    (dealiased).

    Works on raw arrays (no field validation) so an overflowing state
    surfaces as a blow-up diagnostic in the caller, not a type error.
    """
    ik1, ik2 = derivative_symbols(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        p1, p2 = rfft2(u[0] * f), rfft2(u[1] * f)
        p1 *= ik1
        p1 += np.multiply(p2, ik2, out=p2)
    p1[~dealias_mask(grid)] = 0.0
    return p1


def nonstiff_rhs(state: SimState, hats=None):
    """Explicitly integrated tendencies (transport + buoyancy) and max |u|.

    Returns (N_theta, N_omega, u_max) with the tendencies as half-plane
    coefficient arrays; the diagonal dissipation is excluded here and
    handled exactly by the integrating factor.  ``hats`` are the dealiased
    half-plane coefficients of the state when the caller already holds
    them (the predictor), ``state.hats`` otherwise.  The products use
    the physical arrays as they are: at step boundaries they are the
    inverse transforms of dealiased coefficients.
    """
    grid = state.grid
    th_hat, w_hat = state.hats if hats is None else hats
    u = _velocity(w_hat, grid)
    u_max = max(np.abs(u[0]).max(), np.abs(u[1]).max())
    if not math.isfinite(u_max):
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))
    n_theta = -_advection(u, state.theta.values, grid)
    n_omega = derivative_symbols(grid)[0] * th_hat
    n_omega -= _advection(u, state.omega.values, grid)
    if not (np.isfinite(n_theta).all() and np.isfinite(n_omega).all()):
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))
    return n_theta, n_omega, float(u_max)


def rhs(state: SimState, params: FlowParams):
    """Full tendencies (d theta^/dt, d omega^/dt) including dissipation."""
    n_theta, n_omega, _ = nonstiff_rhs(state)
    grid = state.grid
    th_hat, w_hat = state.hats
    d_theta = n_theta - params.kappa * kpow(grid, params.beta) * th_hat
    d_omega = n_omega - params.nu * kpow(grid, params.alpha) * w_hat
    return SpectralField(grid, d_theta), SpectralField(grid, d_omega)


def _integrating_factors(grid: GridSpec, params: FlowParams, dt: float):
    e_theta = np.exp(-params.kappa * dt * kpow(grid, params.beta))
    e_omega = np.exp(-params.nu * dt * kpow(grid, params.alpha))
    return e_theta, e_omega


def choose_dt(state: SimState, cfg: StepperConfig, u_max: float) -> float:
    """CFL step; a velocity that drives it below DT_UNDERFLOW is a blow-up."""
    dx = state.grid.spacing
    dt = min(cfg.dt_init, cfg.cfl_number * dx)  # buoyancy cap: zeroth-order coupling
    if dt < DT_UNDERFLOW:
        raise RuntimeError(f"time step underflow: dt={dt:.3e}")
    if u_max > 0:
        dt = min(dt, cfg.cfl_number * dx / u_max)
    if dt < DT_UNDERFLOW:
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))
    return dt


def _physical_checked(grid: GridSpec, coeffs: np.ndarray, t: float) -> PhysicalField:
    """Inverse transform that reports non-finite intermediates as blow-up."""
    vals = irfft2(coeffs)
    try:
        return PhysicalField(grid, vals)
    except ValueError:
        finite = vals[np.isfinite(vals)]
        raise BlowUpError(t, float(np.abs(finite).max()) if finite.size else math.inf) from None


def step(state: SimState, params: FlowParams, cfg: StepperConfig, dt: float | None = None) -> SimState:
    """One integrating-factor Heun step; dt defaults to the CFL choice."""
    grid = state.grid
    n1_theta, n1_omega, u_max = nonstiff_rhs(state)
    if dt is None:
        dt = choose_dt(state, cfg, u_max)
    elif dt < DT_UNDERFLOW:
        raise RuntimeError(f"time step underflow: dt={dt:.3e}")
    e_theta, e_omega = _integrating_factors(grid, params, dt)
    t = state.t + dt

    th0, w0 = state.hats
    th_pred = e_theta * (th0 + dt * n1_theta)
    w_pred = e_omega * (w0 + dt * n1_omega)
    pred = SimState(_physical_checked(grid, th_pred, t), _physical_checked(grid, w_pred, t), t)
    n2_theta, n2_omega, _ = nonstiff_rhs(pred, (th_pred, w_pred))

    # every term is dealiased already: th0, w0 by construction, N1 and N2 by _advection
    th_new = e_theta * th0 + 0.5 * dt * (e_theta * n1_theta + n2_theta)
    w_new = e_omega * w0 + 0.5 * dt * (e_omega * n1_omega + n2_omega)
    theta_p = _physical_checked(grid, th_new, t)
    omega_p = _physical_checked(grid, w_new, t)

    omega_max = float(max(omega_p.values.max(), -omega_p.values.min()))
    if omega_max > OMEGA_BLOWUP_LIMIT:
        raise BlowUpError(t, omega_max)
    return SimState(theta_p, omega_p, t)


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
    """Half-plane coefficients of G = omega - R_alpha theta."""
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
    alpha, beta = params.alpha, params.beta

    g1 = G_hat(s1, alpha).coeffs
    dt_g = (compute_G(s2, alpha).values - compute_G(s0, alpha).values) / (dt1 + dt2)

    th_hat, w_hat = s1.hats
    u = _velocity(w_hat, grid)
    adv = _advection(u, irfft2(g1), grid)
    diss = params.nu * kpow(grid, alpha) * g1

    comm = riesz_alpha(SpectralField(grid, _advection(u, s1.theta.values, grid)), alpha).coeffs
    comm -= _advection(u, to_physical(riesz_alpha(s1.theta_hat, alpha)).values, grid)
    d1_theta = derivative_symbols(grid)[0] * th_hat
    forcing = (1.0 - params.nu + params.kappa * kpow(grid, beta - alpha)) * d1_theta

    spatial = irfft2(adv + diss - comm - forcing)
    return lp_norm(PhysicalField(grid, dt_g + spatial), 2)


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

        def bumps():
            out = np.zeros((grid.n, grid.n))
            for _ in range(3):
                cx, cy = rng.uniform(0.25 * L, 0.75 * L, size=2)
                amp = rng.uniform(-1.0, 1.0)
                width = rng.uniform(L / 24.0, L / 12.0)
                out += amp * np.exp(-image_distance2(grid, cx, cy) / (2.0 * width**2))
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
    return {
        "theta_l2": lp_norm(state.theta, 2),
        "theta_linf": lp_norm(state.theta, math.inf),
        "grad_theta_linf": grad_sup(state.theta_hat),
        "u_l2": _velocity_l2(state),
    }


# ---------------------------------------------------------------------------
# only-small-shocks machinery


def _one_of_each_pair(grid: GridSpec) -> np.ndarray:
    """Mask of one grid shift of each pair +-h: signed index m1 > 0, or
    m1 = 0 and m2 > 0, plus the shifts that are their own mirror
    (m1, m2 in {0, -n/2})."""
    idx = np.arange(grid.n)
    positive = (idx > 0) & (idx < grid.n / 2)
    own = (idx == 0) | (2 * idx == grid.n)
    return positive[:, None] | ((idx == 0)[:, None] & positive[None, :]) | (own[:, None] & own[None, :])


def _sup_abs(d: np.ndarray) -> float:
    """max |d|, without an |d| temporary."""
    return max(d.max(), -d.min())


def oss_check(theta: PhysicalField, delta: float, L: float) -> OssReport:
    """Exhaustive oscillation scan: max over grid shifts |h| < L of
    sup_x |theta(x+h) - theta(x)|.

    The values at -h are those at h with the sign flipped, so one shift of
    each pair is scanned (``_one_of_each_pair``; a shift that is its own
    mirror is never shorter than L).
    """
    grid = theta.grid
    if L > grid.side_length / 2.0:
        raise ValueError("L must not exceed half the domain size")
    tnorm = shift_norms(grid)
    sups = shift_scan(theta.values, _one_of_each_pair(grid) & (tnorm > 0) & (tnorm < L), _sup_abs)
    measured = float(sups.max(initial=0.0))
    return OssReport(delta_measured=measured, delta_target=delta, L=L, holds=measured <= delta)


def delta_star(theta0_sup: float, beta: float, C_user: float) -> float:
    """Shock threshold C * ||theta0||_inf^{-2 beta / (2 - beta)}."""
    if theta0_sup <= 0:
        raise ValueError("theta0_sup must be positive")
    return C_user * theta0_sup ** (-2.0 * beta / (2.0 - beta))


def oss_weighted_profile(theta: PhysicalField, beta: float, psi_coeff: float):
    """Diagnostic profile of sup_x (delta_h theta)^2 * exp(-c |h|^{1-beta})
    over the grid shifts with |h| <= L/2; returns (|h| array, sup array)
    sorted by |h|.

    sup_x (delta_h theta)^2 is bitwise the same at h and -h (the difference
    at -h is the one at h, negated and moved), so one shift of each pair is
    scanned (``_one_of_each_pair``, as in ``oss_check``) and mirrored to the
    other.  The scan is ``shift_scan``'s.  max |d| squared equals max d^2
    bit for bit, because rounding x^2 is monotone in |x|.
    """
    grid = theta.grid
    tnorm = shift_norms(grid)
    include = tnorm <= grid.side_length / 2.0
    scanned = _one_of_each_pair(grid)
    todo = include & scanned
    sup2 = np.zeros((grid.n, grid.n))
    sup2[todo] = shift_scan(theta.values, todo, _sup_abs) ** 2
    mirror = -np.arange(grid.n) % grid.n
    sup2 = np.where(scanned, sup2, sup2[np.ix_(mirror, mirror)])
    radii = tnorm[include]
    weights = np.array([math.exp(-psi_coeff * h ** (1.0 - beta)) for h in radii])
    order = np.argsort(radii)
    return radii[order], (sup2[include] * weights)[order]


# ---------------------------------------------------------------------------
# checkpoint format: text header + length-prefixed little-endian float64 arrays


def write_checkpoint(path, state: SimState, params: FlowParams) -> None:
    grid = state.grid
    header = "BQCHK2 {n} {L} {frac} {t} {nu} {kappa} {alpha} {beta}\n".format(
        n=grid.n,
        L=repr(grid.side_length),
        frac=repr(grid.dealias_fraction),
        t=repr(state.t),
        nu=repr(params.nu),
        kappa=repr(params.kappa),
        alpha=repr(params.alpha),
        beta=repr(params.beta),
    )
    # written beside the target and renamed over it, so a killed run never
    # leaves a torn checkpoint behind
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii"))
            for arr in (state.theta.values, state.omega.values):
                flat = np.ascontiguousarray(arr, dtype="<f8").reshape(-1)
                fh.write(struct.pack("<Q", flat.size))
                fh.write(flat.tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path):
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if header[:1] == ["BQCHK1"]:
            header[3:3] = [repr(2.0 / 3.0)]  # BQCHK1 has no dealias fraction: the default
        if len(header) != 9 or header[0] not in ("BQCHK1", "BQCHK2"):
            raise ValueError(f"corrupt checkpoint header in {path}")
        n = int(header[1])
        L, frac, t, nu, kappa, alpha, beta = (float(x) for x in header[2:])
        arrays = []
        for _ in range(2):
            prefix = fh.read(8)
            if len(prefix) != 8:
                raise ValueError("truncated checkpoint payload")
            (count,) = struct.unpack("<Q", prefix)
            if count != n * n:
                raise ValueError("checkpoint array length does not match grid")
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError("truncated checkpoint payload")
            arrays.append(np.frombuffer(raw, dtype="<f8").reshape(n, n).astype(float))
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    grid = GridSpec(n=n, side_length=L, dealias_fraction=frac)
    state = SimState(PhysicalField(grid, arrays[0]), PhysicalField(grid, arrays[1]), t=t)
    params = FlowParams(nu=nu, kappa=kappa, alpha=alpha, beta=beta)
    return state, params
