"""Time-series monitors for the global a priori bounds and the pointwise
convexity inequalities, reporting margins (bound minus measured value) and
measured constants.

Unspecified constants are measured, recorded and regression-guarded, never
asserted against theoretical values: the analysis guarantees their
existence, not their magnitude.  The nonlocal Dirichlet forms D and D_h are
approximated by truncated torus quadrature (singular cell excluded) and
appear only inside measured quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lp import BesovIndex, besov_norm
from .solver import G_hat, SimState, _velocity_l2
from .spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    SpectralField,
    biot_savart,
    fractional_laplacian,
    grad,
    grad_sup,
    half_plane_sum,
    irfft2,
    kpow,
    lp_norm,
    rfft2,
    shift_norms,
    to_physical,
    to_spectral,
)

ALPHA_STAR = (23.0 - math.sqrt(145.0)) / 12.0  # threshold where the q-window closes


@dataclass(frozen=True)
class IndexWindow:
    """Admissible (s, q) indices for the regularity monitors at a given alpha.

    ``q_low_sqdef`` is the lower endpoint 2/(2 alpha - 1) required by the
    Besov-bound indices; ``q_low`` is the stricter 2/(3 alpha - 2) needed to
    also control the gradient of the regular velocity part, and it is the
    bound that collides with q0 at alpha = ALPHA_STAR.
    """

    alpha: float
    q0: float
    q_low_sqdef: float
    q_low: float
    s_max: float
    alpha0: float = ALPHA_STAR

    @property
    def valid(self) -> bool:
        return self.q_low < self.q0 and self.s_max > 0


def index_window(alpha: float) -> IndexWindow:
    if not 0.8 < alpha < 1.0:
        raise ValueError(
            f"q0 formula requires alpha > 4/5 (and alpha < 1); got alpha={alpha}"
        )
    q0 = (8.0 - 4.0 * alpha) / (8.0 - 7.0 * alpha)
    return IndexWindow(
        alpha=alpha,
        q0=q0,
        q_low_sqdef=2.0 / (2.0 * alpha - 1.0),
        q_low=2.0 / (3.0 * alpha - 2.0),
        s_max=3.0 * alpha - 2.0,
    )


def check_lq_index(alpha: float, q: float) -> None:
    """Admissibility for the L^q bound on G: 2 < q < q0."""
    win = index_window(alpha)
    if not 2.0 < q < win.q0:
        raise ValueError(
            f"q={q} outside the L^q window (2, q0) with q0={win.q0:.6f} at alpha={alpha}"
        )


def check_besov_index(alpha: float, s: float, q: float) -> None:
    """Admissibility for the Besov bound on G: 0 < s <= 3a-2, q_low_sqdef < q < q0."""
    win = index_window(alpha)
    if not 0.0 < s <= win.s_max:
        raise ValueError(f"s={s} violates 0 < s <= 3*alpha - 2 = {win.s_max:.6f}")
    if not win.q_low_sqdef < q < win.q0:
        raise ValueError(
            f"q={q} violates {win.q_low_sqdef:.6f} = 2/(2 alpha - 1) < q < q0 = {win.q0:.6f}"
        )


# ---------------------------------------------------------------------------
# diagnostics records and CSV schema


CSV_COLUMNS = [
    "t",
    "theta_l2",
    "theta_linf",
    "u_l2",
    "omega_linf",
    "grad_theta_linf",
    "G_l2",
    "G_lq",
    "q",
    "G_besov",
    "s",
    "diss_u_accum",
    "diss_G_accum",
    "margin_maxprinciple_l2",
    "margin_maxprinciple_linf",
    "margin_energy_linear",
    "cordoba_min",
    "oss_delta_measured",
]


@dataclass
class DiagnosticsRecord:
    t: float
    theta_l2: float
    theta_linf: float
    u_l2: float
    omega_linf: float
    grad_theta_linf: float
    G_l2: float
    G_lq: float
    q: float
    G_besov: float
    s: float
    diss_u_accum: float
    diss_G_accum: float
    margins: dict = field(default_factory=dict)

    def csv_row(self) -> str:
        vals = [
            self.t,
            self.theta_l2,
            self.theta_linf,
            self.u_l2,
            self.omega_linf,
            self.grad_theta_linf,
            self.G_l2,
            self.G_lq,
            self.q,
            self.G_besov,
            self.s,
            self.diss_u_accum,
            self.diss_G_accum,
            self.margins.get("maxprinciple_l2", 0.0),
            self.margins.get("maxprinciple_linf", 0.0),
            self.margins.get("energy_linear", 0.0),
            self.margins.get("cordoba_min", 0.0),
            self.margins.get("oss_delta_measured", 0.0),
        ]
        return ",".join(repr(float(v)) for v in vals)


def csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def snapshot_record(
    state: SimState,
    params: FlowParams,
    q: float,
    s: float,
    diss_u_accum: float,
    diss_G_accum: float,
) -> DiagnosticsRecord:
    """Pure function of a snapshot (plus the running dissipation integrals).

    Works on the half-plane coefficients the state caches: ||u||_2 by
    Parseval, and the Besov blocks of G from its coefficients."""
    g_hat = G_hat(state, params.alpha)
    G = to_physical(g_hat)
    return DiagnosticsRecord(
        t=state.t,
        theta_l2=lp_norm(state.theta, 2),
        theta_linf=lp_norm(state.theta, math.inf),
        u_l2=_velocity_l2(state),
        omega_linf=lp_norm(state.omega, math.inf),
        grad_theta_linf=grad_sup(state.theta_hat),
        G_l2=lp_norm(G, 2),
        G_lq=lp_norm(G, q),
        q=q,
        G_besov=besov_norm(g_hat, BesovIndex(s, q, math.inf)),
        s=s,
        diss_u_accum=diss_u_accum,
        diss_G_accum=diss_G_accum,
    )


def dissipation_rates(state: SimState, params: FlowParams) -> tuple[float, float]:
    """(||Lambda^{a/2} u||_2^2, ||Lambda^{a/2} G||_2^2) for the accumulators.

    Biot-Savart gives |u^|^2 = |omega^|^2 / |k|^2, so the velocity rate is
    L^2 sum |k|^{a-2} |omega^|^2.  Both sums run over the half-plane
    coefficients the next step reuses.
    """
    grid = state.grid
    a = params.alpha
    w2 = np.abs(state.hats[1]) ** 2
    u_rate = grid.side_length**2 * half_plane_sum(kpow(grid, a - 2.0) * w2)
    g2 = np.abs(G_hat(state, a).coeffs) ** 2
    g_rate = grid.side_length**2 * half_plane_sum(kpow(grid, a) * g2)
    return u_rate, g_rate


# ---------------------------------------------------------------------------
# global-bound margins


def max_principle_margins(record: DiagnosticsRecord, theta0_l2: float, theta0_linf: float):
    """(||theta0||_p - ||theta(t)||_p) for p = 2, inf; negative means violation."""
    return theta0_l2 - record.theta_l2, theta0_linf - record.theta_linf


def energy_margin(record: DiagnosticsRecord, u0_l2: float, theta0_l2: float):
    """Margins of the velocity growth bounds.

    Returns (linear, squared) where linear is the standard estimate
    ||u(t)||_2 <= ||u0||_2 + t ||theta0||_2 and squared is the cruder
    (||u0||^2 + t ||theta0||^2)^2 form reported side by side (the squared
    form fails at t=0 whenever ||u0|| < 1, so only the linear margin is
    asserted).
    """
    linear = u0_l2 + record.t * theta0_l2 - record.u_l2
    squared = (u0_l2**2 + record.t * theta0_l2**2) ** 2 - (
        record.u_l2**2 + record.diss_u_accum
    )
    return linear, squared


def G_l2_monitor(records, alpha: float) -> np.ndarray:
    """Series ||G(t)||_2^2 + int_0^t ||Lambda^{a/2} G||_2^2 from records."""
    if not 0.8 < alpha < 1.0:
        raise ValueError("the L^2 monitor for G requires alpha in (4/5, 1)")
    return np.array([r.G_l2**2 + r.diss_G_accum for r in records])


def G_lq_monitor(records, alpha: float, q: float) -> np.ndarray:
    check_lq_index(alpha, q)
    return np.array([r.G_lq for r in records])


def G_besov_monitor(records, alpha: float, s: float, q: float) -> np.ndarray:
    check_besov_index(alpha, s, q)
    return np.array([r.G_besov for r in records])


def grad_theta_monitor(states, params: FlowParams):
    """Per-snapshot (||grad theta||_inf, ||grad u_tilde||_inf) with
    u_tilde = perp_grad Delta^{-1} G, the regular velocity part."""
    out = []
    for st in states:
        m = 0.0
        for comp in biot_savart(G_hat(st, params.alpha)):
            for d in grad(comp):
                m = max(m, float(np.abs(to_physical(d).values).max()))
        out.append((grad_sup(st.theta_hat), m))
    return out


# ---------------------------------------------------------------------------
# pointwise convexity inequalities


def smoothed_hinge(scale: float = 0.5):
    """Softplus hinge: convex, C-infinity, Gamma(x) = s log(1 + e^{x/s})."""

    def gamma(x):
        return scale * np.logaddexp(0.0, x / scale)

    def gamma_prime(x):
        return 1.0 / (1.0 + np.exp(-x / scale))

    return gamma, gamma_prime


CONVEX_GAMMAS = {
    "square": (lambda x: x**2, lambda x: 2.0 * x),
    "quartic": (lambda x: x**4, lambda x: 4.0 * x**3),
    "sextic": (lambda x: x**6, lambda x: 6.0 * x**5),
    "hinge": smoothed_hinge(),
}


def _cordoba_terms(f: PhysicalField, beta: float, gamma, gamma_prime):
    """(Gamma'(f) Lambda^b f, Lambda^b Gamma(f)) on the grid, through
    half-plane coefficients."""
    if not 0.0 < beta < 2.0:
        raise ValueError("cordoba_margin requires beta in (0, 2)")

    def lam(values):
        return to_physical(fractional_laplacian(SpectralField(f.grid, rfft2(values)), beta)).values

    return gamma_prime(f.values) * lam(f.values), lam(np.asarray(gamma(f.values), dtype=float))


def cordoba_margin(f: PhysicalField, beta: float, gamma, gamma_prime) -> float:
    """min over the grid of Gamma'(f) Lambda^b f - Lambda^b Gamma(f) (>= 0
    in the continuum for convex Gamma)."""
    first, second = _cordoba_terms(f, beta, gamma, gamma_prime)
    return float((first - second).min())


def cordoba_scale(f: PhysicalField, beta: float, gamma, gamma_prime) -> float:
    """Magnitude reference for the margin tolerance band."""
    first, second = _cordoba_terms(f, beta, gamma, gamma_prime)
    return float(np.abs(first).max() + np.abs(second).max() + 1.0)


# ---------------------------------------------------------------------------
# nonlinear lower bounds (exact parts asserted, constants measured)


def frac_kernel_constant(beta: float) -> float:
    """Normalizing constant of the 2D fractional Laplacian kernel
    |z|^{-2-beta}: beta 2^{beta-1} Gamma(1+beta/2) / (pi Gamma(1-beta/2))."""
    return (
        beta
        * 2.0 ** (beta - 1.0)
        * math.gamma(1.0 + beta / 2.0)
        / (math.pi * math.gamma(1.0 - beta / 2.0))
    )


@lru_cache(maxsize=32)
def _dirichlet_kernel_fft(grid: GridSpec, beta: float):
    """Half-plane transform of the truncated Dirichlet-form weights
    w(z) = |z|^{-2-beta} h^2 (0 < |z| <= L/2) times the point count n^2 (so
    a product with an ``rfft2`` spectrum is a circular convolution), plus their total mass."""
    tnorm = shift_norms(grid)
    w = np.zeros_like(tnorm)
    mask = (tnorm > 0) & (tnorm <= grid.side_length / 2.0)
    w[mask] = tnorm[mask] ** (-2.0 - beta) * grid.cell_weight
    w_hat = rfft2(w) * grid.n**2
    w_hat.flags.writeable = False
    return w_hat, float(w.sum())


def dirichlet_form(g: np.ndarray, grid: GridSpec, beta: float, constant: float) -> np.ndarray:
    """Truncated quadrature of c * int (g(x)-g(y))^2 / |x-y|^{2+beta} dy,
    singular cell excluded, evaluated for every x via circular convolution."""
    w_hat, w_total = _dirichlet_kernel_fft(grid, beta)
    g2 = g * g
    conv_g = irfft2(w_hat * rfft2(g))
    conv_g2 = irfft2(w_hat * rfft2(g2))
    return constant * (w_total * g2 - 2.0 * g * conv_g + conv_g2)


def gradient_lower_bound_margin(f: PhysicalField, beta: float, q: float):
    """Constant-free part of the nonlinear gradient lower bound plus the
    measured constant of the full form.

    exact_part = grad f . Lambda^b(grad f) - 1/2 Lambda^b(|grad f|^2), which
    equals half the full Dirichlet form and is nonnegative in the continuum.
    The D term of the full inequality is taken with half the kernel
    constant (an implementation normalization; the measured C0 is reported,
    not asserted).
    """
    if not 0.0 < beta < 2.0:
        raise ValueError("requires beta in (0, 2)")
    grid = f.grid
    fh = to_spectral(f)
    g1h, g2h = grad(fh)
    g1 = to_physical(g1h).values
    g2 = to_physical(g2h).values
    t1 = (
        g1 * to_physical(fractional_laplacian(g1h, beta)).values
        + g2 * to_physical(fractional_laplacian(g2h, beta)).values
    )
    sq = PhysicalField(grid, g1 * g1 + g2 * g2)
    t2 = 0.5 * to_physical(fractional_laplacian(to_spectral(sq), beta)).values
    exact = t1 - t2
    exact_min = float(exact.min())

    c_half = 0.5 * frac_kernel_constant(beta)
    d_form = 0.5 * (
        dirichlet_form(g1, grid, beta, c_half) + dirichlet_form(g2, grid, beta, c_half)
    )
    gnorm = np.hypot(g1, g2)
    power = 2.0 + beta * q / (q + 2.0)
    fq = lp_norm(f, q)
    headroom = exact - d_form
    usable = (headroom > 1e-12 * (np.abs(exact).max() + 1e-300)) & (
        gnorm > 1e-6 * gnorm.max()
    )
    if fq == 0.0 or not np.any(usable):
        return exact_min, float("nan")
    ratio = gnorm[usable] ** power / (fq ** (beta * q / (q + 2.0)) * headroom[usable])
    return exact_min, float(ratio.max())


def difference_lower_bound_margin(theta: PhysicalField, h: tuple[int, int], beta: float):
    """Same protocol for finite differences: g = theta(.+h) - theta.

    exact_part = g Lambda^b g - 1/2 Lambda^b(g^2) >= 0; the D_h term is
    taken with a quarter of the kernel constant, and the measured constant
    of |g|^{2+beta} / (||theta||_inf^b |h|^b) is reported.
    """
    if not 0.0 < beta < 2.0:
        raise ValueError("requires beta in (0, 2)")
    grid = theta.grid
    i, j = h
    if i == 0 and j == 0:
        return 0.0, 0.0
    g = np.roll(theta.values, (-i, -j), axis=(0, 1)) - theta.values
    gh = to_spectral(PhysicalField(grid, g))
    t1 = g * to_physical(fractional_laplacian(gh, beta)).values
    t2 = 0.5 * to_physical(
        fractional_laplacian(to_spectral(PhysicalField(grid, g * g)), beta)
    ).values
    exact = t1 - t2
    exact_min = float(exact.min())

    c_quarter = 0.25 * frac_kernel_constant(beta)
    d_form = dirichlet_form(g, grid, beta, c_quarter)
    hx = grid.spacing * math.hypot(i, j)
    theta_sup = float(np.abs(theta.values).max())
    if theta_sup == 0.0:
        return exact_min, 0.0
    headroom = exact - d_form
    gmag = np.abs(g)
    usable = (headroom > 1e-12 * (np.abs(exact).max() + 1e-300)) & (gmag > 1e-6 * gmag.max())
    if not np.any(usable):
        return exact_min, float("nan")
    num = headroom[usable] * theta_sup**beta * hx**beta
    measured = float((num / gmag[usable] ** (2.0 + beta)).min())
    return exact_min, measured
