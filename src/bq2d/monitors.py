"""Time-series monitors for the global a priori bounds and the pointwise
convexity inequalities, reporting margins (bound minus measured value) and
measured constants.

Unspecified constants are measured, recorded and regression-guarded, never
asserted against theoretical values: the analysis guarantees their
existence, not their magnitude.  The nonlocal Dirichlet forms D and D_h are
approximated by truncated torus quadrature (singular cell excluded) and
appear only inside measured quantities.  ``RunMonitor`` is the one
statement of a run's monitor state: its dissipation integrals, margins and
worst margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .lp import BesovIndex, besov_norm
from .solver import G_hat, SimState, _velocity_l2, oss_check
from .spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    SpectralField,
    fractional_laplacian,
    grad,
    grad_sup,
    irfft2,
    lp_norm,
    parseval_weights,
    rfft2,
    riesz_symbol,
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


def monitor_indices(alpha: float, q: float | None = None, s: float | None = None) -> tuple[float, float]:
    """The (q, s) of the G monitors at ``alpha``, a None index given its
    default, checked as a pair.

    Inside (4/5, 1), q defaults to the middle of the Besov q-window where it
    is nonempty, else of the L^q window (2, q0), and s to 3 alpha - 2; the
    pair must satisfy ``check_lq_index``, 0 < s <= 3 alpha - 2 and, where the
    Besov q-window is nonempty, ``check_besov_index``.  Outside it the
    monitors fall back to plain norms: (3.0, 0.5) by default, q >= 1 and s > 0."""
    if not 0.8 < alpha < 1.0:
        q, s = 3.0 if q is None else q, 0.5 if s is None else s
        if q < 1.0 or not 0.0 < s:
            raise ValueError("monitor indices must satisfy q >= 1 and s > 0")
        return q, s
    win = index_window(alpha)
    besov = win.q_low_sqdef < win.q0
    q = 0.5 * ((win.q_low_sqdef if besov else 2.0) + win.q0) if q is None else q
    s = win.s_max if s is None else s
    check_lq_index(alpha, q)
    if not 0.0 < s <= win.s_max:
        raise ValueError(f"monitor_s={s} violates 0 < s <= 3*alpha - 2 = {win.s_max:.6f}")
    if besov:
        check_besov_index(alpha, s, q)
    return q, s


# ---------------------------------------------------------------------------
# diagnostics records and CSV schema


@dataclass(slots=True)
class DiagnosticsRecord:
    """One row of ``diagnostics.csv``: the fields, in order, are its columns.
    The margins are left at 0.0 by ``snapshot_record``; ``bound_margins`` and
    ``RunMonitor.record`` set them."""

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
    margin_maxprinciple_l2: float = 0.0
    margin_maxprinciple_linf: float = 0.0
    margin_energy_linear: float = 0.0
    cordoba_min: float = 0.0
    oss_delta_measured: float = 0.0

    def csv_row(self) -> str:
        return ",".join(repr(float(getattr(self, c))) for c in CSV_COLUMNS)


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]


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
    L^2 sum |k|^{a-2} |omega^|^2.  Each rate is one sum of the state's
    half-plane coefficients (and of G's, omega^ - R_a theta^) squared,
    weighted by ``parseval_weights``.
    """
    grid = state.grid
    a = params.alpha
    th_hat, w_hat = state.hats
    g_hat = riesz_symbol(grid, a) * th_hat
    np.subtract(w_hat, g_hat, out=g_hat)
    rates = tuple(
        float(np.einsum("ij,ij,ij->", parseval_weights(grid, g), x, x))
        for g, x in ((a - 2.0, w_hat.view(float)), (a, g_hat.view(float)))
    )
    if not all(math.isfinite(r) for r in rates):
        raise ValueError(f"non-finite dissipation rate {rates!r}")
    return rates


# ---------------------------------------------------------------------------
# global-bound margins


def bound_margins(record: DiagnosticsRecord, initial: DiagnosticsRecord) -> None:
    """Set the record's ``margin_*`` fields against the ``initial`` record
    (bound minus measured value; negative means violation): the maximum
    principle ||theta(t)||_p <= ||theta0||_p for p = 2, inf, and the energy
    bound ||u(t)||_2 <= ||u0||_2 + t ||theta0||_2."""
    record.margin_maxprinciple_l2 = initial.theta_l2 - record.theta_l2
    record.margin_maxprinciple_linf = initial.theta_linf - record.theta_linf
    record.margin_energy_linear = initial.u_l2 + record.t * initial.theta_l2 - record.u_l2


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


def _lambda(values: np.ndarray, grid: GridSpec, beta: float, coeffs: np.ndarray | None = None) -> np.ndarray:
    """Lambda^b of a real n x n array, through its half-plane coefficients
    (``coeffs`` when the caller holds them)."""
    coeffs = rfft2(values) if coeffs is None else coeffs
    return to_physical(fractional_laplacian(SpectralField(grid, coeffs), beta)).values


def _cordoba_terms(f: PhysicalField, beta: float, gamma, gamma_prime, lam_f: np.ndarray):
    """(Gamma'(f) Lambda^b f, Lambda^b Gamma(f)) on the grid, ``lam_f`` being Lambda^b f."""
    if not 0.0 < beta < 2.0:
        raise ValueError("cordoba_margin requires beta in (0, 2)")
    return gamma_prime(f.values) * lam_f, _lambda(np.asarray(gamma(f.values), dtype=float), f.grid, beta)


def _margin(first: np.ndarray, second: np.ndarray) -> float:
    return float((first - second).min())


def _scale(first: np.ndarray, second: np.ndarray) -> float:
    return float(np.abs(first).max() + np.abs(second).max() + 1.0)


def cordoba_margin(f: PhysicalField, beta: float, gamma, gamma_prime, f_hat: np.ndarray | None = None) -> float:
    """min over the grid of Gamma'(f) Lambda^b f - Lambda^b Gamma(f) (>= 0
    in the continuum for convex Gamma).  ``f_hat`` are the half-plane
    coefficients of f when the caller holds them (a state's ``hats[0]``)."""
    return _margin(*_cordoba_terms(f, beta, gamma, gamma_prime, _lambda(f.values, f.grid, beta, f_hat)))


def cordoba_scale(f: PhysicalField, beta: float, gamma, gamma_prime) -> float:
    """Magnitude reference for the margin tolerance band."""
    return _scale(*_cordoba_terms(f, beta, gamma, gamma_prime, _lambda(f.values, f.grid, beta)))


def cordoba_ratios(f: PhysicalField, beta: float) -> dict[str, float]:
    """``cordoba_margin / cordoba_scale`` of f for each Gamma of
    ``CONVEX_GAMMAS``: one pair of terms per Gamma, one Lambda^b f for all."""
    lam_f = _lambda(f.values, f.grid, beta)
    ratios = {}
    for name, (gamma, gamma_prime) in CONVEX_GAMMAS.items():
        terms = _cordoba_terms(f, beta, gamma, gamma_prime, lam_f)
        ratios[name] = _margin(*terms) / _scale(*terms)
    return ratios


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


def _dirichlet_kernel_fft(grid: GridSpec, beta: float):
    """Half-plane transform of the truncated Dirichlet-form weights
    w(z) = |z|^{-2-beta} h^2 (0 < |z| <= L/2) times the point count n^2 (so
    a product with an ``rfft2`` spectrum is a circular convolution), plus their total mass."""
    tnorm = shift_norms(grid)
    w = np.zeros_like(tnorm)
    mask = (tnorm > 0) & (tnorm <= grid.side_length / 2.0)
    w[mask] = tnorm[mask] ** (-2.0 - beta) * grid.cell_weight
    return rfft2(w) * grid.n**2, float(w.sum())


def dirichlet_form(g: np.ndarray, grid: GridSpec, beta: float, constant: float) -> np.ndarray:
    """Truncated quadrature of c * int (g(x)-g(y))^2 / |x-y|^{2+beta} dy,
    singular cell excluded, evaluated for every x via circular convolution."""
    w_hat, w_total = _dirichlet_kernel_fft(grid, beta)
    g2 = g * g
    conv_g = irfft2(w_hat * rfft2(g))
    conv_g2 = irfft2(w_hat * rfft2(g2))
    return constant * (w_total * g2 - 2.0 * g * conv_g + conv_g2)


def _lower_bound_parts(gs, coeffs, gmag: np.ndarray, grid: GridSpec, beta: float, share: float):
    """The lower bounds' shared core, for a g with real components ``gs``
    (their half-plane ``coeffs``, or None to transform them) and |g| =
    ``gmag``: the minimum of the exact part sum_i g_i Lambda^b g_i -
    1/2 Lambda^b |g|^2, its headroom over the components' mean
    ``dirichlet_form`` with a ``share`` of the kernel constant, and the mask
    where both the headroom and |g| stand clear of rounding."""
    if not 0.0 < beta < 2.0:
        raise ValueError("requires beta in (0, 2)")
    t1 = reduce(np.add, (g * _lambda(g, grid, beta, c) for g, c in zip(gs, coeffs)))
    exact = t1 - 0.5 * _lambda(reduce(np.add, (g * g for g in gs)), grid, beta)
    constant = share * frac_kernel_constant(beta)
    headroom = exact - reduce(np.add, (dirichlet_form(g, grid, beta, constant) for g in gs)) / len(gs)
    usable = (headroom > 1e-12 * (np.abs(exact).max() + 1e-300)) & (gmag > 1e-6 * gmag.max())
    return float(exact.min()), headroom, usable


def gradient_lower_bound_margin(f: PhysicalField, beta: float, q: float):
    """Constant-free part of the nonlinear gradient lower bound plus the
    measured constant of the full form.

    exact_part = grad f . Lambda^b(grad f) - 1/2 Lambda^b(|grad f|^2), which
    equals half the full Dirichlet form and is nonnegative in the continuum.
    The D term of the full inequality is taken with half the kernel
    constant (an implementation normalization; the measured C0 is reported,
    not asserted).
    """
    g1h, g2h = grad(to_spectral(f))
    gs = (to_physical(g1h).values, to_physical(g2h).values)
    gnorm = np.hypot(*gs)
    exact_min, headroom, usable = _lower_bound_parts(gs, (g1h.coeffs, g2h.coeffs), gnorm, f.grid, beta, 0.5)
    power = 2.0 + beta * q / (q + 2.0)
    fq = lp_norm(f, q)
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
    grid = theta.grid
    i, j = h
    g = np.roll(theta.values, (-i, -j), axis=(0, 1)) - theta.values
    gmag = np.abs(g)
    exact_min, headroom, usable = _lower_bound_parts((g,), (None,), gmag, grid, beta, 0.25)
    if i == 0 and j == 0:  # only after the core has checked beta
        return 0.0, 0.0
    theta_sup = float(np.abs(theta.values).max())
    if theta_sup == 0.0:
        return exact_min, 0.0
    if not np.any(usable):
        return exact_min, float("nan")
    num = headroom[usable] * theta_sup**beta * (grid.spacing * math.hypot(i, j)) ** beta
    return exact_min, float((num / gmag[usable] ** (2.0 + beta)).min())


# ---------------------------------------------------------------------------
# a run's monitor state


class RunMonitor:
    """The monitors of a run from its starting ``state``: the starting record
    ``initial`` that the margins are measured against, the trapezoid
    integrals ``diss_u`` and ``diss_G`` of the dissipation rates, the last
    ``rates`` and their ``t``, the step count ``steps`` and the running
    minima ``worst`` of the bound margins (from 0.0).  Records take the G
    indices (q, s) and the spread over |h| < ``oss_L``."""

    def __init__(self, state: SimState, params: FlowParams, q: float, s: float, oss_L: float):
        self.params, self.q, self.s, self.oss_L = params, q, s, oss_L
        self.diss_u = self.diss_G = 0.0
        self.steps = 0
        self.worst = dict.fromkeys((c for c in CSV_COLUMNS if c.startswith("margin_")), 0.0)
        self.initial = None
        self.initial = self.record(state)
        self.rates, self.t = dissipation_rates(state, params), state.t

    def advance(self, state: SimState) -> None:
        """Add the step to ``state`` to each integral by the trapezoid rule and count it."""
        new = dissipation_rates(state, self.params)
        dt = state.t - self.t
        self.diss_u += 0.5 * dt * (self.rates[0] + new[0])
        self.diss_G += 0.5 * dt * (self.rates[1] + new[1])
        self.rates, self.t = new, state.t
        self.steps += 1

    def record(self, state: SimState) -> DiagnosticsRecord:
        """The snapshot record of ``state`` with its margins against ``initial``
        (itself, for the starting state), the square Gamma's Cordoba margin
        and the spread over |h| < oss_L; lowers ``worst`` to its margins."""
        rec = snapshot_record(state, self.params, self.q, self.s, self.diss_u, self.diss_G)
        bound_margins(rec, rec if self.initial is None else self.initial)
        rec.cordoba_min = cordoba_margin(state.theta, self.params.beta, *CONVEX_GAMMAS["square"], state.hats[0])
        rec.oss_delta_measured = oss_check(state.theta, self.oss_L)
        self.worst = {key: min(w, getattr(rec, key)) for key, w in self.worst.items()}
        return rec
