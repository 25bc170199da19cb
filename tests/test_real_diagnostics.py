"""The real-transform diagnostics against the complex-transform code they
replaced.

``snapshot_record``, ``initial_report``, ``cordoba_margin`` /
``cordoba_scale``, ``besov_norm`` and ``grad_theta_monitor`` on full-plane
fft2 coefficients are written out here as the oracle; the package runs them
on rfft2 half-plane coefficients.  The dealias_fraction = 1 cases keep
content on the Nyquist lines, where the odd symbols must drop out exactly as
the full plane's ``.real`` drops them.
"""

import math

import numpy as np
import pytest

from bq2d.lp import BesovIndex, _lr_combine, besov_norm, max_band_index
from bq2d.monitors import (
    CONVEX_GAMMAS,
    cordoba_margin,
    cordoba_scale,
    grad_theta_monitor,
    index_window,
    snapshot_record,
)
from bq2d.solver import G_hat, SimState, StepperConfig, initial_data, initial_report, step
from bq2d.spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    SpectralField,
    biot_savart,
    fractional_laplacian,
    full_plane,
    grad,
    hermitian_symmetrize,
    lp_norm,
    riesz_alpha,
    to_physical,
    to_spectral,
    wavevectors,
)

# ---------------------------------------------------------------------------
# the oracle: the full-plane diagnostics


def _full(fh):
    return SpectralField(fh.grid, full_plane(fh.grid, fh.coeffs))


def full_plane_grad_sup(fh):
    g1, g2 = grad(fh)
    return float(np.hypot(to_physical(g1).values, to_physical(g2).values).max())


def full_plane_besov(f, s, p, r):
    """Sharp-block Besov norm of a physical field through fft2/ifft2."""
    grid = f.grid
    coeffs = np.fft.fft2(f.values) / grid.n**2
    kmag = wavevectors(grid)[2]
    band_of = np.where(kmag >= 1.0, np.floor(np.log2(np.maximum(kmag, 1.0))), -1.0)
    terms = []
    for j in range(-1, max_band_index(grid) + 1):
        band = np.where(band_of == j, coeffs, 0.0)
        if np.any(band):
            vals = np.fft.ifft2(band).real * grid.n**2
            terms.append(2.0 ** (j * s) * lp_norm(PhysicalField(grid, vals), p))
    return _lr_combine(terms, r)


def full_plane_G(state, alpha):
    th_hat, w_hat = _full(state.theta_hat), _full(state.omega_hat)
    return to_physical(SpectralField(state.grid, w_hat.coeffs - riesz_alpha(th_hat, alpha).coeffs))


def full_plane_snapshot(state, params, q, s):
    grid = state.grid
    u1h, u2h = biot_savart(_full(state.omega_hat))
    u1, u2 = to_physical(u1h).values, to_physical(u2h).values
    G = full_plane_G(state, params.alpha)
    return {
        "theta_l2": lp_norm(state.theta, 2),
        "theta_linf": lp_norm(state.theta, math.inf),
        "u_l2": math.sqrt((np.sum(u1**2) + np.sum(u2**2)) * grid.cell_weight),
        "omega_linf": lp_norm(state.omega, math.inf),
        "grad_theta_linf": full_plane_grad_sup(_full(state.theta_hat)),
        "G_l2": lp_norm(G, 2),
        "G_lq": lp_norm(G, q),
        "G_besov": full_plane_besov(G, s, q, math.inf),
    }


def full_plane_cordoba_terms(f, beta, gamma, gamma_prime):
    lam_f = to_physical(fractional_laplacian(to_spectral(f), beta)).values
    gam = PhysicalField(f.grid, np.asarray(gamma(f.values), dtype=float))
    lam_gam = to_physical(fractional_laplacian(to_spectral(gam), beta)).values
    return gamma_prime(f.values) * lam_f, lam_gam


def full_plane_grad_theta_monitor(states, params):
    """The full-plane monitor on the real fields G and u_tilde.  Each
    intermediate goes through ``hermitian_symmetrize``: without it the full
    plane keeps, at dealias_fraction = 1, Nyquist-line parts of the symbol
    products (R_alpha's anti-Hermitian row, d_2 d_2 / |k|^2 on the Nyquist
    column) that are no part of the grid fields G and u_tilde."""
    out = []
    for st in states:
        th_hat, w_hat = _full(st.theta_hat), _full(st.omega_hat)
        g_hat = hermitian_symmetrize(
            SpectralField(st.grid, w_hat.coeffs - riesz_alpha(th_hat, params.alpha).coeffs)
        )
        m = 0.0
        for comp in biot_savart(g_hat):
            for d in grad(hermitian_symmetrize(comp)):
                m = max(m, float(np.abs(to_physical(d).values).max()))
        out.append((full_plane_grad_sup(th_hat), m))
    return out


# ---------------------------------------------------------------------------


CASES = [(32, 2 * math.pi, 1.0), (48, 2 * math.pi, 0.5), (64, 3.7, 2.0 / 3.0), (64, 20.0, 1.0)]


def _states(n, L, fraction, alpha):
    """A stepped random-band state and a white-noise state (full spectrum,
    Nyquist lines included) on the grid."""
    grid = GridSpec(n, side_length=L, dealias_fraction=fraction)
    params = FlowParams(1.0, 1.0, alpha, 1.0 - alpha, critical=True)
    stepped = initial_data("random-band", n, grid)
    for _ in range(5):
        stepped = step(stepped, params, StepperConfig(dt_init=0.01), dt=0.01)
    rng = np.random.default_rng(n)
    noise = SimState(*(PhysicalField(grid, rng.standard_normal((n, n))) for _ in range(2)), t=0.0)
    return params, (stepped, noise)


def _close(got, want, scale=None):
    return abs(got - want) <= 1e-12 * abs(want if scale is None else scale)


@pytest.mark.parametrize("n, L, fraction", CASES)
@pytest.mark.parametrize("alpha", [0.9, 0.95])
def test_diagnostics_match_full_plane_oracle(n, L, fraction, alpha):
    params, states = _states(n, L, fraction, alpha)
    win = index_window(alpha)
    q, s = 0.5 * (win.q_low_sqdef + win.q0), 0.5 * win.s_max
    for st in states:
        rec = snapshot_record(st, params, q, s, 0.0, 0.0)
        for key, want in full_plane_snapshot(st, params, q, s).items():
            assert _close(getattr(rec, key), want), key
        report = initial_report(st)
        for key in ("theta_l2", "theta_linf", "grad_theta_linf", "u_l2"):
            assert _close(report[key], getattr(rec, key)), key

        for name, (gam, gam_p) in CONVEX_GAMMAS.items():
            first, second = full_plane_cordoba_terms(st.theta, params.beta, gam, gam_p)
            scale = float(np.abs(first).max() + np.abs(second).max() + 1.0)
            assert _close(cordoba_scale(st.theta, params.beta, gam, gam_p), scale), name
            margin = cordoba_margin(st.theta, params.beta, gam, gam_p)
            assert _close(margin, float((first - second).min()), scale), name

        g_hat = G_hat(st, alpha)
        G = full_plane_G(st, alpha)
        for index in (BesovIndex(s, q, math.inf), BesovIndex(0.5, 2.0, 2.0), BesovIndex(-0.3, 1.0, 1.0),
                      BesovIndex(1.2, math.inf, 3.0)):
            want = full_plane_besov(G, index.s, index.p, index.r)
            assert _close(besov_norm(g_hat, index), want)
            assert _close(besov_norm(G, index), want)
        index = BesovIndex(s, q, 2.0)
        assert _close(besov_norm(g_hat, index, smooth=True), besov_norm(to_spectral(G), index, smooth=True))

    got = grad_theta_monitor(states, params)
    want = full_plane_grad_theta_monitor(states, params)
    for pair_got, pair_want in zip(got, want):
        for a, b in zip(pair_got, pair_want):
            assert _close(a, b)

