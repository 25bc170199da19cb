"""The real-transform diagnostics against the complex-transform code they
replaced.

``snapshot_record``, ``initial_report``, ``cordoba_margin`` /
``cordoba_scale``, ``besov_norm`` and ``grad_theta_monitor`` on full-plane
fft2 coefficients are written out here as the oracle, on the tables and
operators of ``full_plane``; the package runs them on rfft2 half-plane
coefficients.  The dealias_fraction = 1 cases keep content on the Nyquist
lines, where the odd symbols must drop out exactly as the full plane's
``.real`` drops them.
"""

import math

import numpy as np
import pytest

import full_plane as fp
from bq2d.lp import BesovIndex, _smooth_step, besov_norm, lr_combine, max_band_index
from bq2d.monitors import (
    CONVEX_GAMMAS,
    cordoba_margin,
    cordoba_scale,
    grad_theta_monitor,
    index_window,
    snapshot_record,
)
from bq2d.solver import G_hat, SimState, StepperConfig, initial_data, initial_report, step
from bq2d.spectral import FlowParams, GridSpec, PhysicalField, lp_norm

# ---------------------------------------------------------------------------
# the oracle: the full-plane diagnostics


def full_plane_grad_sup(grid, c):
    g1, g2 = (fp.to_physical(g) for g in fp.grad(grid, c))
    return float(np.hypot(g1, g2).max())


def full_plane_besov(f, s, p, r, smooth=False):
    """Block Besov norm of a physical field through fft2/ifft2: sharp bands,
    or the smooth bump weights of ``lp._smooth_step`` on the full plane."""
    grid = f.grid
    coeffs = fp.to_spectral(f.values)
    kmag = fp.wavevectors(grid)[2]
    jmax = max_band_index(grid)
    if smooth:
        weights = [(-1, _smooth_step(2.0 * kmag))] + [
            (j, _smooth_step(kmag / 2.0**j) - _smooth_step(kmag / 2.0 ** (j - 1))) for j in range(jmax + 2)
        ]
    else:
        band_of = np.where(kmag >= 1.0, np.floor(np.log2(np.maximum(kmag, 1.0))), -1.0)
        weights = [(j, band_of == j) for j in range(-1, jmax + 1)]
    terms = []
    for j, w in weights:
        band = coeffs * w
        if np.any(band):
            terms.append(2.0 ** (j * s) * lp_norm(PhysicalField(grid, fp.to_physical(band)), p))
    return lr_combine(terms, r)


def _full_hats(state):
    return fp.full_plane(state.theta_hat.coeffs), fp.full_plane(state.omega_hat.coeffs)


def full_plane_G(state, alpha):
    th_hat, w_hat = _full_hats(state)
    return PhysicalField(state.grid, fp.to_physical(w_hat - fp.riesz_alpha(state.grid, th_hat, alpha)))


def full_plane_snapshot(state, params, q, s):
    grid = state.grid
    th_hat, w_hat = _full_hats(state)
    u1, u2 = (fp.to_physical(c) for c in fp.biot_savart(grid, w_hat))
    G = full_plane_G(state, params.alpha)
    return {
        "theta_l2": lp_norm(state.theta, 2),
        "theta_linf": lp_norm(state.theta, math.inf),
        "u_l2": math.sqrt((np.sum(u1**2) + np.sum(u2**2)) * grid.cell_weight),
        "omega_linf": lp_norm(state.omega, math.inf),
        "grad_theta_linf": full_plane_grad_sup(grid, th_hat),
        "G_l2": lp_norm(G, 2),
        "G_lq": lp_norm(G, q),
        "G_besov": full_plane_besov(G, s, q, math.inf),
    }


def full_plane_cordoba_terms(f, beta, gamma, gamma_prime):
    def lam(values):
        return fp.to_physical(fp.fractional_laplacian(f.grid, fp.to_spectral(values), beta))

    return gamma_prime(f.values) * lam(f.values), lam(np.asarray(gamma(f.values), dtype=float))


def full_plane_grad_theta_monitor(states, params):
    """The full-plane monitor on the real fields G and u_tilde.  Each
    intermediate goes through ``hermitian_symmetrize``: without it the full
    plane keeps, at dealias_fraction = 1, Nyquist-line parts of the symbol
    products (R_alpha's anti-Hermitian row, d_2 d_2 / |k|^2 on the Nyquist
    column) that are no part of the grid fields G and u_tilde."""
    out = []
    for st in states:
        grid = st.grid
        th_hat, w_hat = _full_hats(st)
        g_hat = fp.hermitian_symmetrize(w_hat - fp.riesz_alpha(grid, th_hat, params.alpha))
        m = 0.0
        for comp in fp.biot_savart(grid, g_hat):
            for d in fp.grad(grid, fp.hermitian_symmetrize(comp)):
                m = max(m, float(np.abs(fp.to_physical(d)).max()))
        out.append((full_plane_grad_sup(grid, th_hat), m))
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
        assert _close(besov_norm(g_hat, index, smooth=True), full_plane_besov(G, s, q, 2.0, smooth=True))

    got = grad_theta_monitor(states, params)
    want = full_plane_grad_theta_monitor(states, params)
    for pair_got, pair_want in zip(got, want):
        for a, b in zip(pair_got, pair_want):
            assert _close(a, b)

