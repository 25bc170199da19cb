"""The real-transform stepping core against the complex-transform step it
replaced.

The integrating-factor Heun step on full-plane fft2 coefficients and the
full-plane dissipation rates are written out here as the oracle; the
package steps on rfft2 half-plane coefficients.
"""

import math

import numpy as np
import pytest

from bq2d.monitors import CONVEX_GAMMAS, cordoba_margin, dissipation_rates, snapshot_record
from bq2d.solver import StepperConfig, SimState, initial_data, step
from bq2d.spectral import (
    FlowParams,
    GridSpec,
    SpectralField,
    biot_savart,
    dealias,
    dealias_mask,
    hermitian_symmetrize,
    kpow,
    riesz_alpha,
    to_physical,
    to_spectral,
    wavevectors,
)

# ---------------------------------------------------------------------------
# the oracle: the complex-transform step and full-plane rates


def _complex_nonstiff_rhs(theta, omega):
    grid = theta.grid
    th_hat, w_hat = dealias(to_spectral(theta)), dealias(to_spectral(omega))
    u1h, u2h = biot_savart(w_hat)
    u = (to_physical(u1h).values, to_physical(u2h).values)
    k1, k2, _ = wavevectors(grid)
    keep = dealias_mask(grid)

    def advection(f):
        p1 = np.where(keep, np.fft.fft2(u[0] * f.values), 0.0) / grid.n**2
        p2 = np.where(keep, np.fft.fft2(u[1] * f.values), 0.0) / grid.n**2
        return 1j * k1 * p1 + 1j * k2 * p2

    n_theta = -advection(to_physical(th_hat))
    n_omega = -advection(to_physical(w_hat)) + 1j * k1 * th_hat.coeffs
    return n_theta, n_omega, th_hat.coeffs, w_hat.coeffs


def _physical(grid, coeffs):
    return to_physical(SpectralField(grid, coeffs))


def complex_step(state, params, dt):
    grid = state.grid
    n1_theta, n1_omega, th0, w0 = _complex_nonstiff_rhs(state.theta, state.omega)
    e_theta = np.exp(-params.kappa * dt * kpow(grid, params.beta))
    e_omega = np.exp(-params.nu * dt * kpow(grid, params.alpha))
    th_pred = e_theta * (th0 + dt * n1_theta)
    w_pred = e_omega * (w0 + dt * n1_omega)
    n2_theta, n2_omega, _, _ = _complex_nonstiff_rhs(_physical(grid, th_pred), _physical(grid, w_pred))
    th_new = e_theta * th0 + 0.5 * dt * (e_theta * n1_theta + n2_theta)
    w_new = e_omega * w0 + 0.5 * dt * (e_omega * n1_omega + n2_omega)
    keep = dealias_mask(grid)
    return SimState(
        _physical(grid, np.where(keep, th_new, 0.0)),
        _physical(grid, np.where(keep, w_new, 0.0)),
        state.t + dt,
    )


def full_plane_rates(state, params):
    """The full-plane rates, with G the real field that compute_G returns:
    R_alpha's anti-Hermitian part on the Nyquist row (nonzero only when
    dealias_fraction = 1) is no part of that field and is projected out."""
    grid = state.grid
    a = params.alpha
    th_hat, w_hat = dealias(to_spectral(state.theta)), dealias(to_spectral(state.omega))
    u_rate = grid.side_length**2 * float(np.sum(kpow(grid, a - 2.0) * np.abs(w_hat.coeffs) ** 2))
    g_hat = hermitian_symmetrize(SpectralField(grid, w_hat.coeffs - riesz_alpha(th_hat, a).coeffs))
    g_rate = grid.side_length**2 * float(np.sum(np.abs(kpow(grid, a / 2.0) * g_hat.coeffs) ** 2))
    return u_rate, g_rate


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


# ---------------------------------------------------------------------------


CASES = [(32, 2 * math.pi, 1.0), (48, 2 * math.pi, 0.5), (64, 3.7, 1.0), (64, 20.0, 2.0 / 3.0)]


@pytest.mark.parametrize("n, L, fraction", CASES)
@pytest.mark.parametrize("alpha", [0.9, 0.95])
def test_real_step_matches_complex_oracle(n, L, fraction, alpha):
    grid = GridSpec(n, side_length=L, dealias_fraction=fraction)
    params = FlowParams(1.0, 1.0, alpha, 1.0 - alpha, critical=True)
    cfg = StepperConfig(dt_init=0.01)
    real = oracle = initial_data("random-band", n, grid)
    for _ in range(20):
        real = step(real, params, cfg, dt=0.01)
        oracle = complex_step(oracle, params, 0.01)
    assert real.t == oracle.t
    assert _rel(real.theta.values, oracle.theta.values) <= 1e-13
    assert _rel(real.omega.values, oracle.omega.values) <= 1e-13
    for got, want in zip(dissipation_rates(real, params), full_plane_rates(oracle, params)):
        assert abs(got - want) <= 1e-12 * abs(want)


def _count_transforms(monkeypatch, n):
    """Counts of complex and real n x n transforms from here on (a batched
    call counts once per field)."""
    counts = {"complex": 0, "real": 0}
    for name, kind in (("fft2", "complex"), ("ifft2", "complex"), ("rfft2", "real"), ("irfft2", "real")):
        orig = getattr(np.fft, name)

        def counted(a, *args, _orig=orig, _kind=kind, **kwargs):
            out = _orig(a, *args, **kwargs)
            real_side = out if out.dtype.kind == "f" else a
            counts[_kind] += max(1, np.size(real_side) // n**2)
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def test_transform_budget(monkeypatch):
    """One step plus the dissipation rates on its result: no complex
    transform and at most 18 real n x n ones.  The step's forward
    transforms are the ones the rates on the previous state made."""
    grid = GridSpec(32)
    params = FlowParams(1.0, 1.0, 0.9, 0.1, critical=True)
    state = initial_data("random-band", 0, grid)
    dissipation_rates(state, params)

    counts = _count_transforms(monkeypatch, grid.n)
    new = step(state, params, StepperConfig(dt_init=0.01))
    dissipation_rates(new, params)
    assert counts["complex"] == 0
    assert 0 < counts["real"] <= 18


def test_diagnostics_transform_budget(monkeypatch):
    """snapshot_record plus cordoba_margin on a state whose half-plane
    coefficients are cached (as the run loop leaves them): no complex
    transform and at most 13 real n x n ones, as measured: 2 inverse for
    sup|grad theta|, 1 for G, 6 for the non-empty Besov blocks of G
    (j = -1 .. 4 at n = 64), and 2 forward plus 2 inverse for the Cordoba
    terms."""
    grid = GridSpec(64)
    params = FlowParams(1.0, 1.0, 0.95, 0.05, critical=True)
    state = step(initial_data("random-band", 0, grid), params, StepperConfig(dt_init=0.01))
    dissipation_rates(state, params)
    gamma, gamma_prime = CONVEX_GAMMAS["square"]

    counts = _count_transforms(monkeypatch, grid.n)
    snapshot_record(state, params, 2.5, 0.4, 0.0, 0.0)
    cordoba_margin(state.theta, params.beta, gamma, gamma_prime)
    assert counts["complex"] == 0
    assert 0 < counts["real"] <= 13
