"""The real-transform stepping core against the complex-transform step it
replaced, and the census of complex transforms.

The integrating-factor Heun step on full-plane fft2 coefficients and the
full-plane dissipation rates are written out here as the oracle, on the
tables and operators of ``full_plane``; the package steps on rfft2
half-plane coefficients.
"""

import math
import threading

import numpy as np
import pytest

import full_plane as fp
from bq2d import cli, kernels, solver
from bq2d.monitors import CONVEX_GAMMAS, cordoba_margin, dissipation_rates, snapshot_record
from bq2d.solver import StepperConfig, initial_data, run, step
from bq2d.spectral import FlowParams, GridSpec, PhysicalField
from states import state_of

# ---------------------------------------------------------------------------
# the oracle: the complex-transform step and full-plane rates


def _complex_nonstiff_rhs(theta, omega):
    grid = theta.grid
    th_hat = fp.dealias(grid, fp.to_spectral(theta.values))
    w_hat = fp.dealias(grid, fp.to_spectral(omega.values))
    u = tuple(fp.to_physical(c) for c in fp.biot_savart(grid, w_hat))
    k1, k2, _ = fp.wavevectors(grid)

    def advection(f):
        p1 = fp.dealias(grid, fp.to_spectral(u[0] * f))
        p2 = fp.dealias(grid, fp.to_spectral(u[1] * f))
        return 1j * k1 * p1 + 1j * k2 * p2

    n_theta = -advection(fp.to_physical(th_hat))
    n_omega = -advection(fp.to_physical(w_hat)) + 1j * k1 * th_hat
    return n_theta, n_omega, th_hat, w_hat


def _physical(grid, coeffs):
    return PhysicalField(grid, fp.to_physical(coeffs))


def complex_step(state, params, dt):
    grid = state.grid
    n1_theta, n1_omega, th0, w0 = _complex_nonstiff_rhs(state.theta, state.omega)
    e_theta = np.exp(-params.kappa * dt * fp.kpow(grid, params.beta))
    e_omega = np.exp(-params.nu * dt * fp.kpow(grid, params.alpha))
    th_pred = e_theta * (th0 + dt * n1_theta)
    w_pred = e_omega * (w0 + dt * n1_omega)
    n2_theta, n2_omega, _, _ = _complex_nonstiff_rhs(_physical(grid, th_pred), _physical(grid, w_pred))
    th_new = e_theta * th0 + 0.5 * dt * (e_theta * n1_theta + n2_theta)
    w_new = e_omega * w0 + 0.5 * dt * (e_omega * n1_omega + n2_omega)
    return state_of(_physical(grid, fp.dealias(grid, th_new)), _physical(grid, fp.dealias(grid, w_new)), state.t + dt)


def full_plane_rates(state, params):
    """The full-plane rates, with G the real field that compute_G returns:
    R_alpha's anti-Hermitian part on the Nyquist row (nonzero only when
    dealias_fraction = 1) is no part of that field and is projected out."""
    grid = state.grid
    a = params.alpha
    th_hat = fp.dealias(grid, fp.to_spectral(state.theta.values))
    w_hat = fp.dealias(grid, fp.to_spectral(state.omega.values))
    u_rate = grid.side_length**2 * float(np.sum(fp.kpow(grid, a - 2.0) * np.abs(w_hat) ** 2))
    g_hat = fp.hermitian_symmetrize(w_hat - fp.riesz_alpha(grid, th_hat, a))
    g_rate = grid.side_length**2 * float(np.sum(np.abs(fp.kpow(grid, a / 2.0) * g_hat) ** 2))
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
    call counts once per field).  The count is taken under a lock: the step's
    transform lane calls numpy's transforms from a second thread."""
    counts = {"complex": 0, "real": 0}
    lock = threading.Lock()
    for name, kind in (("fft2", "complex"), ("ifft2", "complex"), ("rfft2", "real"), ("irfft2", "real")):
        orig = getattr(np.fft, name)

        def counted(a, *args, _orig=orig, _kind=kind, **kwargs):
            out = _orig(a, *args, **kwargs)
            real_side = out if out.dtype.kind == "f" else a
            with lock:
                counts[_kind] += max(1, np.size(real_side) // n**2)
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return counts


def test_transform_budget(monkeypatch):
    """One step plus the dissipation rates on its result: no complex
    transform and exactly 16 real n x n ones.  The step starts from the
    state's coefficients and hands its own on as the new state's, so it
    makes no forward transform of a state.  A fresh state makes its
    physical arrays at first use, in the run loop its first record: that is
    done here before counting."""
    grid = GridSpec(32)
    params = FlowParams(1.0, 1.0, 0.9, 0.1, critical=True)
    state = initial_data("random-band", 0, grid)
    state.theta, state.omega

    counts = _count_transforms(monkeypatch, grid.n)
    new = step(state, params, StepperConfig(dt_init=0.01))
    dissipation_rates(new, params)
    assert counts == {"complex": 0, "real": 16}


def test_transform_budget_with_the_lane(monkeypatch):
    """The same census at n = LANE_MIN_N, where half of each transform pair
    runs on the lane thread: exactly 16 real transforms per step cycle."""
    grid = GridSpec(solver.LANE_MIN_N)
    params = FlowParams(1.0, 1.0, 0.9, 0.1, critical=True)
    state = initial_data("random-band", 0, grid)
    state.theta, state.omega

    counts = _count_transforms(monkeypatch, grid.n)
    for state in run(state, params, StepperConfig(dt_init=0.01), n_steps=3):
        dissipation_rates(state, params)
    assert counts == {"complex": 0, "real": 3 * 16}


def test_diagnostics_transform_budget(monkeypatch):
    """snapshot_record plus cordoba_margin on a state's coefficients, as the
    run loop calls them: no complex transform and exactly 7 real n x n ones,
    2 inverse for sup|grad theta|, 1 for G, 1 for the one Besov block of G
    whose bound can reach the sup (of the 6 non-empty ones at n = 64), and
    1 forward plus 2 inverse for the Cordoba terms."""
    grid = GridSpec(64)
    params = FlowParams(1.0, 1.0, 0.95, 0.05, critical=True)
    state = step(initial_data("random-band", 0, grid), params, StepperConfig(dt_init=0.01))
    gamma, gamma_prime = CONVEX_GAMMAS["square"]

    counts = _count_transforms(monkeypatch, grid.n)
    snapshot_record(state, params, 2.5, 0.4, 0.0, 0.0)
    cordoba_margin(state.theta, params.beta, gamma, gamma_prime, state.hats[0])
    assert counts["complex"] == 0
    assert counts["real"] == 7


def test_no_complex_transform_in_the_commands(monkeypatch, tmp_path):
    """The complex-transform census: a run, a resume, the Besov table, the
    inequality suite and the kernel quadrature make no fft2/ifft2 call."""
    counts = _count_transforms(monkeypatch, 32)
    run, common = tmp_path / "run", ["--n", "32", "--n-steps", "4", "--diag-every", "2"]
    assert cli.main(["run", *common, "--checkpoint-every", "2", "--out-dir", str(run)]) == 0
    resume = ["resume", str(run / "ckpt_00000002.chk"), "--n-steps", "2", "--out-dir", str(tmp_path / "resume")]
    assert cli.main(resume) == 0
    assert cli.main(["besov", str(run / "final.chk"), "--s", "0.5", "--field", "G"]) == 0
    assert cli.main(["inequality-suite", *common, "--out", str(tmp_path / "iq.csv")]) == 0
    kernels.quadrature_errors(0.5, 16)
    assert counts["complex"] == 0
    assert counts["real"] > 0
