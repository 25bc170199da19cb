"""Acceptance gate: one test per criterion, each asserted at its stated
tolerance and reporting a single pass/fail line with its runtime.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import functools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bq2d import kernels
from bq2d.lp import (
    bernstein_check,
    chain_rule_besov_ratio,
    commutator_estimate_ratio,
    convolution_commutator_ratio,
    interp_inequality_ratio,
)
from bq2d.monitors import (
    ALPHA_STAR,
    CONVEX_GAMMAS,
    check_lq_index,
    cordoba_margin,
    cordoba_scale,
    difference_lower_bound_margin,
    energy_margin,
    fractional_laplacian,
    gradient_lower_bound_margin,
    index_window,
    max_principle_margins,
)
from bq2d.solver import StepperConfig, delta_star, g_equation_residual, oss_check, step
from bq2d.spectral import (
    GridSpec,
    PhysicalField,
    biot_savart,
    constant_field,
    coordinates,
    field_from_function,
    grad,
    lp_norm,
    random_band_field,
    random_band_spectral,
    riesz_alpha,
    to_physical,
    to_spectral,
    v_from_theta,
    wavevectors,
)


def criterion(num, label, budget_seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL  {label}")
                raise
            dt = time.monotonic() - t0
            print(f"ACCEPTANCE {num:2d} PASS  {label}  ({dt:.1f}s / budget {budget_seconds}s)")
            assert dt < budget_seconds, f"criterion {num} exceeded its runtime budget"

        return wrapper

    return deco


# ---------------------------------------------------------------------------


@criterion(1, "spectral exactness of every multiplier operator", 1.0)
def test_criterion_1_spectral_exactness():
    g = GridSpec(64)
    x1, x2 = coordinates(g)

    lam = to_physical(
        fractional_laplacian(to_spectral(field_from_function(g, lambda a, b: np.cos(2 * b))), 0.7)
    )
    expect = 2.0**0.7 * np.cos(2 * x2)
    assert np.abs(lam.values - expect).max() <= 1e-12 * np.abs(expect).max()

    rz = to_physical(
        riesz_alpha(to_spectral(field_from_function(g, lambda a, b: np.sin(2 * a))), 0.5)
    )
    expect = math.sqrt(2.0) * np.cos(2 * x1)
    assert np.abs(rz.values - expect).max() <= 1e-12 * np.abs(expect).max()

    u1, u2 = biot_savart(to_spectral(field_from_function(g, lambda a, b: np.sin(a))))
    assert np.abs(to_physical(u1).values).max() <= 1e-12
    assert np.abs(to_physical(u2).values + np.cos(x1)).max() <= 1e-12

    v1, v2 = v_from_theta(to_spectral(field_from_function(g, lambda a, b: np.sin(a))), 0.5)
    assert np.abs(to_physical(v1).values).max() <= 1e-12
    assert np.abs(to_physical(v2).values - np.sin(x1)).max() <= 1e-12

    rng = np.random.default_rng(0)
    wh = random_band_spectral(g, 1, 12, rng)
    b1, b2 = biot_savart(wh)
    k1, k2, _ = wavevectors(g)
    div = 1j * k1 * b1.coeffs + 1j * k2 * b2.coeffs
    assert np.abs(div).max() <= 1e-13 * np.abs(wh.coeffs).max()


@criterion(2, "temperature-velocity formula equals Biot-Savart of the Riesz image", 1.0)
def test_criterion_2_formula_identity():
    g = GridSpec(64)
    rng = np.random.default_rng(1)
    for _ in range(10):
        beta = rng.uniform(0.05, 0.95)
        th = random_band_spectral(g, 1, 12, rng)
        v1a, v2a = v_from_theta(th, beta)
        v1b, v2b = biot_savart(riesz_alpha(th, 1.0 - beta))
        scale = max(np.abs(v1a.coeffs).max(), np.abs(v2a.coeffs).max())
        assert np.abs(v1a.coeffs - v1b.coeffs).max() <= 1e-12 * scale
        assert np.abs(v2a.coeffs - v2b.coeffs).max() <= 1e-12 * scale


@criterion(3, "kernel-quadrature oracle vs spectral operator", 180.0)
def test_criterion_3_kernel_oracle():
    # comparison data: the moment-free calibration bump.  A plain Gaussian's
    # mass couples to the torus images of the slowly decaying kernels at
    # O((width/L)^beta), far above these tolerances, so the dual-route check
    # is meaningful only on data with vanishing zeroth/second radial moments
    # (see test_criterion_3_literal_plain_gaussian below).
    assert np.abs(kernels.circle_mean_sigma(1.0, 64)).max() <= 1e-12
    for beta in (0.1, 0.5, 0.9):
        res = kernels.quadrature_errors(beta, 256)
        res2 = kernels.quadrature_errors(beta, 512)
        assert res["v_residual"] <= 1e-3, (beta, res)
        assert res["symgrad_error"] <= 1e-2, (beta, res)
        assert res["v_residual"] / res2["v_residual"] >= 2.0, (beta, res, res2)
        assert abs(res2["C_star"] / res["C_star"] - 1.0) <= 0.01

    g = GridSpec(256)
    beta = 0.5
    th = kernels.oracle_bump(g, width=kernels.oracle_width(beta))
    full = kernels.symgrad_v_quadrature(th, kernels.KernelConfig(beta=beta), 1.0)
    near, mid, far = kernels.split_symgrad_bound(th, rho=0.05, L_split=1.0, beta=beta)
    scale = max(np.abs(f.values).max() for f in full)
    for i in range(3):
        total = near[i].values + mid[i].values + far[i].values
        assert np.abs(total - full[i].values).max() <= 1e-12 * scale


@pytest.mark.xfail(
    strict=True,
    reason=(
        "On the torus the spectral operator includes all periodic images of "
        "the data, while the quadrature evaluates the plane integral of the "
        "visible bump.  A plain Gaussian carries mass, which couples to the "
        "images of the |z|^{-beta}-decaying kernel at O((width/L)^beta) "
        "relative in L2 (measured: 0.15 at beta=0.9 up to 0.57 at beta=0.1, "
        "independent of n), so no truncation or resolution brings the "
        "mass-carrying comparison to 1e-3.  The moment-free bump of "
        "criterion 3 removes exactly this coupling and meets every stated "
        "tolerance."
    ),
)
def test_criterion_3_literal_plain_gaussian():
    for beta in (0.1, 0.5, 0.9):
        c, resid = kernels.calibrate_C_beta(
            beta, 256, bump="gauss", residual_tol=math.inf
        )
        assert resid <= 1e-3, (beta, resid)


@criterion(4, "pointwise convexity inequality margins", 30.0)
def test_criterion_4_cordoba(reference_runs):
    g = GridSpec(128)
    rng = np.random.default_rng(2)
    fields = [random_band_field(g, 1, 10, rng) for _ in range(20)]
    snapshots, _, _ = reference_runs["runs"][0.95]
    fields += [snapshots[i].theta for i in (0, 2, 5, 8, 10)]
    for name, (gam, gp) in CONVEX_GAMMAS.items():
        for beta in (0.3, 0.5, 1.0, 1.5):
            for f in fields:
                margin = cordoba_margin(f, beta, gam, gp)
                scale = cordoba_scale(f, beta, gam, gp)
                assert margin >= -1e-8 * scale, (name, beta)
    closed = cordoba_margin(
        field_from_function(g, lambda a, b: np.cos(a)), 0.5, *CONVEX_GAMMAS["square"]
    )
    assert abs(closed - 2.0**-0.5) <= 1e-10


def _grad_scale(f, beta):
    g1h, g2h = grad(to_spectral(f))
    g1 = to_physical(g1h).values
    g2 = to_physical(g2h).values
    t1 = np.abs(
        g1 * to_physical(fractional_laplacian(g1h, beta)).values
        + g2 * to_physical(fractional_laplacian(g2h, beta)).values
    ).max()
    sq = PhysicalField(f.grid, g1 * g1 + g2 * g2)
    t2 = np.abs(to_physical(fractional_laplacian(to_spectral(sq), beta)).values).max()
    return t1 + 0.5 * t2 + 1e-300


@criterion(5, "constant-free parts of the nonlinear lower bounds", 60.0)
def test_criterion_5_lower_bounds(reference_runs):
    g = GridSpec(128)
    rng = np.random.default_rng(3)
    fields = [random_band_field(g, 1, 10, rng) for _ in range(20)]
    snapshots, _, _ = reference_runs["runs"][0.95]
    fields += [snapshots[i].theta for i in (0, 2, 5, 8, 10)]
    for beta in (0.3, 0.5, 1.0, 1.5):
        for f in fields:
            exact, _ = gradient_lower_bound_margin(f, beta, 4.0)
            assert exact >= -1e-8 * _grad_scale(f, beta), beta
            exact_h, _ = difference_lower_bound_margin(f, (f.grid.n // 4, 0), beta)
            scale_h = (2.0 * lp_norm(f, math.inf)) ** 2 * (1.0 + f.grid.n**beta)
            assert exact_h >= -1e-8 * scale_h, beta

    # empirical constants stable within +-50% under n doubling on a fixed field
    recipe = lambda x1, x2: np.sin(2 * x1) + 0.4 * np.cos(3 * x2)
    c0s, chs = [], []
    for n in (128, 256):
        gg = GridSpec(n)
        f = field_from_function(gg, recipe)
        _, c0 = gradient_lower_bound_margin(f, 0.5, 4.0)
        _, ch = difference_lower_bound_margin(f, (n // 4, 0), 0.5)
        c0s.append(c0)
        chs.append(ch)
    assert 0.5 <= c0s[1] / c0s[0] <= 1.5
    assert 0.5 <= chs[1] / chs[0] <= 1.5


@criterion(6, "max principle and energy margins on the reference runs", 360.0)
def test_criterion_6_reference_margins(reference_runs):
    assert reference_runs["build_seconds"] < 360.0  # < 2 min per run
    for alpha, (snapshots, records, params) in reference_runs["runs"].items():
        theta0_l2 = records[0].theta_l2
        theta0_linf = records[0].theta_linf
        u0_l2 = records[0].u_l2
        for rec in records:
            band = 1e-6 * (1.0 + rec.t)
            m2, minf = max_principle_margins(rec, theta0_l2, theta0_linf)
            assert m2 >= -band * theta0_l2, alpha
            assert minf >= -band * theta0_linf, alpha
            lin, _ = energy_margin(rec, u0_l2, theta0_l2)
            assert lin >= -band * max(u0_l2, 1.0), alpha


@criterion(7, "combined-quantity evolution residual converges at order >= 1.9", 120.0)
def test_criterion_7_g_residual_order(reference_runs):
    snapshots, _, params = reference_runs["runs"][0.95]
    base = snapshots[1]  # resolved state shortly into the run
    cfg = StepperConfig(dt_init=1.0, t_end=10.0)
    residuals = []
    for dt in (0.004, 0.002, 0.001):
        s1 = step(base, params, cfg, dt=dt)
        s2 = step(s1, params, cfg, dt=dt)
        residuals.append(g_equation_residual([base, s1, s2], params))
    orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    assert min(orders) >= 1.9, residuals


@criterion(8, "index window formulas, threshold and rejection", 1.0)
def test_criterion_8_index_window():
    assert abs(index_window(0.9).q0 - 4.4 / 1.7) <= 1e-12
    alpha0 = (23.0 - math.sqrt(145.0)) / 12.0
    assert ALPHA_STAR == alpha0
    assert round(alpha0, 4) == 0.9132
    win = index_window(alpha0)
    assert abs(win.q_low - win.q0) <= 1e-10
    with pytest.raises(ValueError):
        check_lq_index(0.9, index_window(0.9).q0 + 0.1)
    with pytest.raises(ValueError):
        index_window(0.7)


@criterion(9, "fractional Bernstein ratios on bands", 10.0)
def test_criterion_9_bernstein():
    g = GridSpec(128)
    # single modes: the ratios are the exact per-mode multipliers
    for m, j in ((4, 2), (8, 3)):
        fh = to_spectral(field_from_function(g, lambda a, b, m=m: np.sin(m * a)))
        lo, up = bernstein_check(fh, j, 0.45, 2, 2)
        expect = float(m) ** 0.9 / 2.0 ** (0.9 * j)
        assert abs(lo - expect) <= 1e-12 and abs(up - expect) <= 1e-12
    # random band fields: band-independent constants c = 1 and C = 2^{2a}
    rng = np.random.default_rng(4)
    for alpha in (0.3, 0.45):
        for j in (2, 3, 4, 5):
            top = min(2.0 ** (j + 1) * 0.999, g.dealias_fraction * g.n / 2.0)
            fh = random_band_spectral(g, 2.0**j, top, rng)
            lo, up = bernstein_check(fh, j, alpha, 2, 2)
            assert lo >= 1.0 - 1e-12, (alpha, j)
            assert up <= 2.0 ** (2 * alpha) + 1e-12, (alpha, j)


@criterion(10, "measured commutator/chain-rule ratios: zero cases and stability", 120.0)
def test_criterion_10_measured_ratios():
    g64 = GridSpec(64)
    zeros = (constant_field(g64, 0.0), constant_field(g64, 0.0))
    rng = np.random.default_rng(5)
    th = random_band_field(g64, 1, 6, rng)
    assert commutator_estimate_ratio(zeros, th, 0.95, 0.2, 0.9, 2, 4, 4, 2) == 0.0
    assert (
        commutator_estimate_ratio((th, th), constant_field(g64, 0.0), 0.95, 0.2, 0.9, 2, 4, 4, 2)
        == 0.0
    )
    phi = kernels.gaussian_bump(g64, width=g64.side_length / 16)
    assert (
        convolution_commutator_ratio(phi, constant_field(g64, 2.0), th, 0.5, 2, 4, 4, 2, 2) == 0.0
    )
    assert chain_rule_besov_ratio(constant_field(g64, 0.0), 0.2, 0.95, 2.3) == 0.0
    assert interp_inequality_ratio(constant_field(g64, 0.0), 0.5) == 0.0

    def ensemble_max(n, fn, count=20):
        grid = GridSpec(n)
        best = 0.0
        for seed in range(count):
            rng = np.random.default_rng(100 + seed)
            best = max(best, fn(grid, rng))
        return best

    cases = {
        "prop_commutator": lambda grid, rng: commutator_estimate_ratio(
            (random_band_field(grid, 1, 12, rng), random_band_field(grid, 1, 12, rng)),
            random_band_field(grid, 1, 12, rng),
            0.95,
            0.2,
            0.9,
            2.0,
            4.0,
            4.0,
            2.0,
        ),
        "mollifier_commutator": lambda grid, rng: convolution_commutator_ratio(
            kernels.gaussian_bump(grid, width=grid.side_length / 16),
            random_band_field(grid, 1, 12, rng),
            random_band_field(grid, 1, 12, rng),
            0.5,
            2.0,
            4.0,
            4.0,
            2.0,
            2.0,
        ),
        "chain_rule": lambda grid, rng: chain_rule_besov_ratio(
            random_band_field(grid, 1, 12, rng), 0.2, 0.95, 2.3
        ),
        "interpolation": lambda grid, rng: interp_inequality_ratio(
            random_band_field(grid, 1, 12, rng), 0.5
        ),
    }
    for name, fn in cases.items():
        m64 = ensemble_max(64, fn)
        m128 = ensemble_max(128, fn)
        assert math.isfinite(m64) and math.isfinite(m128), name
        assert 0.5 <= m128 / m64 <= 2.0, (name, m64, m128)


@criterion(11, "oscillation scan and shock-threshold scaling", 30.0)
def test_criterion_11_oss():
    g = GridSpec(64)
    theta = field_from_function(g, lambda a, b: np.sin(a))  # Lipschitz constant 1
    delta = 0.8
    rep = oss_check(theta, delta=delta, L=delta / 4.0)
    assert rep.holds
    assert rep.delta_measured <= delta / 4.0 + 1e-12
    for beta in (0.1, 0.5, 0.9):
        factor = delta_star(2.0, beta, 1.0) / delta_star(1.0, beta, 1.0)
        assert abs(factor - 2.0 ** (-2.0 * beta / (2.0 - beta))) <= 1e-12


@criterion(12, "bitwise determinism of runs, resume and diagnostics", 60.0)
def test_criterion_12_determinism(tmp_path, cli_env):
    base = [
        sys.executable,
        "-m",
        "bq2d.cli",
    ]

    def run(args):
        r = subprocess.run(base + args, capture_output=True, text=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        return r

    common = ["--n", "32", "--alpha", "0.9", "--dt-init", "0.01", "--diag-every", "2"]
    run(["run", *common, "--n-steps", "20", "--out-dir", str(tmp_path / "full")])
    run(["run", *common, "--n-steps", "20", "--out-dir", str(tmp_path / "again")])
    run(["run", *common, "--n-steps", "10", "--out-dir", str(tmp_path / "half")])
    run(
        [
            "resume",
            str(tmp_path / "half" / "final.chk"),
            "--n-steps",
            "10",
            "--dt-init",
            "0.01",
            "--out-dir",
            str(tmp_path / "resumed"),
        ]
    )
    full = (tmp_path / "full" / "final.chk").read_bytes()
    assert full == (tmp_path / "resumed" / "final.chk").read_bytes()
    assert full == (tmp_path / "again" / "final.chk").read_bytes()
    assert (tmp_path / "full" / "diagnostics.csv").read_bytes() == (
        tmp_path / "again" / "diagnostics.csv"
    ).read_bytes()
