"""Singular-kernel quadrature: sigma identities, plane-integral sums,
calibration against the spectral operator."""

import math
import warnings

import numpy as np
import pytest

from bq2d.kernels import (
    CalibrationError,
    KernelConfig,
    calibrate_C_beta,
    circle_mean_sigma,
    grad_v_quadrature,
    oracle_bump,
    oracle_width,
    quadrature_errors,
    sigma,
    split_symgrad_bound,
    symgrad_v_quadrature,
    v_quadrature,
)
from bq2d.spectral import (
    GridSpec,
    PhysicalField,
    constant_field,
    field_from_function,
    grad,
    to_physical,
    to_spectral,
    v_from_theta,
)


def direct_kernel_sum(kernel, f, grid):
    """sum_y kernel(x - y) f(y) (L/n)^2 as the literal double sum: every
    nonzero kernel entry shifts the zero-padded data once."""
    n = grid.n
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = f
    out = np.zeros((2 * n, 2 * n))
    for i, j in np.argwhere(kernel != 0.0):
        out += kernel[i, j] * np.roll(big, (i, j), axis=(0, 1))
    return out[:n, :n] * grid.cell_weight


def analytic_kernel_constant(beta: float) -> float:
    """|C(beta)| from the closed-form Fourier transform of x |x|^{-1-beta}:
    (1-beta) |Gamma((beta-1)/2)| / (pi 2^{3-beta} Gamma((3-beta)/2))."""
    return (
        (1.0 - beta)
        * abs(math.gamma((beta - 1.0) / 2.0))
        / (math.pi * 2.0 ** (3.0 - beta) * math.gamma((3.0 - beta) / 2.0))
    )


class TestSigma:
    def test_plug_in_values(self):
        assert np.allclose(sigma((1.0, 0.0)), [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(sigma((1.0, 1.0)), [[-1.0, 0.0], [0.0, 1.0]])

    def test_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(2)
            m = sigma(z)
            assert abs(m[0, 0] + m[1, 1]) < 1e-14
            assert abs(m[0, 1] - m[1, 0]) < 1e-14
            assert np.abs(m).max() <= 1.0 + 1e-14
            assert np.linalg.norm(m, "fro") <= math.sqrt(2.0) + 1e-12

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            sigma((0.0, 0.0))


class TestCircleMean:
    def test_zero_at_default_points(self):
        assert np.abs(circle_mean_sigma(1.0, 64)).max() <= 1e-12

    def test_radius_independence(self):
        assert np.abs(circle_mean_sigma(0.01, 64)).max() <= 1e-12

    def test_eight_points_exact(self):
        # sigma entries are degree-2 trigonometric polynomials: 8-point
        # trapezoid integrates them exactly
        assert np.abs(circle_mean_sigma(1.0, 8)).max() <= 1e-13

    def test_bad_args(self):
        with pytest.raises(ValueError):
            circle_mean_sigma(-1.0, 64)
        with pytest.raises(ValueError):
            circle_mean_sigma(1.0, 4)


class TestVQuadrature:
    def test_zero_input(self):
        g = GridSpec(32)
        v1, v2 = v_quadrature(constant_field(g, 0.0), KernelConfig(beta=0.5), 1.0)
        assert np.abs(v1.values).max() == 0.0 and np.abs(v2.values).max() == 0.0

    def test_radial_symmetry_center_parity(self):
        # for radial theta, the kernel's parity kills the first velocity
        # component at the center (odd x odd in z2) but not the second
        g = GridSpec(64)
        th = oracle_bump(g, width=g.side_length / 24)
        v1, v2 = v_quadrature(th, KernelConfig(beta=0.5), 1.0)
        c = g.n // 2
        scale = np.abs(v2.values).max()
        assert abs(v1.values[c, c]) <= 1e-12 * scale
        # v1 vanishes on the whole center row/column by the same parity
        assert np.abs(v1.values[c, :]).max() <= 1e-12 * scale

    def test_linearity(self):
        g = GridSpec(32)
        th = oracle_bump(g, width=g.side_length / 16)
        cfg = KernelConfig(beta=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v1a, _ = v_quadrature(th, cfg, 1.0)
            v1b, _ = v_quadrature(PhysicalField(g, 2.0 * th.values), cfg, 1.0)
        assert np.abs(v1b.values - 2.0 * v1a.values).max() <= 1e-12 * max(
            np.abs(v1b.values).max(), 1e-300
        )

    def test_direct_method_matches_fft(self):
        # the literal double sum over the padded grid is the oracle of the
        # transform-based convolution
        from bq2d.kernels import _pad_displacements, _reach

        g = GridSpec(16)
        th = oracle_bump(g, width=g.side_length / 10)
        cfg = KernelConfig(beta=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a1, a2 = v_quadrature(th, cfg, 1.0)
        z1, z2, zn = _pad_displacements(g.n, g.side_length)
        mask = (zn > 0) & (zn <= _reach(g))
        radial = np.zeros_like(zn)
        radial[mask] = zn[mask] ** (-1.0 - cfg.beta)
        d1 = to_physical(grad(to_spectral(th))[0]).values
        b1, b2 = (direct_kernel_sum(kern * radial, d1, g) for kern in (-z2, z1))
        scale = np.abs(a2.values).max()
        assert np.abs(a1.values - b1).max() <= 1e-12 * scale
        assert np.abs(a2.values - b2).max() <= 1e-12 * scale

    def test_support_warning(self):
        g = GridSpec(32)
        broad = field_from_function(g, lambda x1, x2: np.sin(x1) ** 2)
        with pytest.warns(UserWarning, match="not effectively supported"):
            v_quadrature(broad, KernelConfig(beta=0.5), 1.0)


class TestGradAndSymgrad:
    def test_zero_input(self):
        g = GridSpec(32)
        rows = grad_v_quadrature(constant_field(g, 0.0), KernelConfig(beta=0.5), 1.0)
        for row in rows:
            for entry in row:
                assert np.abs(entry.values).max() == 0.0

    def test_symgrad_trace_free_and_symmetric(self):
        g = GridSpec(64)
        th = oracle_bump(g)
        s11, s12, s22 = symgrad_v_quadrature(th, KernelConfig(beta=0.5), 1.0)
        scale = max(np.abs(s11.values).max(), np.abs(s12.values).max())
        assert np.abs(s11.values + s22.values).max() <= 1e-10 * scale

    def test_antisymmetric_part_is_scalar_kernel_times_rotation(self):
        # antisym(grad v) = (1-beta)/2 * C * J * (scalar-kernel integral):
        # an algebraic identity of the two-term gradient representation
        g = GridSpec(64)
        beta = 0.5
        th = oracle_bump(g)
        (g11, g12), (g21, g22) = grad_v_quadrature(th, KernelConfig(beta=beta), 1.0)
        anti = 0.5 * (g12.values - g21.values)

        from bq2d.kernels import _apply_kernels, _pad_displacements

        z1, z2, zn = _pad_displacements(g.n, g.side_length)
        mask = zn > 0
        scalar = np.zeros_like(zn)
        scalar[mask] = zn[mask] ** (-1.0 - beta)
        d1 = to_physical(grad(to_spectral(th))[0]).values
        (w0,) = _apply_kernels(d1, g, [scalar])
        expect = -0.5 * (1.0 - beta) * w0  # J[0][1] = -1 entry of the rotation
        assert np.abs(anti - expect).max() <= 1e-11 * max(np.abs(expect).max(), 1e-300)

    def test_diagonal_entries_are_exact_negations(self):
        # sigma is trace-free and the two diagonal tensor kernels of the
        # gradient are negatives of each other, so one convolution serves both
        g = GridSpec(32)
        th = oracle_bump(g)
        cfg = KernelConfig(beta=0.5)
        triples = [symgrad_v_quadrature(th, cfg, 1.0), *split_symgrad_bound(th, 0.5, 1.5, 0.5)]
        for s11, _, s22 in triples:
            assert np.array_equal(s22.values, -s11.values)
        (g11, _), (_, g22) = grad_v_quadrature(th, cfg, 1.0)
        assert np.array_equal(g22.values, -g11.values)

    def test_symgrad_matches_symmetrized_gradient_quadrature(self):
        g = GridSpec(64)
        beta = 0.5
        th = oracle_bump(g)
        cfg = KernelConfig(beta=beta)
        (g11, g12), (g21, g22) = grad_v_quadrature(th, cfg, 1.0)
        s11, s12, s22 = symgrad_v_quadrature(th, cfg, 1.0)
        scale = np.abs(s12.values).max()
        # the two-term form suffers the O(h^{1-beta}) self-cell error of its
        # scalar kernel; the difference form does not, so compare loosely
        assert np.abs(0.5 * (g12.values + g21.values) - s12.values).max() <= 0.05 * scale


class TestSplitIntegral:
    def test_partition_identity(self):
        g = GridSpec(64)
        beta = 0.5
        th = oracle_bump(g)
        full = symgrad_v_quadrature(th, KernelConfig(beta=beta), 1.0)
        near, mid, far = split_symgrad_bound(th, rho=0.05, L_split=1.0, beta=beta)
        scale = max(np.abs(f.values).max() for f in full)
        for i in range(3):
            total = near[i].values + mid[i].values + far[i].values
            assert np.abs(total - full[i].values).max() <= 1e-12 * scale

    def test_near_region_vanishes_with_rho(self):
        g = GridSpec(64)
        th = oracle_bump(g)
        n1, _, _ = split_symgrad_bound(th, rho=0.2, L_split=1.0, beta=0.5)
        n2, _, _ = split_symgrad_bound(th, rho=0.1, L_split=1.0, beta=0.5)
        a = max(np.abs(f.values).max() for f in n1)
        b = max(np.abs(f.values).max() for f in n2)
        assert b < a

    def test_mid_region_bound_rho_scaling(self):
        # the oscillation bound of the mid region is delta times the annulus
        # mass of |z|^{-2-beta}; the discrete mass must match the continuum
        # closed form and inherit the rho^{-beta} law
        from bq2d.kernels import annulus_kernel_mass

        g = GridSpec(128)
        beta = 0.5
        L_split = 4.0
        masses = []
        for rho in (0.8, 0.4, 0.2):
            m = annulus_kernel_mass(g, rho, L_split, 2.0 + beta)
            exact = 2.0 * math.pi * (rho**-beta - L_split**-beta) / beta
            assert abs(m - exact) <= 0.03 * exact
            masses.append(m)
        for a, b in zip(masses, masses[1:]):
            ratio = b / a
            assert 2.0**beta * 0.85 <= ratio <= 2.0**beta * 1.35

    def test_ordering_enforced(self):
        g = GridSpec(32)
        th = oracle_bump(g)
        with pytest.raises(ValueError):
            split_symgrad_bound(th, rho=1.0, L_split=0.5, beta=0.5)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
    def test_beta_checked_like_the_other_quadratures(self, beta):
        th = oracle_bump(GridSpec(32))
        with pytest.raises(ValueError, match="beta strictly inside"):
            split_symgrad_bound(th, rho=0.05, L_split=1.0, beta=beta)


def padded_transform_count(monkeypatch, call, n):
    """rfft2/irfft2 calls on the padded 2n-row grid made by ``call()``."""
    calls = []
    for name in ("rfft2", "irfft2"):
        transform = getattr(np.fft, name)

        def counted(a, *args, _transform=transform, **kwargs):
            calls.append(a.shape[0] == 2 * n)
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the coarse grid trips the support check
        call()
    return sum(calls)


class TestTransformCensus:
    """d1 theta is padded and transformed once per call; each convolved
    kernel then costs one forward and one inverse transform."""

    @pytest.mark.parametrize(
        "quadrature, want",
        [
            (lambda th, cfg: v_quadrature(th, cfg, 1.0), 5),
            (lambda th, cfg: symgrad_v_quadrature(th, cfg, 1.0), 5),
            (lambda th, cfg: split_symgrad_bound(th, 0.5, 1.5, cfg.beta), 13),
            (lambda th, cfg: grad_v_quadrature(th, cfg, 1.0), 9),
        ],
        ids=["v", "symgrad", "split", "grad_v"],
    )
    def test_padded_transforms_per_call(self, monkeypatch, quadrature, want):
        g = GridSpec(16)
        th = oracle_bump(g)
        assert padded_transform_count(monkeypatch, lambda: quadrature(th, KernelConfig(beta=0.5)), g.n) == want


class TestCalibration:
    def test_deterministic(self):
        a = calibrate_C_beta(0.5, 64, residual_tol=math.inf)
        b = calibrate_C_beta(0.5, 64, residual_tol=math.inf)
        assert a == b

    def test_linearity_in_theta(self):
        # doubling the bump amplitude leaves C* unchanged: both sides linear
        g = GridSpec(64)
        w = oracle_width(0.5)
        th1 = oracle_bump(g, width=w)
        th2 = PhysicalField(g, 2.0 * th1.values)
        out = []
        for th in (th1, th2):
            q1, q2 = v_quadrature(th, KernelConfig(beta=0.5), 1.0)
            s1, s2 = v_from_theta(to_spectral(th), 0.5)
            sp1, sp2 = to_physical(s1).values, to_physical(s2).values
            num = (q1.values * sp1 + q2.values * sp2).sum()
            den = (q1.values**2 + q2.values**2).sum()
            out.append(num / den)
        assert abs(out[0] - out[1]) <= 1e-12 * abs(out[0])

    def test_matches_analytic_constant(self):
        # derived oracle: the closed-form Fourier-transform constant
        c, resid = calibrate_C_beta(0.5, 128, residual_tol=0.05)
        assert abs(abs(c) - analytic_kernel_constant(0.5)) <= 0.02 * abs(c)

    def test_failure_signal(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the tiny grid also trips the support check
            with pytest.raises(CalibrationError):
                calibrate_C_beta(0.9, 32, residual_tol=1e-6)

    def test_quadrature_errors_reuses_the_calibration(self, monkeypatch):
        # one bump, one spectrum of it and one spectral velocity serve both the
        # fit and the symmetric-gradient comparison: 3 forward n x n transforms
        # (the bump, and d1 theta in each quadrature) and 5 + 5 padded ones
        n = 16
        shapes = []
        for name in ("rfft2", "irfft2"):
            transform = getattr(np.fft, name)

            def counted(a, *args, _name=name, _transform=transform, **kwargs):
                shapes.append((_name, a.shape[0]))
                return _transform(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the coarse grid trips the support check
            res = quadrature_errors(0.5, n)
        assert shapes.count(("rfft2", n)) == 3
        assert sum(rows == 2 * n for _, rows in shapes) == 10
        monkeypatch.undo()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert res["C_star"] == calibrate_C_beta(0.5, n, residual_tol=math.inf)[0]

    def test_unknown_bump_rejected(self):
        with pytest.raises(ValueError, match="bump must be 'oracle' or 'gauss', got 'orcale'"):
            calibrate_C_beta(0.5, 32, bump="orcale")
