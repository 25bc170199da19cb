"""Spectral core: transforms, multiplier operators, dealiasing, norms."""

import math

import numpy as np
import pytest

import full_plane as fp
from bq2d.spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    SpectralField,
    biot_savart,
    biot_savart_symbols,
    constant_field,
    coordinates,
    dealias,
    field_from_function,
    fractional_laplacian,
    grad,
    half_plane_sum,
    irfft2,
    l2_norm_spectral,
    lp_norm,
    perp_grad,
    random_band_field,
    dealias_mask,
    kpow,
    random_band_spectral,
    rfft2,
    riesz_alpha,
    shift_norms,
    sobolev_norm,
    to_physical,
    to_spectral,
    v_from_theta,
    wavevectors,
)

G16 = GridSpec(16)
G32 = GridSpec(32)


def sin_field(grid, fn):
    return field_from_function(grid, fn)


class TestGridAndFields:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            GridSpec(6)
        with pytest.raises(ValueError):
            GridSpec(9)
        with pytest.raises(ValueError):
            GridSpec(16, side_length=-1.0)
        with pytest.raises(ValueError):
            GridSpec(16, dealias_fraction=0.0)

    def test_nonfinite_rejected(self):
        bad = np.zeros((16, 16))
        bad[3, 4] = np.nan
        with pytest.raises(ValueError):
            PhysicalField(G16, bad)

    def test_flow_params_critical(self):
        FlowParams(1.0, 1.0, 0.85, 1.0 - 0.85, critical=True)
        with pytest.raises(ValueError):
            FlowParams(1.0, 1.0, 0.9, 0.2, critical=True)


class TestTransforms:
    def test_constant_field_mean_mode_only(self):
        fh = to_spectral(constant_field(G16, 3.5))
        assert abs(fh.coeffs[0, 0] - 3.5) < 1e-14
        rest = fh.coeffs.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_single_mode_two_coefficients(self):
        fh = to_spectral(sin_field(G16, lambda x1, x2: np.sin(x1)))
        nz = np.argwhere(np.abs(fh.coeffs) > 1e-12)
        assert sorted(map(tuple, nz)) == [(1, 0), (15, 0)]

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        f = PhysicalField(G32, rng.standard_normal((32, 32)))
        back = to_physical(to_spectral(f))
        assert np.abs(back.values - f.values).max() <= 1e-13 * np.abs(f.values).max()

    def test_parseval(self):
        rng = np.random.default_rng(1)
        f = random_band_field(G32, 1, 10, rng)
        a = lp_norm(f, 2)
        b = l2_norm_spectral(to_spectral(f))
        assert abs(a - b) <= 1e-12 * a


class TestFractionalLaplacian:
    def test_eigenfunction(self):
        alpha = 0.7
        fh = to_spectral(sin_field(G32, lambda x1, x2: np.cos(2 * x2)))
        out = to_physical(fractional_laplacian(fh, alpha))
        expect = 2.0**alpha * np.cos(2 * coordinates(G32)[1])
        assert np.abs(out.values - expect).max() < 1e-12

    def test_constant_negative_order_is_zero(self):
        fh = to_spectral(constant_field(G16, 4.0))
        out = fractional_laplacian(fh, 0.5)
        assert np.abs(out.coeffs).max() == 0.0

    def test_mixed_modes_negative_order(self):
        f = sin_field(G32, lambda x1, x2: np.sin(x1) + np.sin(4 * x2))
        out = to_physical(fractional_laplacian(to_spectral(f), -0.5))
        x1, x2 = coordinates(G32)
        expect = np.sin(x1) + 0.5 * np.sin(4 * x2)
        assert np.abs(out.values - expect).max() < 1e-13

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        fh = random_band_spectral(G32, 1, 10, rng)
        a = fractional_laplacian(fractional_laplacian(fh, 0.3), 0.45)
        b = fractional_laplacian(fh, 0.75)
        scale = np.abs(b.coeffs).max()
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * scale

    def test_order_zero_identity(self):
        rng = np.random.default_rng(3)
        fh = random_band_spectral(G16, 1, 5, rng)
        out = fractional_laplacian(fh, 0.0)
        assert np.array_equal(out.coeffs, fh.coeffs)


class TestRiesz:
    def test_unit_mode(self):
        out = to_physical(riesz_alpha(to_spectral(sin_field(G16, lambda x1, x2: np.sin(x1))), 0.6))
        expect = np.cos(coordinates(G16)[0])
        assert np.abs(out.values - expect).max() < 1e-13

    def test_transverse_mode_annihilated(self):
        out = riesz_alpha(to_spectral(sin_field(G16, lambda x1, x2: np.sin(x2))), 0.6)
        assert np.abs(out.coeffs).max() < 1e-15

    def test_mode_two(self):
        out = to_physical(
            riesz_alpha(to_spectral(sin_field(G32, lambda x1, x2: np.sin(2 * x1))), 0.5)
        )
        expect = math.sqrt(2.0) * np.cos(2 * coordinates(G32)[0])
        assert np.abs(out.values - expect).max() < 1e-12

    def test_output_real(self):
        # the self-conjugate columns m2 = 0, n/2 hold a real field's coefficients
        rng = np.random.default_rng(4)
        fh = random_band_spectral(G32, 1, 8, rng)
        out = riesz_alpha(fh, 0.9)
        raw = np.fft.ifft2(fp.full_plane(out.coeffs)) * G32.n**2
        assert np.abs(raw.imag).max() < 1e-12 * max(np.abs(raw.real).max(), 1e-300)

    def test_alpha_range(self):
        fh = to_spectral(constant_field(G16, 1.0))
        with pytest.raises(ValueError):
            riesz_alpha(fh, 1.5)


class TestBiotSavart:
    def test_single_mode(self):
        u1, u2 = biot_savart(to_spectral(sin_field(G32, lambda x1, x2: np.sin(x1))))
        assert np.abs(to_physical(u1).values).max() < 1e-14
        expect = -np.cos(coordinates(G32)[0])
        assert np.abs(to_physical(u2).values - expect).max() < 1e-13

    def test_zero(self):
        u1, u2 = biot_savart(to_spectral(constant_field(G16, 0.0)))
        assert np.abs(u1.coeffs).max() == 0.0 and np.abs(u2.coeffs).max() == 0.0

    def test_divergence_free(self):
        rng = np.random.default_rng(5)
        wh = random_band_spectral(G32, 1, 10, rng)
        u1, u2 = biot_savart(wh)
        k1, k2, _ = wavevectors(G32)
        div = 1j * k1 * u1.coeffs + 1j * k2 * u2.coeffs
        assert np.abs(div).max() <= 1e-13 * np.abs(wh.coeffs).max()

    def test_curl_recovers_vorticity(self):
        rng = np.random.default_rng(6)
        wh = random_band_spectral(G32, 1, 10, rng)
        u1, u2 = biot_savart(wh)
        k1, k2, _ = wavevectors(G32)
        curl = 1j * k1 * u2.coeffs - 1j * k2 * u1.coeffs
        assert np.abs(curl - wh.coeffs).max() <= 1e-12 * np.abs(wh.coeffs).max()


class TestVFromTheta:
    def test_single_mode(self):
        v1, v2 = v_from_theta(to_spectral(sin_field(G32, lambda x1, x2: np.sin(x1))), 0.5)
        assert np.abs(to_physical(v1).values).max() < 1e-14
        assert np.abs(to_physical(v2).values - np.sin(coordinates(G32)[0])).max() < 1e-13

    def test_constant_gives_zero(self):
        v1, v2 = v_from_theta(to_spectral(constant_field(G16, 2.0)), 0.3)
        assert np.abs(v1.coeffs).max() == 0.0 and np.abs(v2.coeffs).max() == 0.0

    def test_matches_biot_savart_of_riesz(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            beta = rng.uniform(0.05, 0.95)
            th = random_band_spectral(G32, 1, 10, rng)
            v1a, v2a = v_from_theta(th, beta)
            v1b, v2b = biot_savart(riesz_alpha(th, 1.0 - beta))
            scale = max(np.abs(v1a.coeffs).max(), np.abs(v2a.coeffs).max())
            assert np.abs(v1a.coeffs - v1b.coeffs).max() <= 1e-12 * scale
            assert np.abs(v2a.coeffs - v2b.coeffs).max() <= 1e-12 * scale

    def test_divergence_free(self):
        rng = np.random.default_rng(8)
        th = random_band_spectral(G32, 1, 10, rng)
        v1, v2 = v_from_theta(th, 0.4)
        k1, k2, _ = wavevectors(G32)
        div = 1j * k1 * v1.coeffs + 1j * k2 * v2.coeffs
        assert np.abs(div).max() <= 1e-13 * max(np.abs(v2.coeffs).max(), 1e-300)


class TestDealiasGradNorms:
    def test_dealias_cutoff_mode(self):
        n = 16
        coeffs = np.zeros((n, n // 2 + 1), complex)
        coeffs[n // 2 - 1, 0] = 1.0
        coeffs[(-(n // 2 - 1)) % n, 0] = 1.0
        fh = SpectralField(G16, coeffs)
        assert np.abs(dealias(fh).coeffs).max() == 0.0

    def test_dealias_keeps_low_modes(self):
        # rounding junk beyond the cutoff is zeroed; the retained mode is untouched
        fh = to_spectral(sin_field(G16, lambda x1, x2: np.sin(3 * x1)))
        out = dealias(fh)
        assert out.coeffs[3, 0] == fh.coeffs[3, 0]
        assert np.abs(out.coeffs - fh.coeffs).max() < 1e-15

    def test_grad_and_perp_grad(self):
        fh = to_spectral(sin_field(G32, lambda x1, x2: np.sin(x1) * np.cos(2 * x2)))
        x1, x2 = coordinates(G32)
        g1, g2 = grad(fh)
        assert np.abs(to_physical(g1).values - np.cos(x1) * np.cos(2 * x2)).max() < 1e-12
        assert np.abs(to_physical(g2).values + 2 * np.sin(x1) * np.sin(2 * x2)).max() < 1e-12
        p1, p2 = perp_grad(fh)
        assert np.abs(to_physical(p1).values + to_physical(g2).values).max() < 1e-14
        assert np.abs(to_physical(p2).values - to_physical(g1).values).max() < 1e-14

    def test_lp_norm_sin(self):
        f = sin_field(G32, lambda x1, x2: np.sin(x1))
        assert abs(lp_norm(f, 2) - math.sqrt(2 * math.pi**2)) < 1e-12

    def test_lp_norm_sup(self):
        assert lp_norm(constant_field(G16, 3.0), math.inf) == 3.0

    def test_lp_norm_rejects_small_p(self):
        with pytest.raises(ValueError):
            lp_norm(constant_field(G16, 1.0), 0.5)


class TestTranslationCovariance:
    def test_riesz_and_v_commute_with_shifts(self):
        rng = np.random.default_rng(9)
        th = random_band_field(G32, 1, 8, rng)
        shift = (3, 5)
        shifted = PhysicalField(G32, np.roll(th.values, shift, axis=(0, 1)))
        for op in (
            lambda f: to_physical(riesz_alpha(to_spectral(f), 0.7)).values,
            lambda f: to_physical(v_from_theta(to_spectral(f), 0.3)[1]).values,
        ):
            a = np.roll(op(th), shift, axis=(0, 1))
            b = op(shifted)
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(a).max(), 1e-300)


def _same_bits(a, b) -> bool:
    """Bitwise equality up to the sign of zero (x + 0.0 maps -0.0 to +0.0)."""
    a, b = np.asarray(a) + 0.0, np.asarray(b) + 0.0
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSymbolTables:
    """The cached per-grid tables against the per-call full-plane formulas
    they replaced, which are written out here as the oracle: on the half
    plane, the leading n/2+1 columns of those formulas, bit for bit, with
    the odd symbols zero on their Nyquist lines."""

    @pytest.mark.parametrize("n, L", [(16, 2 * math.pi), (32, 1.0), (64, 3.7)])
    def test_operators_match_per_call_formulas(self, n, L):
        grid = GridSpec(n, side_length=L)
        h = n // 2 + 1
        c = rfft2(np.random.default_rng(n).standard_normal((n, n)))
        fh = SpectralField(grid, c)
        m = np.fft.fftfreq(n, d=1.0 / n)
        k1 = (2 * math.pi / L) * m[:, None] * np.ones((1, h))
        k2 = (2 * math.pi / L) * m[None, :h] * np.ones((n, 1))
        kmag = np.hypot(k1, k2)
        k1[n // 2, :] = 0.0
        k2[:, -1] = 0.0
        for g in (-2.5, -0.9, 0.45, 1.0, 2.0):
            with np.errstate(divide="ignore"):
                mult = kmag**g
            mult[0, 0] = 0.0
            assert _same_bits(kpow(grid, g), mult)
            assert _same_bits(fractional_laplacian(fh, g).coeffs, c * mult)
            nz = kmag > 0
            weight = np.zeros_like(kmag)
            weight[nz] = kmag[nz] ** (2.0 * g)
            assert sobolev_norm(fh, g) == float(L * math.sqrt(half_plane_sum(weight * np.abs(c) ** 2)))
        safe = kmag.copy()
        safe[0, 0] = 1.0
        for alpha in (0.3, 0.9, 1.0):
            mult = 1j * k1 * safe ** (-alpha)
            mult[0, 0] = 0.0
            assert _same_bits(riesz_alpha(fh, alpha).coeffs, c * mult)
        kk = kmag**2
        kk[0, 0] = 1.0
        u1, u2 = 1j * k2 / kk * c, -1j * k1 / kk * c
        u1[0, 0] = u2[0, 0] = 0.0
        b1, b2 = biot_savart(fh)
        assert _same_bits(b1.coeffs, u1) and _same_bits(b2.coeffs, u2)
        for beta in (0.1, 0.5, 0.9):
            radial = safe ** (beta - 3.0)
            v1, v2 = -k1 * k2 * radial * c, k1 * k1 * radial * c
            v1[0, 0] = v2[0, 0] = 0.0
            w1, w2 = v_from_theta(fh, beta)
            assert _same_bits(w1.coeffs, v1) and _same_bits(w2.coeffs, v2)

    def test_shift_norms_and_mask_match_per_call_formulas(self):
        grid = GridSpec(24, side_length=5.0)
        m = np.fft.fftfreq(24, d=1.0 / 24)
        h = 5.0 / 24
        assert _same_bits(shift_norms(grid), np.hypot(h * m[:, None], h * m[None, :]))
        keep1 = np.abs(m) <= grid.dealias_fraction * 24 / 2.0
        assert np.array_equal(dealias_mask(grid), keep1[:, None] & keep1[None, :13])

    def test_cached_tables_are_read_only(self):
        from bq2d.kernels import _pad_displacements
        from bq2d.lp import _band_indices
        from bq2d.monitors import _dirichlet_kernel_fft

        grid = GridSpec(16)
        tables = [
            *wavevectors(grid),
            kpow(grid, 0.5),
            dealias_mask(grid),
            shift_norms(grid),
            *biot_savart_symbols(grid),
            _band_indices(grid),
            *_pad_displacements(grid.n, grid.side_length),
            _dirichlet_kernel_fft(grid, 0.5)[0],
        ]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 1


class TestHalfPlane:
    """The rfft2 layout against the full plane of ``full_plane``, on
    unfiltered random fields so that the Nyquist lines carry content."""

    @pytest.mark.parametrize("n, L", [(8, 2 * math.pi), (16, 1.0), (32, 3.7)])
    def test_layout_matches_full_plane(self, n, L):
        grid = GridSpec(n, side_length=L, dealias_fraction=1.0)
        x = np.random.default_rng(n).standard_normal((n, n))
        full = fp.to_spectral(x)
        half = to_spectral(PhysicalField(grid, x)).coeffs
        assert half.shape == (n, n // 2 + 1)
        assert np.abs(fp.full_plane(half) - full).max() <= 1e-16
        assert np.abs(irfft2(half) - x).max() <= 1e-14
        assert np.array_equal(kpow(grid, 0.7), fp.kpow(grid, 0.7)[:, : n // 2 + 1])
        w = np.abs(full) ** 2
        assert abs(half_plane_sum(np.abs(half) ** 2) - np.sum(w)) <= 1e-14 * np.sum(w)

    @pytest.mark.parametrize("n, L", [(8, 2 * math.pi), (16, 1.0), (32, 3.7)])
    def test_odd_symbols_match_the_real_part_of_the_full_plane(self, n, L):
        grid = GridSpec(n, side_length=L, dealias_fraction=1.0)
        x = np.random.default_rng(n + 1).standard_normal((n, n))
        full = fp.to_spectral(x)
        half = SpectralField(grid, rfft2(x))
        pairs = (*zip(grad(half), fp.grad(grid, full)), *zip(biot_savart(half), fp.biot_savart(grid, full)))
        for got, ref in pairs:
            expect = fp.to_physical(ref)
            assert np.abs(to_physical(got).values - expect).max() <= 1e-14 * np.abs(expect).max()
        # without the zeroed Nyquist lines the half plane counts their anti-Hermitian part twice
        k1_raw = fp.wavevectors(grid)[0][:, : n // 2 + 1]
        assert np.abs(irfft2(1j * k1_raw * half.coeffs) - fp.to_physical(fp.grad(grid, full)[0])).max() > 1e-3

    def test_layout_is_read_from_the_shape(self):
        # the half plane (n, n/2+1) is the one shape a SpectralField takes
        grid = GridSpec(16)
        for shape in ((16, 8), (16, 16)):
            with pytest.raises(ValueError):
                SpectralField(grid, np.zeros(shape, dtype=complex))
        assert SpectralField(grid, np.zeros((16, 9), dtype=complex)).coeffs.shape == (16, 9)

    def test_bernstein_check_in_both_layouts(self):
        # the half-plane ratios against the full-plane multiplier and norms
        from bq2d.lp import bernstein_check

        grid = GridSpec(32)
        fh = random_band_spectral(grid, 4.0, 7.99, np.random.default_rng(7))
        full = fp.full_plane(fh.coeffs)
        num = lp_norm(PhysicalField(grid, fp.to_physical(fp.fractional_laplacian(grid, full, 0.9))), math.inf)
        f_phys = PhysicalField(grid, fp.to_physical(full))
        want = (num / (2.0 ** 1.8 * lp_norm(f_phys, math.inf)), num / (2.0 ** (1.8 + 2.0) * lp_norm(f_phys, 2)))
        for got, ref in zip(bernstein_check(fh, 2, 0.45, 2, math.inf), want):
            assert abs(got - ref) <= 1e-12 * ref
