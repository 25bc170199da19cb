"""Dyadic decomposition, Besov norms, Bernstein ratios and commutators."""

import math

import numpy as np
import pytest

import full_plane as fp
from bq2d.lp import (
    _BOUND_MARGIN,
    BesovIndex,
    _band_bounds,
    _band_indices,
    bernstein_check,
    besov_norm,
    besov_norm_fd,
    block_norms,
    chain_rule_besov_ratio,
    commutator_advection,
    commutator_estimate_ratio,
    commutator_multiplier,
    convolution_commutator_ratio,
    dyadic_blocks,
    interp_inequality_ratio,
    lr_combine,
    torus_convolution,
)
from bq2d.kernels import gaussian_bump
from bq2d.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    biot_savart,
    constant_field,
    field_from_function,
    lp_norm,
    random_band_field,
    random_band_spectral,
    sobolev_norm,
    to_physical,
    to_spectral,
    wavevectors,
)

G = GridSpec(64)
SIN2PI2 = math.sqrt(2 * math.pi**2)  # L2 norm of a unit single mode


class TestDyadicBlocks:
    def test_single_mode_band(self):
        fh = to_spectral(field_from_function(G, lambda x1, x2: np.sin(4 * x1)))
        bands = dyadic_blocks(fh)
        hot = [b.j for b in bands if np.abs(b.band.coeffs).max() > 1e-12]
        assert hot == [2]

    def test_constant_lands_in_low_block(self):
        bands = dyadic_blocks(to_spectral(constant_field(G, 5.0)))
        hot = [b.j for b in bands if np.abs(b.band.coeffs).max() > 1e-12]
        assert hot == [-1]

    def test_sharp_partition_reconstructs_exactly(self):
        rng = np.random.default_rng(0)
        fh = to_spectral(random_band_field(G, 1, 20, rng))
        recon = sum(b.band.coeffs for b in dyadic_blocks(fh))
        assert np.array_equal(recon, fh.coeffs)

    def test_sharp_blocks_disjoint(self):
        rng = np.random.default_rng(1)
        fh = to_spectral(random_band_field(G, 1, 20, rng))
        seen = np.zeros(fh.coeffs.shape, dtype=int)
        for b in dyadic_blocks(fh):
            seen += (np.abs(b.band.coeffs) > 0).astype(int)
        assert seen.max() <= 1

    def test_block_orthogonality(self):
        rng = np.random.default_rng(2)
        f = random_band_field(G, 1, 20, rng)
        total = lp_norm(f, 2) ** 2
        parts = sum(lp_norm(to_physical(b.band), 2) ** 2 for b in dyadic_blocks(to_spectral(f)))
        assert abs(total - parts) <= 1e-12 * total

    def test_smooth_partition_of_unity(self):
        rng = np.random.default_rng(3)
        fh = to_spectral(random_band_field(G, 1, 20, rng))
        recon = sum(b.band.coeffs for b in dyadic_blocks(fh, smooth=True))
        assert np.abs(recon - fh.coeffs).max() <= 1e-13 * np.abs(fh.coeffs).max()

    def test_smooth_supports_in_annuli(self):
        rng = np.random.default_rng(4)
        fh = to_spectral(random_band_field(G, 1, 20, rng))
        _, _, km = wavevectors(G)
        for b in dyadic_blocks(fh, smooth=True):
            if b.j < 0:
                continue
            nz = np.abs(b.band.coeffs) > 1e-13
            if nz.any():
                assert km[nz].min() >= 2.0 ** (b.j - 1) - 1e-9
                assert km[nz].max() <= 2.0 ** (b.j + 1) + 1e-9


class TestBesovNorm:
    def test_single_band_sup_norm(self):
        f = field_from_function(G, lambda x1, x2: np.sin(4 * x1))
        for s in (0.0, 0.5, 1.3):
            v = besov_norm(f, BesovIndex(s, 2, math.inf))
            assert abs(v - 2.0 ** (2 * s) * SIN2PI2) < 1e-12 * max(v, 1.0)

    def test_zero_field(self):
        assert besov_norm(constant_field(G, 0.0), BesovIndex(1.0, 2, 1)) == 0.0

    def test_two_band_sum(self):
        f = field_from_function(G, lambda x1, x2: np.sin(x1) + np.sin(8 * x1))
        v = besov_norm(f, BesovIndex(1.0, 2, 1))
        expect = SIN2PI2 * (1.0 + 8.0)
        assert abs(v - expect) < 1e-12 * expect

    def test_monotone_in_s_single_band(self):
        f = field_from_function(G, lambda x1, x2: np.sin(4 * x1))
        v1 = besov_norm(f, BesovIndex(0.3, 2, math.inf))
        v2 = besov_norm(f, BesovIndex(0.9, 2, math.inf))
        assert abs(v2 / v1 - 2.0 ** (2 * (0.9 - 0.3))) < 1e-12

    def test_sobolev_comparability_per_mode(self):
        # inhomogeneous (s,2,2) block norm vs (1+|k|^2)^{s/2} multiplier norm:
        # single modes give a ratio inside [2^-s, 1] on the unit torus
        for s in (0.4, 1.0):
            for m in (1, 3, 7, 12):
                f = field_from_function(G, lambda x1, x2, m=m: np.sin(m * x1))
                ratio = besov_norm(f, BesovIndex(s, 2, 2)) / sobolev_norm(
                    to_spectral(f), s, homogeneous=False
                )
                assert 2.0 ** (-s) - 1e-12 <= ratio <= 1.0 + 1e-12

    def test_homogeneous_ignores_mean(self):
        f = PhysicalField(G, constant_field(G, 2.0).values + np.sin(4 * coordinates_x1()))
        v = besov_norm(f, BesovIndex(0.5, 2, math.inf, homogeneous=True))
        assert abs(v - 2.0 * SIN2PI2) < 1e-12 * v

    @pytest.mark.parametrize("smooth, want", [(False, 4.5), (True, 3.16875)])
    def test_homogeneous_keeps_the_modes_below_one(self, smooth, want):
        # on L = 9 the modes 2 pi / 9 and 4 pi / 9 have 1/2 <= |k| < 1: they
        # sit in block j = -1, which the homogeneous norm must keep
        g = GridSpec(32, side_length=9.0)
        f = field_from_function(g, lambda x1, x2: np.sin(2 * np.pi * x1 / 9) + 0.3 * np.cos(4 * np.pi * x2 / 9))
        hom = besov_norm(f, BesovIndex(0.5, 2, math.inf, homogeneous=True), smooth=smooth)
        assert hom == besov_norm(f, BesovIndex(0.5, 2, math.inf), smooth=smooth)
        assert abs(hom - want) < 1e-5

    def test_homogeneous_refused_past_four_pi(self):
        f = field_from_function(GridSpec(32, side_length=13.0), lambda x1, x2: np.sin(x1))
        with pytest.raises(ValueError, match="side_length <= 4 pi"):
            besov_norm(f, BesovIndex(0.5, 2, 2, homogeneous=True))

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_homogeneous_on_the_2pi_torus_drops_only_the_mean(self, smooth, r):
        # there block j = -1 holds the mean mode alone: the norm is bitwise
        # the inhomogeneous blocks of the mean-free field without j = -1
        f = random_band_field(G, 0, 20, np.random.default_rng(3))
        f = PhysicalField(G, f.values + 0.7)
        idx = BesovIndex(0.5, 3, r, homogeneous=True)
        fh = to_spectral(f).coeffs.copy()
        fh[0, 0] = 0.0
        blocks = block_norms(SpectralField(G, fh), idx, smooth)
        assert besov_norm(f, idx, smooth) == lr_combine([v for j, v in blocks if j != -1], r)


class TestBlockNorms:
    """``block_norms`` scatters each sharp band into one reused buffer; the
    oracle is the masked copy of ``dyadic_blocks`` per band."""

    @pytest.mark.parametrize("n, L", [(32, 2 * math.pi), (48, 0.7), (64, 9.0)])
    def test_bitwise_the_masked_copy_per_band(self, n, L):
        grid = GridSpec(n, side_length=L)
        fh = random_band_spectral(grid, 0.0, 40.0 / L, np.random.default_rng(n))
        for idx in (BesovIndex(0.5, 2.0, math.inf), BesovIndex(-0.3, 3.5, 2.0)):
            want = []
            for b in dyadic_blocks(fh):
                value = 0.0
                if np.any(b.band.coeffs):
                    value = 2.0 ** (b.j * idx.s) * lp_norm(to_physical(b.band), idx.p)
                want.append((b.j, value))
            assert block_norms(fh, idx) == want

    @pytest.mark.parametrize("L", [1000.0, 6283185307179586.0])
    def test_a_torus_whose_every_mode_is_below_one_is_block_minus_one(self, L):
        # every |k| < 1, so floor(log2 max|k|) < -1: the one block is j = -1
        grid = GridSpec(16, side_length=L)
        fh = SpectralField(grid, random_band_spectral(GridSpec(16), 0.0, 6.0, np.random.default_rng(0)).coeffs)
        want = 2.0**-0.5 * lp_norm(to_physical(fh), 2.0)
        assert block_norms(fh, BesovIndex(0.5, 2.0, 2.0)) == [(-1, want)]
        assert besov_norm(fh, BesovIndex(0.5, 2.0, math.inf)) == besov_norm(fh, BesovIndex(0.5, 2.0, 2.0)) == want

    def test_empty_blocks_are_not_transformed(self, monkeypatch):
        coeffs = np.zeros((G.n, G.n // 2 + 1), dtype=complex)
        coeffs[0, 1] = coeffs[0, 8] = 0.5  # cos(x2) + cos(8 x2): bands 0 and 3 only
        fh = SpectralField(G, coeffs)
        calls = []
        irfft2 = np.fft.irfft2
        monkeypatch.setattr(np.fft, "irfft2", lambda *a, **k: calls.append(1) or irfft2(*a, **k))
        norms = block_norms(fh, BesovIndex(1.0, 2, 1))
        assert [j for j, v in norms if v != 0.0] == [0, 3] and len(calls) == 2
        assert all(v == 0.0 for j, v in norms if j not in (0, 3))


class TestPrunedSup:
    """``besov_norm`` with r = inf on sharp blocks transforms only the bands
    whose bound can reach the sup; the oracle is the max over ``block_norms``."""

    @pytest.mark.parametrize("q", [2.2941, 2.732, 1.0, 2.0, math.inf])
    def test_noise_level_band_of_G_at_t0(self, monkeypatch, q):
        # band 0 of G = omega - R_a theta is rounding noise at t = 0, where a
        # Parseval lower bound exceeds the exact value
        from bq2d.solver import G_hat, initial_data

        g = G_hat(initial_data("random-band", 0, GridSpec(128)), 0.95)
        idx = BesovIndex(0.85, q, math.inf)
        norms = block_norms(g, idx)
        assert norms[1][0] == 0 and 0.0 < norms[1][1] < 1e-15
        bounds = _band_bounds(g, idx)
        assert all(b * _BOUND_MARGIN >= v for b, (_, v) in zip(bounds, norms))
        calls = []
        irfft2 = np.fft.irfft2
        monkeypatch.setattr(np.fft, "irfft2", lambda *a, **k: calls.append(1) or irfft2(*a, **k))
        assert besov_norm(g, idx) == lr_combine([v for _, v in norms], math.inf)
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["huge", "nan bound"])
    def test_overflow_names_the_lowest_band(self, case):
        # a bound that is not finite sends besov_norm to the pass in j order,
        # which raises with block_norms' message: coefficients scaled by
        # 1e300, or band 0 beside a mean of 1e200, whose bound at s = 1100
        # is 2^(-1100) * inf = nan (a nan bound would sort last and be skipped)
        fh = random_band_spectral(G, 0.0, 20.0, np.random.default_rng(3))
        if case == "huge":
            fh, idx = SpectralField(G, 1e300 * fh.coeffs), BesovIndex(0.5, 2.732, math.inf)
        else:
            coeffs = np.where(_band_indices(G) == 0, fh.coeffs, 0.0)
            coeffs[0, 0] = 1e200
            fh, idx = SpectralField(G, coeffs), BesovIndex(1100.0, 2.732, math.inf)
        with pytest.raises(ValueError, match="overflows at j=") as want:
            block_norms(fh, idx)
        with pytest.raises(ValueError) as got:
            besov_norm(fh, idx)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("L", [1e-300, 1e-200])
    def test_a_torus_whose_quadrature_weight_is_zero_is_refused(self, L):
        # (L/n)^2 underflows to 0, so every block norm would read 0
        grid = GridSpec(16, side_length=L)
        fh = SpectralField(grid, random_band_spectral(GridSpec(16), 0.0, 6.0, np.random.default_rng(0)).coeffs)
        for r in (math.inf, 2.0):
            with pytest.raises(ValueError, match="underflows to 0"):
                besov_norm(fh, BesovIndex(0.5, 2.0, r))

    @pytest.mark.parametrize("scale", [1e-130, 1e-170])
    def test_a_field_too_small_for_its_power_gets_its_norm(self, scale):
        # |f|^p underflows, as on a run that decays for long enough; from 1e-154
        # |c|^2 underflows too, and the band bounds fall back to sum |c|
        fh = random_band_spectral(G, 0.0, 20.0, np.random.default_rng(3))
        tiny = SpectralField(G, scale * fh.coeffs)
        idx = BesovIndex(0.5, 2.732, math.inf)
        got = besov_norm(tiny, idx)
        assert got == lr_combine([v for _, v in block_norms(tiny, idx)], math.inf)
        assert abs(got - scale * besov_norm(fh, idx)) <= 1e-12 * scale * besov_norm(fh, idx)

    def test_a_band_whose_squares_underflow_keeps_an_upper_bound(self):
        # band 4 at 1e-170 beside band 0 at 1: its sum of |c|^2 underflows to 0,
        # yet at s = 150 it holds the sup, so its bound must not read 0
        fh = random_band_spectral(G, 0.0, 20.0, np.random.default_rng(3))
        idx = _band_indices(G)
        coeffs = np.where(idx == 0, fh.coeffs, 0.0) + np.where(idx == 4, 1e-170 * fh.coeffs, 0.0)
        fh, index = SpectralField(G, coeffs), BesovIndex(150.0, 2.732, math.inf)
        norms = block_norms(fh, index)
        assert max(norms, key=lambda jv: jv[1])[0] == 4
        assert all(b * _BOUND_MARGIN >= v for b, (_, v) in zip(_band_bounds(fh, index), norms))
        assert besov_norm(fh, index) == lr_combine([v for _, v in norms], math.inf)


def coordinates_x1():
    from bq2d.spectral import coordinates

    return coordinates(G)[0]


class TestBesovFiniteDifference:
    def test_zero(self):
        assert besov_norm_fd(constant_field(G, 0.0), 0.5, 2, 2) == 0.0

    def test_equivalence_window_and_frozen_ratio(self):
        # sharp-variant regression value for sin(x1) at n=64, frozen after
        # the first run of this suite
        f = field_from_function(G, lambda x1, x2: np.sin(x1))
        fd = besov_norm_fd(f, 0.5, 2, 2)
        bl = besov_norm(f, BesovIndex(0.5, 2, 2))
        ratio = fd / bl
        assert 0.1 <= ratio <= 10.0
        assert abs(ratio - 3.8183323439567984) <= 1e-10 * ratio

    def test_axis_symmetry(self):
        a = besov_norm_fd(field_from_function(G, lambda x1, x2: np.sin(x1)), 0.5, 2, 2)
        b = besov_norm_fd(field_from_function(G, lambda x1, x2: np.sin(x2)), 0.5, 2, 2)
        assert abs(a - b) <= 1e-12 * a

    def test_s_range_enforced(self):
        with pytest.raises(ValueError):
            besov_norm_fd(constant_field(G, 1.0), 1.5, 2, 2)

    def test_sup_form(self):
        f = field_from_function(G, lambda x1, x2: np.sin(x1))
        v = besov_norm_fd(f, 0.5, 2, math.inf, homogeneous=True)
        assert v > 0.0


class TestBernstein:
    def test_single_mode_exact_multiplier(self):
        fh = to_spectral(field_from_function(G, lambda x1, x2: np.sin(4 * x1)))
        lo, up = bernstein_check(fh, 2, 0.3, 2, 2)
        expect = 4.0 ** (2 * 0.3) / 2.0 ** (2 * 0.3 * 2)
        assert abs(lo - expect) < 1e-12
        assert abs(up - expect) < 1e-12

    def test_degenerate_input(self):
        fh = to_spectral(constant_field(G, 0.0))
        assert bernstein_check(fh, 2, 0.3, 2, 2) is None

    def test_not_band_limited_rejected(self):
        f = field_from_function(G, lambda x1, x2: np.sin(x1) + np.sin(8 * x1))
        with pytest.raises(ValueError):
            bernstein_check(to_spectral(f), 0, 0.3, 2, 2)

    def test_random_band_bounds(self):
        rng = np.random.default_rng(5)
        for j in (2, 3, 4):
            fh = random_band_spectral(G, 2.0**j, 2.0 ** (j + 1) * 0.999, rng)
            lo, up = bernstein_check(fh, j, 0.45, 2, 2)
            assert lo >= 1.0 - 1e-12
            assert up <= 2.0 ** (2 * 0.45) + 1e-12

    def test_mixed_integrability_ratios_finite(self):
        # p < q trades integrability for powers of 2^j; ratios stay finite
        rng = np.random.default_rng(16)
        fh = random_band_spectral(G, 4.0, 7.99, rng)
        lo, up = bernstein_check(fh, 2, 0.45, 2, math.inf)
        assert math.isfinite(lo) and math.isfinite(up) and up > 0


class TestCommutators:
    def test_constant_velocity_commutes(self):
        rng = np.random.default_rng(6)
        th = random_band_field(G, 1, 6, rng)
        out = commutator_advection((constant_field(G, 0.8), constant_field(G, -1.2)), th, 0.9)
        assert np.abs(out.values).max() <= 1e-12

    def test_constant_theta_gives_zero(self):
        rng = np.random.default_rng(7)
        u = tuple(to_physical(c) for c in biot_savart(random_band_spectral(G, 1, 6, rng)))
        out = commutator_advection(u, constant_field(G, 3.0), 0.9)
        assert np.abs(out.values).max() <= 1e-12

    def test_against_direct_convolution_oracle(self):
        # independent path: explicit coefficient-space convolution with
        # truncation to the dealias set (aliasing-free by the 2/3 rule), on
        # the full plane of ``full_plane``
        g = GridSpec(16)
        rng = np.random.default_rng(8)
        wh = random_band_spectral(g, 1, 3, rng)
        theta = to_physical(random_band_spectral(g, 1, 3, rng))
        u = tuple(to_physical(c) for c in biot_savart(wh))
        out = commutator_advection(u, theta, 0.8)

        n = g.n
        keep = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= g.dealias_fraction * n / 2

        def conv(a, b):
            ah, bh = fp.to_spectral(a), fp.to_spectral(b)
            out = np.zeros((n, n), complex)
            for i in range(n):
                for j in range(n):
                    if not (keep[i] and keep[j]):
                        continue
                    acc = 0.0 + 0.0j
                    for p in range(n):
                        for q in range(n):
                            acc += ah[p, q] * bh[(i - p) % n, (j - q) % n]
                    out[i, j] = acc
            return out

        k1, k2, km = fp.wavevectors(g)
        safe = km.copy()
        safe[0, 0] = 1.0
        riesz = 1j * k1 * safe**-0.8
        riesz[0, 0] = 0.0
        rth = fp.to_physical(riesz * fp.to_spectral(theta.values))
        div_theta = 1j * k1 * conv(u[0].values, theta.values) + 1j * k2 * conv(
            u[1].values, theta.values
        )
        div_rth = 1j * k1 * conv(u[0].values, rth) + 1j * k2 * conv(u[1].values, rth)
        expect_hat = riesz * div_theta - div_rth
        expect_hat[0, 0] = 0.0
        expect = fp.to_physical(expect_hat)
        assert np.abs(out.values - expect).max() <= 1e-12 * max(np.abs(expect).max(), 1e-300)

    def test_bilinearity(self):
        rng = np.random.default_rng(9)
        u = (random_band_field(G, 1, 6, rng), random_band_field(G, 1, 6, rng))
        ta = random_band_field(G, 1, 6, rng)
        tb = random_band_field(G, 1, 6, rng)
        combo = PhysicalField(G, 2.0 * ta.values - 0.5 * tb.values)
        lhs = commutator_advection(u, combo, 0.9).values
        rhs = (
            2.0 * commutator_advection(u, ta, 0.9).values
            - 0.5 * commutator_advection(u, tb, 0.9).values
        )
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1e-300)
        # linear in the velocity argument as well
        u3 = (PhysicalField(G, 3.0 * u[0].values), PhysicalField(G, 3.0 * u[1].values))
        lhs_u = commutator_advection(u3, ta, 0.9).values
        rhs_u = 3.0 * commutator_advection(u, ta, 0.9).values
        assert np.abs(lhs_u - rhs_u).max() <= 1e-12 * max(np.abs(rhs_u).max(), 1e-300)


class TestEstimateRatios:
    def test_zero_cases(self):
        rng = np.random.default_rng(10)
        th = random_band_field(G, 1, 6, rng)
        zero_pair = (constant_field(G, 0.0), constant_field(G, 0.0))
        assert commutator_estimate_ratio(zero_pair, th, 0.95, 0.2, 0.9, 2, 4, 4, 2) == 0.0
        u = (random_band_field(G, 1, 6, rng), random_band_field(G, 1, 6, rng))
        assert commutator_estimate_ratio(u, constant_field(G, 0.0), 0.95, 0.2, 0.9, 2, 4, 4, 2) == 0.0

    def test_index_violations_named(self):
        rng = np.random.default_rng(11)
        th = random_band_field(G, 1, 6, rng)
        u = (th, th)
        with pytest.raises(ValueError, match="s \\+ 1 - alpha - delta"):
            commutator_estimate_ratio(u, th, 0.95, 0.9, 0.2, 2, 4, 4, 2)
        with pytest.raises(ValueError, match="1/q"):
            commutator_estimate_ratio(u, th, 0.95, 0.2, 0.9, 2, 3, 4, 2)

    def test_multiplier_commutator_constant_f(self):
        rng = np.random.default_rng(12)
        g0 = random_band_field(G, 1, 6, rng)
        out = commutator_multiplier(constant_field(G, 2.0), g0, 0.9)
        assert np.abs(out.values).max() <= 1e-12

    def test_convolution_commutator_zero_cases(self):
        rng = np.random.default_rng(13)
        phi = gaussian_bump(G, width=G.side_length / 16)
        g0 = random_band_field(G, 1, 6, rng)
        assert (
            convolution_commutator_ratio(phi, constant_field(G, 1.5), g0, 0.5, 2, 4, 4, 2, 2)
            == 0.0
        )
        assert (
            convolution_commutator_ratio(phi, g0, constant_field(G, 0.0), 0.5, 2, 4, 4, 2, 2)
            == 0.0
        )

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_convolution_commutator_is_transpose_invariant(self, delta):
        # at delta = 1 the Bdot^1 norm takes both gradient components, not d1 f alone
        rng = np.random.default_rng(14)
        phi = gaussian_bump(G)
        f, g = (PhysicalField(G, rng.standard_normal((64, 64))) for _ in range(2))
        flip = lambda h: PhysicalField(G, h.values.T.copy())
        a = convolution_commutator_ratio(phi, f, g, delta, 2, 4, 4, 2, 2)
        b = convolution_commutator_ratio(flip(phi), flip(f), flip(g), delta, 2, 4, 4, 2, 2)
        assert a > 0.0
        assert abs(a - b) <= 1e-12 * a

    def test_convolution_commutator_of_a_transverse_mode(self):
        # f = sin x2 has d1 f = 0, but phi*(f g) - f (phi*g) does not vanish
        rng = np.random.default_rng(15)
        f = field_from_function(G, lambda x1, x2: np.sin(x2))
        g = PhysicalField(G, rng.standard_normal((64, 64)))
        assert convolution_commutator_ratio(gaussian_bump(G), f, g, 1.0, 2, 4, 4, 2, 2) > 0.0

    def test_convolution_commutator_index_checks(self):
        phi = gaussian_bump(G, width=G.side_length / 16)
        f = constant_field(G, 1.0)
        with pytest.raises(ValueError, match="1/r1"):
            convolution_commutator_ratio(phi, f, f, 0.5, 2, 4, 4, 2, 3)

    def test_torus_convolution_identity(self):
        # convolving with a single-cell mass-1/h^2 spike is the identity
        g = GridSpec(16)
        spike = np.zeros((16, 16))
        spike[0, 0] = 1.0 / g.cell_weight
        rng = np.random.default_rng(14)
        f = random_band_field(g, 1, 4, rng)
        out = torus_convolution(PhysicalField(g, spike), f)
        assert np.abs(out.values - f.values).max() <= 1e-12


class TestInterpAndChainRule:
    def test_interp_zero(self):
        assert interp_inequality_ratio(constant_field(G, 0.0), 0.5) == 0.0

    def test_interp_closed_form(self):
        f = field_from_function(G, lambda x1, x2: np.sin(x1))
        r = interp_inequality_ratio(f, 0.5)
        expect = 1.0 / (math.sqrt(2 * math.pi**2) + 1.0)
        assert abs(r - expect) < 1e-12

    def test_chain_rule_q2_degenerates_to_identity(self):
        rng = np.random.default_rng(15)
        f = random_band_field(G, 1, 8, rng)
        assert abs(chain_rule_besov_ratio(f, 0.3, 0.9, 2.0) - 1.0) < 1e-12

    def test_chain_rule_zero(self):
        assert chain_rule_besov_ratio(constant_field(G, 0.0), 0.3, 0.9, 2.3) == 0.0

    def test_chain_rule_index_checks(self):
        f = constant_field(G, 1.0)
        with pytest.raises(ValueError):
            chain_rule_besov_ratio(f, 1.4, 0.9, 2.3)
        with pytest.raises(ValueError):
            chain_rule_besov_ratio(f, 0.3, 0.9, 1.5)
