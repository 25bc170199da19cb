"""Shift scans against their per-shift ``np.roll`` loops.

``lp.besov_norm_fd`` (FFT correlations for even p, with a direct fallback)
and ``solver.oss_weighted_profile`` (one shift of each +-h pair, mirrored)
are checked against the plain loops over every grid shift, written out
here as the oracles."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from bq2d.lp import besov_norm_fd
from bq2d.solver import initial_data, oss_weighted_profile
from bq2d.spectral import GridSpec, PhysicalField, constant_field, field_from_function, shift_norms

P_VALUES = (1.0, 2.0, 3.0, 4.0, 6.0, math.inf)
REL_TOL = 1e-12


def random_band(n, seed=4, side_length=2 * math.pi):
    return initial_data("random-band", seed, GridSpec(n, side_length=side_length)).theta


def loop_difference_norms(f, p):
    """(|h|, ||f(. + h) - f||_p) for every grid shift 0 < |h| <= L/2, one roll each."""
    grid = f.grid
    tnorm = shift_norms(grid)
    vals = f.values
    out = []
    for i, j in np.argwhere((tnorm > 0) & (tnorm <= grid.side_length / 2.0)):
        diff = np.abs(np.roll(vals, (-i, -j), axis=(0, 1)) - vals)
        norm = float(diff.max()) if math.isinf(p) else float((np.sum(diff**p) * grid.cell_weight) ** (1.0 / p))
        out.append((tnorm[i, j], norm))
    return out


def loop_besov_norm_fd(f, s, p, r, homogeneous, norms=None):
    """The finite-difference Besov norm accumulated shift by shift."""
    grid = f.grid
    a = np.abs(f.values)
    base = float(a.max()) if math.isinf(p) else float((np.sum(a**p) * grid.cell_weight) ** (1.0 / p))
    if math.isinf(r):
        semi = 0.0
        for t, norm in norms or loop_difference_norms(f, p):
            semi = max(semi, norm / t**s)
    else:
        acc = 0.0
        for t, norm in norms or loop_difference_norms(f, p):
            acc += norm**r / t ** (2.0 + s * r) * grid.cell_weight
        semi = acc ** (1.0 / r)
    return semi if homogeneous else base + semi


def loop_weighted_profile(theta, beta, psi_coeff):
    """sup_x (delta_h theta)^2 * exp(-c |h|^{1-beta}) at every shift |h| <= L/2."""
    grid = theta.grid
    tnorm = shift_norms(grid)
    vals = theta.values
    radii, sups = [], []
    for i, j in np.argwhere(tnorm >= 0):
        h = tnorm[i, j]
        if h > grid.side_length / 2.0:
            continue
        diff2 = (np.roll(vals, (-i, -j), axis=(0, 1)) - vals) ** 2
        radii.append(h)
        sups.append(float(diff2.max()) * math.exp(-psi_coeff * h ** (1.0 - beta)))
    order = np.argsort(radii)
    return np.asarray(radii)[order], np.asarray(sups)[order]


def assert_close(got, want):
    assert abs(got - want) <= REL_TOL * abs(want), (got, want)


@lru_cache(maxsize=None)
def _random_band_norms(n, p):
    return loop_difference_norms(random_band(n), p)


class TestBesovNormFd:
    @pytest.mark.parametrize("n", (32, 64))
    @pytest.mark.parametrize("p", P_VALUES)
    def test_matches_loop(self, n, p):
        f = random_band(n)
        norms = _random_band_norms(n, p)
        for s, r, homogeneous in itertools.product((0.25, 0.5, 0.75), (1.0, 2.0, math.inf), (False, True)):
            want = loop_besov_norm_fd(f, s, p, r, homogeneous, norms)
            assert_close(besov_norm_fd(f, s, p, r, homogeneous), want)

    @pytest.mark.parametrize("p", (2.0, 4.0, 6.0))
    def test_nonzero_constant_is_exactly_zero(self, p):
        f = constant_field(GridSpec(16), 1.1)
        assert besov_norm_fd(f, 0.5, p, 2.0, homogeneous=True) == 0.0
        assert besov_norm_fd(f, 0.5, p, math.inf, homogeneous=True) == 0.0

    @pytest.mark.parametrize("p", (2.0, 4.0, 6.0))
    def test_large_offset_matches_loop(self, p):
        # centring removes the 1e3 before the powers are formed
        base = random_band(32)
        f = PhysicalField(base.grid, base.values + 1e3)
        for r in (2.0, math.inf):
            assert_close(besov_norm_fd(f, 0.5, p, r), loop_besov_norm_fd(f, 0.5, p, r, False))

    @pytest.mark.parametrize("p", (2.0, 4.0, 6.0))
    def test_single_mode_matches_loop(self, p):
        # every shift along x2 leaves sin(x1) unchanged: those sums vanish
        f = field_from_function(GridSpec(32), lambda x1, x2: np.sin(x1))
        for r in (1.0, 2.0, math.inf):
            assert_close(besov_norm_fd(f, 0.5, p, r, True), loop_besov_norm_fd(f, 0.5, p, r, True))

    @pytest.mark.parametrize("p", (2.0, 4.0, 6.0))
    def test_fallback_is_rare(self, monkeypatch, p):
        f = random_band(64)
        tnorm = shift_norms(f.grid)
        shifts = int(np.count_nonzero((tnorm > 0) & (tnorm <= f.grid.side_length / 2.0)))
        calls = []
        roll = np.roll
        monkeypatch.setattr(np, "roll", lambda *a, **k: calls.append(1) or roll(*a, **k))
        besov_norm_fd(f, 0.5, p, 2.0)
        assert len(calls) < 0.05 * shifts

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p >= 1"):
            besov_norm_fd(random_band(16), 0.5, 0.5, 2.0)


class TestWeightedProfile:
    @pytest.mark.parametrize("n, L", [(32, 2 * math.pi), (64, 2 * math.pi), (48, 3.7), (64, 20.0)])
    def test_random_band_bitwise(self, n, L):
        theta = random_band(n, seed=n, side_length=L)
        radii, sups = oss_weighted_profile(theta, 0.3, 1.5)
        want_radii, want_sups = loop_weighted_profile(theta, 0.3, 1.5)
        assert np.array_equal(radii, want_radii) and np.array_equal(sups, want_sups)

    @pytest.mark.parametrize("n", (32, 64))
    def test_sin_bitwise(self, n):
        theta = field_from_function(GridSpec(n), lambda x1, x2: np.sin(x1) + 0.3 * np.sin(3 * x2))
        radii, sups = oss_weighted_profile(theta, 0.1, 1.0)
        want_radii, want_sups = loop_weighted_profile(theta, 0.1, 1.0)
        assert np.array_equal(radii, want_radii) and np.array_equal(sups, want_sups)

    def test_one_roll_per_row_shift(self, monkeypatch):
        theta = random_band(64)
        calls = []
        roll = np.roll
        monkeypatch.setattr(np, "roll", lambda *a, **k: calls.append(1) or roll(*a, **k))
        oss_weighted_profile(theta, 0.3, 1.5)
        assert 0 < len(calls) <= theta.grid.n
