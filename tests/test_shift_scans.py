"""Shift scans against their per-shift ``np.roll`` loops.

``spectral.shift_scan`` (one roll per row shift), ``lp.besov_norm_fd``
(FFT correlations for even p, with a direct fallback) and
``solver.oss_weighted_profile`` (one shift of each +-h pair, mirrored) are
checked against the plain loops over every grid shift, written out here as
the oracles.  ``solver.oss_check``, a dilation of theta by the disk of
shifts, is checked against the scan of one shift of each pair by
``shift_scan``."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from bq2d.lp import besov_norm_fd
from bq2d.solver import _one_of_each_pair, _sup_abs, initial_data, oss_check, oss_weighted_profile
from bq2d.spectral import GridSpec, PhysicalField, constant_field, field_from_function, shift_norms, shift_scan

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


def scan_oss(theta, L):
    """max over one shift of each pair +-h, 0 < |h| < L, of sup_x |theta(x + h) - theta(x)|."""
    tnorm = shift_norms(theta.grid)
    mask = _one_of_each_pair(theta.grid) & (tnorm > 0) & (tnorm < L)
    return float(shift_scan(theta.values, mask, _sup_abs).max(initial=0.0))


def _fields(grid):
    n = grid.n
    return {
        "random_band": initial_data("random-band", n, grid).theta,
        "noise": PhysicalField(grid, np.random.default_rng(n).standard_normal((n, n))),
        "constant": constant_field(grid, 0.7),
    }


class TestOssDilation:
    # L = side_length / 2 scans a quarter of all shifts, so at n = 256 it stops at L = 1
    @pytest.mark.parametrize("n", (16, 32, 64, 128, 256))
    def test_matches_the_scan_bitwise(self, n):
        grid = GridSpec(n)
        radii = [0.5 * grid.spacing, grid.spacing, 1.5 * grid.spacing, 0.2, 1.0]
        if n <= 128:
            radii.append(grid.side_length / 2.0)
        for name, theta in _fields(grid).items():
            for L in radii:
                got = oss_check(theta, L)
                assert repr(got) == repr(scan_oss(theta, L)), (name, L)
                assert got == 0.0 if name == "constant" or L <= grid.spacing else got > 0.0

    def test_one_roll_a_call(self, monkeypatch):
        theta = random_band(64)
        calls = []
        roll = np.roll
        monkeypatch.setattr(np, "roll", lambda *a, **k: calls.append(1) or roll(*a, **k))
        for L, rolls in ((0.5 * theta.grid.spacing, 0), (0.2, 1), (1.0, 2), (math.pi, 3)):
            oss_check(theta, L)
            assert len(calls) == rolls, L

    @pytest.mark.parametrize("n, side_length", [(8, 1.0), (10, 3.7), (48, 2 * math.pi), (64, 20.0)])
    def test_every_disk_is_rows_of_column_intervals(self, n, side_length):
        # the dilation's premise: row i of the disk |h| < L is the cyclic interval of
        # m_i signed offsets [-(m_i - 1) // 2, m_i // 2], and so is its column 0
        grid = GridSpec(n, side_length=side_length)
        tnorm = shift_norms(grid)
        for L in [*np.unique(tnorm), np.nextafter(grid.side_length / 2.0, 0.0)]:
            disk = tnorm < L
            for line in (*disk, disk[:, 0]):
                m = np.count_nonzero(line)
                want = np.zeros(n, dtype=bool)
                want[np.arange(-((m - 1) // 2), m // 2 + 1) % n] = True
                assert np.array_equal(line, want if m else line), (L, line)

    def test_scans_of_a_grid_whose_half_side_rounds_down(self):
        # spacing * n/2 may round below side_length / 2, putting the shift n/2 inside
        # the disk L = side_length / 2: its rows are then the whole circle
        rounded = 0
        for n, side_length in itertools.product(range(8, 40, 2), (0.1, 0.7, 1.0, 3.7)):
            grid = GridSpec(n, side_length=side_length)
            theta = initial_data("random-band", 3, grid).theta
            L = grid.side_length / 2.0
            rounded += shift_norms(grid)[n // 2, 0] < L
            assert repr(oss_check(theta, L)) == repr(scan_oss(theta, L)), (n, side_length)
        assert rounded  # (26, 3.7) and (38, 0.1)


def _masks(n):
    rng = np.random.default_rng(11)
    single_row = np.zeros((n, n), dtype=bool)
    single_row[n - 3, ::3] = True
    return {
        "random": rng.random((n, n)) < 0.3,
        "empty": np.zeros((n, n), dtype=bool),
        "single_row": single_row,
        "full": np.ones((n, n), dtype=bool),
    }


# name: (the scan, the mask of the shifts it visits, from the grid and its shift lengths)
SCANS = {
    "oss_weighted_profile": (
        lambda theta: oss_weighted_profile(theta, 0.3, 1.5),
        lambda grid, t: _one_of_each_pair(grid) & (t <= grid.side_length / 2.0),
    ),
    "oss_check": (
        lambda theta: oss_check(theta, 1.0),
        lambda grid, t: _one_of_each_pair(grid) & (t > 0) & (t < 1.0),
    ),
    "besov_norm_fd_p3": (
        lambda theta: besov_norm_fd(theta, 0.5, 3.0, 2.0),
        lambda grid, t: (t > 0) & (t <= grid.side_length / 2.0),
    ),
}


class TestShiftScan:
    @pytest.mark.parametrize("kind", ("random", "empty", "single_row", "full"))
    def test_matches_roll_loop_bitwise(self, kind):
        vals = random_band(32).values
        mask = _masks(32)[kind]
        seen = []
        got = shift_scan(vals, mask, lambda d: seen.append(d.copy(order="K")) or float(np.sum(d**3)))
        shifts = np.argwhere(mask)
        assert got.dtype == float and got.shape == (len(shifts),) and len(seen) == len(shifts)
        for (i, j), d, value in zip(shifts, seen, got):
            want = np.roll(vals, (-i, -j), axis=(0, 1)) - vals
            assert np.array_equal(d, want) and d.flags.c_contiguous == want.flags.c_contiguous
            assert value == float(np.sum(want**3))

    def test_empty_mask_and_an_oss_check_without_shifts(self):
        theta = random_band(32)
        assert shift_scan(theta.values, _masks(32)["empty"], np.max).shape == (0,)
        assert oss_check(theta, 0.5 * theta.grid.spacing) == 0.0

    @pytest.mark.parametrize("name", list(SCANS))
    def test_one_roll_per_row_shift(self, monkeypatch, name):
        theta = random_band(64)
        scan, mask = SCANS[name]
        rows = np.count_nonzero(mask(theta.grid, shift_norms(theta.grid)).any(axis=1))
        calls = []
        roll = np.roll
        monkeypatch.setattr(np, "roll", lambda *a, **k: calls.append(1) or roll(*a, **k))
        scan(theta)
        assert 0 < len(calls) <= rows
