"""The full-plane spectral code, kept as the oracle of the half-plane package.

``bq2d.spectral`` holds only the rfft2 half plane (n, n/2+1).  Here the
whole (n, n) plane in numpy fft2 order is built independently: tables from
``fftfreq``, complex ``fft2``/``ifft2`` transforms with the package's
scaling c(m) = fft2(f)/n^2, and the multiplier operators on plain coefficient
arrays.  The odd symbols keep the raw k1 and k2 on the Nyquist lines, as the
complex code did; ``to_physical`` drops what that leaves outside the real
fields by taking ``.real``, and ``hermitian_symmetrize`` projects
coefficients onto those of a real field.  Nothing here calls a
``bq2d.spectral`` operator, so a test that compares the package with these
functions compares two implementations.
"""

import math

import numpy as np


def _modes(n):
    return np.fft.fftfreq(n, d=1.0 / n)


def wavevectors(grid):
    """(k1, k2, |k|) on the full plane, raw on the Nyquist lines."""
    m = _modes(grid.n)
    scale = 2.0 * math.pi / grid.side_length
    k1 = scale * m[:, None]
    k2 = scale * m[None, :]
    return k1, k2, np.hypot(k1, k2)


def kpow(grid, g):
    with np.errstate(divide="ignore"):
        out = wavevectors(grid)[2] ** float(g)
    out[0, 0] = 0.0
    return out


def dealias_mask(grid):
    keep = np.abs(_modes(grid.n)) <= grid.dealias_fraction * grid.n / 2.0
    return keep[:, None] & keep[None, :]


def to_spectral(values):
    return np.fft.fft2(values) / values.shape[0] ** 2


def to_physical(coeffs):
    return np.fft.ifft2(coeffs).real * coeffs.shape[0] ** 2


def full_plane(half):
    """fft2-layout coefficients of a real field from its half plane,
    through c(-m) = conj(c(m))."""
    n, h = half.shape[0], half.shape[0] // 2 + 1
    rev = (-np.arange(n)) % n
    out = np.empty((n, n), dtype=complex)
    out[:, :h] = half
    out[:, h:] = np.conj(half[rev, h - 2 : 0 : -1])
    return out


def hermitian_symmetrize(coeffs):
    """Projection onto the coefficients of a real field: c(-m) = conj(c(m))."""
    rev = (-np.arange(coeffs.shape[0])) % coeffs.shape[0]
    return 0.5 * (coeffs + np.conj(coeffs[np.ix_(rev, rev)]))


# ---------------------------------------------------------------------------
# multiplier operators on full-plane coefficient arrays


def fractional_laplacian(grid, c, gamma):
    return c if gamma == 0.0 else c * kpow(grid, gamma)


def riesz_alpha(grid, c, alpha):
    return c * (1j * wavevectors(grid)[0] * kpow(grid, -alpha))


def biot_savart(grid, c):
    k1, k2, kmag = wavevectors(grid)
    kk = kmag**2
    kk[0, 0] = 1.0
    return 1j * k2 / kk * c, -1j * k1 / kk * c


def v_from_theta(grid, c, beta):
    k1, k2, _ = wavevectors(grid)
    radial = kpow(grid, beta - 3.0)
    return -k1 * k2 * radial * c, k1 * k1 * radial * c


def grad(grid, c):
    k1, k2, _ = wavevectors(grid)
    return 1j * k1 * c, 1j * k2 * c


def perp_grad(grid, c):
    k1, k2, _ = wavevectors(grid)
    return -1j * k2 * c, 1j * k1 * c


def dealias(grid, c):
    return np.where(dealias_mask(grid), c, 0.0)


def l2_norm(grid, c):
    """Parseval over the whole plane."""
    return grid.side_length * math.sqrt(float(np.sum(np.abs(c) ** 2)))
