"""Spectral core for scalar fields on the periodic torus [0, L)^2.

Conventions used by every module in this package:

* Grids are n x n; collocation point (i, j) sits at x = (i*L/n, j*L/n),
  axis 0 is the x1 direction.
* Spectral coefficients approximate c(k) = (1/L^2) * integral of
  e^{-i k.x} f(x) over the torus, at k = (2*pi/L) * m with integer
  wavevector m.  Every field is real, so c(-m) = conj(c(m)) and a
  ``SpectralField`` holds the half plane only, the rfft2 layout: shape
  (n, n/2+1), rows m1 = 0, ..., n/2-1, -n/2, ..., -1 and columns
  m2 = 0, ..., n/2.  Concretely ``to_spectral(f) = rfft2(f.values,
  norm="forward")``, so a constant field c has c at the mean mode and the
  round trip through ``to_physical`` (irfft2) is exact up to rounding.
* Parseval: ||f||_{L^2}^2 = L^2 * sum_m |c_m|^2 over the whole plane;
  ``half_plane_sum`` counts every column but m2 = 0 and m2 = n/2 twice.
* Fourier multipliers with a negative power of |k| (Lambda^g, g < 0, and
  the inverse Laplacian) zero the mean mode; the operators act on
  mean-free content only.
* A symbol odd in k1 (k2) is zero on the Nyquist row m1 = -n/2 (column
  m2 = n/2), where the grid cannot represent it as odd: there the product
  with a real field's coefficients would not be those of a real field.
  The zero keeps exactly the real part of the product, so every operator
  returns the coefficients of a real field and a chain of them acts on
  real fields step by step.  The k1, k2 of ``wavevectors`` and the
  Biot-Savart symbols are zeroed that way; |k| and its powers are even.
* Dealiasing zeroes every mode with any |m_i| > dealias_fraction * n/2
  and is applied after each nonlinear product.
* This module owns every per-grid table: wavevectors, |k|^g symbols and
  their Parseval weights, the complex multipliers (i k1, i k2, the
  Biot-Savart pair, the Riesz symbol per alpha), the dealias mask and the
  grid-shift lengths, each built once per grid and handed out read-only.

All operations are pure: fields in, fresh fields out.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Periodic torus discretization: n points per axis on [0, side_length)^2.

    n must be even and at least 8; powers of two give the fastest transforms.
    """

    n: int
    side_length: float = TWO_PI
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid needs n >= 8 and even, got n={self.n}")
        if not (0.0 < self.side_length < math.inf and math.isfinite(self.n * TWO_PI / self.side_length)):
            raise ValueError("side_length must be positive and finite, with a finite wavenumber 2 pi n / side_length")
        if not math.isfinite(self.spacing * self.spacing):
            raise ValueError("side_length must give a finite quadrature weight (side_length / n)^2")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction must lie in (0, 1]")

    @property
    def spacing(self) -> float:
        return self.side_length / self.n

    @property
    def cell_weight(self) -> float:
        """Quadrature weight per collocation point, (L/n)^2."""
        return self.spacing ** 2


@dataclass(frozen=True)
class PhysicalField:
    """Real scalar samples at the collocation points of ``grid``."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(v).all():
            raise ValueError("non-finite values in physical field")


@dataclass(frozen=True)
class SpectralField:
    """Complex half-plane coefficients of a real field, shape (n, n/2+1) in
    rfft2 layout."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        n = self.grid.n
        if c.shape != (n, n // 2 + 1):
            raise ValueError(f"coeffs shape {c.shape} does not match grid n={n}")
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficients in spectral field")


@dataclass(frozen=True)
class FlowParams:
    """Dissipation coefficients and fractional orders for the coupled system."""

    nu: float
    kappa: float
    alpha: float
    beta: float
    critical: bool = False

    def __post_init__(self):
        if self.nu < 0 or self.kappa < 0:
            raise ValueError("nu and kappa must be nonnegative")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.critical and self.alpha + self.beta != 1.0:
            raise ValueError(
                f"critical flag requires alpha + beta = 1 exactly, got {self.alpha + self.beta!r}"
            )


# ---------------------------------------------------------------------------
# per-grid tables: built once per grid, shared read-only by every caller


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _modes(n: int) -> np.ndarray:
    # integer wavevector components in fft order: 0, 1, ..., n/2-1, -n/2, ..., -1
    return _read_only(np.fft.fftfreq(n, d=1.0 / n))


@lru_cache(maxsize=64)
def wavevectors(grid: GridSpec):
    """Read-only half-plane (k1, k2, |k|), k1 zero on the Nyquist row and k2
    on the Nyquist column (the odd-symbol rule of the module docstring)."""
    n = grid.n
    scale = TWO_PI / grid.side_length
    k1 = scale * _modes(n)[:, None]
    k2 = scale * np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    kmag = np.hypot(k1, k2)
    k1[n // 2, :] = 0.0
    k2[:, -1] = 0.0
    return _read_only(k1), _read_only(k2), _read_only(kmag)


@lru_cache(maxsize=64)
def kpow(grid: GridSpec, g: float) -> np.ndarray:
    """Read-only symbol |k|^g with the mean mode set to 0 (for every g)."""
    _, _, kmag = wavevectors(grid)
    with np.errstate(divide="ignore"):
        out = kmag ** float(g)
    out[0, 0] = 0.0
    return _read_only(out)


@lru_cache(maxsize=64)
def parseval_weights(grid: GridSpec, g: float) -> np.ndarray:
    """Read-only L^2 |k|^g on the float view of the half plane (each weight
    twice, for the real and the imaginary part), with ``half_plane_sum``'s
    column weights folded in: the sum of w * c.view(float)^2 is
    L^2 sum_m |k|^g |c_m|^2 over the whole plane."""
    w = (2.0 * grid.side_length**2) * kpow(grid, g)
    w[:, [0, -1]] *= 0.5
    return _read_only(np.repeat(w, 2, axis=1))


@lru_cache(maxsize=64)
def derivative_symbols(grid: GridSpec):
    """Read-only complex (i k1, i k2), the symbols of d1 and d2."""
    return tuple(_read_only(1j * k) for k in wavevectors(grid)[:2])


@lru_cache(maxsize=64)
def riesz_symbol(grid: GridSpec, alpha: float) -> np.ndarray:
    """Read-only complex i k1 |k|^{-alpha} of ``riesz_alpha``, mean mode zero."""
    return _read_only(derivative_symbols(grid)[0] * kpow(grid, -alpha))


@lru_cache(maxsize=64)
def biot_savart_symbols(grid: GridSpec):
    """Read-only complex (i k2/|k|^2, -i k1/|k|^2) of u1 and u2, zero at the
    mean mode and, like k1 and k2, on their Nyquist lines."""
    # k * (1/|k|^2), the rounding of the complex division i k / |k|^2
    k1, k2, kmag = wavevectors(grid)
    kk = kmag**2
    kk[0, 0] = 1.0
    inv = 1.0 / kk
    return _read_only(1j * (k2 * inv)), _read_only(-1j * (k1 * inv))


@lru_cache(maxsize=64)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Read-only boolean mask of the modes kept by dealiasing."""
    cut = grid.dealias_fraction * grid.n / 2.0
    keep1 = np.abs(_modes(grid.n)) <= cut
    keep2 = np.fft.rfftfreq(grid.n, d=1.0 / grid.n) <= cut
    return _read_only(keep1[:, None] & keep2[None, :])


@lru_cache(maxsize=64)
def shift_norms(grid: GridSpec) -> np.ndarray:
    """Read-only n x n nearest-image length |t| of every grid shift
    (fft-order signed indexing)."""
    t = grid.spacing * _modes(grid.n)
    return _read_only(np.hypot(t[:, None], t[None, :]))


def shift_columns(src: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """out[:, c] = src[:, (c + s) % n], as two column-block copies."""
    n = src.shape[1]
    s %= n
    out[:, : n - s] = src[:, s:]
    out[:, n - s :] = src[:, :s]
    return out


def shift_scan(values: np.ndarray, mask: np.ndarray, reduce) -> np.ndarray:
    """reduce(values(. + h) - values) for each grid shift h set in ``mask``
    (indexed as ``shift_norms``), in ``np.argwhere`` order.  One roll per row
    shift; each column shift is copied into one reused buffer as two column
    blocks and differenced there in place (a strided operand would halve the
    subtraction's speed): bit for bit the rolled difference, in memory order."""
    diff = np.empty_like(values)
    out = []
    for i in np.flatnonzero(mask.any(axis=1)):
        rolled = np.roll(values, -i, axis=0)
        for j in np.flatnonzero(mask[i]).tolist():
            out.append(reduce(np.subtract(shift_columns(rolled, j, diff), values, out=diff)))
    return np.array(out, dtype=float)


def coordinates(grid: GridSpec):
    """(x1, x2) meshgrid of collocation points, axis 0 = x1."""
    x = np.arange(grid.n) * grid.spacing
    return np.meshgrid(x, x, indexing="ij")


def image_distance2(grid: GridSpec, c1: float, c2: float) -> np.ndarray:
    """Squared distance from each collocation point to the nearest periodic
    image of (c1, c2)."""
    L = grid.side_length
    d1, d2 = (np.minimum(np.abs(x - c), L - np.abs(x - c)) for x, c in zip(coordinates(grid), (c1, c2)))
    return d1**2 + d2**2


# ---------------------------------------------------------------------------
# transforms


def rfft2(values: np.ndarray) -> np.ndarray:
    """Half-plane coefficients of a real array (``to_spectral``'s scaling), in a
    fresh ``out=`` array so that numpy's axis-0 pass runs in place (numpy >= 2.0)."""
    return np.fft.rfft2(values, norm="forward", out=np.empty((len(values), values.shape[1] // 2 + 1), complex))


def irfft2(coeffs: np.ndarray) -> np.ndarray:
    """Real n x n array from half-plane coefficients (inverse of ``rfft2``)."""
    n = coeffs.shape[0]
    return np.fft.irfft2(coeffs, s=(n, n), norm="forward")


def to_spectral(f: PhysicalField) -> SpectralField:
    return SpectralField(f.grid, rfft2(f.values))


def to_physical(fh: SpectralField) -> PhysicalField:
    return PhysicalField(fh.grid, irfft2(fh.coeffs))


def half_plane_sum(values: np.ndarray) -> float:
    """Full-plane sum of a quantity even in m, given on the half plane: every
    column but m2 = 0 and m2 = n/2 stands for itself and its mirror."""
    cols = values.sum(axis=0)
    return float(2.0 * cols.sum() - cols[0] - cols[-1])


# ---------------------------------------------------------------------------
# Fourier multiplier operators


def fractional_laplacian(fh: SpectralField, gamma: float) -> SpectralField:
    """Lambda^gamma: multiply by |k|^gamma; mean mode -> 0 for gamma != 0."""
    if gamma == 0.0:
        return fh
    return SpectralField(fh.grid, fh.coeffs * kpow(fh.grid, gamma))


def riesz_alpha(fh: SpectralField, alpha: float) -> SpectralField:
    """Lambda^{-alpha} d_1: multiplier i*k1*|k|^{-alpha}, mean mode zero."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("riesz_alpha requires alpha in (0, 1]")
    return SpectralField(fh.grid, fh.coeffs * riesz_symbol(fh.grid, alpha))


def biot_savart(wh: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Velocity from vorticity: u1 = i k2 w/|k|^2, u2 = -i k1 w/|k|^2."""
    return tuple(SpectralField(wh.grid, s * wh.coeffs) for s in biot_savart_symbols(wh.grid))


def v_from_theta(th: SpectralField, beta: float) -> tuple[SpectralField, SpectralField]:
    """Temperature-driven velocity: multipliers (-k1 k2, k1^2) * |k|^{beta-3}.

    Identical to ``biot_savart(riesz_alpha(th, 1 - beta))``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("v_from_theta requires beta in (0, 1)")
    k1, k2, _ = wavevectors(th.grid)
    radial = kpow(th.grid, beta - 3.0)
    return (
        SpectralField(th.grid, -k1 * k2 * radial * th.coeffs),
        SpectralField(th.grid, k1 * k1 * radial * th.coeffs),
    )


def grad(fh: SpectralField) -> tuple[SpectralField, SpectralField]:
    return tuple(SpectralField(fh.grid, ik * fh.coeffs) for ik in derivative_symbols(fh.grid))


def perp_grad(fh: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Perpendicular gradient (-d2 f, d1 f)."""
    d1, d2 = grad(fh)
    return SpectralField(fh.grid, -d2.coeffs), d1


def grad_sup(fh: SpectralField) -> float:
    """sup over the grid of |grad f|.  A max of |grad f|^2 below the smallest
    normal float, where the squares underflow, is taken again on
    grad f / max|d_i f| and scaled back."""
    g1, g2 = (to_physical(g).values for g in grad(fh))
    top = float((g1 * g1 + g2 * g2).max())
    if top < sys.float_info.min and (peak := max(np.abs(g1).max(), np.abs(g2).max())) > 0.0:
        g1, g2 = g1 / peak, g2 / peak
        return float(peak * math.sqrt(float((g1 * g1 + g2 * g2).max())))
    return math.sqrt(top)


def dealias(fh: SpectralField) -> SpectralField:
    return SpectralField(fh.grid, np.where(dealias_mask(fh.grid), fh.coeffs, 0.0))


def mean_free(fh: SpectralField) -> SpectralField:
    """Copy of fh with the mean mode set to zero."""
    coeffs = fh.coeffs.copy()
    coeffs[0, 0] = 0.0
    return SpectralField(fh.grid, coeffs)


def advection(u, f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Divergence-form transport of the real array f by the velocity arrays
    u: the dealiased half-plane coefficients of i k . (u f)^.

    Works on raw arrays (no field validation) so an overflowing state
    surfaces as a blow-up diagnostic in the caller, not a type error.
    """
    ik1, ik2 = derivative_symbols(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        p1, p2 = rfft2(u[0] * f), rfft2(u[1] * f)
        p1 *= ik1
        p1 += np.multiply(p2, ik2, out=p2)
    p1[~dealias_mask(grid)] = 0.0
    return p1


# ---------------------------------------------------------------------------
# norms


def lp_norm(f: PhysicalField, p: float) -> float:
    """Discrete L^p norm with uniform quadrature weight (L/n)^2; p=inf -> sup."""
    if p < 1:
        raise ValueError("lp_norm requires p >= 1")
    return lp_norm_values(f.values, p, f.grid.cell_weight)


def lp_norm_values(values: np.ndarray, p: float, cell_weight: float) -> float:
    """``lp_norm``'s arithmetic on a raw array, unchecked (p >= 1 assumed).
    A sum of |f|^p below the smallest normal float, where the powers underflow,
    is taken again on |f| / max|f| and scaled back."""
    a = np.abs(values)  # a fresh array, so the power is taken in place
    if math.isinf(p):
        return float(a.max())
    total = np.sum(np.power(a, p, out=a))
    if total < sys.float_info.min and (peak := np.abs(values).max()) > 0.0:
        return float(peak * (np.sum(np.power(np.abs(values) / peak, p)) * cell_weight) ** (1.0 / p))
    return float((total * cell_weight) ** (1.0 / p))


def l2_norm_spectral(fh: SpectralField) -> float:
    """L^2 norm via Parseval: L * sqrt(sum |c|^2).  A sum below the smallest
    normal float, where the squares underflow, is taken again on
    c / max|c| and scaled back."""
    total = half_plane_sum(np.abs(fh.coeffs) ** 2)
    if total < sys.float_info.min and (peak := np.abs(fh.coeffs).max()) > 0.0:
        return float(fh.grid.side_length * peak * math.sqrt(half_plane_sum((np.abs(fh.coeffs) / peak) ** 2)))
    return float(fh.grid.side_length * math.sqrt(total))


def sobolev_norm(fh: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Multiplier Sobolev norm (L^2 sum of (|k|^2)^s [or (1+|k|^2)^s] |c|^2)^(1/2)."""
    mag2 = np.abs(fh.coeffs) ** 2
    if homogeneous:
        weight = kpow(fh.grid, 2.0 * s)
    else:
        _, _, kmag = wavevectors(fh.grid)
        weight = (1.0 + kmag**2) ** s
    return float(fh.grid.side_length * math.sqrt(half_plane_sum(weight * mag2)))


# ---------------------------------------------------------------------------
# field constructors


def constant_field(grid: GridSpec, value: float) -> PhysicalField:
    return PhysicalField(grid, np.full((grid.n, grid.n), float(value)))


def field_from_function(grid: GridSpec, fn) -> PhysicalField:
    x1, x2 = coordinates(grid)
    return PhysicalField(grid, np.asarray(fn(x1, x2), dtype=float))


def random_band_spectral(
    grid: GridSpec, kmin: float, kmax: float, rng: np.random.Generator
) -> SpectralField:
    """Mean-free real field with support in kmin <= |k| <= kmax (dealiased).

    Complex normal deviates are drawn on the whole n x n plane and made
    Hermitian, 0.5 (c(m) + conj(c(-m))), on the half plane.
    """
    n = grid.n
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rev = (-np.arange(n)) % n
    coeffs = 0.5 * (raw[:, : n // 2 + 1] + np.conj(raw[np.ix_(rev, rev[: n // 2 + 1])]))
    kmag = wavevectors(grid)[2]
    fh = SpectralField(grid, np.where((kmag >= kmin) & (kmag <= kmax), coeffs, 0.0))
    return mean_free(dealias(fh))


def random_band_field(
    grid: GridSpec, kmin: float, kmax: float, rng: np.random.Generator, amplitude: float = 1.0
) -> PhysicalField:
    """Physical-space random band field normalized to sup norm = amplitude."""
    f = to_physical(random_band_spectral(grid, kmin, kmax, rng))
    peak = np.abs(f.values).max()
    if peak == 0.0:
        return f
    return PhysicalField(grid, f.values * (amplitude / peak))
