"""Spectral core for scalar fields on the periodic torus [0, L)^2.

Conventions used by every module in this package:

* Grids are n x n; collocation point (i, j) sits at x = (i*L/n, j*L/n),
  axis 0 is the x1 direction.
* Spectral coefficients approximate c(k) = (1/L^2) * integral of
  e^{-i k.x} f(x) over the torus, at k = (2*pi/L) * m with integer
  wavevector m in {-n/2, ..., n/2-1}^2.  Concretely
  ``to_spectral(f) = fft2(f.values) / n**2``, so a constant field c has
  c at the mean mode and the round trip is exact up to rounding.
* Parseval: ||f||_{L^2}^2 = L^2 * sum_m |c_m|^2.
* Fourier multipliers with a negative power of |k| (Lambda^g, g < 0, and
  the inverse Laplacian) zero the mean mode; the operators act on
  mean-free content only.
* Dealiasing zeroes every mode with any |m_i| > dealias_fraction * n/2
  and is applied after each nonlinear product.
* This module owns every per-grid table: wavevectors, |k|^g symbols, the
  Biot-Savart symbols, the dealias mask and the grid-shift lengths.  Each
  is built once per grid and handed out read-only.
* A ``SpectralField`` holds one of two layouts, told apart by the shape of
  its coefficients: the full plane (n, n) in fft2 order, or the half plane
  (n, n/2+1) of a real field, the rfft2 layout: the leading n/2+1 columns
  (m2 = 0, ..., n/2) of the fft2 layout, with ``norm="forward"`` so the
  coefficients are the same c(m).  ``to_physical``, the multiplier
  operators and the norms pick their symbol from that shape; on the half
  plane ``to_physical`` is irfft2 and the symbols are column slices of the
  tables above (``half_plane``), with one exception
  (``half_plane_odd_symbols``): a symbol odd in k1 (k2) is zero on the
  Nyquist row m1 = -n/2 (column m2 = n/2), where the grid cannot represent
  it as odd.  There the full-plane product is anti-Hermitian, so
  ``to_physical`` drops it with ``.real``; the zero keeps the half plane
  equal to that real part (on the Nyquist row a half-plane inverse would
  otherwise count the term twice).  Each half-plane operator therefore
  returns the coefficients of a real field, and a chain of them acts on
  real fields step by step.  The time stepper and the diagnostics work on
  the half plane; constructors and ``to_spectral`` give the full plane.

All operations are pure: fields in, fresh fields out.
"""

from __future__ import annotations

import math
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
        if not self.side_length > 0:
            raise ValueError("side_length must be positive")
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
    """Complex coefficients per integer wavevector: the full plane (n, n) in
    numpy fft2 layout, or the half plane (n, n/2+1) of a real field in rfft2
    layout."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        n = self.grid.n
        if c.shape not in ((n, n), (n, n // 2 + 1)):
            raise ValueError(f"coeffs shape {c.shape} does not match grid n={n}")
        if not np.isfinite(c).all():
            raise ValueError("non-finite coefficients in spectral field")

    @property
    def half(self) -> bool:
        """True for the half-plane (rfft2) layout."""
        return self.coeffs.shape[1] != self.grid.n


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
    """(k1, k2, |k|) arrays in fft layout (read-only)."""
    m = _modes(grid.n)
    scale = TWO_PI / grid.side_length
    k1 = scale * m[:, None]
    k2 = scale * m[None, :]
    return _read_only(k1), _read_only(k2), _read_only(np.hypot(k1, k2))


@lru_cache(maxsize=64)
def kpow(grid: GridSpec, g: float) -> np.ndarray:
    """Read-only symbol |k|^g with the mean mode set to 0 (for every g)."""
    _, _, kmag = wavevectors(grid)
    with np.errstate(divide="ignore"):
        out = kmag ** float(g)
    out[0, 0] = 0.0
    return _read_only(out)


@lru_cache(maxsize=64)
def _biot_savart_symbols(grid: GridSpec):
    # k1/|k|^2 and k2/|k|^2 as k * (1/|k|^2), the rounding of the complex
    # division i k / |k|^2; the mean mode is 0 because k vanishes there
    k1, k2, kmag = wavevectors(grid)
    kk = kmag**2
    kk[0, 0] = 1.0
    inv = 1.0 / kk
    return _read_only(k1 * inv), _read_only(k2 * inv)


@lru_cache(maxsize=64)
def dealias_mask(grid: GridSpec) -> np.ndarray:
    """Read-only boolean mask of the modes kept by dealiasing."""
    keep1 = np.abs(_modes(grid.n)) <= grid.dealias_fraction * grid.n / 2.0
    return _read_only(keep1[:, None] & keep1[None, :])


@lru_cache(maxsize=64)
def shift_norms(grid: GridSpec) -> np.ndarray:
    """Read-only nearest-image length |t| of every grid shift (fft-order signed indexing)."""
    t = grid.spacing * _modes(grid.n)
    return _read_only(np.hypot(t[:, None], t[None, :]))


def half_plane(grid: GridSpec, table: np.ndarray) -> np.ndarray:
    """rfft2-layout view of a full-plane table: its leading n/2+1 columns."""
    return table[:, : grid.n // 2 + 1]


@lru_cache(maxsize=64)
def half_plane_odd_symbols(grid: GridSpec):
    """Read-only half-plane (k1, k2, k1/|k|^2, k2/|k|^2), each zero on the
    Nyquist line where it fails to be odd (row m1 = -n/2 for the k1 symbols,
    column m2 = n/2 for the k2 symbols)."""
    k1, k2, _ = wavevectors(grid)
    b1, b2 = _biot_savart_symbols(grid)
    nyquist = grid.n // 2
    out = []
    for table, along_k1 in ((k1, True), (k2, False), (b1, True), (b2, False)):
        sym = half_plane(grid, table).copy()
        if along_k1:
            sym[nyquist, :] = 0.0
        else:
            sym[:, -1] = 0.0
        out.append(_read_only(sym))
    return tuple(out)


def layout_table(fh: SpectralField, table: np.ndarray) -> np.ndarray:
    """A full-plane table even in k, in the layout of ``fh``."""
    return half_plane(fh.grid, table) if fh.half else table


def _k_symbols(fh: SpectralField):
    """(k1, k2) in the layout of ``fh``."""
    return half_plane_odd_symbols(fh.grid)[:2] if fh.half else wavevectors(fh.grid)[:2]


def coordinates(grid: GridSpec):
    """(x1, x2) meshgrid of collocation points, axis 0 = x1."""
    x = np.arange(grid.n) * grid.spacing
    return np.meshgrid(x, x, indexing="ij")


# ---------------------------------------------------------------------------
# transforms


def to_spectral(f: PhysicalField) -> SpectralField:
    return SpectralField(f.grid, np.fft.fft2(f.values) / f.grid.n**2)


def to_physical(fh: SpectralField) -> PhysicalField:
    if fh.half:
        return PhysicalField(fh.grid, irfft2(fh.coeffs))
    # Hermitian input assumed; the imaginary residue of a symmetrized field
    # is at rounding level and is dropped.
    vals = np.fft.ifft2(fh.coeffs).real * fh.grid.n**2
    return PhysicalField(fh.grid, vals)


def rfft2(values: np.ndarray) -> np.ndarray:
    """Half-plane coefficients of a real n x n array (``to_spectral``'s scaling)."""
    return np.fft.rfft2(values, norm="forward")


def irfft2(coeffs: np.ndarray) -> np.ndarray:
    """Real n x n array from half-plane coefficients (inverse of ``rfft2``)."""
    n = coeffs.shape[0]
    return np.fft.irfft2(coeffs, s=(n, n), norm="forward")


def full_plane(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """fft2-layout coefficients of a real field from its half plane,
    through c(-m) = conj(c(m))."""
    n, h = grid.n, grid.n // 2 + 1
    rev = (-np.arange(n)) % n
    out = np.empty((n, n), dtype=complex)
    out[:, :h] = half
    out[:, h:] = np.conj(half[rev, h - 2 : 0 : -1])
    return out


def half_plane_sum(values: np.ndarray) -> float:
    """Full-plane sum of a quantity even in m, given on the half plane: every
    column but m2 = 0 and m2 = n/2 stands for itself and its mirror."""
    cols = values.sum(axis=0)
    return float(2.0 * cols.sum() - cols[0] - cols[-1])


def hermitian_symmetrize(fh: SpectralField) -> SpectralField:
    """Project full-plane coefficients onto those of a real field:
    c(-m) = conj(c(m))."""
    if fh.half:
        raise ValueError("hermitian_symmetrize takes full-plane coefficients")
    n = fh.grid.n
    rev = (-np.arange(n)) % n
    mirrored = np.conj(fh.coeffs[np.ix_(rev, rev)])
    return SpectralField(fh.grid, 0.5 * (fh.coeffs + mirrored))


# ---------------------------------------------------------------------------
# Fourier multiplier operators


def fractional_laplacian(fh: SpectralField, gamma: float) -> SpectralField:
    """Lambda^gamma: multiply by |k|^gamma; mean mode -> 0 for gamma != 0."""
    if gamma == 0.0:
        return fh
    return SpectralField(fh.grid, fh.coeffs * layout_table(fh, kpow(fh.grid, gamma)))


def riesz_alpha(fh: SpectralField, alpha: float) -> SpectralField:
    """Lambda^{-alpha} d_1: multiplier i*k1*|k|^{-alpha}, mean mode zero."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("riesz_alpha requires alpha in (0, 1]")
    k1 = _k_symbols(fh)[0]
    return SpectralField(fh.grid, fh.coeffs * (1j * k1 * layout_table(fh, kpow(fh.grid, -alpha))))


def biot_savart(wh: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Velocity from vorticity: u1 = i k2 w/|k|^2, u2 = -i k1 w/|k|^2."""
    b1, b2 = half_plane_odd_symbols(wh.grid)[2:] if wh.half else _biot_savart_symbols(wh.grid)
    return SpectralField(wh.grid, 1j * b2 * wh.coeffs), SpectralField(wh.grid, -1j * b1 * wh.coeffs)


def v_from_theta(th: SpectralField, beta: float) -> tuple[SpectralField, SpectralField]:
    """Temperature-driven velocity: multipliers (-k1 k2, k1^2) * |k|^{beta-3}.

    Identical to ``biot_savart(riesz_alpha(th, 1 - beta))`` in either layout.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("v_from_theta requires beta in (0, 1)")
    k1, k2 = _k_symbols(th)
    radial = layout_table(th, kpow(th.grid, beta - 3.0))
    return (
        SpectralField(th.grid, -k1 * k2 * radial * th.coeffs),
        SpectralField(th.grid, k1 * k1 * radial * th.coeffs),
    )


def grad(fh: SpectralField) -> tuple[SpectralField, SpectralField]:
    k1, k2 = _k_symbols(fh)
    return (
        SpectralField(fh.grid, 1j * k1 * fh.coeffs),
        SpectralField(fh.grid, 1j * k2 * fh.coeffs),
    )


def perp_grad(fh: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Perpendicular gradient (-d2 f, d1 f)."""
    k1, k2 = _k_symbols(fh)
    return (
        SpectralField(fh.grid, -1j * k2 * fh.coeffs),
        SpectralField(fh.grid, 1j * k1 * fh.coeffs),
    )


def grad_sup(fh: SpectralField) -> float:
    """sup over the grid of |grad f|."""
    g1, g2 = (to_physical(g).values for g in grad(fh))
    return math.sqrt(float((g1 * g1 + g2 * g2).max()))


def dealias(fh: SpectralField) -> SpectralField:
    return SpectralField(fh.grid, np.where(layout_table(fh, dealias_mask(fh.grid)), fh.coeffs, 0.0))


def mean_free(fh: SpectralField) -> SpectralField:
    """Copy of fh with the mean mode set to zero."""
    coeffs = fh.coeffs.copy()
    coeffs[0, 0] = 0.0
    return SpectralField(fh.grid, coeffs)


def spectral_product(a: PhysicalField, b: PhysicalField) -> SpectralField:
    """Dealiased transform of the pointwise product a*b."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch in spectral_product")
    return dealias(to_spectral(PhysicalField(a.grid, a.values * b.values)))


# ---------------------------------------------------------------------------
# norms


def lp_norm(f: PhysicalField, p: float) -> float:
    """Discrete L^p norm with uniform quadrature weight (L/n)^2; p=inf -> sup."""
    if p < 1:
        raise ValueError("lp_norm requires p >= 1")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max())
    return float((np.sum(a**p) * f.grid.cell_weight) ** (1.0 / p))


def _plane_sum(fh: SpectralField, values: np.ndarray) -> float:
    """Full-plane sum of a quantity even in m, given in the layout of fh."""
    return half_plane_sum(values) if fh.half else np.sum(values)


def l2_norm_spectral(fh: SpectralField) -> float:
    """L^2 norm via Parseval: L * sqrt(sum |c|^2)."""
    return float(fh.grid.side_length * math.sqrt(_plane_sum(fh, np.abs(fh.coeffs) ** 2)))


def sobolev_norm(fh: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Multiplier Sobolev norm (L^2 sum of (|k|^2)^s [or (1+|k|^2)^s] |c|^2)^(1/2)."""
    mag2 = np.abs(fh.coeffs) ** 2
    if homogeneous:
        weight = layout_table(fh, kpow(fh.grid, 2.0 * s))
    else:
        _, _, kmag = wavevectors(fh.grid)
        weight = (1.0 + layout_table(fh, kmag) ** 2) ** s
    return float(fh.grid.side_length * math.sqrt(_plane_sum(fh, weight * mag2)))


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
    """Mean-free Hermitian field with support in kmin <= |k| <= kmax (dealiased)."""
    n = grid.n
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    _, _, kmag = wavevectors(grid)
    mask = (kmag >= kmin) & (kmag <= kmax)
    fh = SpectralField(grid, np.where(mask, raw, 0.0))
    return mean_free(dealias(hermitian_symmetrize(fh)))


def random_band_field(
    grid: GridSpec, kmin: float, kmax: float, rng: np.random.Generator, amplitude: float = 1.0
) -> PhysicalField:
    """Physical-space random band field normalized to sup norm = amplitude."""
    f = to_physical(random_band_spectral(grid, kmin, kmax, rng))
    peak = np.abs(f.values).max()
    if peak == 0.0:
        return f
    return PhysicalField(grid, f.values * (amplitude / peak))
