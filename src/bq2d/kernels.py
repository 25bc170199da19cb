"""Direct quadrature for the singular-kernel form of the temperature-driven
velocity, its gradient, and the symmetric gradient, plus calibration of the
kernel constant against the spectral operator.

The integral representations evaluated here are

  v(x)      = C(beta) * int  (x-y)^perp / |x-y|^{1+beta} d1\theta(y) dy
  grad v(x) = C(beta) * J int |x-y|^{-1-beta} d1\theta(y) dy
              - (1+beta) C(beta) int (x-y)^perp (x-y)^T / |x-y|^{3+beta} d1\theta(y) dy
  S(grad v) = (1+beta)/2 * C(beta) * int sigma(x-y)/|x-y|^{1+beta}
              (d1\theta(x) - d1\theta(y)) dy

with J = [[0,-1],[1,0]] and sigma the trace-free symmetric director matrix.
Inserting d1\theta(x) in the symmetric part costs nothing because sigma has
zero mean on every circle; it removes the principal-value ambiguity.

The integrals are whole-plane objects and the kernels decay only like
|z|^{-beta}, so the quadrature keeps the *true* displacement x - y for
points of the fundamental cell (an exact linear convolution, evaluated on
a zero-padded grid) instead of wrapping to the nearest periodic image:
for data effectively supported in the central ball of radius L/4 this is
the plain Riemann sum of the plane integral, with cell weight (L/n)^2 and
the singular cell excluded.  Wrapping or truncating at |z| <= L/2 corrupts
the slowly decaying far field by an O(1) relative amount and is not
offered.

The comparison target, the spectral operator, lives on the torus; it
differs from the plane integral through the periodic images of the data.
A plain Gaussian couples to those images through its mass at O((s/L)^beta)
-- far above any useful tolerance -- so the calibration bump is a Gaussian
profile carrying a degree-two Laguerre weight, which zeroes the bump's
zeroth and second radial moments and pushes the image coupling below the
discretization error.  ``calibrate_C_beta`` fits the one scalar C(beta)
(sign included) by least squares on that bump; C(beta) is never
hard-coded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    GridSpec,
    PhysicalField,
    coordinates,
    field_from_function,
    grad,
    irfft2,
    rfft2,
    to_physical,
    to_spectral,
    v_from_theta,
)


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class KernelConfig:
    """Fractional order beta of the kernels."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("kernel quadrature requires beta strictly inside (0, 1)")


def _reach(grid: GridSpec) -> float:
    """Largest displacement |x - y| between two points of the cell."""
    return math.sqrt(2.0) * grid.side_length


def sigma(z) -> np.ndarray:
    """2x2 director matrix [[-2 z1 z2, z1^2 - z2^2], [z1^2 - z2^2, 2 z1 z2]] / |z|^2."""
    z1, z2 = float(z[0]), float(z[1])
    rr = z1 * z1 + z2 * z2
    if rr == 0.0:
        raise ValueError("sigma is undefined at z = 0")
    return np.array([[-2.0 * z1 * z2, z1 * z1 - z2 * z2], [z1 * z1 - z2 * z2, 2.0 * z1 * z2]]) / rr


def circle_mean_sigma(r: float, m: int = 64) -> np.ndarray:
    """Trapezoid-rule line integral of sigma over the circle |z| = r.

    sigma's entries are degree-2 trigonometric polynomials of the polar
    angle, so the m-point rule is exact (up to rounding) for every m >= 3;
    the integral vanishes identically.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if m < 8:
        raise ValueError("use at least 8 quadrature points")
    phi = 2.0 * math.pi * np.arange(m) / m
    c, s = np.cos(phi), np.sin(phi)
    e11 = -2.0 * c * s
    e12 = c * c - s * s
    w = 2.0 * math.pi * r / m
    return np.array([[e11.sum(), e12.sum()], [e12.sum(), -e11.sum()]]) * w


# ---------------------------------------------------------------------------
# unwrapped displacements and exact linear convolution (zero padding)


@lru_cache(maxsize=32)
def _pad_displacements(n: int, side_length: float):
    """Displacement components on the 2n x 2n padded grid (true x - y values
    for any pair of cell points live in (-L, L)^2, which this grid covers)."""
    h = side_length / n
    m = np.fft.fftfreq(2 * n, d=1.0 / (2 * n))
    z1 = h * m[:, None] * np.ones((1, 2 * n))
    z2 = h * m[None, :] * np.ones((2 * n, 1))
    zn = np.hypot(z1, z2)
    for a in (z1, z2, zn):
        a.flags.writeable = False
    return z1, z2, zn


def _apply_kernel(kernel: np.ndarray, f: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_y kernel(x - y) f(y) (L/n)^2 over the cell, true displacements.

    ``kernel`` lives on the padded 2n grid, where the circular convolution
    equals the literal double sum to rounding.  The product of two
    forward-normalized spectra carries 1/(2n)^2 once too often; the point
    count (2n)^2 undoes it.
    """
    n = grid.n
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = f
    out = irfft2(rfft2(kernel) * rfft2(big))
    return out[:n, :n] * ((2 * n) ** 2 * grid.cell_weight)


SUPPORT_TAIL_TOLERANCE = 1e-3  # fraction of |theta| mass allowed outside |x-c| < L/4


def _support_check(theta: PhysicalField) -> None:
    grid = theta.grid
    x1, x2 = coordinates(grid)
    c = grid.side_length / 2.0
    r = np.hypot(x1 - c, x2 - c)
    total = np.abs(theta.values).sum()
    if total == 0.0:
        return
    outside = np.abs(theta.values)[r >= grid.side_length / 4.0].sum()
    if outside > SUPPORT_TAIL_TOLERANCE * total:
        warnings.warn(
            "quadrature input is not effectively supported in the central "
            "ball of radius L/4; the plane-integral reading is uncontrolled",
            stacklevel=3,
        )


def _d1_theta(theta: PhysicalField) -> np.ndarray:
    return to_physical(grad(to_spectral(theta))[0]).values


def v_quadrature(theta: PhysicalField, cfg: KernelConfig, C_beta: float):
    """Riemann-sum evaluation of the velocity integral; returns (v1, v2)."""
    grid = theta.grid
    _support_check(theta)
    z1, z2, zn = _pad_displacements(grid.n, grid.side_length)
    mask = (zn > 0) & (zn <= _reach(grid))
    radial = np.zeros_like(zn)
    radial[mask] = zn[mask] ** (-1.0 - cfg.beta)
    # z^perp = (-z2, z1); the kernel is odd, so the self cell would vanish
    # by parity even if it were included.
    f = _d1_theta(theta)
    v1 = C_beta * _apply_kernel(-z2 * radial, f, grid)
    v2 = C_beta * _apply_kernel(z1 * radial, f, grid)
    return PhysicalField(grid, v1), PhysicalField(grid, v2)


def grad_v_quadrature(theta: PhysicalField, cfg: KernelConfig, C_beta: float):
    """Gradient integral; returns the 2x2 matrix of fields ((g11,g12),(g21,g22))
    with g_ij = d_j v_i."""
    grid = theta.grid
    _support_check(theta)
    z1, z2, zn = _pad_displacements(grid.n, grid.side_length)
    mask = (zn > 0) & (zn <= _reach(grid))
    scalar = np.zeros_like(zn)
    scalar[mask] = zn[mask] ** (-1.0 - cfg.beta)
    tensor = np.zeros_like(zn)
    tensor[mask] = zn[mask] ** (-3.0 - cfg.beta)
    f = _d1_theta(theta)
    s_int = _apply_kernel(scalar, f, grid)
    zp = (-z2, z1)
    zz = (z1, z2)
    g = [[None, None], [None, None]]
    J = ((0.0, -1.0), (1.0, 0.0))
    for i in range(2):
        for j in range(2):
            t_int = _apply_kernel(zp[i] * zz[j] * tensor, f, grid)
            vals = C_beta * (J[i][j] * s_int - (1.0 + cfg.beta) * t_int)
            g[i][j] = PhysicalField(grid, vals)
    return (g[0][0], g[0][1]), (g[1][0], g[1][1])


def _sigma_kernels(grid: GridSpec, rmin: float, rmax: float):
    z1, z2, zn = _pad_displacements(grid.n, grid.side_length)
    mask = (zn > max(rmin, 0.0)) & (zn <= rmax)
    radial = np.zeros_like(zn)
    radial[mask] = zn[mask] ** (-3.0)
    # entries of sigma(z) / |z|^{1+beta}; beta power folded in by the caller
    return (-2.0 * z1 * z2 * radial, (z1 * z1 - z2 * z2) * radial, 2.0 * z1 * z2 * radial), zn, mask


def _symgrad_from_region(theta, beta, C_beta, rmin, rmax):
    grid = theta.grid
    f = _d1_theta(theta)
    C_sym = 0.5 * (1.0 + beta) * C_beta
    (k11, k12, k22), zn, mask = _sigma_kernels(grid, rmin, rmax)
    power = np.zeros_like(zn)
    power[mask] = zn[mask] ** (-beta)  # together with |z|^{-3}: sigma(z)/|z|^{1+beta}
    out = []
    for kern in (k11 * power, k12 * power, k22 * power):
        total = kern.sum() * grid.cell_weight
        conv = _apply_kernel(kern, f, grid)
        out.append(PhysicalField(grid, C_sym * (f * total - conv)))
    return tuple(out)


def symgrad_v_quadrature(theta: PhysicalField, cfg: KernelConfig, C_beta: float):
    """Symmetric gradient via the difference-form sigma kernel; returns
    (s11, s12, s22).  Exactly symmetric and trace-free by construction."""
    _support_check(theta)
    return _symgrad_from_region(theta, cfg.beta, C_beta, 0.0, _reach(theta.grid))


def split_symgrad_bound(
    theta: PhysicalField,
    rho: float,
    L_split: float,
    beta: float,
    C_beta: float = 1.0,
):
    """Three-region split |z| <= rho < |z| <= L_split < |z| of the symmetric
    gradient integral.  Returns (near, mid, far), each an (s11, s12, s22)
    triple; the parts sum to symgrad_v_quadrature on the same nodes."""
    reach = _reach(theta.grid)
    if not 0.0 < rho < L_split <= reach:
        raise ValueError("need 0 < rho < L_split <= the quadrature reach")
    near = _symgrad_from_region(theta, beta, C_beta, 0.0, rho)
    mid = _symgrad_from_region(theta, beta, C_beta, rho, L_split)
    far = _symgrad_from_region(theta, beta, C_beta, L_split, reach)
    return near, mid, far


# ---------------------------------------------------------------------------
# calibration bumps and the fit against the spectral operator


def gaussian_bump(grid: GridSpec, width: float | None = None, amplitude: float = 1.0) -> PhysicalField:
    """Centered periodic Gaussian.  Carries nonzero mass, so on the torus its
    periodic images couple to the slowly decaying kernels at O((width/L)^beta);
    use ``oracle_bump`` for quadrature-vs-spectral comparisons."""
    L = grid.side_length
    s = width if width is not None else L / 24.0
    c = L / 2.0

    def fn(x1, x2):
        d1 = np.minimum(np.abs(x1 - c), L - np.abs(x1 - c))
        d2 = np.minimum(np.abs(x2 - c), L - np.abs(x2 - c))
        return amplitude * np.exp(-(d1**2 + d2**2) / (2.0 * s**2))

    return field_from_function(grid, fn)


def oracle_bump(grid: GridSpec, width: float | None = None, amplitude: float = 1.0) -> PhysicalField:
    """Centered Gaussian with a degree-two Laguerre weight:
    L2(u) e^{-u}, u = r^2/(2 s^2).  Radially symmetric with vanishing zeroth
    and second radial moments, so the periodic-image coupling of the plane
    integrals is below discretization error."""
    L = grid.side_length
    s = width if width is not None else L / 24.0
    c = L / 2.0

    def fn(x1, x2):
        d1 = np.minimum(np.abs(x1 - c), L - np.abs(x1 - c))
        d2 = np.minimum(np.abs(x2 - c), L - np.abs(x2 - c))
        u = (d1**2 + d2**2) / (2.0 * s**2)
        return amplitude * (1.0 - 2.0 * u + 0.5 * u**2) * np.exp(-u)

    return field_from_function(grid, fn)


def annulus_kernel_mass(grid: GridSpec, rmin: float, rmax: float, power: float) -> float:
    """Riemann sum of |z|^{-power} over rmin < |z| <= rmax (the oscillation
    bound of the mid-region integral is the shock size times this mass with
    power = 2 + beta, which scales like rmin^{-beta})."""
    _, _, zn = _pad_displacements(grid.n, grid.side_length)
    mask = (zn > rmin) & (zn <= rmax)
    return float(np.sum(zn[mask] ** (-power)) * grid.cell_weight)


def oracle_width(beta: float, side_length: float = 2.0 * math.pi) -> float:
    """Default calibration-bump width, matched to the kernel's singularity
    strength: stronger singularities (larger beta) want a smoother bump
    relative to the grid, weaker ones a tighter one (smaller far-field
    floor under refinement)."""
    return side_length / (26.0 - 7.5 * beta)


def _pair_l2(grid: GridSpec, a1, a2) -> float:
    return math.sqrt((np.sum(a1**2) + np.sum(a2**2)) * grid.cell_weight)


def calibrate_C_beta(
    beta: float,
    n: int,
    side_length: float = 2.0 * math.pi,
    width: float | None = None,
    residual_tol: float = 1e-3,
    bump: str = "oracle",
) -> tuple[float, float]:
    """Least-squares fit of the kernel constant against the spectral operator.

    Runs the quadrature with C = 1 on the centered calibration bump and
    returns (C_star, relative_l2_residual); the fitted C_star carries the
    sign of the representation.  Raises CalibrationError when the residual
    exceeds ``residual_tol``.
    """
    grid = GridSpec(n=n, side_length=side_length)
    maker = oracle_bump if bump == "oracle" else gaussian_bump
    theta = maker(grid, width=width if width is not None else oracle_width(beta, side_length))
    cfg = KernelConfig(beta=beta)
    q1, q2 = v_quadrature(theta, cfg, 1.0)
    s1, s2 = v_from_theta(to_spectral(theta), beta)
    sp1, sp2 = to_physical(s1).values, to_physical(s2).values
    qq = np.sum(q1.values**2) + np.sum(q2.values**2)
    if qq == 0.0:
        raise CalibrationError("quadrature velocity vanished; cannot calibrate")
    qs = np.sum(q1.values * sp1) + np.sum(q2.values * sp2)
    c_star = float(qs / qq)
    ref = _pair_l2(grid, sp1, sp2)
    resid = _pair_l2(grid, c_star * q1.values - sp1, c_star * q2.values - sp2) / ref
    if resid > residual_tol:
        raise CalibrationError(
            f"calibration residual {resid:.3e} exceeds tolerance {residual_tol:.1e} "
            f"(beta={beta}, n={n}, bump={bump})"
        )
    return c_star, float(resid)


def quadrature_errors(
    beta: float, n: int, side_length: float = 2.0 * math.pi, bump: str = "oracle"
) -> dict:
    """Oracle comparison on the calibration bump: relative L2 errors of the
    calibrated quadrature velocity and symmetric gradient."""
    c_star, resid = calibrate_C_beta(beta, n, side_length, bump=bump, residual_tol=math.inf)
    grid = GridSpec(n=n, side_length=side_length)
    maker = oracle_bump if bump == "oracle" else gaussian_bump
    theta = maker(grid, width=oracle_width(beta, side_length))
    cfg = KernelConfig(beta=beta)
    s11, s12, s22 = symgrad_v_quadrature(theta, cfg, c_star)
    v1h, v2h = v_from_theta(to_spectral(theta), beta)
    sp11 = to_physical(grad(v1h)[0]).values
    sp22 = to_physical(grad(v2h)[1]).values
    g12 = to_physical(grad(v1h)[1]).values
    g21 = to_physical(grad(v2h)[0]).values
    sp12 = 0.5 * (g12 + g21)
    num = math.sqrt(
        np.sum((s11.values - sp11) ** 2)
        + 2.0 * np.sum((s12.values - sp12) ** 2)
        + np.sum((s22.values - sp22) ** 2)
    )
    den = math.sqrt(np.sum(sp11**2) + 2.0 * np.sum(sp12**2) + np.sum(sp22**2))
    return {
        "C_star": c_star,
        "v_residual": resid,
        "symgrad_error": num / den,
    }
