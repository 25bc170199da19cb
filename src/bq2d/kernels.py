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
    TWO_PI,
    GridSpec,
    PhysicalField,
    coordinates,
    grad,
    image_distance2,
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
    for any pair of cell points live in (-L, L)^2, which this grid covers):
    z1 as a (2n, 1) column and z2 as a (1, 2n) row, which broadcast against
    the full 2n x 2n |z|."""
    z = (side_length / n) * np.fft.fftfreq(2 * n, d=1.0 / (2 * n))
    zn = np.hypot(z[:, None], z[None, :])
    for a in (z, zn):
        a.flags.writeable = False
    return z[:, None], z[None, :], zn


def _radial(grid: GridSpec, power: float, rmin: float, rmax: float) -> np.ndarray:
    """|z|^{-power} on the padded displacements with rmin < |z| <= rmax, 0 elsewhere."""
    _, _, zn = _pad_displacements(grid.n, grid.side_length)
    mask = (zn > rmin) & (zn <= rmax)
    out = np.zeros_like(zn)
    out[mask] = zn[mask] ** -power
    return out


def _apply_kernels(f: np.ndarray, grid: GridSpec, kernels) -> list[np.ndarray]:
    """sum_y kernel(x - y) f(y) (L/n)^2 over the cell, true displacements,
    for each of ``kernels``; f is zero-padded and transformed once.

    The kernels live on the padded 2n grid, where the circular convolution
    equals the literal double sum to rounding.  The product of two
    forward-normalized spectra carries 1/(2n)^2 once too often; the point
    count (2n)^2 undoes it.
    """
    n = grid.n
    f_hat = rfft2(np.pad(f, (0, n)))
    scale = (2 * n) ** 2 * grid.cell_weight
    return [irfft2(rfft2(kernel) * f_hat)[:n, :n] * scale for kernel in kernels]


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
    z1, z2, _ = _pad_displacements(grid.n, grid.side_length)
    radial = _radial(grid, 1.0 + cfg.beta, 0.0, _reach(grid))
    # z^perp = (-z2, z1); the kernel is odd, so the self cell would vanish
    # by parity even if it were included.
    f = _d1_theta(theta)
    v1, v2 = _apply_kernels(f, grid, (zp * radial for zp in (-z2, z1)))
    return PhysicalField(grid, C_beta * v1), PhysicalField(grid, C_beta * v2)


def grad_v_quadrature(theta: PhysicalField, cfg: KernelConfig, C_beta: float):
    """Gradient integral; returns the 2x2 matrix of fields ((g11,g12),(g21,g22))
    with g_ij = d_j v_i."""
    grid = theta.grid
    _support_check(theta)
    z1, z2, _ = _pad_displacements(grid.n, grid.side_length)
    scalar = _radial(grid, 1.0 + cfg.beta, 0.0, _reach(grid))
    tensor = _radial(grid, 3.0 + cfg.beta, 0.0, _reach(grid))
    f = _d1_theta(theta)
    zp, zz = (-z2, z1), (z1, z2)
    # g22's tensor kernel z1 z2 is the exact negation of g11's, -z2 z1, and
    # J_11 = J_22 = 0, so g22 = -g11 (up to the sign of zero)
    ij = ((0, 0), (0, 1), (1, 0))
    s_int, *t_int = _apply_kernels(f, grid, [scalar, *(zp[i] * zz[j] * tensor for i, j in ij)])
    J = ((0.0, -1.0), (1.0, 0.0))
    g = [C_beta * (J[i][j] * s_int - (1.0 + cfg.beta) * t) for (i, j), t in zip(ij, t_int)]
    g11, g12, g21 = (PhysicalField(grid, vals) for vals in g)
    return (g11, g12), (g21, PhysicalField(grid, -g[0]))


def _sigma_kernels(grid: GridSpec, beta: float, rmin: float, rmax: float):
    """Entries 11 and 12 of sigma(z) / |z|^{1+beta} on rmin < |z| <= rmax;
    sigma is trace-free, so entry 22 is the exact negation of entry 11."""
    z1, z2, _ = _pad_displacements(grid.n, grid.side_length)
    radial = _radial(grid, 3.0 + beta, rmin, rmax)  # over the entries of sigma(z) |z|^2
    return -2.0 * z1 * z2 * radial, (z1 * z1 - z2 * z2) * radial


def _symgrad_regions(theta, beta, C_beta, edges):
    """(s11, s12, s22) of the sigma integral over each annulus
    edges[k] < |z| <= edges[k+1], with d1 theta padded and transformed once.
    s22 = -s11 is the 22 kernel's integral up to the sign of exact zeros:
    IEEE negation commutes with the sums, the transforms and the scaling."""
    grid = theta.grid
    f = _d1_theta(theta)
    C_sym = 0.5 * (1.0 + beta) * C_beta
    kernels = [k for rmin, rmax in zip(edges, edges[1:]) for k in _sigma_kernels(grid, beta, rmin, rmax)]
    s = [
        C_sym * (f * (kern.sum() * grid.cell_weight) - conv)
        for kern, conv in zip(kernels, _apply_kernels(f, grid, kernels))
    ]
    return tuple(
        (PhysicalField(grid, s11), PhysicalField(grid, s12), PhysicalField(grid, -s11))
        for s11, s12 in zip(s[::2], s[1::2])
    )


def symgrad_v_quadrature(theta: PhysicalField, cfg: KernelConfig, C_beta: float):
    """Symmetric gradient via the difference-form sigma kernel; returns
    (s11, s12, s22).  Exactly symmetric and trace-free by construction."""
    _support_check(theta)
    return _symgrad_regions(theta, cfg.beta, C_beta, (0.0, _reach(theta.grid)))[0]


def split_symgrad_bound(theta: PhysicalField, rho: float, L_split: float, beta: float):
    """Three-region split |z| <= rho < |z| <= L_split < |z| of the symmetric
    gradient integral with C(beta) = 1.  Returns (near, mid, far), each an
    (s11, s12, s22) triple computed on its own annulus; the parts sum to
    symgrad_v_quadrature on the same nodes."""
    KernelConfig(beta=beta)  # the same beta check as the other quadratures
    reach = _reach(theta.grid)
    if not 0.0 < rho < L_split <= reach:
        raise ValueError("need 0 < rho < L_split <= the quadrature reach")
    return _symgrad_regions(theta, beta, 1.0, (0.0, rho, L_split, reach))


# ---------------------------------------------------------------------------
# calibration bumps and the fit against the spectral operator


def gaussian_bump(grid: GridSpec, width: float | None = None) -> PhysicalField:
    """Centered periodic Gaussian.  Carries nonzero mass, so on the torus its
    periodic images couple to the slowly decaying kernels at O((width/L)^beta);
    use ``oracle_bump`` for quadrature-vs-spectral comparisons."""
    s = width if width is not None else grid.side_length / 24.0
    c = grid.side_length / 2.0
    return PhysicalField(grid, np.exp(-image_distance2(grid, c, c) / (2.0 * s**2)))


def oracle_bump(grid: GridSpec, width: float | None = None) -> PhysicalField:
    """Centered Gaussian with a degree-two Laguerre weight:
    L2(u) e^{-u}, u = r^2/(2 s^2).  Radially symmetric with vanishing zeroth
    and second radial moments, so the periodic-image coupling of the plane
    integrals is below discretization error."""
    s = width if width is not None else grid.side_length / 24.0
    c = grid.side_length / 2.0
    u = image_distance2(grid, c, c) / (2.0 * s**2)
    return PhysicalField(grid, (1.0 - 2.0 * u + 0.5 * u**2) * np.exp(-u))


def annulus_kernel_mass(grid: GridSpec, rmin: float, rmax: float, power: float) -> float:
    """Riemann sum of |z|^{-power} over rmin < |z| <= rmax (the oscillation
    bound of the mid-region integral is the shock size times this mass with
    power = 2 + beta, which scales like rmin^{-beta})."""
    return float(np.sum(_radial(grid, power, rmin, rmax)) * grid.cell_weight)


def oracle_width(beta: float) -> float:
    """Default calibration-bump width on the 2 pi torus, matched to the
    kernel's singularity strength: stronger singularities (larger beta) want
    a smoother bump relative to the grid, weaker ones a tighter one (smaller
    far-field floor under refinement)."""
    return TWO_PI / (26.0 - 7.5 * beta)


def _fit(beta: float, n: int, bump: str):
    """The calibration fit on the 2 pi torus: (C_star, relative L2 residual,
    the bump, the spectral velocity (v1, v2) of the bump)."""
    makers = {"oracle": oracle_bump, "gauss": gaussian_bump}
    if bump not in makers:
        raise ValueError(f"bump must be 'oracle' or 'gauss', got {bump!r}")
    grid = GridSpec(n=n)
    theta = makers[bump](grid, width=oracle_width(beta))
    q1, q2 = (q.values for q in v_quadrature(theta, KernelConfig(beta=beta), 1.0))
    v_hat = v_from_theta(to_spectral(theta), beta)
    sp1, sp2 = (to_physical(v).values for v in v_hat)
    qq = np.sum(q1**2) + np.sum(q2**2)
    if qq == 0.0:
        raise CalibrationError("quadrature velocity vanished; cannot calibrate")
    c_star = float((np.sum(q1 * sp1) + np.sum(q2 * sp2)) / qq)

    def pair_l2(a1, a2):
        return math.sqrt((np.sum(a1**2) + np.sum(a2**2)) * grid.cell_weight)

    resid = pair_l2(c_star * q1 - sp1, c_star * q2 - sp2) / pair_l2(sp1, sp2)
    return c_star, float(resid), theta, v_hat


def calibrate_C_beta(beta: float, n: int, residual_tol: float = 1e-3, bump: str = "oracle") -> tuple[float, float]:
    """Least-squares fit of the kernel constant against the spectral operator.

    Runs the quadrature with C = 1 on the centered calibration bump of the
    2 pi torus and returns (C_star, relative_l2_residual); the fitted C_star
    carries the sign of the representation.  Raises CalibrationError when
    the residual exceeds ``residual_tol``.
    """
    c_star, resid, _, _ = _fit(beta, n, bump)
    if resid > residual_tol:
        raise CalibrationError(
            f"calibration residual {resid:.3e} exceeds tolerance {residual_tol:.1e} "
            f"(beta={beta}, n={n}, bump={bump})"
        )
    return c_star, resid


def quadrature_errors(beta: float, n: int) -> dict:
    """Oracle comparison on the calibration bump: relative L2 errors of the
    calibrated quadrature velocity and symmetric gradient."""
    c_star, resid, theta, (v1h, v2h) = _fit(beta, n, "oracle")
    s11, s12, s22 = symgrad_v_quadrature(theta, KernelConfig(beta=beta), c_star)
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
