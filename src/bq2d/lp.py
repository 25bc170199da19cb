"""Littlewood-Paley decomposition, Besov norms and commutator estimates.

Dyadic blocks come in two variants:

* ``sharp`` (default): block j keeps exactly the modes with
  2^j <= |k| < 2^{j+1}; the blocks partition the retained modes, so the
  reconstruction sum equals the field coefficient-by-coefficient.
* ``smooth``: a fixed C-infinity radial bump supported in the annulus
  2^{j-1} <= |k| <= 2^{j+1}; the weights telescope to 1 on every nonzero
  mode of the grid.

The inhomogeneous low block j = -1 collects every mode with |k| < 1
(on the default 2*pi torus that is the mean mode alone).  Homogeneous
norms drop the mean mode only, which is exact for side_length <= 4*pi
(every other mode has |k| >= 1/2); larger tori are refused.

Finite-difference Besov norms (``besov_norm_fd``) sum ||f(. + h) - f||_p
over every grid shift h.  For even integer p the power sum
S_p(h) = sum_x (f(x+h) - f(x))^p expands binomially into the
cross-correlations sum_x f(x+h)^m f(x)^(p-m), all taken at once with real
FFTs of the centred field.  A shift whose S_p(h) is not above 1e12 times
the expansion's rounding scale
B = 4 eps log2(n^2) sum_m C(p, m) sqrt(sum f^(2m) * sum f^(2(p-m)))
(small differences, where the correlations cancel) is recomputed by
``spectral.shift_scan``, also the one path for odd, non-integer and
infinite p; the norm matches the per-shift loop to rounding.

Measured-constant protocol: ratio checks for estimates whose constants
are not pinned down return the raw LHS/RHS quotient; harnesses assert
stability of ensemble maxima across resolutions, never a specific value.
Every recorded regression value names its block variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    TWO_PI,
    GridSpec,
    PhysicalField,
    SpectralField,
    _read_only,
    dealias,
    fractional_laplacian,
    grad,
    grad_sup,
    irfft2,
    lp_norm,
    mean_free,
    perp_grad,
    rfft2,
    riesz_alpha,
    shift_norms,
    shift_scan,
    sobolev_norm,
    spectral_product,
    to_physical,
    to_spectral,
    wavevectors,
)


@dataclass(frozen=True)
class LPBand:
    j: int
    band: SpectralField


@dataclass(frozen=True)
class BesovIndex:
    s: float
    p: float
    r: float
    homogeneous: bool = False

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"Besov index s must be finite, got s={self.s}")
        if not self.p >= 1.0:
            raise ValueError(f"Besov index p must be >= 1, got p={self.p}")
        if not self.r > 0.0:
            raise ValueError(f"Besov index r must be > 0, got r={self.r}")


def max_band_index(grid: GridSpec) -> int:
    _, _, kmag = wavevectors(grid)
    kmax = float(kmag.max())
    return int(math.floor(math.log2(kmax)))


@lru_cache(maxsize=64)
def _band_indices(grid: GridSpec) -> np.ndarray:
    """Integer band index per mode: floor(log2 |k|), and -1 for |k| < 1."""
    _, _, kmag = wavevectors(grid)
    idx = np.full(kmag.shape, -1, dtype=int)
    unit = kmag >= 1.0
    idx[unit] = np.floor(np.log2(kmag[unit])).astype(int)
    return _read_only(idx)


def _smooth_step(r: np.ndarray) -> np.ndarray:
    """C-infinity transition: 1 for r <= 1, 0 for r >= 2."""

    def bump(x):
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    a = bump(2.0 - r)
    b = bump(r - 1.0)
    return a / (a + b + 1e-300)


def dyadic_blocks(fh: SpectralField, smooth: bool = False) -> list[LPBand]:
    """All bands j = -1 .. max_band_index(grid), the low block j = -1 included."""
    grid = fh.grid
    jmax = max_band_index(grid)
    bands = []
    if smooth:
        kmag = wavevectors(grid)[2]
        low = _smooth_step(2.0 * kmag)  # complements the telescoped annuli exactly
        bands.append(LPBand(-1, SpectralField(grid, fh.coeffs * low)))
        # one band past jmax so the telescoped weights reach 1 on every mode
        for j in range(0, jmax + 2):
            w = _smooth_step(kmag / 2.0**j) - _smooth_step(kmag / 2.0 ** (j - 1))
            bands.append(LPBand(j, SpectralField(grid, fh.coeffs * w)))
        return bands
    idx = _band_indices(grid)
    for j in range(-1, jmax + 1):
        mask = idx == j
        bands.append(LPBand(j, SpectralField(grid, np.where(mask, fh.coeffs, 0.0))))
    return bands


def lr_combine(values: list[float], r: float) -> float:
    """The l^r norm of nonnegative ``values``; ValueError past the float range."""
    if not values:
        return 0.0
    if math.isinf(r):
        return max(values)
    try:
        return float(sum(v**r for v in values) ** (1.0 / r))
    except OverflowError as exc:
        raise ValueError(f"the l^{r!r} sum of the block norms overflows") from exc


@lru_cache(maxsize=64)
def _band_flat_indices(grid: GridSpec) -> tuple[tuple[int, np.ndarray], ...]:
    """(j, read-only flat half-plane indices of sharp band j), j = -1 .. max_band_index."""
    flat = _band_indices(grid).ravel()
    return tuple((j, _read_only(np.flatnonzero(flat == j))) for j in range(-1, max_band_index(grid) + 1))


def _weighted_norm(j: int, coeffs: np.ndarray, grid: GridSpec, idx: BesovIndex) -> float:
    """2^{js} ||f||_p of one block's coefficients: 0.0 untransformed if empty, ValueError on overflow."""
    if not np.any(coeffs):
        return 0.0
    try:
        value = 2.0 ** (j * idx.s) * lp_norm(PhysicalField(grid, irfft2(coeffs)), idx.p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"2^(j s) ||Delta_j f||_p overflows at j={j}, s={idx.s!r}")
    return value


def block_norms(fh: SpectralField, idx: BesovIndex, smooth: bool = False) -> list[tuple[int, float]]:
    """(j, 2^{js} ||Delta_j f||_p) for every block of ``dyadic_blocks``: the one
    per-band routine of ``besov_norm`` and ``bq2d besov``.  Each sharp band is
    scattered from its cached indices into one zeroed buffer, zeroed again after."""
    if smooth:
        return [(b.j, _weighted_norm(b.j, b.band.coeffs, fh.grid, idx)) for b in dyadic_blocks(fh, smooth=True)]
    buf = np.zeros_like(fh.coeffs, order="C")
    flat, buf_flat = fh.coeffs.ravel(), buf.reshape(-1)
    out = []
    for j, ind in _band_flat_indices(fh.grid):
        buf_flat[ind] = flat[ind]
        out.append((j, _weighted_norm(j, buf, fh.grid, idx)))
        buf_flat[ind] = 0.0
    return out


def besov_norm(f, idx: BesovIndex, smooth: bool = False) -> float:
    """Block Besov norm ||2^{js} ||Delta_j f||_p||_{l^r}; ``f`` is a physical
    field or its coefficients."""
    fh = f if isinstance(f, SpectralField) else to_spectral(f)
    if idx.homogeneous:
        if fh.grid.side_length > 2.0 * TWO_PI:
            raise ValueError("homogeneous Besov norms need side_length <= 4 pi, where every nonzero |k| >= 1/2")
        fh = mean_free(fh)
    return lr_combine([v for _, v in block_norms(fh, idx, smooth)], idx.r)


# An even-p power sum is kept only above this multiple of its rounding
# scale, so a kept sum carries a relative rounding error of about 1e-12 at
# most; smaller sums are recomputed directly.
_FD_TRUST_FACTOR = 1e12


def _difference_power_sums(vals: np.ndarray, p: int) -> tuple[np.ndarray, float]:
    """S_p(h) = sum_x (f(x+h) - f(x))^p at every grid shift h (even p), and
    the rounding scale of those sums.

    The binomial expansion turns S_p into cross-correlations
    sum_x f(x+h)^m f(x)^(p-m); their spectra are summed on the half plane
    and inverted once (p - 1 forward transforms and one inverse).  The field
    is centred first, since differences do not depend on the mean.  Each
    correlation has a rounding error of order eps log2(n^2) times its
    Cauchy-Schwarz bound, which gives the scale.
    """
    f = vals - vals.mean()
    count = f.size
    powers = [np.ones_like(f), f]
    for _ in range(2, p + 1):
        powers.append(powers[-1] * f)
    square_sums = [float(np.sum(g * g)) for g in powers]
    hats = {m: rfft2(powers[m]) for m in range(1, p)}
    spectrum = sum((-1) ** m * math.comb(p, m) * hats[m] * np.conj(hats[p - m]) for m in range(1, p))
    sums = 2.0 * float(np.sum(powers[p])) + count * irfft2(spectrum)
    bound = sum(math.comb(p, m) * math.sqrt(square_sums[m] * square_sums[p - m]) for m in range(p + 1))
    return sums, 4.0 * np.finfo(float).eps * math.log2(count) * bound


def _difference_norms(ph: PhysicalField, include: np.ndarray, p: float) -> np.ndarray:
    """||f(. + h) - f||_p at each included grid shift, in ``np.argwhere`` order."""
    norm = lambda d: lp_norm(PhysicalField(ph.grid, d), p)
    if not (math.isfinite(p) and p == int(p) and int(p) % 2 == 0):
        return shift_scan(ph.values, include, norm)
    sums, scale = _difference_power_sums(ph.values, int(p))
    direct = include & ~(sums > _FD_TRUST_FACTOR * scale)  # NaN falls back as well
    norms = (np.where(direct, 0.0, sums)[include] * ph.grid.cell_weight) ** (1.0 / p)
    norms[direct[include]] = shift_scan(ph.values, direct, norm)
    return norms


def besov_norm_fd(f, s: float, p: float, r: float, homogeneous: bool = False) -> float:
    """Finite-difference Besov norm over all torus grid shifts with |t| <= L/2.

    Discretizes the translation integral with weight |t|^{-(2+s*r)} and
    quadrature weight (L/n)^2 per shift; the singular shift t = 0 is
    excluded (the difference vanishes there).

    For even integer p, ||f(. + t) - f||_p^p comes for every shift at once
    from FFT cross-correlations of the centred field (binomial expansion of
    the power).  A shift whose sum is not above ``_FD_TRUST_FACTOR`` times
    the rounding scale of that expansion is recomputed by the direct
    per-shift difference, the one path for odd, non-integer and infinite p.
    The result matches the per-shift loop to rounding.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("besov_norm_fd requires s in (0, 1)")
    if not p >= 1.0:
        raise ValueError("besov_norm_fd requires p >= 1")
    ph = f if isinstance(f, PhysicalField) else to_physical(f)
    grid = ph.grid
    tnorm = shift_norms(grid)
    include = (tnorm > 0) & (tnorm <= grid.side_length / 2.0)
    norms = _difference_norms(ph, include, p)
    t = tnorm[include]
    if math.isinf(r):
        semi = float(np.max(norms / t**s))
    else:
        semi = float(np.sum(norms**r / t ** (2.0 + s * r)) * grid.cell_weight) ** (1.0 / r)
    return semi if homogeneous else lp_norm(ph, p) + semi


def bernstein_check(fh: SpectralField, j: int, alpha: float, p: float, q: float):
    """Ratios for the fractional Bernstein inequalities on a band-j field.

    Returns (lower_ratio, upper_ratio) where
      lower_ratio = ||Lambda^{2a} f||_q / (2^{2aj} ||f||_q)
      upper_ratio = ||Lambda^{2a} f||_q / (2^{2aj + 2j(1/p - 1/q)} ||f||_p)
    or None for degenerate (zero) input.
    """
    if alpha < 0:
        raise ValueError("bernstein_check requires alpha >= 0")
    if p > q:
        raise ValueError("bernstein_check requires p <= q")
    peak = np.abs(fh.coeffs).max()
    if peak == 0.0:
        return None
    idx = _band_indices(fh.grid)
    outside = (idx != j) & (np.abs(fh.coeffs) > 1e-13 * peak)
    if np.any(outside):
        raise ValueError(f"input is not band-limited to band j={j}")
    lam = to_physical(fractional_laplacian(fh, 2.0 * alpha))
    f_phys = to_physical(fh)
    num = lp_norm(lam, q)
    lower = num / (2.0 ** (2.0 * alpha * j) * lp_norm(f_phys, q))
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    upper = num / (2.0 ** (2.0 * alpha * j + 2.0 * j * (inv_p - inv_q)) * lp_norm(f_phys, p))
    return lower, upper


# ---------------------------------------------------------------------------
# commutators


def commutator_advection(u, theta: PhysicalField, alpha: float) -> PhysicalField:
    """[R_alpha, u.grad] theta with divergence-form dealiased products.

    u is a pair of physical velocity components, assumed divergence-free
    (advisory).  The result has mean mode exactly zero.
    """
    u1, u2 = u
    if u1.grid != theta.grid or u2.grid != theta.grid:
        raise ValueError("grid mismatch in commutator_advection")
    th_hat = dealias(to_spectral(theta))
    rth = to_physical(riesz_alpha(th_hat, alpha))

    def div_product(f: PhysicalField) -> np.ndarray:
        return grad(spectral_product(u1, f))[0].coeffs + grad(spectral_product(u2, f))[1].coeffs

    adv_theta = div_product(to_physical(th_hat))
    first = riesz_alpha(SpectralField(theta.grid, adv_theta), alpha).coeffs
    second = div_product(rth)
    return to_physical(mean_free(SpectralField(theta.grid, first - second)))


def commutator_multiplier(f: PhysicalField, g: PhysicalField, alpha: float) -> PhysicalField:
    """[R_alpha, f] g = R_alpha(f g) - f R_alpha(g), dealiased products."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch in commutator_multiplier")
    g_hat = dealias(to_spectral(g))
    first = riesz_alpha(spectral_product(f, to_physical(g_hat)), alpha)
    second = spectral_product(f, to_physical(riesz_alpha(g_hat, alpha)))
    return to_physical(mean_free(SpectralField(f.grid, first.coeffs - second.coeffs)))


def _component_norm(components: list[float]) -> float:
    return math.sqrt(sum(c * c for c in components))


def commutator_estimate_ratio(
    u,
    theta: PhysicalField,
    alpha: float,
    s: float,
    delta: float,
    q: float,
    q1: float,
    q2: float,
    r: float,
) -> float:
    """Measured LHS/RHS for the multiplier-commutator Besov estimate.

    LHS: ||[R_alpha, u] theta||_{B^s_{q,r}} (componentwise, combined in l^2);
    RHS: ||u||_{B^delta_{q1,inf}} * ||theta||_{B^{s+1-alpha-delta}_{q2,r}}.
    Index preconditions are enforced and named on violation.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("index constraint violated: s must lie in (0, 1)")
    if not 0.0 < delta <= 1.0:
        raise ValueError("index constraint violated: delta must lie in (0, 1]")
    if not s + 1.0 - alpha - delta < 0.0:
        raise ValueError("index constraint violated: s + 1 - alpha - delta must be < 0")
    inv = lambda x: 0.0 if math.isinf(x) else 1.0 / x
    if abs(inv(q) - inv(q1) - inv(q2)) > 1e-12:
        raise ValueError("index constraint violated: 1/q must equal 1/q1 + 1/q2")
    comps = [commutator_multiplier(ui, theta, alpha) for ui in u]
    lhs = _component_norm([besov_norm(c, BesovIndex(s, q, r)) for c in comps])
    u_norm = _component_norm([besov_norm(ui, BesovIndex(delta, q1, math.inf)) for ui in u])
    th_norm = besov_norm(theta, BesovIndex(s + 1.0 - alpha - delta, q2, r))
    rhs = u_norm * th_norm
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def torus_convolution(phi: PhysicalField, g: PhysicalField) -> PhysicalField:
    """(phi * g)(x) = sum_y phi(y) g(x - y) (L/n)^2, exact circular sum."""
    if phi.grid != g.grid:
        raise ValueError("grid mismatch in torus_convolution")
    # the product of two forward-normalized spectra carries 1/n^2 once too often
    vals = irfft2(rfft2(phi.values) * rfft2(g.values)) * (phi.grid.n**2 * phi.grid.cell_weight)
    return PhysicalField(phi.grid, vals)


def convolution_commutator_ratio(
    phi: PhysicalField,
    f: PhysicalField,
    g: PhysicalField,
    delta: float,
    q: float,
    q1: float,
    q2: float,
    r1: float,
    r2: float,
) -> float:
    """Measured LHS/RHS for ||phi*(fg) - f (phi*g)||_q against the
    |x|-weighted mollifier norm times ||f||_{Bdot^delta_{q1,r1}} ||g||_{q2}."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("index constraint violated: delta must lie in (0, 1]")
    inv = lambda x: 0.0 if math.isinf(x) else 1.0 / x
    if abs(inv(q) - inv(q1) - inv(q2)) > 1e-12:
        raise ValueError("index constraint violated: 1/q must equal 1/q1 + 1/q2")
    if abs(inv(r1) + inv(r2) - 1.0) > 1e-12:
        raise ValueError("index constraint violated: 1/r1 + 1/r2 must equal 1")
    grid = phi.grid
    fg = PhysicalField(grid, f.values * g.values)
    lhs_field = PhysicalField(
        grid, torus_convolution(phi, fg).values - f.values * torus_convolution(phi, g).values
    )
    lhs = lp_norm(lhs_field, q)
    weight = shift_norms(grid) ** (delta + 2.0 / r1)
    phi_norm = lp_norm(PhysicalField(grid, weight * phi.values), r2)
    f_norm = besov_norm_fd(f, delta, q1, r1, homogeneous=True) if delta < 1.0 else lp_norm(
        to_physical(grad(to_spectral(f))[0]), q1
    )
    rhs = phi_norm * f_norm * lp_norm(g, q2)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def interp_inequality_ratio(theta: PhysicalField, beta: float) -> float:
    """Sup norm of grad(perp_grad Lambda^{beta-3} d1 theta) over
    ||theta||_2 + ||grad theta||_inf (constant-free quotient)."""
    if not 0.0 < beta < 1.0:
        raise ValueError("interp_inequality_ratio requires beta in (0, 1)")
    th_hat = to_spectral(theta)
    m = fractional_laplacian(grad(th_hat)[0], beta - 3.0)
    w1, w2 = perp_grad(m)
    sup = 0.0
    for comp in (w1, w2):
        g1, g2 = grad(comp)
        sup = max(sup, np.abs(to_physical(g1).values).max(), np.abs(to_physical(g2).values).max())
    denom = lp_norm(theta, 2) + grad_sup(th_hat)
    if denom == 0.0:
        return 0.0
    return sup / denom


def chain_rule_besov_ratio(G: PhysicalField, s: float, alpha: float, q: float) -> float:
    """Measured ratio for the fractional chain rule on G|G|^{q-2}:
    ||Lambda^s(G|G|^{q-2})||_2 over ||G||_{2q/(2-alpha)}^{q-2} ||G||_{Hdot^sigma},
    sigma = 2 + s - alpha - 2(2-alpha)/q."""
    if not 0.0 < s < 1.0:
        raise ValueError("index constraint violated: s must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("index constraint violated: alpha must lie in (0, 1)")
    if q < 2.0:
        raise ValueError("index constraint violated: q must be >= 2")
    gh = to_spectral(G)
    powed = PhysicalField(G.grid, G.values * np.abs(G.values) ** (q - 2.0))
    lam = fractional_laplacian(to_spectral(powed), s)
    lhs = lp_norm(to_physical(lam), 2)
    sigma = 2.0 + s - alpha - 2.0 * (2.0 - alpha) / q
    rhs = lp_norm(G, 2.0 * q / (2.0 - alpha)) ** (q - 2.0) * sobolev_norm(gh, sigma)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs
