"""Littlewood-Paley decomposition, Besov norms and commutator estimates.

Dyadic blocks come in two variants:

* ``sharp`` (default): block j keeps exactly the modes with
  2^j <= |k| < 2^{j+1}, a mask of the cached per-mode band index; the blocks
  partition the retained modes, so the reconstruction sum equals the field
  coefficient-by-coefficient.
* ``smooth``: a fixed C-infinity radial bump supported in the annulus
  2^{j-1} <= |k| <= 2^{j+1}; the weights telescope to 1 on every nonzero
  mode of the grid.

The inhomogeneous low block j = -1 collects every mode with |k| < 1
(on the default 2*pi torus that is the mean mode alone).  Homogeneous
norms drop the mean mode only, which is exact for side_length <= 4*pi
(every other mode has |k| >= 1/2); larger tori are refused.

For r = inf on sharp blocks, ``besov_norm`` transforms only the bands that
can hold the sup.  By Hoelder between sup|f| <= S1 = sum |c| and Parseval,
||f||_2^2 <= |T| S2 with S2 = sum |c|^2 (sums over the full-plane modes),
2^{js} ||Delta_j f||_p <= 2^{js} |T|^{1/p} S1^a S2^{(1-a)/2}, a = max(0, 1 - 2/p).
A band whose S2 is below 2^-970, where the squares may have underflowed,
takes the looser S1 alone (S2 <= S1^2).
Bands go in falling order of that bound until the next one, times 1 + 1e-9
for rounding, is below the largest exact value: the max is bitwise
``block_norms``'.  No lower bound is used: Parseval's fails on bands of
rounding noise, whose non-Hermitian part in columns 0 and n/2 the inverse
transform drops.

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

The commutators [R_alpha, P] f share one routine on coefficients,
``riesz_commutator``, which ``solver.g_equation_residual`` calls too.

Measured-constant protocol: ratio checks for estimates whose constants
are not pinned down return the raw LHS/RHS quotient; harnesses assert
stability of ensemble maxima across resolutions, never a specific value.
Every recorded regression value names its block variant.
"""

from __future__ import annotations

import contextlib
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
    advection,
    dealias,
    fractional_laplacian,
    grad,
    grad_sup,
    irfft2,
    lp_norm,
    lp_norm_values,
    mean_free,
    perp_grad,
    rfft2,
    riesz_alpha,
    shift_norms,
    shift_scan,
    sobolev_norm,
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


@lru_cache(maxsize=64)
def _band_indices(grid: GridSpec) -> np.ndarray:
    """Integer band index per mode: floor(log2 |k|), and -1 for |k| < 1."""
    _, _, kmag = wavevectors(grid)
    idx = np.full(kmag.shape, -1, dtype=int)
    unit = kmag >= 1.0
    idx[unit] = np.floor(np.log2(kmag[unit])).astype(int)
    return _read_only(idx)


def max_band_index(grid: GridSpec) -> int:
    """The largest band index of the grid's modes; -1 on a torus whose every |k| < 1."""
    return int(_band_indices(grid).max())


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


_BOUND_MARGIN = 1.0 + 1e-9  # the rounding allowance of a band bound (module docstring)
_SQUARES_FLOOR = np.finfo(float).tiny / np.finfo(float).eps  # 2^-970: below it, S2's underflow can pass rounding


def _weighted_norm(j: int, coeffs: np.ndarray, grid: GridSpec, idx: BesovIndex) -> float:
    """2^{js} ||f||_p of one block's coefficients: 0.0 untransformed if empty;
    ValueError if it overflows, or if the quadrature weight (L/n)^2 is 0, which
    would make the norm of a nonzero block 0.  A block too small for |f|^p
    still gets its norm (``spectral.lp_norm_values``)."""
    if not np.any(coeffs):
        return 0.0
    if grid.cell_weight == 0.0:
        raise ValueError(f"||Delta_j f||_p of a nonzero block underflows to 0 at j={j}: (L/n)^2 is 0")
    try:
        with np.errstate(over="ignore"):  # an overflow is the ValueError below, with no warning ahead of it
            value = 2.0 ** (j * idx.s) * lp_norm(PhysicalField(grid, irfft2(coeffs)), idx.p)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"2^(j s) ||Delta_j f||_p overflows at j={j}, s={idx.s!r}")
    return value


def block_norms(fh: SpectralField, idx: BesovIndex, smooth: bool = False) -> list[tuple[int, float]]:
    """(j, 2^{js} ||Delta_j f||_p) for every block of ``dyadic_blocks``: the
    per-band routine of ``besov_norm`` and ``bq2d besov``."""
    return [(b.j, _weighted_norm(b.j, b.band.coeffs, fh.grid, idx)) for b in dyadic_blocks(fh, smooth)]


def _band_bounds(fh: SpectralField, idx: BesovIndex) -> np.ndarray:
    """Upper bounds on 2^{js} ||Delta_j f||_p of the sharp bands (module docstring); columns
    0 and n/2 count once and the others twice, as in ``half_plane_sum``."""
    grid = fh.grid
    mag = np.abs(fh.coeffs)
    mirror = np.full(mag.shape[1], 2.0)
    mirror[[0, -1]] = 1.0
    bins = _band_indices(grid).ravel() + 1  # band j in bin j + 1
    a = max(0.0, 1.0 - 2.0 * _inv(idx.p))
    with np.errstate(over="ignore", invalid="ignore"):  # a bound past the float range sends besov_norm to j order
        s1 = np.bincount(bins, (mag * mirror).ravel())
        s2 = np.bincount(bins, (mag * mag * mirror).ravel())
        weight = 2.0 ** (np.arange(-1, len(s1) - 1) * idx.s) * np.float64(grid.side_length) ** (2.0 * _inv(idx.p))
        return weight * np.where(s2 < _SQUARES_FLOOR, s1, s1**a * s2 ** ((1.0 - a) / 2.0))


def _sharp_sup(fh: SpectralField, idx: BesovIndex) -> float:
    """sup_j 2^{js} ||Delta_j f||_p of the sharp bands whose bound can reach the largest
    exact value so far; ValueError if a bound is not finite or a transformed block raises it."""
    bounds = _band_bounds(fh, idx)
    if not np.all(np.isfinite(bounds)):
        raise ValueError("a band bound is past the float range")
    band = _band_indices(fh.grid)
    best = 0.0
    for i in np.argsort(-bounds, kind="stable").tolist():  # band j = i - 1
        if bounds[i] * _BOUND_MARGIN < best:  # bounds fall, so no later band can reach ``best``
            break
        best = max(best, _weighted_norm(i - 1, np.where(band == i - 1, fh.coeffs, 0.0), fh.grid, idx))
    return best


def besov_norm(f, idx: BesovIndex, smooth: bool = False) -> float:
    """Block Besov norm ||2^{js} ||Delta_j f||_p||_{l^r}; ``f`` is a physical
    field or its coefficients.  For r = inf on sharp blocks, a band ruled out by its bound is
    not transformed, so it raises nothing; any other ValueError names the lowest j."""
    fh = f if isinstance(f, SpectralField) else to_spectral(f)
    if idx.homogeneous:
        if fh.grid.side_length > 2.0 * TWO_PI:
            raise ValueError("homogeneous Besov norms need side_length <= 4 pi, where every nonzero |k| >= 1/2")
        fh = mean_free(fh)
    if math.isinf(idx.r) and not smooth:
        with contextlib.suppress(ValueError):
            return _sharp_sup(fh, idx)
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
    norm = lambda d: lp_norm_values(d, p, ph.grid.cell_weight)  # no per-shift rescan for non-finite values
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


def _inv(x: float) -> float:
    """1/x, with 1/inf = 0."""
    return 0.0 if math.isinf(x) else 1.0 / x


def _check_holder(q: float, q1: float, q2: float) -> None:
    """The Hoelder relation 1/q = 1/q1 + 1/q2 of an estimate's exponents."""
    if abs(_inv(q) - _inv(q1) - _inv(q2)) > 1e-12:
        raise ValueError("index constraint violated: 1/q must equal 1/q1 + 1/q2")


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
    upper = num / (2.0 ** (2.0 * alpha * j + 2.0 * j * (_inv(p) - _inv(q))) * lp_norm(f_phys, p))
    return lower, upper


# ---------------------------------------------------------------------------
# commutators


def riesz_commutator(apply, f_hat: SpectralField, alpha: float) -> np.ndarray:
    """[R_alpha, P] f = R_alpha P f - P R_alpha f on half-plane coefficients,
    with f the inverse transform of ``f_hat`` and ``apply`` taking a
    physical field to the dealiased coefficients of P of it."""
    first = riesz_alpha(SpectralField(f_hat.grid, apply(to_physical(f_hat))), alpha).coeffs
    return first - apply(to_physical(riesz_alpha(f_hat, alpha)))


def commutator_advection(u, theta: PhysicalField, alpha: float) -> PhysicalField:
    """[R_alpha, u.grad] theta with divergence-form dealiased products.

    u is a pair of physical velocity components, assumed divergence-free
    (advisory).  The result has mean mode exactly zero.
    """
    u1, u2 = u
    if u1.grid != theta.grid or u2.grid != theta.grid:
        raise ValueError("grid mismatch in commutator_advection")
    grid, u = theta.grid, (u1.values, u2.values)
    comm = riesz_commutator(lambda f: advection(u, f.values, grid), dealias(to_spectral(theta)), alpha)
    return to_physical(mean_free(SpectralField(grid, comm)))


def commutator_multiplier(f: PhysicalField, g: PhysicalField, alpha: float) -> PhysicalField:
    """[R_alpha, f] g = R_alpha(f g) - f R_alpha(g), dealiased products."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch in commutator_multiplier")
    product = lambda h: dealias(to_spectral(PhysicalField(f.grid, f.values * h.values))).coeffs
    comm = riesz_commutator(product, dealias(to_spectral(g)), alpha)
    return to_physical(mean_free(SpectralField(f.grid, comm)))


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
    _check_holder(q, q1, q2)
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
    _check_holder(q, q1, q2)
    if abs(_inv(r1) + _inv(r2) - 1.0) > 1e-12:
        raise ValueError("index constraint violated: 1/r1 + 1/r2 must equal 1")
    grid = phi.grid
    fg = PhysicalField(grid, f.values * g.values)
    lhs_field = PhysicalField(
        grid, torus_convolution(phi, fg).values - f.values * torus_convolution(phi, g).values
    )
    lhs = lp_norm(lhs_field, q)
    weight = shift_norms(grid) ** (delta + 2.0 / r1)
    phi_norm = lp_norm(PhysicalField(grid, weight * phi.values), r2)
    if delta < 1.0:
        f_norm = besov_norm_fd(f, delta, q1, r1, homogeneous=True)
    else:  # ||f||_{Bdot^1} as || |grad f| ||_{q1}
        d1, d2 = (to_physical(d).values for d in grad(to_spectral(f)))
        f_norm = lp_norm(PhysicalField(grid, np.hypot(d1, d2)), q1)
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
