"""Gallery of the pointwise inequalities and the admissible-index window:
the convexity (Cordoba-type) margin, the nonlinear lower bounds with their
measured constants, the only-small-shocks scan, and the (s, q) window that
closes exactly at alpha = (23 - sqrt(145))/12.
"""

import math

import numpy as np

from bq2d.monitors import (
    ALPHA_STAR,
    CONVEX_GAMMAS,
    cordoba_margin,
    cordoba_scale,
    difference_lower_bound_margin,
    gradient_lower_bound_margin,
    index_window,
)
from bq2d.solver import delta_star, oss_check, oss_weighted_profile
from bq2d.spectral import GridSpec, field_from_function, random_band_field

grid = GridSpec(128)
rng = np.random.default_rng(0)

# --- convexity margin ---------------------------------------------------------
print("convexity margins min_x [Gamma'(f) Lam^b f - Lam^b Gamma(f)] (>= 0):")
f = field_from_function(grid, lambda x1, x2: np.cos(x1))
m = cordoba_margin(f, 0.5, *CONVEX_GAMMAS["square"])
print(f"   f = cos(x1), Gamma = x^2, beta = 0.5: {m:.12f} (closed form 2^-0.5 = {2**-0.5:.12f})")
g = random_band_field(grid, 1, 10, rng)
for name, (gam, gp) in CONVEX_GAMMAS.items():
    margin = cordoba_margin(g, 0.5, gam, gp)
    scale = cordoba_scale(g, 0.5, gam, gp)
    print(f"   random field, Gamma = {name:7s}: margin/scale = {margin / scale:+.2e}")

# --- nonlinear lower bounds -----------------------------------------------------
print("\nnonlinear lower bounds (exact part >= 0, constants measured):")
exact, c0 = gradient_lower_bound_margin(g, 0.5, 4.0)
print(f"   gradient form:   exact-part min = {exact:+.3e}, measured C0 = {c0:.3f}")
exact_h, ch = difference_lower_bound_margin(g, (grid.n // 4, 0), 0.5)
print(f"   difference form: exact-part min = {exact_h:+.3e}, measured C = {ch:.4f}")

# --- only-small-shocks machinery -------------------------------------------------
print("\nonly-small-shocks scan:")
theta = field_from_function(grid, lambda x1, x2: np.sin(x1))  # Lipschitz constant 1
delta = 0.8
L = delta / 4.0  # the Lipschitz choice L = delta / (4 M0)
measured = oss_check(theta, L=L)
print(f"   delta = {delta}, L = delta/4 = {L}: measured oscillation {measured:.4f}"
      f" -> holds = {measured <= delta} (margin {delta - measured:.3f})")
print(f"   shock threshold scaling: doubling ||theta0||_inf multiplies delta* by "
      f"{delta_star(2.0, 0.5, 1.0) / delta_star(1.0, 0.5, 1.0):.6f} "
      f"(law: 2^(-2b/(2-b)) = {2.0 ** (-2 * 0.5 / 1.5):.6f})")
radii, sups = oss_weighted_profile(theta, beta=0.5, psi_coeff=1.0)
print(f"   weighted difference profile: sup over shifts = {sups.max():.4f}"
      f" <= (2 sup|theta|)^2 = {4.0:.1f}")

# --- the admissible index window ------------------------------------------------
print("\nadmissible (s, q) window for the regularity monitors:")
print(f"   threshold alpha0 = (23 - sqrt(145))/12 = {ALPHA_STAR:.6f}")
print(f"   {'alpha':>7} {'q_low':>8} {'q0':>8} {'s_max':>7}")
for alpha in (ALPHA_STAR, 0.92, 0.95, 0.99):
    win = index_window(alpha)
    tag = "  <- window closes here" if abs(alpha - ALPHA_STAR) < 1e-12 else ""
    print(f"   {alpha:7.4f} {win.q_low:8.4f} {win.q0:8.4f} {win.s_max:7.4f}{tag}")
