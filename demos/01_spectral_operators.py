"""Tour of the spectral toolbox: transforms, fractional Laplacian, the Riesz
operator R_alpha = Lambda^{-alpha} d1, Biot-Savart, and the temperature-driven
velocity v = -perp_grad Lambda^{beta-3} d1 theta.

Everything here is a Fourier multiplier on the periodic torus, so the checks
are closed-form and hold to rounding.
"""

import math

import numpy as np

from bq2d.spectral import (
    GridSpec,
    biot_savart,
    coordinates,
    field_from_function,
    fractional_laplacian,
    grad,
    half_plane_sum,
    lp_norm,
    random_band_spectral,
    riesz_alpha,
    to_physical,
    to_spectral,
    v_from_theta,
)

grid = GridSpec(n=64)
x1, x2 = coordinates(grid)
print(f"grid: {grid.n} x {grid.n} on a torus of side {grid.side_length:.6f}")

# --- fractional Laplacian on an eigenfunction -------------------------------
alpha = 0.9
f = field_from_function(grid, lambda a, b: np.cos(2 * b))
lam = to_physical(fractional_laplacian(to_spectral(f), alpha))
print("\nLambda^0.9 cos(2 x2) = 2^0.9 cos(2 x2):")
print("   max error:", np.abs(lam.values - 2.0**alpha * np.cos(2 * x2)).max())

# --- the Riesz operator hiding the vortex-stretching source -----------------
th = field_from_function(grid, lambda a, b: np.sin(2 * a))
rz = to_physical(riesz_alpha(to_spectral(th), 0.5))
print("\nR_0.5 sin(2 x1) = sqrt(2) cos(2 x1):")
print("   max error:", np.abs(rz.values - math.sqrt(2) * np.cos(2 * x1)).max())

# --- Biot-Savart: divergence-free by construction ---------------------------
rng = np.random.default_rng(0)
omega_hat = random_band_spectral(grid, 1, 12, rng)
u1, u2 = biot_savart(omega_hat)
div = np.abs(grad(u1)[0].coeffs + grad(u2)[1].coeffs).max()
print("\nBiot-Savart of a random vorticity field:")
print("   max |k . u_hat| =", div)

# --- v from theta agrees with Biot-Savart of the Riesz image ----------------
beta = 0.35
theta_hat = random_band_spectral(grid, 1, 12, rng)
v1a, v2a = v_from_theta(theta_hat, beta)
v1b, v2b = biot_savart(riesz_alpha(theta_hat, 1.0 - beta))
err = max(np.abs(v1a.coeffs - v1b.coeffs).max(), np.abs(v2a.coeffs - v2b.coeffs).max())
print(f"\nv_from_theta(beta={beta}) vs biot_savart(riesz_alpha(theta, {1-beta})):")
print("   max coefficient difference:", err)

# --- Parseval with the (1/L^2) integral normalization -----------------------
# the coefficients are the rfft2 half plane; half_plane_sum counts each
# column with its mirror to sum over the whole plane
f = to_physical(theta_hat)
lhs = lp_norm(f, 2) ** 2
rhs = grid.side_length**2 * half_plane_sum(np.abs(theta_hat.coeffs) ** 2)
print("\nParseval check: ||f||_2^2 vs L^2 sum |c|^2:")
print(f"   {lhs:.12f} vs {rhs:.12f}")
