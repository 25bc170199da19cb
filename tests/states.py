"""States set from physical fields, for tests that choose theta and omega."""

from bq2d.solver import SimState
from bq2d.spectral import dealias, to_spectral


def state_of(theta, omega, t=0.0):
    """The state whose coefficients are the dealiased rfft2 of ``theta`` and ``omega``."""
    return SimState(theta.grid, tuple(dealias(to_spectral(f)).coeffs for f in (theta, omega)), t)
