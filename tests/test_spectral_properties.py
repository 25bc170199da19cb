"""Property tests of the spectral symbol table and of the half-plane
operators against the full-plane oracle of ``full_plane`` (run when
hypothesis is installed)."""

import numpy as np
import pytest

import full_plane as fp
from bq2d.spectral import (
    GridSpec,
    PhysicalField,
    SpectralField,
    biot_savart,
    dealias,
    fractional_laplacian,
    grad,
    kpow,
    l2_norm_spectral,
    lp_norm,
    perp_grad,
    rfft2,
    riesz_alpha,
    to_physical,
    v_from_theta,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

exponents = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@hypothesis.given(half_n=st.integers(4, 32), a=exponents, b=exponents)
@hypothesis.settings(max_examples=60, deadline=None)
def test_kpow_exponents_add(half_n, a, b):
    grid = GridSpec(2 * half_n)
    np.testing.assert_allclose(kpow(grid, a) * kpow(grid, b), kpow(grid, a + b), rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# the half plane against the full-plane oracle: random real fields (full
# spectrum, Nyquist lines included) on random even grids and side lengths


def _layouts(half_n, L, fraction, seed):
    """A random real field, its full-plane oracle coefficients and its
    half-plane ``SpectralField``."""
    grid = GridSpec(2 * half_n, side_length=L, dealias_fraction=fraction)
    f = PhysicalField(grid, np.random.default_rng(seed).standard_normal((grid.n, grid.n)))
    return f, fp.to_spectral(f.values), SpectralField(grid, rfft2(f.values))


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)


grids = dict(
    half_n=st.integers(4, 32),
    L=st.floats(0.5, 30.0, allow_nan=False, allow_infinity=False),
    fraction=st.sampled_from([0.5, 2.0 / 3.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
orders = st.floats(0.05, 0.95, allow_nan=False, allow_infinity=False)


@hypothesis.given(**grids)
@hypothesis.settings(max_examples=40, deadline=None)
def test_parseval_in_both_layouts(half_n, L, fraction, seed):
    f, full, half = _layouts(half_n, L, fraction, seed)
    want = lp_norm(f, 2)
    assert abs(fp.l2_norm(f.grid, full) - want) <= 1e-12 * want
    assert abs(l2_norm_spectral(half) - want) <= 1e-12 * want


@hypothesis.given(beta=orders, **grids)
@hypothesis.settings(max_examples=40, deadline=None)
def test_v_from_theta_is_biot_savart_of_riesz_in_both_layouts(beta, half_n, L, fraction, seed):
    """The identity on the half plane, and the half-plane velocity against
    the full-plane composition on the real field R_alpha theta (its
    Hermitian projection; the raw product keeps an even Nyquist-row part)."""
    _, full, half = _layouts(half_n, L, fraction, seed)
    riesz = fp.hermitian_symmetrize(fp.riesz_alpha(half.grid, full, 1.0 - beta))
    want = fp.biot_savart(half.grid, riesz)
    for got, same, ref in zip(v_from_theta(half, beta), biot_savart(riesz_alpha(half, 1.0 - beta)), want):
        _assert_close(got.coeffs, same.coeffs)
        _assert_close(to_physical(got).values, fp.to_physical(ref))


@hypothesis.given(gamma=st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False), alpha=orders, **grids)
@hypothesis.settings(max_examples=40, deadline=None)
def test_half_plane_operators_extend_to_full_plane_ones(gamma, alpha, half_n, L, fraction, seed):
    """A half-plane operator followed by ``full_plane`` gives the full-plane
    operator's real part (its Hermitian projection, what ``to_physical``
    keeps); for the even symbols that is the full-plane result itself."""
    _, full, half = _layouts(half_n, L, fraction, seed)
    grid = half.grid
    operators = (
        (lambda fh: (fractional_laplacian(fh, gamma),), lambda c: (fp.fractional_laplacian(grid, c, gamma),)),
        (lambda fh: (riesz_alpha(fh, alpha),), lambda c: (fp.riesz_alpha(grid, c, alpha),)),
        (lambda fh: (dealias(fh),), lambda c: (fp.dealias(grid, c),)),
        (biot_savart, lambda c: fp.biot_savart(grid, c)),
        (grad, lambda c: fp.grad(grid, c)),
        (perp_grad, lambda c: fp.perp_grad(grid, c)),
    )
    for op, oracle in operators:
        for got, want in zip(op(half), oracle(full)):
            _assert_close(fp.full_plane(got.coeffs), fp.hermitian_symmetrize(want))
            _assert_close(to_physical(got).values, fp.to_physical(want))
    _assert_close(fp.full_plane(fractional_laplacian(half, gamma).coeffs), fp.fractional_laplacian(grid, full, gamma))
