"""Property tests of the spectral symbol table (run when hypothesis is installed)."""

import numpy as np
import pytest

from bq2d.spectral import GridSpec, kpow

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

exponents = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@hypothesis.given(half_n=st.integers(4, 32), a=exponents, b=exponents)
@hypothesis.settings(max_examples=60, deadline=None)
def test_kpow_exponents_add(half_n, a, b):
    grid = GridSpec(2 * half_n)
    np.testing.assert_allclose(kpow(grid, a) * kpow(grid, b), kpow(grid, a + b), rtol=1e-13, atol=0.0)
