"""Property tests of the pruned r = inf path of ``besov_norm`` against the
max over every sharp block of ``block_norms`` (run when hypothesis is
installed)."""

import math
from functools import lru_cache

import numpy as np
import pytest

from bq2d.lp import _BOUND_MARGIN, BesovIndex, _band_bounds, besov_norm, block_norms, lr_combine
from bq2d.monitors import index_window
from bq2d.solver import G_hat, StepperConfig, initial_data, step
from bq2d.spectral import FlowParams, GridSpec, SpectralField, mean_free

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ALPHA = 0.95
WINDOW = index_window(ALPHA)
PARAMS = FlowParams(1.0, 1.0, ALPHA, 1.0 - ALPHA, critical=True)


@lru_cache(maxsize=None)
def _state(n, seed, steps):
    state = initial_data("random-band", seed, GridSpec(n))
    for _ in range(steps):
        state = step(state, PARAMS, StepperConfig(dt_init=0.01))
    return state


def _field(n, seed, steps, which, scale):
    """theta, omega or G of a random-band state after ``steps`` steps, or raw
    complex normals whose columns 0 and n/2 are not Hermitian, times ``scale``."""
    state = _state(n, seed, steps)
    if which == "G":
        coeffs = G_hat(state, ALPHA).coeffs
    elif which == "raw":
        rng, shape = np.random.default_rng(seed), state.hats[0].shape
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    else:
        coeffs = state.hats[0 if which == "theta" else 1]
    return SpectralField(state.grid, scale * coeffs)


cases = dict(
    n=st.sampled_from([16, 32, 64]),
    seed=st.integers(0, 3),
    steps=st.integers(0, 2),
    which=st.sampled_from(["theta", "omega", "G", "raw"]),
    q=st.one_of(
        st.floats(WINDOW.q_low_sqdef, WINDOW.q0, exclude_min=True, exclude_max=True),
        st.sampled_from([1.0, 2.0, math.inf]),
    ),
    s=st.floats(-1.0, 1.0, allow_nan=False),
    homogeneous=st.booleans(),
    # down to fields whose |f|^q and |c|^2 underflow
    scale=st.one_of(st.just(1.0), st.integers(-300, -100).map(lambda e: 10.0**e)),
)
settings = hypothesis.settings(max_examples=150, deadline=None, derandomize=True)


@hypothesis.given(**cases)
@settings
def test_pruned_sup_is_the_max_over_every_block(n, seed, steps, which, q, s, homogeneous, scale):
    fh = _field(n, seed, steps, which, scale)
    idx = BesovIndex(s, q, math.inf, homogeneous)
    blocks = block_norms(mean_free(fh) if homogeneous else fh, idx)
    assert besov_norm(fh, idx) == lr_combine([v for _, v in blocks], math.inf)


@hypothesis.given(**cases)
@settings
def test_every_band_bound_holds(n, seed, steps, which, q, s, homogeneous, scale):
    # up to the rounding margin the stopping rule allows for
    fh = _field(n, seed, steps, which, scale)
    fh = mean_free(fh) if homogeneous else fh
    idx = BesovIndex(s, q, math.inf)
    bounds = _band_bounds(fh, idx)
    blocks = block_norms(fh, idx)
    assert len(bounds) == len(blocks)
    assert all(b * _BOUND_MARGIN >= v for b, (_, v) in zip(bounds, blocks))
