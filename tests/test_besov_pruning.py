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


def _field(n, seed, steps, which):
    """theta, omega or G of a random-band state after ``steps`` steps, or raw
    complex normals whose columns 0 and n/2 are not Hermitian."""
    state = _state(n, seed, steps)
    if which == "G":
        return G_hat(state, ALPHA)
    if which == "raw":
        rng, shape = np.random.default_rng(seed), state.hats[0].shape
        return SpectralField(state.grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return state.theta_hat if which == "theta" else state.omega_hat


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
)
settings = hypothesis.settings(max_examples=150, deadline=None, derandomize=True)


@hypothesis.given(**cases)
@settings
def test_pruned_sup_is_the_max_over_every_block(n, seed, steps, which, q, s, homogeneous):
    fh = _field(n, seed, steps, which)
    idx = BesovIndex(s, q, math.inf, homogeneous)
    blocks = block_norms(mean_free(fh) if homogeneous else fh, idx)
    assert besov_norm(fh, idx) == lr_combine([v for _, v in blocks], math.inf)


@hypothesis.given(**cases)
@settings
def test_every_band_bound_holds(n, seed, steps, which, q, s, homogeneous):
    # up to the rounding margin the stopping rule allows for
    fh = _field(n, seed, steps, which)
    fh = mean_free(fh) if homogeneous else fh
    idx = BesovIndex(s, q, math.inf)
    bounds = _band_bounds(fh, idx)
    blocks = block_norms(fh, idx)
    assert len(bounds) == len(blocks)
    assert all(b * _BOUND_MARGIN >= v for b, (_, v) in zip(bounds, blocks))
