"""Shared reference-run recipe for regression freezing and acceptance checks.

The recipe is fixed: n = 128 grid on the 2*pi torus, random-band initial
data with seed 0 and unit amplitude, nu = kappa = 1, critical beta, a fixed
time step dt = 0.01 (below every CFL cap for this data) to T = 1, snapshots
every 10 steps.  Frozen outputs are guarded at 1e-10 relative: they verify
determinism and stability of the monitors, not the underlying theorems.
"""

import math

from bq2d.monitors import dissipation_rates, monitor_indices, snapshot_record
from bq2d.solver import SimState, StepperConfig, initial_data, step
from bq2d.spectral import FlowParams, GridSpec

N = 128
SEED = 0
DT = 0.01
T_END = 1.0
SNAP_EVERY = 10


def reference_run(alpha: float):
    """Returns (snapshots, records, params); snapshots and records share
    indices (every SNAP_EVERY steps plus the final state)."""
    grid = GridSpec(N)
    params = FlowParams(1.0, 1.0, alpha, 1.0 - alpha, critical=True)
    q, s = monitor_indices(alpha)
    state = initial_data("random-band", SEED, grid, amplitude=1.0)
    cfg = StepperConfig(dt_init=DT, cfl_number=0.9, t_end=T_END)

    snapshots = [state]
    records = [snapshot_record(state, params, q, s, 0.0, 0.0)]
    diss_u = diss_G = 0.0
    rate_u, rate_G = dissipation_rates(state, params)
    n_steps = round(T_END / DT)
    cur = state
    for k in range(1, n_steps + 1):
        cur = step(cur, params, cfg, dt=DT)
        new_u, new_G = dissipation_rates(cur, params)
        diss_u += 0.5 * DT * (rate_u + new_u)
        diss_G += 0.5 * DT * (rate_G + new_G)
        rate_u, rate_G = new_u, new_G
        if k % SNAP_EVERY == 0 or k == n_steps:
            snapshots.append(cur)
            records.append(snapshot_record(cur, params, q, s, diss_u, diss_G))
    return snapshots, records, params
