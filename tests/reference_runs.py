"""Shared reference-run recipe for regression freezing and acceptance checks.

The recipe is fixed: n = 128 grid on the 2*pi torus, random-band initial
data with seed 0 and unit amplitude, nu = kappa = 1, critical beta, a fixed
time step dt = 0.01 (below every CFL cap for this data) to T = 1, snapshots
every 10 steps.  The records are a ``RunMonitor``'s, as in ``bq2d run``
(the spread measured over |h| < OSS_L).  Frozen outputs are guarded at 1e-10
relative: they verify determinism and stability of the monitors, not the
underlying theorems.
"""

from bq2d.monitors import RunMonitor, monitor_indices
from bq2d.solver import StepperConfig, initial_data, step
from bq2d.spectral import FlowParams, GridSpec

N = 128
SEED = 0
DT = 0.01
T_END = 1.0
SNAP_EVERY = 10
OSS_L = 0.2  # the run default


def reference_run(alpha: float):
    """Returns (snapshots, records, params); snapshots and records share
    indices (every SNAP_EVERY steps plus the final state)."""
    grid = GridSpec(N)
    params = FlowParams(1.0, 1.0, alpha, 1.0 - alpha, critical=True)
    q, s = monitor_indices(alpha)
    cur = state = initial_data("random-band", SEED, grid, amplitude=1.0)
    cfg = StepperConfig(dt_init=DT, cfl_number=0.9, t_end=T_END)

    monitor = RunMonitor(state, params, q, s, OSS_L)
    snapshots, records = [state], [monitor.initial]
    n_steps = round(T_END / DT)
    while monitor.steps < n_steps:
        cur = step(cur, params, cfg, dt=DT)
        monitor.advance(cur)
        if monitor.steps % SNAP_EVERY == 0 or monitor.steps == n_steps:
            snapshots.append(cur)
            records.append(monitor.record(cur))
    return snapshots, records, params
