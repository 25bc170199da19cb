"""Run the coupled vorticity-temperature system at critical dissipation and
watch the global bounds: the temperature maximum principle, the linear energy
growth estimate, and the combined quantity G = omega - R_alpha theta whose
L^2, L^q and Besov norms stay bounded.

The time stepper treats the fractional dissipation exactly through an
integrating factor, so the linear part of the flow is machine-precision.
"""

from bq2d.monitors import bound_margins, dissipation_rates, index_window, monitor_indices, snapshot_record
from bq2d.solver import StepperConfig, initial_data, run
from bq2d.spectral import FlowParams, GridSpec

alpha = 0.95
grid = GridSpec(n=128)
params = FlowParams(nu=1.0, kappa=1.0, alpha=alpha, beta=1.0 - alpha, critical=True)
win = index_window(alpha)
q, s = monitor_indices(alpha)
print(f"alpha = {alpha}, beta = {params.beta:.2f} (critical)")
print(f"monitor indices: q = {q:.4f} in ({win.q_low_sqdef:.4f}, {win.q0:.4f}), s = {s:.2f}")

state = initial_data("random-band", seed=0, grid=grid, amplitude=1.0)
rec0 = snapshot_record(state, params, q, s, 0.0, 0.0)
print(
    f"\n{'t':>6} {'theta_L2':>10} {'theta_Linf':>10} {'u_L2':>8} "
    f"{'G_L2':>8} {'G_Lq':>8} {'G_Besov':>8} {'mp_Linf':>10} {'energy':>10}"
)

cfg = StepperConfig(dt_init=0.01, cfl_number=0.4, t_end=1.0)
diss_u = diss_G = 0.0
rate_u, rate_G = dissipation_rates(state, params)
prev_t = 0.0
count = 0
for cur in run(state, params, cfg):
    new_u, new_G = dissipation_rates(cur, params)
    diss_u += 0.5 * (cur.t - prev_t) * (rate_u + new_u)
    diss_G += 0.5 * (cur.t - prev_t) * (rate_G + new_G)
    rate_u, rate_G, prev_t = new_u, new_G, cur.t
    count += 1
    if count % 20 == 0 or cur.t >= cfg.t_end:
        rec = snapshot_record(cur, params, q, s, diss_u, diss_G)
        bound_margins(rec, rec0)
        print(
            f"{rec.t:6.2f} {rec.theta_l2:10.5f} {rec.theta_linf:10.5f} "
            f"{rec.u_l2:8.4f} {rec.G_l2:8.4f} {rec.G_lq:8.4f} {rec.G_besov:8.4f} "
            f"{rec.margin_maxprinciple_linf:10.2e} {rec.margin_energy_linear:10.2e}"
        )

print("\nnonnegative margins = the bounds held along the trajectory;")
print("the dissipation integral of G accumulated to", f"{diss_G:.5f}")
print("(the monitored quantity ||G||^2 + int ||Lam^(a/2) G||^2 stays finite).")
