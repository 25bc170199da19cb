"""Index windows, global-bound margins, convexity inequalities and the
nonlinear lower bounds."""

import math

import numpy as np
import pytest

from bq2d.monitors import (
    ALPHA_STAR,
    CONVEX_GAMMAS,
    RunMonitor,
    bound_margins,
    check_besov_index,
    check_lq_index,
    cordoba_margin,
    cordoba_ratios,
    cordoba_scale,
    csv_header,
    difference_lower_bound_margin,
    dissipation_rates,
    frac_kernel_constant,
    gradient_lower_bound_margin,
    index_window,
    monitor_indices,
    snapshot_record,
    smoothed_hinge,
)
from bq2d.solver import SimState, StepperConfig, initial_data, oss_check, run, step
from bq2d.spectral import (
    FlowParams,
    GridSpec,
    constant_field,
    field_from_function,
    lp_norm,
    random_band_field,
)
from states import state_of

G64 = GridSpec(64)
PARAMS = FlowParams(1.0, 1.0, 0.9, 1.0 - 0.9, critical=True)


class TestIndexWindow:
    def test_q0_formula(self):
        assert abs(index_window(0.9).q0 - 4.4 / 1.7) <= 1e-12

    def test_alpha_star_value(self):
        assert abs(ALPHA_STAR - (23.0 - math.sqrt(145.0)) / 12.0) == 0.0
        assert round(ALPHA_STAR, 4) == 0.9132

    def test_s_max(self):
        assert abs(index_window(0.95).s_max - 0.85) <= 1e-12

    def test_window_nonempty_above_threshold(self):
        for alpha in np.linspace(ALPHA_STAR + 1e-6, 0.999, 25):
            win = index_window(float(alpha))
            assert win.q_low < win.q0
            assert 0.7396 < win.s_max < 1.0

    def test_degenerate_at_threshold(self):
        win = index_window(ALPHA_STAR)
        assert abs(win.q_low - win.q0) <= 1e-12

    def test_rejects_low_alpha(self):
        with pytest.raises(ValueError, match="4/5"):
            index_window(0.75)

    def test_lq_window(self):
        check_lq_index(0.9, 2.3)
        with pytest.raises(ValueError, match="q0"):
            check_lq_index(0.9, 3.0)

    def test_besov_window(self):
        win = index_window(0.95)
        check_besov_index(0.95, 0.5, 0.5 * (win.q_low_sqdef + win.q0))
        with pytest.raises(ValueError, match="3\\*alpha - 2"):
            check_besov_index(0.95, 0.9, 2.3)
        with pytest.raises(ValueError, match="2/\\(2 alpha - 1\\)"):
            check_besov_index(0.95, 0.5, 2.05)

    @pytest.mark.parametrize(
        "alpha, q, s, expect",
        [
            # outside (4/5, 1) the monitors take plain norms
            (0.5, None, None, (3.0, 0.5)),
            (1.0, None, None, (3.0, 0.5)),
            (0.5, 1.0, 2.0, (1.0, 2.0)),
            (0.95, 2.5, 0.5, (2.5, 0.5)),
            # the Besov q-window is empty at 0.85: only the L^q window applies
            (0.85, 2.1, 0.3, (2.1, 0.3)),
            (0.9, 3.0, None, "q=3.0 outside the L^q window (2, q0) with q0=2.588235 at alpha=0.9"),
            (0.9, None, -3.0, "monitor_s=-3.0 violates 0 < s <= 3*alpha - 2 = 0.700000"),
            (0.95, 2.1, None, "q=2.1 violates 2.222222 = 2/(2 alpha - 1) < q < q0 = 3.111111"),
            (0.5, 0.5, None, "monitor indices must satisfy q >= 1 and s > 0"),
            (0.5, None, 0.0, "monitor indices must satisfy q >= 1 and s > 0"),
        ],
    )
    def test_monitor_indices(self, alpha, q, s, expect):
        if isinstance(expect, str):
            with pytest.raises(ValueError) as info:
                monitor_indices(alpha, q, s)
            assert str(info.value) == expect
        else:
            assert monitor_indices(alpha, q, s) == expect


def short_run(alpha=0.9, seed=0, n=64, t_end=0.3, amplitude=1.0):
    grid = GridSpec(n)
    params = FlowParams(1.0, 1.0, alpha, 1.0 - alpha, critical=True)
    st = initial_data("random-band", seed, grid, amplitude)
    states = [st]
    for s in run(st, params, StepperConfig(dt_init=0.02, t_end=t_end)):
        states.append(s)
    return states, params


class TestGlobalBoundMargins:
    def test_margin_zero_at_start(self):
        states, params = short_run(t_end=0.05)
        rec = snapshot_record(states[0], params, 2.3, 0.5, 0.0, 0.0)
        rec.margin_maxprinciple_l2 = rec.margin_maxprinciple_linf = rec.margin_energy_linear = 1.0
        bound_margins(rec, rec)
        assert rec.margin_maxprinciple_l2 == rec.margin_maxprinciple_linf == rec.margin_energy_linear == 0.0

    def test_pure_diffusion_margin_increases(self):
        grid = GridSpec(64)
        params = FlowParams(1.0, 1.0, 0.9, 0.1, critical=True)
        st = state_of(
            field_from_function(grid, lambda x1, x2: np.sin(x1) + 0.5 * np.sin(3 * x2)),
            constant_field(grid, 0.0),
        )
        # no flow ever develops from theta alone? buoyancy feeds omega, so
        # freeze transport by zeroing omega each step
        margins = []
        t0_l2 = lp_norm(st.theta, 2)
        cur = st
        for _ in range(10):
            cur = step(cur, params, StepperConfig(dt_init=0.02, t_end=1.0), dt=0.02)
            cur = state_of(cur.theta, constant_field(grid, 0.0), cur.t)
            margins.append(t0_l2 - lp_norm(cur.theta, 2))
        assert all(b > a for a, b in zip(margins, margins[1:]))
        assert margins[0] > 0

    def test_nonlinear_margins_within_band(self):
        states, params = short_run(t_end=0.5)
        rec0 = snapshot_record(states[0], params, 2.3, 0.5, 0.0, 0.0)
        for s in states[1:]:
            rec = snapshot_record(s, params, 2.3, 0.5, 0.0, 0.0)
            bound_margins(rec, rec0)
            band = 1e-6 * (1.0 + s.t)
            assert rec.margin_maxprinciple_l2 >= -band * rec0.theta_l2
            assert rec.margin_maxprinciple_linf >= -band * rec0.theta_linf
            assert rec.margin_energy_linear >= -band * max(rec0.u_l2, 1.0)

    def test_margins_are_bound_minus_value(self):
        # the arithmetic the run loop's diagnostics.csv columns have always had
        states, params = short_run(t_end=0.1)
        rec0 = snapshot_record(states[0], params, 2.3, 0.5, 0.0, 0.0)
        rec = snapshot_record(states[-1], params, 2.3, 0.5, 0.0, 0.0)
        bound_margins(rec, rec0)
        assert rec.margin_maxprinciple_l2 == rec0.theta_l2 - rec.theta_l2
        assert rec.margin_maxprinciple_linf == rec0.theta_linf - rec.theta_linf
        assert rec.margin_energy_linear == rec0.u_l2 + rec.t * rec0.theta_l2 - rec.u_l2
        assert rec.t > 0.0 and rec.margin_energy_linear > 0.0

    def test_decay_without_buoyancy_source(self):
        grid = GridSpec(64)
        params = FlowParams(1.0, 1.0, 0.9, 0.1, critical=True)
        st = initial_data("random-band", 3, grid)
        st = state_of(constant_field(grid, 0.0), st.omega)
        rec0 = snapshot_record(st, params, 2.3, 0.5, 0.0, 0.0)
        last = st
        for last in run(st, params, StepperConfig(dt_init=0.02, t_end=0.3)):
            pass
        rec = snapshot_record(last, params, 2.3, 0.5, 0.0, 0.0)
        assert rec.u_l2 <= rec0.u_l2  # theta0 = 0: plain decay


class TestGMonitors:
    def test_zero_data_series(self):
        grid = GridSpec(64)
        st = state_of(constant_field(grid, 0.0), constant_field(grid, 0.0))
        rec = snapshot_record(st, PARAMS, 2.3, 0.5, 0.0, 0.0)
        assert rec.G_l2 == rec.G_lq == rec.G_besov == 0.0

    def test_dissipative_vorticity_monitor_nonincreasing(self):
        grid = GridSpec(64)
        params = PARAMS
        st = initial_data("random-band", 4, grid)
        st = state_of(constant_field(grid, 0.0), st.omega)
        monitor = RunMonitor(st, params, 2.3, 0.5, 0.2)
        recs = [monitor.initial]
        for s in run(st, params, StepperConfig(dt_init=0.02, t_end=0.3)):
            monitor.advance(s)
            recs.append(monitor.record(s))
        series = [r.G_l2**2 + r.diss_G_accum for r in recs]
        # ||G||_2^2 + int ||Lambda^{a/2} G||_2^2 is nonincreasing for pure dissipative vorticity
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(series, series[1:]))

    @pytest.mark.parametrize("value", [1e160, np.nan])
    def test_non_finite_dissipation_rate_raises(self, value):
        # |c|^2 overflows, or a coefficient is NaN: the rate is no number to accumulate
        grid = GridSpec(16)
        hats = [np.zeros((16, 9), complex) for _ in range(2)]
        hats[1][1, 1] = value
        st = SimState(grid, tuple(hats))
        with pytest.raises(ValueError, match="non-finite dissipation rate"):
            dissipation_rates(st, PARAMS)


class TestRunMonitor:
    # at amplitude 5 the monitor starts from a smaller field than the run's, so the margins go negative and worst moves
    @pytest.mark.parametrize("start_amplitude", [10.0, 5.0])
    def test_matches_the_written_out_loop_bitwise(self, start_amplitude):
        # the oracle: a run's monitor state written out step by step, in plain locals
        states = list(run(initial_data("random-band", 5, GridSpec(32), amplitude=10.0), PARAMS,
                          StepperConfig(dt_init=0.05, cfl_number=0.4, t_end=0.3)))
        st = initial_data("random-band", 5, GridSpec(32), amplitude=start_amplitude)
        assert len({b.t - a.t for a, b in zip([st, *states], states)}) > 2  # the CFL varies dt
        q, s, L = 2.3, 0.5, 0.2

        def written_out(state, diss_u, diss_G, initial):
            rec = snapshot_record(state, PARAMS, q, s, diss_u, diss_G)
            bound_margins(rec, rec if initial is None else initial)
            rec.cordoba_min = cordoba_margin(state.theta, PARAMS.beta, *CONVEX_GAMMAS["square"], state.hats[0])
            rec.oss_delta_measured = oss_check(state.theta, L)
            for key in worst:
                worst[key] = min(worst[key], getattr(rec, key))
            return rec

        worst = dict.fromkeys(("margin_maxprinciple_l2", "margin_maxprinciple_linf", "margin_energy_linear"), 0.0)
        diss_u = diss_G = 0.0
        initial = written_out(st, diss_u, diss_G, None)
        rate_u, rate_G = dissipation_rates(st, PARAMS)
        prev_t, step_count, expect = st.t, 0, [initial]
        for cur in states:
            step_count += 1
            new_u, new_G = dissipation_rates(cur, PARAMS)
            dt = cur.t - prev_t
            diss_u += 0.5 * dt * (rate_u + new_u)
            diss_G += 0.5 * dt * (rate_G + new_G)
            rate_u, rate_G = new_u, new_G
            prev_t = cur.t
            if step_count % 2 == 0 or cur is states[-1]:  # some steps are only advanced
                expect.append(written_out(cur, diss_u, diss_G, initial))

        monitor = RunMonitor(st, PARAMS, q, s, L)
        got = [monitor.initial]
        for cur in states:
            monitor.advance(cur)
            if monitor.steps % 2 == 0 or cur is states[-1]:
                got.append(monitor.record(cur))
        assert [r.csv_row() for r in got] == [r.csv_row() for r in expect]  # every field, in round-trip form
        assert (monitor.diss_u.hex(), monitor.diss_G.hex(), monitor.steps) == (diss_u.hex(), diss_G.hex(), step_count)
        assert {k: v.hex() for k, v in monitor.worst.items()} == {k: v.hex() for k, v in worst.items()}
        assert monitor.rates == (rate_u, rate_G) and monitor.t == prev_t
        assert 0.0 not in (got[-1].margin_maxprinciple_l2, got[-1].cordoba_min, got[-1].oss_delta_measured)  # all set
        assert (min(worst.values()) < 0.0) == (start_amplitude == 5.0)


class TestCordoba:
    def test_linear_gamma_exact_zero(self):
        rng = np.random.default_rng(0)
        f = random_band_field(G64, 1, 8, rng)
        margin = cordoba_margin(f, 0.5, lambda x: x, lambda x: np.ones_like(x))
        assert abs(margin) <= 1e-13

    def test_closed_form_cosine(self):
        f = field_from_function(G64, lambda x1, x2: np.cos(x1))
        margin = cordoba_margin(f, 0.5, *CONVEX_GAMMAS["square"])
        assert abs(margin - 2.0**-0.5) <= 1e-10

    def test_random_ensemble_nonnegative(self):
        rng = np.random.default_rng(1)
        for name, (gam, gam_p) in CONVEX_GAMMAS.items():
            for _ in range(5):
                f = random_band_field(G64, 1, G64.n // 12, rng)
                margin = cordoba_margin(f, 0.5, gam, gam_p)
                scale = cordoba_scale(f, 0.5, gam, gam_p)
                assert margin >= -1e-8 * scale, name

    def test_beta_range(self):
        f = constant_field(G64, 1.0)
        with pytest.raises(ValueError):
            cordoba_margin(f, 2.5, *CONVEX_GAMMAS["square"])
        with pytest.raises(ValueError):
            cordoba_ratios(f, 2.5)

    def test_ratios_are_margin_over_scale_from_fewer_transforms(self, monkeypatch):
        # one Lambda^b f (1 forward + 1 inverse) and one Lambda^b Gamma(f) per
        # Gamma, where margin and scale each took all four transforms
        f = random_band_field(G64, 1, 8, np.random.default_rng(2))
        want = {name: cordoba_margin(f, 0.5, *pair) / cordoba_scale(f, 0.5, *pair) for name, pair in CONVEX_GAMMAS.items()}
        calls = []
        for name in ("rfft2", "irfft2"):
            orig = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _orig=orig, **k: calls.append(1) or _orig(*a, **k))
        assert cordoba_ratios(f, 0.5) == want
        assert len(calls) == 2 + 2 * len(CONVEX_GAMMAS)

    def test_hinge_is_convex_pair(self):
        gam, gam_p = smoothed_hinge()
        x = np.linspace(-3, 3, 101)
        d = np.diff(gam(x)) / np.diff(x)
        assert all(np.diff(d) >= -1e-12)  # convexity of the sampled hinge
        mid = 0.5 * (x[1:] + x[:-1])
        assert np.abs(gam_p(mid) - d).max() <= 1e-2


class TestKernelConstant:
    def test_half_laplacian_value(self):
        # known closed form at beta = 1: the 2D half-Laplacian constant 1/(2 pi)
        assert abs(frac_kernel_constant(1.0) - 1.0 / (2.0 * math.pi)) <= 1e-14


class TestLowerBounds:
    def test_constant_field_all_zero(self):
        em, c0 = gradient_lower_bound_margin(constant_field(G64, 2.0), 0.5, 4.0)
        assert em == 0.0

    def test_single_mode_nonnegative(self):
        f = field_from_function(G64, lambda x1, x2: np.sin(2 * x1))
        em, c0 = gradient_lower_bound_margin(f, 0.5, 4.0)
        scale = lp_norm(f, math.inf) ** 2
        assert em >= -1e-8 * scale
        assert math.isfinite(c0) and c0 > 0

    def test_gradient_constant_stable_under_refinement(self):
        vals = []
        for n in (64, 128):
            g = GridSpec(n)
            f = field_from_function(g, lambda x1, x2: np.sin(2 * x1) + 0.4 * np.cos(3 * x2))
            _, c0 = gradient_lower_bound_margin(f, 0.5, 4.0)
            vals.append(c0)
        assert 0.5 <= vals[1] / vals[0] <= 1.5

    def test_difference_zero_shift(self):
        em, c = difference_lower_bound_margin(constant_field(G64, 1.0), (0, 0), 0.5)
        assert em == 0.0 and c == 0.0

    def test_difference_of_a_zero_theta(self):
        em, c = difference_lower_bound_margin(constant_field(G64, 0.0), (G64.n // 4, 0), 0.5)
        assert em == 0.0 and c == 0.0

    def test_difference_with_no_usable_point(self):
        # a constant theta has g = 0 at every shift, so no point stands clear of rounding
        em, c = difference_lower_bound_margin(constant_field(G64, 1.0), (G64.n // 4, 0), 0.5)
        assert em == 0.0 and math.isnan(c)

    def test_difference_single_mode(self):
        f = field_from_function(G64, lambda x1, x2: np.sin(x1))
        em, c = difference_lower_bound_margin(f, (G64.n // 4, 0), 0.5)
        assert em >= -1e-8
        assert math.isfinite(c)

    def test_difference_constant_stable_under_refinement(self):
        vals = []
        for n in (64, 128):
            g = GridSpec(n)
            f = field_from_function(g, lambda x1, x2: np.sin(2 * x1) + 0.4 * np.cos(3 * x2))
            _, c = difference_lower_bound_margin(f, (n // 4, 0), 0.5)
            vals.append(c)
        assert 0.5 <= vals[1] / vals[0] <= 1.5


class TestRecordsAndCsv:
    def test_snapshot_is_pure(self):
        states, params = short_run(t_end=0.05)
        a = snapshot_record(states[-1], params, 2.3, 0.5, 0.1, 0.2)
        b = snapshot_record(states[-1], params, 2.3, 0.5, 0.1, 0.2)
        assert a.csv_row() == b.csv_row()

    def test_csv_schema(self):
        cols = csv_header().split(",")
        assert cols[0] == "t"
        assert cols == [
            "t",
            "theta_l2",
            "theta_linf",
            "u_l2",
            "omega_linf",
            "grad_theta_linf",
            "G_l2",
            "G_lq",
            "q",
            "G_besov",
            "s",
            "diss_u_accum",
            "diss_G_accum",
            "margin_maxprinciple_l2",
            "margin_maxprinciple_linf",
            "margin_energy_linear",
            "cordoba_min",
            "oss_delta_measured",
        ]

    def test_csv_round_trip_decimals(self):
        states, params = short_run(t_end=0.05)
        rec = snapshot_record(states[-1], params, 2.3, 0.5, 0.1, 0.2)
        row = rec.csv_row().split(",")
        assert float(row[1]) == rec.theta_l2  # repr round-trips exactly

    def test_margins_are_record_fields(self):
        # a margin set on the record lands in its column; a misspelt one is an error, not a 0.0 column
        states, params = short_run(t_end=0.05)
        rec = snapshot_record(states[-1], params, 2.3, 0.5, 0.1, 0.2)
        assert rec.csv_row().split(",")[-5:] == ["0.0"] * 5
        rec.cordoba_min = -1.5
        assert rec.csv_row().split(",")[csv_header().split(",").index("cordoba_min")] == "-1.5"
        with pytest.raises(AttributeError):
            rec.cordoba_mn = -1.5
