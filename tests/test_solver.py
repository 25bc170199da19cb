"""Time stepping, the combined quantity G, initial data, the oscillation
scan, and checkpoint round trips."""

import math

import numpy as np
import pytest

from bq2d.solver import (
    BlowUpError,
    SimState,
    StepperConfig,
    compute_G,
    delta_star,
    g_equation_residual,
    initial_data,
    initial_report,
    oss_check,
    oss_weighted_profile,
    read_checkpoint,
    rhs,
    run,
    step,
    write_checkpoint,
)
from bq2d.spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    constant_field,
    coordinates,
    field_from_function,
    lp_norm,
    to_physical,
    to_spectral,
)

G64 = GridSpec(64)
PARAMS = FlowParams(nu=1.0, kappa=1.0, alpha=0.9, beta=1.0 - 0.9, critical=True)


def make_state(grid, theta_fn=None, omega_fn=None):
    theta = field_from_function(grid, theta_fn) if theta_fn else constant_field(grid, 0.0)
    omega = field_from_function(grid, omega_fn) if omega_fn else constant_field(grid, 0.0)
    return SimState(theta, omega, 0.0)


class TestRhs:
    def test_pure_vorticity_mode_decays_without_transport(self):
        # u = (0, -cos x1) is perpendicular to grad omega, so transport drops out
        st = make_state(G64, omega_fn=lambda x1, x2: np.sin(x1))
        d_theta, d_omega = rhs(st, PARAMS)
        expect = to_spectral(field_from_function(G64, lambda x1, x2: -np.sin(x1))).coeffs
        assert np.abs(d_omega.coeffs - expect).max() <= 1e-13
        assert np.abs(d_theta.coeffs).max() <= 1e-15

    def test_constant_theta_inert(self):
        st = make_state(G64, theta_fn=lambda x1, x2: 0.0 * x1 + 2.0)
        d_theta, d_omega = rhs(st, PARAMS)
        assert np.abs(d_theta.coeffs).max() <= 1e-15
        assert np.abs(d_omega.coeffs).max() <= 1e-15

    def test_transverse_theta_mode(self):
        # theta = sin(x2): no buoyancy source (d1 theta = 0), pure decay in theta
        st = make_state(G64, theta_fn=lambda x1, x2: np.sin(x2))
        d_theta, d_omega = rhs(st, PARAMS)
        expect = to_spectral(field_from_function(G64, lambda x1, x2: -np.sin(x2))).coeffs
        assert np.abs(d_theta.coeffs - expect).max() <= 1e-13
        assert np.abs(d_omega.coeffs).max() <= 1e-14


class TestStep:
    def test_linear_decay_is_exact(self):
        st = make_state(G64, omega_fn=lambda x1, x2: np.sin(x1))
        cfg = StepperConfig(dt_init=0.01, t_end=0.1)
        cur = st
        for _ in range(10):
            cur = step(cur, PARAMS, cfg, dt=0.01)
        expect = math.exp(-cur.t) * np.sin(coordinates(G64)[0])
        assert np.abs(cur.omega.values - expect).max() <= 1e-12

    def test_buoyancy_feeds_vorticity(self):
        params = FlowParams(nu=0.0, kappa=0.0, alpha=0.9, beta=0.1)
        st = make_state(G64, theta_fn=lambda x1, x2: np.sin(x1))
        dt = 1e-3
        out = step(st, params, StepperConfig(dt_init=dt, t_end=dt), dt=dt)
        # omega gains dt * d1 theta + O(dt^2); theta moves only at O(dt^2)
        expect = dt * np.cos(coordinates(G64)[0])
        assert np.abs(out.omega.values - expect).max() <= 5.0 * dt**2
        assert np.abs(out.theta.values - st.theta.values).max() <= 5.0 * dt**2

    def test_self_convergence_second_order(self):
        st = initial_data("random-band", 2, G64, amplitude=0.5)
        cfg = StepperConfig(dt_init=1.0, t_end=1.0)
        t_final = 0.04

        def advance(dt):
            cur = st
            for _ in range(round(t_final / dt)):
                cur = step(cur, PARAMS, cfg, dt=dt)
            return cur.theta.values

        ref = advance(t_final / 32)
        errs = [np.abs(advance(t_final / m) - ref).max() for m in (2, 4, 8)]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.9

    def test_cfl_and_underflow(self):
        st = initial_data("random-band", 3, G64, amplitude=1.0)
        cfg = StepperConfig(dt_init=1.0, cfl_number=0.4, t_end=1.0)
        out = step(st, PARAMS, cfg)
        assert out.t <= 0.4 * G64.spacing + 1e-12
        with pytest.raises(RuntimeError, match="underflow"):
            step(st, PARAMS, cfg, dt=1e-13)

    def test_blowup_detection(self):
        big = PhysicalField(G64, np.full((64, 64), 2e8))
        st = SimState(constant_field(G64, 0.0), big, 0.0)
        with pytest.raises(BlowUpError):
            step(st, PARAMS, StepperConfig(dt_init=1e-6, t_end=1.0), dt=1e-6)

    def test_overflow_reports_blowup_not_type_error(self):
        # non-finite intermediates must surface as the blow-up diagnostic
        huge = PhysicalField(G64, np.full((64, 64), 1e200))
        st = SimState(huge, huge, 0.0)
        with pytest.raises(BlowUpError) as err:
            step(st, PARAMS, StepperConfig(dt_init=1e-6, t_end=1.0), dt=1e-6)
        assert err.value.t == 1e-6 or err.value.t == 0.0
        assert err.value.omega_max > 0


class TestInvariants:
    def test_theta_mean_conserved(self):
        st = initial_data("gaussian-bumps", 4, G64, amplitude=1.0)
        mean0 = st.theta.values.mean()
        cfg = StepperConfig(dt_init=0.02, t_end=0.3)
        last = st
        for last in run(st, PARAMS, cfg):
            pass
        assert abs(last.theta.values.mean() - mean0) <= 1e-12 * max(abs(mean0), 1.0)

    def test_theta_norms_nonincreasing(self):
        st = initial_data("random-band", 5, G64, amplitude=1.0)
        cfg = StepperConfig(dt_init=0.02, t_end=0.5)
        n2 = [lp_norm(st.theta, 2)]
        ninf = [lp_norm(st.theta, math.inf)]
        for s in run(st, PARAMS, cfg):
            n2.append(lp_norm(s.theta, 2))
            ninf.append(lp_norm(s.theta, math.inf))
        tol = 1e-6 * n2[0]
        assert all(b <= a + tol for a, b in zip(n2, n2[1:]))
        assert all(b <= a + 1e-6 * ninf[0] for a, b in zip(ninf, ninf[1:]))

    def test_enstrophy_decays_without_buoyancy(self):
        st = make_state(G64, omega_fn=lambda x1, x2: np.sin(x1) + 0.3 * np.cos(2 * x2))
        cfg = StepperConfig(dt_init=0.02, t_end=0.3)
        prev = lp_norm(st.omega, 2)
        for s in run(st, PARAMS, cfg):
            cur = lp_norm(s.omega, 2)
            assert cur < prev
            prev = cur

    def test_energy_identity_along_trajectory(self):
        # d/dt (1/2)||u||^2 + nu ||Lam^{a/2} u||^2 - int theta u2 = 0 up to O(dt^2)
        from bq2d.monitors import dissipation_rates
        from bq2d.spectral import biot_savart

        st = initial_data("random-band", 6, G64, amplitude=0.5)
        cfg = StepperConfig(dt_init=1.0, t_end=1.0)
        params = PARAMS

        def energy_and_flux(s):
            u1h, u2h = biot_savart(s.omega_hat)
            u1, u2 = to_physical(u1h).values, to_physical(u2h).values
            e = 0.5 * (np.sum(u1**2) + np.sum(u2**2)) * s.grid.cell_weight
            flux = np.sum(s.theta.values * u2) * s.grid.cell_weight
            return e, flux

        def imbalance(dt):
            s0 = st
            s1 = step(s0, params, cfg, dt=dt)
            s2 = step(s1, params, cfg, dt=dt)
            e0, _ = energy_and_flux(s0)
            e2, _ = energy_and_flux(s2)
            _, flux1 = energy_and_flux(s1)
            rate_u, _ = dissipation_rates(s1, params)
            return abs((e2 - e0) / (2 * dt) + params.nu * rate_u - flux1)

        a, b = imbalance(0.02), imbalance(0.01)
        assert a / b >= 3.0  # second-order residual


class TestComputeG:
    def test_theta_zero(self):
        st = make_state(G64, omega_fn=lambda x1, x2: np.sin(2 * x1))
        g = compute_G(st, 0.9)
        assert np.abs(g.values - st.omega.values).max() <= 1e-13

    def test_cancellation(self):
        # omega = R_alpha theta gives G = 0: R_0.9 sin(x1) = cos(x1) on |k| = 1
        st = make_state(
            G64, theta_fn=lambda x1, x2: np.sin(x1), omega_fn=lambda x1, x2: np.cos(x1)
        )
        assert np.abs(compute_G(st, 0.9).values).max() <= 1e-13

    def test_per_mode(self):
        st = make_state(
            G64,
            theta_fn=lambda x1, x2: np.sin(x1),
            omega_fn=lambda x1, x2: np.sin(x1) + np.cos(x1),
        )
        expect = np.sin(coordinates(G64)[0])
        assert np.abs(compute_G(st, 0.7).values - expect).max() <= 1e-13


class TestGEquationResidual:
    def test_zero_state(self):
        s = make_state(G64)
        states = [SimState(s.theta, s.omega, t) for t in (0.0, 0.01, 0.02)]
        assert g_equation_residual(states, PARAMS) == 0.0

    def test_requires_uniform_spacing(self):
        s = make_state(G64, omega_fn=lambda x1, x2: np.sin(x1))
        states = [SimState(s.theta, s.omega, t) for t in (0.0, 0.01, 0.03)]
        with pytest.raises(ValueError, match="spacing"):
            g_equation_residual(states, PARAMS)

    def test_second_order_in_dt(self):
        st = initial_data("random-band", 7, G64, amplitude=0.5)
        cfg = StepperConfig(dt_init=1.0, t_end=1.0)
        res = []
        for dt in (0.004, 0.002, 0.001):
            s1 = step(st, PARAMS, cfg, dt=dt)
            s2 = step(s1, PARAMS, cfg, dt=dt)
            res.append(g_equation_residual([st, s1, s2], PARAMS))
        orders = [math.log2(a / b) for a, b in zip(res, res[1:])]
        assert min(orders) >= 1.9

    def test_second_order_with_nonunit_coefficients(self):
        # the residual's forcing terms carry the general nu, kappa weights
        params = FlowParams(nu=0.7, kappa=1.3, alpha=0.9, beta=0.1)
        st = initial_data("random-band", 11, G64, amplitude=0.5)
        cfg = StepperConfig(dt_init=1.0, t_end=1.0)
        res = []
        for dt in (0.004, 0.002):
            s1 = step(st, params, cfg, dt=dt)
            s2 = step(s1, params, cfg, dt=dt)
            res.append(g_equation_residual([st, s1, s2], params))
        assert math.log2(res[0] / res[1]) >= 1.9

    def test_linear_decay_residual_is_time_error_only(self):
        st = make_state(G64, omega_fn=lambda x1, x2: np.sin(x1))
        cfg = StepperConfig(dt_init=1.0, t_end=1.0)
        res = []
        for dt in (0.01, 0.005):
            s1 = step(st, PARAMS, cfg, dt=dt)
            s2 = step(s1, PARAMS, cfg, dt=dt)
            res.append(g_equation_residual([st, s1, s2], PARAMS))
        assert res[0] <= 1e-4
        assert res[0] / res[1] >= 3.5


class TestInitialData:
    def test_deterministic(self):
        a = initial_data("gaussian-bumps", 0, G64)
        b = initial_data("gaussian-bumps", 0, G64)
        assert np.array_equal(a.theta.values, b.theta.values)
        assert np.array_equal(a.omega.values, b.omega.values)

    def test_random_band_support(self):
        st = initial_data("random-band", 1, G64)
        from bq2d.spectral import wavevectors

        km = wavevectors(G64)[2]
        hot = np.abs(st.theta_hat.coeffs) > 1e-12 * np.abs(st.theta_hat.coeffs).max()
        assert km[hot].max() <= 6.0 + 1e-9
        assert km[hot].min() >= 2.0 - 1e-9

    def test_taylor_green_closed_form_energy(self):
        st = initial_data("taylor-green-like", 0, G64, amplitude=1.0)
        rep = initial_report(st)
        assert abs(rep["u_l2"] - math.sqrt(2.0) * math.pi) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            initial_data("vortex-sheet", 0, G64)

    def test_omega_mean_free(self):
        st = initial_data("gaussian-bumps", 2, G64)
        assert abs(st.omega.values.mean()) <= 1e-13


class TestOss:
    def test_constant_always_holds(self):
        rep = oss_check(constant_field(G64, 4.0), delta=1e-12, L=1.0)
        assert rep.holds and rep.delta_measured == 0.0

    def test_lipschitz_choice_has_margin(self):
        # |sin Lipschitz constant 1; L = delta/4 keeps the oscillation <= delta/4
        theta = field_from_function(G64, lambda x1, x2: np.sin(x1))
        delta = 0.8
        rep = oss_check(theta, delta=delta, L=delta / 4.0)
        assert rep.holds
        assert rep.delta_measured <= delta / 4.0 + 1e-12

    @staticmethod
    def _manual_scan(theta, L):
        """Every shift 0 < |h| < L, both signs."""
        g = theta.grid
        n, h = g.n, g.spacing
        best = 0.0
        for i in range(n):
            for j in range(n):
                si = i if i <= n // 2 else i - n
                sj = j if j <= n // 2 else j - n
                if 0 < math.hypot(si * h, sj * h) < L:
                    best = max(
                        best,
                        float(np.abs(np.roll(theta.values, (-i, -j), axis=(0, 1)) - theta.values).max()),
                    )
        return best

    def test_exhaustive_scan_matches_manual(self):
        g = GridSpec(16)
        theta = field_from_function(g, lambda x1, x2: np.sin(x1))
        rep = oss_check(theta, delta=10.0, L=1.0)
        assert abs(rep.delta_measured - self._manual_scan(theta, 1.0)) <= 1e-14

    @pytest.mark.parametrize("n, L", [(32, 2 * math.pi), (64, 2 * math.pi), (32, 3.7), (64, 20.0)])
    def test_half_scan_is_bitwise_the_full_scan(self, n, L):
        grid = GridSpec(n, side_length=L)
        theta = initial_data("random-band", n, grid).theta
        for radius in (1.5 * grid.spacing, 0.1 * L, 0.37 * L, 0.5 * L):
            assert oss_check(theta, 1.0, radius).delta_measured == self._manual_scan(theta, radius)

    def test_monotone_in_L(self):
        theta = field_from_function(G64, lambda x1, x2: np.sin(x1) + 0.3 * np.sin(3 * x2))
        vals = [oss_check(theta, 10.0, L).delta_measured for L in (0.3, 0.6, 1.2)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_L_bounded_by_half_domain(self):
        with pytest.raises(ValueError):
            oss_check(constant_field(G64, 0.0), 1.0, 4.0)


class TestDeltaStar:
    def test_unit_sup(self):
        assert delta_star(1.0, 0.3, 2.5) == 2.5

    def test_exponent_value(self):
        v = delta_star(2.0, 0.1, 1.0)
        assert abs(v - 2.0 ** (-0.2 / 1.9)) <= 1e-15

    def test_scaling_law(self):
        beta = 0.35
        factor = delta_star(2.0, beta, 1.0) / delta_star(1.0, beta, 1.0)
        assert abs(factor - 2.0 ** (-2 * beta / (2 - beta))) <= 1e-12


class TestWeightedProfile:
    def test_constant_is_zero(self):
        radii, sups = oss_weighted_profile(constant_field(G64, 1.0), 0.5, 1.0)
        assert np.abs(sups).max() == 0.0

    def test_zero_shift_is_zero(self):
        radii, sups = oss_weighted_profile(
            field_from_function(G64, lambda x1, x2: np.sin(x1)), 0.5, 1.0
        )
        assert radii[0] == 0.0 and sups[0] == 0.0

    def test_sup_bound(self):
        theta = field_from_function(G64, lambda x1, x2: np.sin(x1))
        _, sups = oss_weighted_profile(theta, 0.5, 1.0)
        assert sups.max() <= (2.0 * lp_norm(theta, math.inf)) ** 2 + 1e-12


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        st = initial_data("random-band", 8, G64, amplitude=1.0)
        st = SimState(st.theta, st.omega, t=0.123456789012345)
        path = tmp_path / "state.chk"
        write_checkpoint(path, st, PARAMS)
        back, params = read_checkpoint(path)
        assert np.array_equal(back.theta.values, st.theta.values)
        assert np.array_equal(back.omega.values, st.omega.values)
        assert back.t == st.t
        assert (params.nu, params.kappa, params.alpha, params.beta) == (
            PARAMS.nu,
            PARAMS.kappa,
            PARAMS.alpha,
            PARAMS.beta,
        )
        # writing the reread state reproduces the file byte for byte
        path2 = tmp_path / "state2.chk"
        write_checkpoint(path2, back, params)
        assert path.read_bytes() == path2.read_bytes()

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.chk"
        path.write_bytes(b"NOTCHK 64\n")
        with pytest.raises(ValueError, match="header"):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        st = initial_data("random-band", 9, G64)
        path = tmp_path / "trunc.chk"
        write_checkpoint(path, st, PARAMS)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(ValueError):
            read_checkpoint(path)

    @pytest.mark.parametrize("cut", [8 * 64 * 64 + 4, 8 * 64 * 64 + 8])  # into, and all of, omega's prefix
    def test_truncated_length_prefix_rejected(self, tmp_path, cut):
        st = initial_data("random-band", 9, G64)
        path = tmp_path / "trunc.chk"
        write_checkpoint(path, st, PARAMS)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.chk"
        write_checkpoint(path, initial_data("random-band", 9, G64), PARAMS)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            read_checkpoint(path)

    def test_no_temporary_file_left(self, tmp_path):
        st = initial_data("random-band", 9, G64)
        write_checkpoint(tmp_path / "a.chk", st, PARAMS)
        write_checkpoint(tmp_path / "a.chk", st, PARAMS)  # over an existing file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.chk"]

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.chk"
        write_checkpoint(path, initial_data("random-band", 9, G64), PARAMS)
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr("bq2d.solver.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(path, initial_data("random-band", 10, G64), PARAMS)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.chk"]
