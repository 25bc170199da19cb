"""Time stepping, the combined quantity G, initial data, the oscillation
scan, and checkpoint round trips."""

import hashlib
import io
import math
import multiprocessing
import pathlib
import platform
import re
import subprocess
import sys
import threading
import zlib

import numpy as np
import pytest

from bq2d import cli, solver
from bq2d.monitors import dissipation_rates, snapshot_record
from bq2d.solver import (
    LANE_MIN_N,
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
    irfft2,
    lp_norm,
    to_physical,
)
from states import state_of

G64 = GridSpec(64)
# written by the former BQCHK2 writer: ``bq2d run --n 8 --n-steps 2 --dealias-fraction 0.5``, final.chk
BQCHK2_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "bqchk2_n8.chk"
PARAMS = FlowParams(nu=1.0, kappa=1.0, alpha=0.9, beta=1.0 - 0.9, critical=True)


def make_state(grid, theta_fn=None, omega_fn=None):
    theta = field_from_function(grid, theta_fn) if theta_fn else constant_field(grid, 0.0)
    omega = field_from_function(grid, omega_fn) if omega_fn else constant_field(grid, 0.0)
    return state_of(theta, omega)


class TestNonstiffRhs:
    """Transport and buoyancy alone; ``TestStep::test_linear_decay_is_exact`` covers the dissipation."""

    def test_pure_vorticity_mode_has_no_transport(self):
        # u = (0, -cos x1) is perpendicular to grad omega, so transport drops out
        n_theta, n_omega, _ = solver.nonstiff_rhs(make_state(G64, omega_fn=lambda x1, x2: np.sin(x1)))
        assert np.abs(n_theta).max() <= 1e-15
        assert np.abs(n_omega).max() <= 1e-15

    def test_constant_theta_inert(self):
        n_theta, n_omega, _ = solver.nonstiff_rhs(make_state(G64, theta_fn=lambda x1, x2: 0.0 * x1 + 2.0))
        assert np.abs(n_theta).max() <= 1e-15
        assert np.abs(n_omega).max() <= 1e-15

    def test_transverse_theta_mode(self):
        # theta = sin(x2): no buoyancy source (d1 theta = 0), and u = 0 transports nothing
        n_theta, n_omega, _ = solver.nonstiff_rhs(make_state(G64, theta_fn=lambda x1, x2: np.sin(x2)))
        assert np.abs(n_theta).max() <= 1e-15
        assert np.abs(n_omega).max() <= 1e-15


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

    def test_run_clips_the_last_step_onto_t_end(self):
        st = initial_data("random-band", 3, GridSpec(32, dealias_fraction=0.5))
        cfg = StepperConfig(dt_init=0.01, t_end=0.1)
        times = [s.t for s in run(st, PARAMS, cfg)]
        assert len(times) == 10 and times[-1] == 0.1  # not 0.09999999999999999 plus an 11th step
        # a remainder below the step floor ends the run; n_steps runs ignore t_end
        assert list(run(SimState(st.grid, st.hats, 0.1 - 5e-13), PARAMS, cfg)) == []
        assert [s.t for s in run(st, PARAMS, cfg, n_steps=11)][-1] == 0.10999999999999999

    def test_cfl_and_underflow(self):
        st = initial_data("random-band", 3, G64, amplitude=1.0)
        cfg = StepperConfig(dt_init=1.0, cfl_number=0.4, t_end=1.0)
        out = step(st, PARAMS, cfg)
        assert out.t <= 0.4 * G64.spacing + 1e-12
        with pytest.raises(RuntimeError, match="underflow"):
            step(st, PARAMS, cfg, dt=1e-13)

    def test_blowup_detection(self):
        big = PhysicalField(G64, np.full((64, 64), 2e8))
        st = state_of(constant_field(G64, 0.0), big)
        with pytest.raises(BlowUpError):
            step(st, PARAMS, StepperConfig(dt_init=1e-6, t_end=1.0), dt=1e-6)

    def test_overflow_reports_blowup_not_type_error(self):
        # non-finite intermediates must surface as the blow-up diagnostic
        huge = PhysicalField(G64, np.full((64, 64), 1e200))
        st = state_of(huge, huge)
        with pytest.raises(BlowUpError) as err:
            step(st, PARAMS, StepperConfig(dt_init=1e-6, t_end=1.0), dt=1e-6)
        assert err.value.t == 1e-6 or err.value.t == 0.0
        assert err.value.omega_max > 0


class TestAliasing:
    """The step works in place on arrays it owns: its input state, the
    state's cached coefficients and the diagnostics on it stay untouched."""

    def test_step_and_diagnostics_leave_the_input_state_unchanged(self):
        state = initial_data("random-band", 3, GridSpec(32))
        arrays = (state.theta.values, state.omega.values, *state.hats)
        before = [a.copy() for a in arrays]
        cfg = StepperConfig(dt_init=0.01)
        new = step(state, PARAMS, cfg)
        dissipation_rates(state, PARAMS)
        snapshot_record(state, PARAMS, 2.5, 0.4, 0.0, 0.0)
        dissipation_rates(new, PARAMS)
        snapshot_record(new, PARAMS, 2.5, 0.4, 0.0, 0.0)
        again = step(state, PARAMS, cfg)
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()
        assert again.theta.values.tobytes() == new.theta.values.tobytes()
        assert again.omega.values.tobytes() == new.omega.values.tobytes()
        for a in (new.theta.values, new.omega.values, *new.hats):
            assert not any(np.shares_memory(a, b) for b in arrays)


def _lane_threads():
    return [t for t in threading.enumerate() if t.name == "bq2d-lane"]


class TestLane:
    """From n = LANE_MIN_N the step runs the second call of each independent
    pair on one worker thread; every output stays bitwise the sequential one."""

    GRID = GridSpec(LANE_MIN_N)

    @staticmethod
    def _sequential(monkeypatch):
        monkeypatch.setattr(solver, "LANE_MIN_N", sys.maxsize)

    @staticmethod
    def _steps(n, n_steps, t_end):
        state = initial_data("random-band", 5, GridSpec(n))
        for state in run(state, PARAMS, StepperConfig(dt_init=0.01, t_end=t_end), n_steps=n_steps):
            pass
        return state

    # the last case's third step (dt = 0.4 * 2 pi / 256) ends past t_end and is clipped onto it
    @pytest.mark.parametrize("n, n_steps, t_end", [(256, 10, 1.0), (512, 3, 1.0), (256, None, 0.025)])
    def test_lane_is_bitwise_the_sequential_step(self, monkeypatch, n, n_steps, t_end):
        assert LANE_MIN_N <= 256
        lane = self._steps(n, n_steps, t_end)
        self._sequential(monkeypatch)
        seq = self._steps(n, n_steps, t_end)
        assert lane.t == seq.t and (n_steps is not None or lane.t == t_end)
        for a, b in zip((*lane.hats, lane.theta.values, lane.omega.values), (*seq.hats, seq.theta.values, seq.omega.values)):
            assert a.tobytes() == b.tobytes()

    def _blowup(self, monkeypatch, state, dt):
        """(type, t, omega_max) of the BlowUpError of one step, the same with the lane and in sequential order."""
        seen = []
        for sequential in (False, True):
            if sequential:
                self._sequential(monkeypatch)
            with np.errstate(all="ignore"), pytest.raises(BlowUpError) as err:
                step(state, PARAMS, StepperConfig(dt_init=0.01), dt=dt)
            seen.append((type(err.value), err.value.t, err.value.omega_max))
        assert seen[0] == seen[1]
        return seen[0]

    @pytest.mark.parametrize(
        "amplitudes, dt, failing",
        [((0.0, 1e100), 1e200, (False, True)), ((1e150, 1e100), 1e80, (True, False))],
        ids=["omega_half", "theta_half"],
    )
    def test_nonfinite_predictor_half_matches_the_sequential_one(self, monkeypatch, amplitudes, dt, failing):
        hats = (amplitudes[k] * initial_data("random-band", 5, self.GRID).hats[k] for k in (0, 1))
        state = SimState(self.GRID, tuple(hats))
        n_theta, n_omega, _ = solver.nonstiff_rhs(state)
        factors = solver._integrating_factors(self.GRID, PARAMS, dt)
        with np.errstate(all="ignore"):
            preds = [irfft2(e * (c0 + dt * n1)) for e, c0, n1 in zip(factors, state.hats, (n_theta, n_omega))]
        assert tuple(not np.isfinite(p).all() for p in preds) == failing
        assert self._blowup(monkeypatch, state, dt)[1] == dt

    def test_omega_limit_in_the_corrector_half_matches_the_sequential_one(self, monkeypatch):
        state = initial_data("random-band", 5, self.GRID, amplitude=2e8)
        _, t, omega_max = self._blowup(monkeypatch, state, 1e-6)
        assert t == 1e-6 and solver.OMEGA_BLOWUP_LIMIT < omega_max < math.inf

    def test_first_failure_is_raised_and_the_lane_stays_clean(self):
        def fail(msg):
            def f():
                raise ValueError(msg)

            return f

        with pytest.raises(ValueError, match="theta"):
            solver._pair(self.GRID, fail("theta"), fail("omega"))
        with pytest.raises(ValueError, match="omega"):
            solver._pair(self.GRID, lambda: 1, fail("omega"))
        with pytest.raises(ValueError, match="theta"):
            solver._pair(self.GRID, fail("theta"), lambda: 2)
        assert solver._pair(self.GRID, lambda: 3, lambda: 4) == (3, 4)

    def test_failure_on_the_lane_is_raised_and_the_lane_serves_the_next_pair(self):
        # fa holds the caller until the lane has started fb, so fb raises on the lane thread
        started = threading.Event()

        def fail_on_the_lane():
            started.set()
            raise ValueError(threading.current_thread().name)

        with pytest.raises(ValueError, match="^bq2d-lane$"):
            solver._pair(self.GRID, lambda: started.wait(10), fail_on_the_lane)
        started.clear()
        on_lane = lambda: started.set() or threading.current_thread().name
        assert solver._pair(self.GRID, lambda: started.wait(10), on_lane) == (True, "bq2d-lane")

    def test_nonfinite_blowup_matches_the_sequential_one(self, monkeypatch):
        # both halves of the predictor pair fail
        state = initial_data("random-band", 5, GridSpec(256), amplitude=1e100)
        cfg = StepperConfig(dt_init=0.01)
        errors = []
        for sequential in (False, True):
            if sequential:
                self._sequential(monkeypatch)
            with np.errstate(all="ignore"), pytest.raises(BlowUpError) as err:
                step(state, PARAMS, cfg, dt=1e200)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert solver._pair(self.GRID, lambda: "a", lambda: "b") == ("a", "b")

    def test_cli_blowup_matches_the_sequential_run(self, tmp_path, monkeypatch, capsys):
        args = ["run", "--n", "256", "--amplitude", "2e8", "--n-steps", "5", "--dt-init", "1e-6"]
        seen = []
        for name in ("lane", "seq"):
            if name == "seq":
                self._sequential(monkeypatch)
            out = tmp_path / name
            rc = cli.main([*args, "--out-dir", str(out)])
            out_text, err = (text.replace(str(out), "OUT") for text in capsys.readouterr())
            seen.append((rc, out_text, err, (out / "post_mortem.csv").read_bytes()))
        assert seen[0] == seen[1]
        assert seen[0][0] == cli.EXIT_BLOWUP
        assert solver._pair(self.GRID, lambda: 5, lambda: 6) == (5, 6)

    def test_lane_runs_under_the_callers_numpy_error_state(self):
        started = threading.Event()
        on_lane = lambda: started.set() or (threading.current_thread().name, np.geterr()["over"])
        with np.errstate(over="ignore"):
            _, (name, over) = solver._pair(self.GRID, lambda: started.wait(10), on_lane)
        assert (name, over) == ("bq2d-lane", "ignore")

    def test_caller_runs_what_a_busy_lane_has_not_started(self):
        started, release = threading.Event(), threading.Event()
        held = []

        def hold_the_lane():
            held.append(solver._pair(self.GRID, lambda: started.wait(10), lambda: started.set() or release.wait(10)))

        other = threading.Thread(target=hold_the_lane)
        other.start()
        try:
            assert started.wait(10)
            name = lambda: threading.current_thread().name
            assert solver._pair(self.GRID, lambda: 1, name) == (1, threading.current_thread().name)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert held == [(True, True)]

    @staticmethod
    def _next_digest(state) -> str:
        state = step(state, PARAMS, StepperConfig(dt_init=0.01, t_end=1.0))
        return hashlib.sha256(b"".join(h.tobytes() for h in state.hats)).hexdigest()

    def test_a_forked_child_starts_its_own_lane(self):
        # the parent's lane thread is not copied into a forked child, whose steps need their own
        state = step(initial_data("random-band", 5, self.GRID), PARAMS, StepperConfig(dt_init=0.01, t_end=1.0))
        assert _lane_threads()
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        report = lambda: send.send((self._next_digest(state), [t.name for t in threading.enumerate()]))
        child = ctx.Process(target=report)
        child.start()
        try:
            assert recv.poll(60), "the forked child did not step"
            digest, names = recv.recv()
        finally:
            child.join(10)
            child.kill()
        assert digest == self._next_digest(state)
        assert names.count("bq2d-lane") == 1, names

    def test_one_daemon_lane_thread(self):
        self._steps(256, 12, 1.0)
        threads = _lane_threads()
        assert len(threads) == 1
        assert threads[0].daemon

    # 10 warm-up steps, then the minor page faults of 60 more (rusage counts the whole process)
    _FAULTS = """
import resource
from bq2d.solver import StepperConfig, initial_data, step
from bq2d.spectral import FlowParams, GridSpec
state = initial_data("random-band", 0, GridSpec(256))
params, cfg = FlowParams(1.0, 1.0, 0.9, 0.1), StepperConfig(0.01, 0.4, 1e9)
for k in range(70):
    if k == 10:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    state = step(state, params, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 60)
"""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="_keep_heap works through glibc's heap thresholds")
    def test_warm_lane_steps_keep_their_heap(self, cli_env):
        # without _keep_heap both threads' heaps hand their memory back and fault it in
        # again, 38-380 faults a step against 0-4.3 with it; but about one process in
        # twenty stays quiet without it, so two children must both stay quiet
        for _ in range(2):
            r = subprocess.run([sys.executable, "-c", self._FAULTS], capture_output=True, text=True, env=cli_env)
            assert r.returncode == 0, r.stderr
            assert float(r.stdout) <= 20.0

    def test_concurrent_callers_get_their_own_results(self):
        # more callers than cores, with frequent thread switches: each result
        # must come back to the call that made it
        wrong = []

        def caller(k):
            for i in range(300):
                a, b = solver._pair(self.GRID, lambda: np.float64(k) + i, lambda: np.float64(-k) - i)
                if (a, b) != (k + i, -k - i):
                    wrong.append((k, i, a, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(1000 * k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert len(_lane_threads()) <= 1


class TestInvariants:
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
    def test_hermitian_drift_stays_at_rounding(self, fraction):
        """The coefficient state is never symmetrized: over 1000 steps, each
        coefficient of columns m2 = 0 and n/2 stays within 1e-14 max|c| of
        the conjugate of its mirror (-m1, m2)."""
        grid = GridSpec(32, dealias_fraction=fraction)
        mirror = -np.arange(grid.n) % grid.n
        worst = 0.0
        for st in run(initial_data("random-band", 1, grid), PARAMS, StepperConfig(dt_init=0.01), n_steps=1000):
            for c in st.hats:
                cols = c[:, [0, -1]]
                worst = max(worst, np.abs(cols - np.conj(cols[mirror])).max() / np.abs(c).max())
        assert worst <= 1e-14

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
        states = [SimState(s.grid, s.hats, t) for t in (0.0, 0.01, 0.02)]
        assert g_equation_residual(states, PARAMS) == 0.0

    def test_requires_uniform_spacing(self):
        s = make_state(G64, omega_fn=lambda x1, x2: np.sin(x1))
        states = [SimState(s.grid, s.hats, t) for t in (0.0, 0.01, 0.03)]
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
        assert oss_check(constant_field(G64, 4.0), L=1.0) == 0.0

    def test_lipschitz_choice_has_margin(self):
        # |sin Lipschitz constant 1; L = delta/4 keeps the oscillation <= delta/4
        theta = field_from_function(G64, lambda x1, x2: np.sin(x1))
        delta = 0.8
        measured = oss_check(theta, L=delta / 4.0)
        assert measured <= delta
        assert measured <= delta / 4.0 + 1e-12

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
        assert abs(oss_check(theta, L=1.0) - self._manual_scan(theta, 1.0)) <= 1e-14

    @pytest.mark.parametrize("n, L", [(32, 2 * math.pi), (64, 2 * math.pi), (32, 3.7), (64, 20.0)])
    def test_half_scan_is_bitwise_the_full_scan(self, n, L):
        grid = GridSpec(n, side_length=L)
        theta = initial_data("random-band", n, grid).theta
        for radius in (1.5 * grid.spacing, 0.1 * L, 0.37 * L, 0.5 * L):
            assert oss_check(theta, radius) == self._manual_scan(theta, radius)

    def test_monotone_in_L(self):
        theta = field_from_function(G64, lambda x1, x2: np.sin(x1) + 0.3 * np.sin(3 * x2))
        vals = [oss_check(theta, L) for L in (0.3, 0.6, 1.2)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_L_bounded_by_half_domain(self):
        with pytest.raises(ValueError):
            oss_check(constant_field(G64, 0.0), 4.0)


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

    @pytest.mark.parametrize("sup, C", [(1e-300, 1.0), (1e-10, 1e300)])
    def test_past_the_float_range_is_named(self, sup, C):
        # the power raises OverflowError, or the product is inf
        with pytest.raises(ValueError, match="shock threshold"):
            delta_star(sup, 0.9, C)


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


def _assert_physical_is_inverse(st):
    """theta and omega are bitwise the inverse transforms of the state's coefficients."""
    for f, c in zip((st.theta, st.omega), st.hats):
        assert f.values.tobytes() == irfft2(c).tobytes()


class TestStateInvariant:
    """However a state is made, its physical arrays are its coefficients' inverse transforms."""

    @pytest.mark.parametrize("kind", ["random-band", "gaussian-bumps", "taylor-green-like"])
    def test_initial_data(self, kind):
        _assert_physical_is_inverse(initial_data(kind, 3, GridSpec(32)))

    @pytest.mark.parametrize("n", [32, LANE_MIN_N])
    def test_stepped(self, n):
        st = initial_data("random-band", 3, GridSpec(n))
        for _ in range(2):
            st = step(st, PARAMS, StepperConfig(dt_init=0.01), dt=0.01)
            _assert_physical_is_inverse(st)

    def test_read_checkpoint(self, tmp_path):
        path = tmp_path / "a.chk"
        write_checkpoint(path, step(initial_data("random-band", 3, GridSpec(16)), PARAMS, StepperConfig(0.01)), PARAMS)
        _assert_physical_is_inverse(read_checkpoint(path)[0])

    def test_resume_with_another_dealias_fraction(self, tmp_path, monkeypatch):
        chk = tmp_path / "a.chk"
        write_checkpoint(chk, initial_data("random-band", 3, GridSpec(16)), PARAMS)
        resumed = []
        monkeypatch.setattr(cli, "_run_loop", lambda cfg, state: resumed.append(state) or 0)
        assert cli.main(["resume", str(chk), "--dealias-fraction", "0.5", "--out-dir", str(tmp_path / "out")]) == 0
        assert resumed[0].grid == GridSpec(16, dealias_fraction=0.5)
        _assert_physical_is_inverse(resumed[0])


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        st = initial_data("random-band", 8, G64, amplitude=1.0)
        st = SimState(st.grid, st.hats, t=0.123456789012345)
        path = tmp_path / "state.chk"
        write_checkpoint(path, st, PARAMS)
        back, params = read_checkpoint(path)
        for a, b in zip((*back.hats, back.theta.values, back.omega.values), (*st.hats, st.theta.values, st.omega.values)):
            assert a.tobytes() == b.tobytes()
        assert back.t == st.t
        assert params == PARAMS
        # writing the reread state reproduces the file byte for byte
        path2 = tmp_path / "state2.chk"
        write_checkpoint(path2, back, params)
        assert path.read_bytes() == path2.read_bytes()

    def test_dealias_fraction_round_trip(self, tmp_path):
        grid = GridSpec(32, dealias_fraction=0.5)
        path = tmp_path / "v3.chk"
        write_checkpoint(path, initial_data("random-band", 8, grid), PARAMS)
        back, _ = read_checkpoint(path)
        assert back.grid == grid
        assert path.read_bytes().split()[:4] == [b"BQCHK3", b"32", repr(grid.side_length).encode(), b"0.5"]

    @pytest.mark.parametrize("tag", [b"BQCHK2", b"BQCHK1", b"BQCHK4", b"BQCHK12"])
    @pytest.mark.parametrize("payload", [True, False], ids=["payload", "no-payload"])
    def test_other_formats_are_refused_by_name(self, tmp_path, tag, payload):
        # the BQCHK2 fixture's payload, or none: the tag is refused before the payload is read
        head, body = BQCHK2_FIXTURE.read_bytes().split(b"\n", 1)
        path = tmp_path / "a.chk"
        path.write_bytes(b" ".join([tag, *head.split()[1:]]) + b"\n" + (body if payload else b""))
        want = f"checkpoint format {tag.decode()} of {path} is not read; this version reads BQCHK3"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read_checkpoint(path)

    def test_header_read_is_bounded(self, monkeypatch):
        """A stream that never sends a newline is a corrupt header once
        HEADER_MAX_BYTES are read, not an endless read."""

        class EndlessX(io.RawIOBase):
            served = 0

            def readable(self):
                return True

            def readinto(self, buf):
                if self.served >= 2**20:
                    raise RuntimeError("read past 1 MiB")
                buf[:] = b"x" * len(buf)
                self.served += len(buf)
                return len(buf)

        monkeypatch.setattr(solver, "open", lambda path, mode: io.BufferedReader(EndlessX()), raising=False)
        with pytest.raises(ValueError, match="^corrupt checkpoint header in endless$"):
            read_checkpoint("endless")
        assert solver.HEADER_MAX_BYTES >= 512

    def test_header_carries_critical_and_checksum(self, tmp_path):
        st = initial_data("random-band", 9, GridSpec(16))
        path = tmp_path / "a.chk"
        for params in (PARAMS, FlowParams(1.0, 1.0, 0.9, 0.1)):
            write_checkpoint(path, st, params)
            head = path.read_bytes().split(b"\n", 1)[0].split()
            assert head[4] == (b"1" if params.critical else b"0")
            assert read_checkpoint(path)[1] == params
        data = path.read_bytes()
        assert int(head[-1], 16) == zlib.crc32(data[len(data) - 2 * 16 * 16 * 9 :])
        flipped = bytearray(data)
        flipped[-1] ^= 1
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match="CRC-32"):
            read_checkpoint(path)

    def test_undealiased_coefficients_rejected(self, tmp_path):
        # a payload that passes its checksum must still be a dealiased, finite state
        g = GridSpec(16)
        hats = [c.copy() for c in initial_data("random-band", 9, g).hats]
        path = tmp_path / "a.chk"
        for where, value in (((8, 0), 1.0), ((1, 1), np.nan)):
            bad = [c.copy() for c in hats]
            bad[1][where] = value
            st = SimState(g, tuple(bad))
            write_checkpoint(path, st, PARAMS)
            with pytest.raises(ValueError, match="finite and dealiased"):
                read_checkpoint(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.chk"
        path.write_bytes(b"NOTCHK 64\n")
        with pytest.raises(ValueError, match="^corrupt checkpoint header in "):
            read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        st = initial_data("random-band", 9, G64)
        path = tmp_path / "trunc.chk"
        write_checkpoint(path, st, PARAMS)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(ValueError, match="^truncated checkpoint payload$"):
            read_checkpoint(path)

    def test_header_grid_past_the_file_size_is_truncated(self, tmp_path):
        # the payload size a header implies is checked against the file before a buffer is allocated
        path = tmp_path / "huge.chk"
        write_checkpoint(path, initial_data("random-band", 9, GridSpec(16)), PARAMS)
        head, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head.replace(b"BQCHK3 16 ", b"BQCHK3 1048576 ", 1) + b"\n" + payload)
        with pytest.raises(ValueError, match="^truncated checkpoint payload$"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.chk"
        write_checkpoint(path, initial_data("random-band", 9, G64), PARAMS)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="^trailing bytes after checkpoint payload$"):
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
