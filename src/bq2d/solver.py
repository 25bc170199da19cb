"""Time integration of the coupled vorticity-temperature system

  d_t omega + u.grad omega + nu Lambda^alpha omega = d1 theta
  d_t theta + u.grad theta + kappa Lambda^beta theta = 0,
  u = perp_grad(Delta^{-1} omega),

with an integrating-factor RK2 scheme: the diagonal fractional dissipation
is applied exactly through exp(-c |k|^g dt), the transport and buoyancy
terms explicitly.  Advection uses the divergence form div(u f) with
dealiased products, which conserves the theta mean to rounding.

Stepping runs on real transforms: the half-plane (rfft2) coefficients of
the real fields with the symbol tables of ``spectral``; the diagnostics
(``G_hat``, ``initial_report``) take the same coefficients through the
spectral operators.

The prognostic state is the pair of dealiased half-plane coefficient
arrays ``SimState.hats``, the one thing a state is made from; its physical
collocation arrays are their inverse transforms, made at first use.  A step
advances the coefficients and hands its result on as the next state's
``hats``, with the inverses it has made, so it costs 16 real n x n
transforms: per stage 2 inverse for the velocity and 4 forward for the
products, and 2 inverse each for the predictor and the new state.  The
dissipation rates and the Cordoba monitor read the same coefficients.
With per-grid symbol tables, spectra are multiplied and masked in place
only on arrays the step allocated.  Checkpoints store the coefficients
bit for bit, which is what makes a split run equal to an unsplit one.

From n = LANE_MIN_N (256) the step runs both halves of each of its four
independent pairs at the same time (``_pair``), and each half carries the
arithmetic of its field with it:

- velocity: the inverse transform of one Biot-Savart component and its
  max |u_i|;
- advection: for theta, -div(u theta) (products and two forward
  transforms) and whether it is finite; for omega, d1 theta^ - div(u omega)
  in that order, and whether it is finite;
- predictor: e (c0 + dt N1) and its checked inverse;
- new state: the corrector sum e c0 + dt/2 (e N1 + N2) and its checked
  inverse, and for omega its max |omega|.

The predictor and the new state go into arrays that the caller allocated
before the pairs, so they stay on the caller's heap.  The caller keeps the
time-step choice and every blow-up decision, in the sequential order.  The
omega half goes to one daemon worker thread, the
lane, while the caller runs the theta half (and then the omega half too, if
the lane has not started it); numpy's transforms and array arithmetic
release the interpreter lock, so the halves use two cores.  Each half is the
same single-threaded work on the same inputs, so every output is bitwise
the sequential one and the step still makes 16 transforms.  The first pair
at a grid size also raises glibc's heap trim threshold (``_keep_heap``):
without that, the two threads' heaps hand their memory back and fault it in
again every step, which cost more than the overlap saves.  The crossover
was measured on a 2-vCPU VM with each mode in a process of its own (the
median of 60 steps after 10 warm-up steps, six rounds alternating which mode
ran first): at n = 128 a sequential step took 2.01-2.08 ms and a lane step
1.57-2.37 ms, faster in 2 of 6 rounds, so no reliable gain; at n = 256 a
sequential step took 7.4-8.6 ms and a lane step 4.2-4.7 ms, faster in 6 of 6.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import queue
import threading
import zlib
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .lp import riesz_commutator
from .spectral import (
    FlowParams,
    GridSpec,
    PhysicalField,
    SpectralField,
    advection,
    biot_savart,
    biot_savart_symbols,
    derivative_symbols,
    dealias,
    dealias_mask,
    field_from_function,
    grad_sup,
    image_distance2,
    irfft2,
    kpow,
    l2_norm_spectral,
    lp_norm,
    mean_free,
    random_band_field,
    riesz_alpha,
    shift_columns,
    shift_norms,
    shift_scan,
    to_physical,
    to_spectral,
)

OMEGA_BLOWUP_LIMIT = 1e8
DT_UNDERFLOW = 1e-12


class BlowUpError(RuntimeError):
    def __init__(self, t: float, omega_max: float):
        super().__init__(f"solution blew up at t={t:.6g} (max |omega| = {omega_max:.3e})")
        self.t = t
        self.omega_max = omega_max


@dataclass
class SimState:
    """Prognostic state at time t: ``hats``, the read-only dealiased
    half-plane coefficients of (theta, omega), which the step advances,
    checkpoints store and the diagnostics read.  ``theta`` / ``omega`` are
    their inverse transforms, made at first use (a step hands on the ones it
    made); ``theta_hat`` / ``omega_hat`` wrap the ``hats`` as
    ``SpectralField``s.  Treat states as immutable snapshots."""

    grid: GridSpec
    hats: tuple[np.ndarray, np.ndarray]
    t: float = 0.0

    def __post_init__(self):
        for c in self.hats:
            c.flags.writeable = False

    @cached_property
    def theta(self) -> PhysicalField:
        return PhysicalField(self.grid, irfft2(self.hats[0]))

    @cached_property
    def omega(self) -> PhysicalField:
        return PhysicalField(self.grid, irfft2(self.hats[1]))

    @cached_property
    def theta_hat(self) -> SpectralField:
        return SpectralField(self.grid, self.hats[0])

    @cached_property
    def omega_hat(self) -> SpectralField:
        return SpectralField(self.grid, self.hats[1])


@dataclass(frozen=True)
class StepperConfig:
    dt_init: float
    cfl_number: float = 0.4
    t_end: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dt_init, self.cfl_number, self.t_end)):
            raise ValueError("dt_init, cfl_number and t_end must be finite")
        if self.dt_init < DT_UNDERFLOW or self.t_end <= 0:
            raise ValueError(f"dt_init must be >= {DT_UNDERFLOW:g} and t_end positive")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")


# ---------------------------------------------------------------------------
# the transform lane: the second call of an independent pair on a worker thread

# smallest n whose pairs go to the lane; below it the hand-off costs more than
# the overlap saves (measured crossover, see the module docstring)
LANE_MIN_N = 256

_lane_jobs: queue.SimpleQueue | None = None
_lane_start = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        claim, ctx, fn, done = jobs.get()
        if not claim.acquire(blocking=False):
            continue  # the caller got to it first and ran it itself
        try:
            done.put((ctx.run(fn), None))
        except BaseException as exc:  # handed to the caller, which raises it
            done.put((None, exc))


def _lane() -> queue.SimpleQueue:
    """The lane's job queue, starting its one daemon thread on first use."""
    global _lane_jobs
    with _lane_start:
        if _lane_jobs is None:
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="bq2d-lane", daemon=True).start()
            _lane_jobs = jobs
        return _lane_jobs


def _forget_lane() -> None:
    global _lane_jobs, _lane_start
    _lane_jobs, _lane_start = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_lane)  # a forked child has no lane thread


@lru_cache(maxsize=None)
def _keep_heap(n: int) -> None:
    """Map and free one block of 8 half-plane arrays of the grid.  glibc
    raises its mmap threshold to the largest mapped block freed and its trim
    threshold to twice that (mallopt(3)), so each thread's heap then keeps
    that much free memory at its top: the step's transient arrays reuse it
    instead of being handed back to the kernel and faulted in again every
    step (at n = 256, about 850 minor faults a step with two threads' heaps,
    none after).  The block's pages are never touched."""
    np.empty(8 * n * (n // 2 + 1), complex)


def _pair(grid: GridSpec, fa, fb):
    """(fa(), fb()) of two independent calls.  From n = LANE_MIN_N, fb goes
    to the lane thread (run under the caller's numpy error state) while the
    caller runs fa; a lane that has not started fb by then leaves it to the
    caller, so a lane slow to wake costs no more than sequential order.
    Each call is the same single-threaded work on the same inputs, so the
    results are bitwise the sequential ones.  A started fb is always
    collected before returning or raising; when fa fails, its exception is
    raised, as in sequential order."""
    if grid.n < LANE_MIN_N:
        return fa(), fb()
    _keep_heap(grid.n)
    # one claim and one result queue per call: whoever takes the claim runs fb,
    # and an abandoned wait leaves no stale result behind
    claim, done = threading.Lock(), queue.SimpleQueue()
    (_lane_jobs if _lane_jobs is not None else _lane()).put((claim, contextvars.copy_context(), fb, done))
    try:
        a = fa()
    except BaseException:
        if not claim.acquire(blocking=False):
            done.get()  # the lane started fb: collect it before raising
        raise
    if claim.acquire(blocking=False):
        return a, fb()
    b, exc = done.get()
    if exc is not None:
        raise exc
    return a, b


# ---------------------------------------------------------------------------
# right-hand side, on half-plane coefficient arrays


def _sup_abs(d: np.ndarray) -> float:
    """max |d|, without an |d| temporary."""
    return max(d.max(), -d.min())


def _velocity(w: np.ndarray, grid: GridSpec):
    """Raw physical (u1, u2) from half-plane vorticity coefficients, for the
    step (``biot_savart`` is the diagnostics' path), with max |u| of each."""
    s1, s2 = biot_savart_symbols(grid)

    def half(s):
        u = irfft2(s * w)
        return u, _sup_abs(u)

    (u1, max1), (u2, max2) = _pair(grid, lambda: half(s1), lambda: half(s2))
    return (u1, u2), max(max1, max2)


def _velocity_l2(state: SimState) -> float:
    """||u||_2 by Parseval from the Biot-Savart coefficients."""
    return math.hypot(*(l2_norm_spectral(c) for c in biot_savart(state.omega_hat)))


def nonstiff_rhs(state: SimState):
    """Explicitly integrated tendencies (transport + buoyancy) and max |u|.

    Returns (N_theta, N_omega, u_max) with the tendencies as half-plane
    coefficient arrays; the diagonal dissipation is excluded here and
    handled exactly by the integrating factor.  The products use the
    physical arrays, the inverse transforms of the state's coefficients.
    """
    grid = state.grid
    th_hat, w_hat = state.hats
    u, u_max = _velocity(w_hat, grid)
    if not math.isfinite(u_max):
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))

    def theta_half():
        n_theta = -advection(u, state.theta.values, grid)
        return n_theta, np.isfinite(n_theta).all()

    def omega_half():
        n_omega = derivative_symbols(grid)[0] * th_hat
        n_omega -= advection(u, state.omega.values, grid)
        return n_omega, np.isfinite(n_omega).all()

    (n_theta, finite_theta), (n_omega, finite_omega) = _pair(grid, theta_half, omega_half)
    if not (finite_theta and finite_omega):
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))
    return n_theta, n_omega, float(u_max)


@lru_cache(maxsize=2)
def _integrating_factors(grid: GridSpec, params: FlowParams, dt: float):
    """Read-only exp(-c dt |k|^g) of theta and omega; a run's dt mostly repeats."""
    e_theta = np.exp(-params.kappa * dt * kpow(grid, params.beta))
    e_omega = np.exp(-params.nu * dt * kpow(grid, params.alpha))
    for e in (e_theta, e_omega):
        e.flags.writeable = False
    return e_theta, e_omega


def choose_dt(state: SimState, cfg: StepperConfig, u_max: float) -> float:
    """CFL step; a velocity that drives it below DT_UNDERFLOW is a blow-up."""
    dx = state.grid.spacing
    dt = min(cfg.dt_init, cfg.cfl_number * dx)  # buoyancy cap: zeroth-order coupling
    if dt < DT_UNDERFLOW:
        raise RuntimeError(f"time step underflow: dt={dt:.3e}")
    if u_max > 0:
        dt = min(dt, cfg.cfl_number * dx / u_max)
    if dt < DT_UNDERFLOW:
        raise BlowUpError(state.t, float(np.abs(state.omega.values).max()))
    return dt


def _physical_checked(grid: GridSpec, coeffs: np.ndarray, t: float) -> PhysicalField:
    """Inverse transform that reports non-finite intermediates as blow-up."""
    vals = irfft2(coeffs)
    try:
        return PhysicalField(grid, vals)
    except ValueError:
        finite = vals[np.isfinite(vals)]
        raise BlowUpError(t, float(np.abs(finite).max()) if finite.size else math.inf) from None


def step(
    state: SimState, params: FlowParams, cfg: StepperConfig, dt: float | None = None, t_stop: float | None = None
) -> SimState:
    """One integrating-factor Heun step; dt defaults to the CFL choice.  A
    step that would end past ``t_stop``, or short of it by less than
    DT_UNDERFLOW, is clipped to end on it."""
    grid = state.grid
    # the new coefficient arrays come first, ahead of every temporary, and the corrector
    # sums into them in place: each state then takes the place of the one freed before
    # it, so glibc does not regrow and trim the heap (page faults) every step
    th_new, w_new = (np.empty_like(c) for c in state.hats)
    n1_theta, n1_omega, u_max = nonstiff_rhs(state)
    if dt is None:
        dt = choose_dt(state, cfg, u_max)
    elif dt < DT_UNDERFLOW:
        raise RuntimeError(f"time step underflow: dt={dt:.3e}")
    t = state.t + dt
    if t_stop is not None and t != t_stop and t_stop - t < DT_UNDERFLOW:
        dt, t = t_stop - state.t, t_stop
    e_theta, e_omega = _integrating_factors(grid, params, dt)
    th0, w0 = state.hats

    th_pred, w_pred = (np.empty_like(c) for c in state.hats)  # on the caller's heap, as th_new, w_new

    def predictor(pred, e, c0, n1):
        """e (c0 + dt N1) into ``pred``, in the order of the out-of-place product, and its checked inverse."""
        np.multiply(dt, n1, out=pred)
        np.add(c0, pred, out=pred)
        np.multiply(e, pred, out=pred)
        return _physical_checked(grid, pred, t)

    theta, omega = _pair(
        grid, lambda: predictor(th_pred, e_theta, th0, n1_theta), lambda: predictor(w_pred, e_omega, w0, n1_omega)
    )
    pred = SimState(grid, (th_pred, w_pred), t)
    pred.theta, pred.omega = theta, omega
    n2_theta, n2_omega, _ = nonstiff_rhs(pred)

    def corrector(new, e, c0, n1, n2):
        """e c0 + dt/2 (e N1 + N2) into ``new``, in the order of the out-of-place sum
        (every term is dealiased already: c0 by construction, N1 and N2 by
        advection), and its checked inverse."""
        np.multiply(e, c0, out=new)
        half = np.multiply(e, n1, out=n1)  # N1 is spent: its buffer takes the bracket
        half += n2
        half *= 0.5 * dt
        new += half
        return _physical_checked(grid, new, t)

    def omega_corrector():
        omega = corrector(w_new, e_omega, w0, n1_omega, n2_omega)
        return omega, float(_sup_abs(omega.values))

    theta, (omega, omega_max) = _pair(
        grid, lambda: corrector(th_new, e_theta, th0, n1_theta, n2_theta), omega_corrector
    )
    out = SimState(grid, (th_new, w_new), t)
    out.theta, out.omega = theta, omega
    if omega_max > OMEGA_BLOWUP_LIMIT:
        raise BlowUpError(t, omega_max)
    return out


def run(state: SimState, params: FlowParams, cfg: StepperConfig, n_steps: int | None = None):
    """Advance exactly n_steps, or else to t_end: the last step is clipped
    onto t_end, and a remainder below DT_UNDERFLOW ends the run.  Yields
    each new state."""
    t_stop = cfg.t_end if n_steps is None else None
    count = 0
    while count != n_steps and (t_stop is None or t_stop - state.t >= DT_UNDERFLOW):
        state = step(state, params, cfg, t_stop=t_stop)
        count += 1
        yield state


# ---------------------------------------------------------------------------
# the combined quantity G and its evolution residual


def G_hat(state: SimState, alpha: float) -> SpectralField:
    """Half-plane coefficients of G = omega - R_alpha theta."""
    return SpectralField(state.grid, state.omega_hat.coeffs - riesz_alpha(state.theta_hat, alpha).coeffs)


def compute_G(state: SimState, alpha: float) -> PhysicalField:
    """G = omega - R_alpha theta in physical space."""
    return to_physical(G_hat(state, alpha))


def g_equation_residual(states, params: FlowParams) -> float:
    """L2 residual of the combined-quantity evolution equation on a
    three-state window at uniform dt (central difference in time).

    The transported equation reads
      d_t G + u.grad G + nu Lambda^alpha G
        = [R_alpha, u.grad] theta + (1-nu) d1 theta + kappa Lambda^{beta-alpha} d1 theta,
    which for nu = kappa = 1 is the familiar critical form.
    """
    if len(states) != 3:
        raise ValueError("need exactly three consecutive states")
    s0, s1, s2 = states
    dt1 = s1.t - s0.t
    dt2 = s2.t - s1.t
    if abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise ValueError("nonuniform time spacing in residual window")
    grid = s1.grid
    alpha, beta = params.alpha, params.beta

    g1 = G_hat(s1, alpha).coeffs
    dt_g = (compute_G(s2, alpha).values - compute_G(s0, alpha).values) / (dt1 + dt2)

    th_hat, w_hat = s1.hats
    u, _ = _velocity(w_hat, grid)
    adv = advection(u, irfft2(g1), grid)
    diss = params.nu * kpow(grid, alpha) * g1

    comm = riesz_commutator(lambda f: advection(u, f.values, grid), s1.theta_hat, alpha)
    d1_theta = derivative_symbols(grid)[0] * th_hat
    forcing = (1.0 - params.nu + params.kappa * kpow(grid, beta - alpha)) * d1_theta

    spatial = irfft2(adv + diss - comm - forcing)
    return lp_norm(PhysicalField(grid, dt_g + spatial), 2)


# ---------------------------------------------------------------------------
# initial data


def initial_data(kind: str, seed: int, grid: GridSpec, amplitude: float = 1.0) -> SimState:
    """Smooth band-limited initial states, reproducible from the seed."""
    if kind == "taylor-green-like":
        omega = field_from_function(
            grid, lambda x1, x2: 2.0 * amplitude * np.sin(x1) * np.sin(x2)
        )
        theta = field_from_function(grid, lambda x1, x2: amplitude * np.cos(x2))
    elif kind == "gaussian-bumps":
        rng = np.random.default_rng(seed)
        L = grid.side_length

        def bumps():
            out = np.zeros((grid.n, grid.n))
            for _ in range(3):
                cx, cy = rng.uniform(0.25 * L, 0.75 * L, size=2)
                amp = rng.uniform(-1.0, 1.0)
                width = rng.uniform(L / 24.0, L / 12.0)
                out += amp * np.exp(-image_distance2(grid, cx, cy) / (2.0 * width**2))
            return amplitude * out

        theta = PhysicalField(grid, bumps())
        omega = PhysicalField(grid, bumps())
    elif kind == "random-band":
        rng = np.random.default_rng(seed)
        theta = random_band_field(grid, 2.0, 6.0, rng, amplitude)
        omega = random_band_field(grid, 2.0, 6.0, rng, amplitude)
    else:
        raise ValueError(f"unknown initial data kind {kind!r}")
    th_hat = dealias(to_spectral(theta))
    w_hat = mean_free(dealias(to_spectral(omega)))  # vorticity is mean-free
    return SimState(grid, (th_hat.coeffs, w_hat.coeffs), 0.0)


def initial_report(state: SimState) -> dict:
    return {
        "theta_l2": lp_norm(state.theta, 2),
        "theta_linf": lp_norm(state.theta, math.inf),
        "grad_theta_linf": grad_sup(state.theta_hat),
        "u_l2": _velocity_l2(state),
    }


# ---------------------------------------------------------------------------
# only-small-shocks machinery


def _one_of_each_pair(grid: GridSpec) -> np.ndarray:
    """Mask of one grid shift of each pair +-h: signed index m1 > 0, or
    m1 = 0 and m2 > 0, plus the shifts that are their own mirror
    (m1, m2 in {0, -n/2})."""
    idx = np.arange(grid.n)
    positive = (idx > 0) & (idx < grid.n / 2)
    own = (idx == 0) | (2 * idx == grid.n)
    return positive[:, None] | ((idx == 0)[:, None] & positive[None, :]) | (own[:, None] & own[None, :])


def _disk_dilation(values: np.ndarray, disk: np.ndarray) -> np.ndarray:
    """max of values(x + h) over the grid shifts h set in ``disk`` (indexed as
    ``shift_norms``), a set whose column 0 and each row of m shifts are the
    cyclic intervals of signed offsets [-(m - 1) // 2, m // 2].

    The disk's rows are gathered from one roll of ``values`` by row slices;
    the column interval of each distinct m is a running maximum over columns,
    built by doubling from column-block copies into reused buffers.  Every
    step takes a max, so the result is bitwise that of any other order."""
    n = len(values)
    widths = np.count_nonzero(disk, axis=1)
    rows = int(widths[0])  # the disk's column 0 has as many shifts as its row 0
    top = (rows - 1) // 2
    power = np.roll(values, top, axis=0)  # row x + k of it is row x + k - top of values
    length = 1  # power[:, c] is the max of the rolled values over columns c .. c + length - 1
    shifted, window = np.empty_like(values), np.empty_like(values)
    out = np.full_like(values, -np.inf)
    m_done = 0
    for k in sorted(range(rows), key=lambda k: widths[(k - top) % n]):
        m = int(widths[(k - top) % n])
        if m != m_done:
            while 2 * length <= m:
                np.maximum(power, shift_columns(power, length, shifted), out=power)
                length *= 2
            np.maximum(power, shift_columns(power, m - length, shifted), out=shifted)
            shift_columns(shifted, -((m - 1) // 2), window)
            m_done = m
        np.maximum(out[: n - k], window[k:], out=out[: n - k])
        np.maximum(out[n - k :], window[:k], out=out[n - k :])
    return out


def oss_check(theta: PhysicalField, L: float) -> float:
    """Oscillation over the disk |h| < L, the spread that the only-small-shocks
    threshold is compared with: max over grid shifts of
    sup_x |theta(x+h) - theta(x)|, taken as
    max_x (max_{|h| < L} theta(x+h) - theta(x)).

    The two agree bit for bit: the disk holds -h with h, and the difference
    at -h is the one at h with the sign flipped, so the max of |d| is the
    max of d; rounding a - b is monotone in a, so the max over h of the
    rounded differences is the rounded difference of the max over h.  The
    disk's rows and columns are intervals of shifts (|h| grows with each
    offset), so the max over h is ``_disk_dilation``'s.
    """
    grid = theta.grid
    if L > grid.side_length / 2.0:
        raise ValueError("L must not exceed half the domain size")
    disk = shift_norms(grid) < L
    if np.count_nonzero(disk) < 2:  # no shift besides h = 0
        return 0.0
    spread = _disk_dilation(theta.values, disk)
    return max(0.0, float(np.subtract(spread, theta.values, out=spread).max()))


def delta_star(theta0_sup: float, beta: float, C_user: float) -> float:
    """Shock threshold C * ||theta0||_inf^{-2 beta / (2 - beta)}; ValueError past the float range."""
    if theta0_sup <= 0:
        raise ValueError("theta0_sup must be positive")
    try:
        delta = C_user * theta0_sup ** (-2.0 * beta / (2.0 - beta))
    except OverflowError:
        delta = math.inf
    if not math.isfinite(delta):
        raise ValueError(f"the shock threshold overflows at ||theta0||_inf = {theta0_sup!r}")
    return delta


def oss_weighted_profile(theta: PhysicalField, beta: float, psi_coeff: float):
    """Diagnostic profile of sup_x (delta_h theta)^2 * exp(-c |h|^{1-beta})
    over the grid shifts with |h| <= L/2; returns (|h| array, sup array)
    sorted by |h|.

    sup_x (delta_h theta)^2 is bitwise the same at h and -h (the difference
    at -h is the one at h, negated and moved), so one shift of each pair is
    scanned (``_one_of_each_pair``) and mirrored to the other.  The scan is
    ``shift_scan``'s.  max |d| squared equals max d^2 bit for bit, because
    rounding x^2 is monotone in |x|.
    """
    grid = theta.grid
    tnorm = shift_norms(grid)
    include = tnorm <= grid.side_length / 2.0
    scanned = _one_of_each_pair(grid)
    todo = include & scanned
    sup2 = np.zeros((grid.n, grid.n))
    sup2[todo] = shift_scan(theta.values, todo, _sup_abs) ** 2
    mirror = -np.arange(grid.n) % grid.n
    sup2 = np.where(scanned, sup2, sup2[np.ix_(mirror, mirror)])
    radii = tnorm[include]
    weights = np.array([math.exp(-psi_coeff * h ** (1.0 - beta)) for h in radii])
    order = np.argsort(radii)
    return radii[order], (sup2[include] * weights)[order]


# ---------------------------------------------------------------------------
# checkpoint format: one text header line, then the payload
#
# HEADER_FIELDS states the header's tokens after its tag; the writer and the
# reader both take them from it.  ``critical`` is 0 or 1, ``crc32`` the
# zlib.crc32 of the payload in hex, and the payload (theta^, omega^), each
# n x (n/2+1) little-endian complex128.  Any other BQCHK<digits> tag is
# refused by name.

HEADER_FIELDS = {
    "BQCHK3": ("n", "side_length", "dealias_fraction", "critical", "t", "nu", "kappa", "alpha", "beta", "crc32"),
}
HEADER_MAX_BYTES = 512  # a BQCHK3 header is under 300 bytes
_PARSERS = {"n": int, "critical": {"0": False, "1": True}.__getitem__, "crc32": lambda s: int(s, 16)}


def _from_header(cls, header: dict):
    """``cls`` of the header's values of its fields, the defaults for the rest."""
    return cls(**{f.name: header[f.name] for f in fields(cls) if f.name in header})


def write_checkpoint(path, state: SimState, params: FlowParams) -> None:
    payload = [np.ascontiguousarray(c, dtype="<c16") for c in state.hats]
    crc = zlib.crc32(payload[1], zlib.crc32(payload[0]))  # over the buffers, no copy
    values = {**asdict(state.grid), **asdict(params), "t": state.t, "crc32": f"{crc:08x}"}
    values["critical"] = int(params.critical)  # 0 or 1; a float's str is its round-trip repr
    header = " ".join(["BQCHK3", *(str(values[key]) for key in HEADER_FIELDS["BQCHK3"])]) + "\n"
    # written beside the target and renamed over it, so a killed run never
    # leaves a torn checkpoint behind
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii"))
            for c in payload:
                fh.write(c)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path):
    """(state, params) of a checkpoint; ValueError for a file that is not a
    whole, intact one of a format this version reads."""
    with open(path, "rb") as fh:
        head = fh.readline(HEADER_MAX_BYTES)
        tag = head.split(b" ", 1)[0]
        if tag[:5] == b"BQCHK" and tag[5:].isdigit() and tag.decode() not in HEADER_FIELDS:
            raise ValueError(f"checkpoint format {tag.decode()} of {path} is not read; this version reads BQCHK3")
        try:
            tag, *tokens = head.decode("ascii").split()
            header = {key: _PARSERS.get(key, float)(tok) for key, tok in zip(HEADER_FIELDS[tag], tokens, strict=True)}
            # a line cut at HEADER_MAX_BYTES has no newline
            if not head.endswith(b"\n") or not all(math.isfinite(v) for v in header.values() if isinstance(v, float)):
                raise ValueError
        except (ValueError, KeyError):
            raise ValueError(f"corrupt checkpoint header in {path}") from None
        grid = _from_header(GridSpec, header)
        n = grid.n
        # one sized read, checked against the file before its buffer is allocated
        size = 32 * n * (n // 2 + 1)
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError("truncated checkpoint payload")
        payload = fh.read(size)
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    if zlib.crc32(payload) != header["crc32"]:
        raise ValueError(f"checkpoint payload of {path} fails its CRC-32 check")
    hats = tuple(np.frombuffer(payload, dtype="<c16").reshape(2, n, n // 2 + 1).astype(complex))
    keep = dealias_mask(grid)
    if not all(np.isfinite(c).all() and not c[~keep].any() for c in hats):
        raise ValueError(f"checkpoint coefficients of {path} are not finite and dealiased")
    return SimState(grid, hats, header["t"]), _from_header(FlowParams, header)
