"""Time integration for the dissipative active scalar family.

The stepper is an integrating-factor RK4: the stiff diagonal part (fractional
dissipation plus optional artificial viscosity) is applied exactly per mode
between stages, so with the transport term disabled every output coincides
with the closed-form propagator. The stepping core carries the m2 >= 0 half
spectra of the state, the stage values and the slopes, and wraps them with
spectral._wrap_half; the full coefficient array is mirrored once per step,
for the per-step L2 norm and the snapshot diagnostics, so every printed
number keeps the full-array summation order. Every L2 and Sobolev number
here is norms._l2, the Parseval sum behind norms.sobolev_norm. The state
and stage fields of a run carry the dealias disc's support bound, so the
product engine sizes their products without scanning them. The Courant
number is read from the step velocity's cached n-grid samples
(`VectorField.samples`). When the first stage's products fit the n-grid,
these are samples that stage's products were formed from: in `simulate` the
ones `advect` reads, in the frozen-coefficient solve those of d1(M q) and
d2(M q) that `flux_divergence` makes, so the check costs no transform of its
own. On top of the direct solver sit the
fixed-point machinery (a linear solve with frozen transport coefficients,
iterated to convergence), exact self-similar rescaling, and the decay and
analyticity-radius diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, CourantError, PicardConvergenceError
from .norms import _l2, _weighted_gevrey, gevrey_norm
from .spectral import (
    GridSpec,
    ModelParams,
    SpectralField,
    VectorField,
    _dealias_mask,
    _half,
    _homog_weight,
    _kabs,
    _wrap_half,
    advect,
    flux_divergence,
    velocity_from_scalar,
)

__all__ = [
    "DecayReport",
    "DiagnosticsRow",
    "GevreyTrackReport",
    "PicardIterate",
    "ScalingReport",
    "SimState",
    "Trajectory",
    "decay_study",
    "default_delta",
    "gevrey_tracking",
    "linear_flux_solve",
    "linear_heat_propagator",
    "picard_solve",
    "rescale_solution",
    "rhs",
    "scaling_equivariance_check",
    "simulate",
    "step",
]

DEFAULT_CFL = 0.5

# relative slack for the t = step * dt bookkeeping invariant
_TIME_TOL = 1e-9


# ---------------------------------------------------------------------------
# state and trajectory containers


@dataclass(frozen=True)
class SimState:
    """One instant of a simulation: the field plus its time bookkeeping."""

    field: SpectralField
    t: float
    step_index: int
    params: ModelParams
    dt: float

    def __post_init__(self):
        if not self.field.mean_zero:
            raise ValueError("simulation states must be mean-zero")
        if self.t < 0 or not math.isfinite(self.t):
            raise ValueError(f"time must be finite and nonnegative, got {self.t}")
        if self.step_index < 0:
            raise ValueError(f"step index must be nonnegative, got {self.step_index}")
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if abs(self.t - self.step_index * self.dt) > _TIME_TOL * max(1.0, self.t):
            raise ValueError(
                f"inconsistent clock: t={self.t!r} but step*dt={self.step_index * self.dt!r}"
            )


@dataclass(frozen=True)
class DiagnosticsRow:
    """Per-snapshot scalar diagnostics."""

    t: float
    l2: float
    hs_crit: float
    energy_residual: float
    max_u: float
    courant: float


@dataclass(frozen=True)
class Trajectory:
    """Ordered snapshots of one run with aligned diagnostics rows.

    max_l2_step_increase is tracked over every solver step, not only the
    snapshots, so monotonicity of the L2 norm can be audited at full
    resolution regardless of the snapshot stride.
    """

    times: tuple
    fields: tuple
    rows: tuple
    params: ModelParams
    dt: float
    max_l2_step_increase: float

    def __post_init__(self):
        if not (len(self.times) == len(self.fields) == len(self.rows)):
            raise ValueError("times, fields, and diagnostics rows must align")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    def snapshots(self):
        """(t, field) pairs, the shape the space-time norms consume."""
        return tuple(zip(self.times, self.fields))

    @property
    def final(self) -> SpectralField:
        return self.fields[-1]


@dataclass(frozen=True)
class PicardIterate:
    """One fixed-point iterate with its distance to the previous one.

    diff_sup_l2 is sup over the step grid of the L2 distance to the previous
    iterate; diff_contraction is the same distance in the branch-dependent
    contraction norm (sup-in-time L2 when the modified flux carries two
    terms, a cubed-time-integrated Sobolev norm otherwise). Both are None
    for the seed iterate, and the ratio needs two consecutive differences.
    """

    index: int
    trajectory: Trajectory
    diff_sup_l2: float | None
    diff_contraction: float | None
    contraction_ratio: float | None
    converged: bool


@dataclass(frozen=True)
class ScalingReport:
    """Result of the rescaling commutation test."""

    lam: int
    gap: float
    horizon: float
    rescaled_horizon: float
    norm_final_coarse: float
    norm_final_fine: float


@dataclass(frozen=True)
class DecayReport:
    """Fitted long-time decay slopes over the final decade of a run."""

    slopes: dict
    expected: dict
    window: tuple
    n_points: int
    times: tuple
    series: dict


@dataclass(frozen=True)
class GevreyTrackReport:
    """Weighted analyticity-radius norm along a trajectory and its sup."""

    times: tuple
    series: tuple
    sup: float
    alpha: float
    eps_rate: float
    delta: float


# ---------------------------------------------------------------------------
# linear propagator


def _decay_multiplier(grid, gamma, kappa, eps_visc, tau):
    """exp(-tau (gamma |k|^kappa + eps |k|^2)) on the m2 >= 0 half lattice."""
    kabs = _kabs(grid)
    return _half(np.exp(-tau * (gamma * kabs**kappa + eps_visc * kabs * kabs)))


def linear_heat_propagator(
    field: SpectralField, t: float, gamma: float, kappa: float, eps_visc: float = 0.0
) -> SpectralField:
    """Exact solution operator of the linear dissipative part at time t.

    Multiplies each coefficient by exp(-t(gamma|k|^kappa + eps|k|^2)). The
    inverse flow (t < 0) is rejected; growing weights are the job of the
    Gevrey operator, which guards against overflow.
    """
    if t < 0:
        raise ValueError(f"propagator time must be nonnegative, got {t}")
    if gamma < 0 or eps_visc < 0:
        raise ValueError("dissipation strengths must be nonnegative")
    if not (0 < kappa <= 2):
        raise ValueError(f"kappa must lie in (0, 2], got {kappa}")
    mult = _decay_multiplier(field.grid, gamma, kappa, eps_visc, t)
    return _wrap_half(field.grid, mult * field.half, field._kmax)


# ---------------------------------------------------------------------------
# right-hand side and the stepping core


def _tendency(theta: SpectralField, params: ModelParams, u: VectorField | None = None):
    """-u . grad(theta) with u induced by theta, unless the caller has it already."""
    if u is None:
        u = velocity_from_scalar(theta, params)
    return -advect(u, theta)


def rhs(state: SimState) -> SpectralField:
    """Nonlinear tendency -u . grad(theta); the stiff part lives in the
    integrating factor, not here."""
    return _tendency(state.field, state.params)


def _advective_stages(grid: GridSpec, params: ModelParams, nonlinear: bool):
    """Stage-tendency factory of the full equation, in the shape _run takes.

    The velocity of the step's start state is computed once: it gives the
    CFL measurement and advects the first stage.
    """

    def nonlin(f, _stage):
        return _tendency(f, params)

    def factory(_i, theta):
        u = velocity_from_scalar(theta, params)
        if not nonlinear:
            zero = _wrap_half(grid, np.zeros_like(theta.half))
            return (lambda _f, _stage: zero), u, zero
        return nonlin, u, _tendency(theta, params, u)

    return factory


def _courant(u: VectorField, dt: float) -> tuple:
    """Peak speed of u and the advective Courant number it gives at step dt.

    The speed is read from u's cached n-grid samples, the arrays `advect`
    reads when it forms its products on the n-grid.
    """
    p1, p2 = u.samples
    max_u = float(np.sqrt(p1 * p1 + p2 * p2).max())
    return max_u, dt * max_u / (u.grid.period / u.grid.n)


def _pairing(a: np.ndarray, b: np.ndarray, period: float) -> float:
    return period * period * float(np.real(np.sum(a * np.conj(b))))


def _diagnostics_row(t, coeffs, l2, params, u, speed, k1=None) -> DiagnosticsRow:
    """Snapshot diagnostics; without a transport tendency k1 the residual is 0."""
    grid = u.grid
    period = grid.period
    residual = 0.0
    if k1 is not None:
        raw = abs(_pairing(k1, coeffs, period))
        scale = (
            math.hypot(_l2(u.u1.coeffs, period), _l2(u.u2.coeffs, period))
            * _l2(coeffs, period, _homog_weight(grid, 2.0))
            * l2
        )
        residual = raw / scale if scale > 0 else 0.0
    max_u, courant = speed
    return DiagnosticsRow(
        t=t,
        l2=l2,
        hs_crit=_l2(coeffs, period, _homog_weight(grid, 2.0 * params.sigma_c)),
        energy_residual=residual,
        max_u=max_u,
        courant=courant,
    )


def _integrating_factors(grid: GridSpec, params: ModelParams, dt: float) -> tuple:
    """Exact linear flow over a full step and over half a step, as half spectra."""
    p = params
    return (
        _decay_multiplier(grid, p.gamma, p.kappa, p.eps_visc, dt),
        _decay_multiplier(grid, p.gamma, p.kappa, p.eps_visc, 0.5 * dt),
    )


def _advance(theta, i, t, h, factors, nonlin, k1, speed, l2, c_cfl, kmax=None):
    """Step i of the integrating-factor RK4 from the field theta and its
    first slope k1 (a field); returns the new state field.

    The stages and the result are wrapped as fields with support bound kmax,
    and nonlin(stage_field, stage) gives each stage's tendency field. Refuses
    to start when the Courant number passes c_cfl (None: no guard) and
    signals a blow-up when the result loses finiteness.
    """
    max_u, courant = speed
    if c_cfl is not None and courant > c_cfl:
        raise CourantError(courant, c_cfl, t, i)
    grid = theta.grid

    def slope(c, stage):
        return nonlin(_wrap_half(grid, c, kmax), stage).half

    coeffs, k1 = theta.half, k1.half
    eh, eh2 = factors
    s2 = eh2 * (coeffs + (0.5 * h) * k1)
    k2 = slope(s2, 1)
    s3 = eh2 * coeffs + (0.5 * h) * k2
    k3 = slope(s3, 2)
    s4 = eh * coeffs + h * (eh2 * k3)
    k4 = slope(s4, 3)
    out = eh * coeffs + (h / 6.0) * (eh * k1 + 2.0 * eh2 * (k2 + k3) + k4)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(
            (i + 1) * h, i + 1, {"l2": l2, "max_u": max_u, "courant": courant}
        )
    return _wrap_half(grid, out, kmax)


def step(
    state: SimState,
    dt: float | None = None,
    *,
    c_cfl: float = DEFAULT_CFL,
    nonlinear: bool = True,
) -> SimState:
    """Advance one integrating-factor RK4 step.

    The step size is fixed by the state; passing a different dt breaks the
    t = step * dt bookkeeping and is rejected.
    """
    if dt is not None and dt != state.dt:
        raise ValueError("step size is fixed by the state; rebuild at t=0 to change dt")
    h = state.dt
    theta = state.field
    grid = theta.grid
    i = state.step_index
    nonlin, u, k1 = _advective_stages(grid, state.params, nonlinear)(i, theta)
    out = _advance(
        theta,
        i,
        state.t,
        h,
        _integrating_factors(grid, state.params, h),
        nonlin,
        k1,
        _courant(u, h),
        _l2(theta.coeffs, grid.period),
        c_cfl if nonlinear else None,
    )
    return SimState(
        field=out,
        t=(i + 1) * h,
        step_index=i + 1,
        params=state.params,
        dt=h,
    )


# ---------------------------------------------------------------------------
# shared run driver


def _disc_bound(grid: GridSpec) -> int:
    """Support bound of every field inside the dealias disc."""
    return int(grid.dealias_radius)


def _admissible_initial(theta0: SpectralField) -> SpectralField:
    """Restrict initial data to the dealias disc and remove its mean."""
    half = theta0.half * _half(_dealias_mask(theta0.grid))
    half[0, 0] = 0.0
    return _wrap_half(theta0.grid, half, _disc_bound(theta0.grid))


def _step_count(T: float, dt: float) -> int:
    if not (T > 0 and dt > 0):
        raise ValueError("horizon and dt must be positive")
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-8 * T:
        raise ValueError(f"dt={dt} must divide the horizon T={T}")
    return n


def _run(theta0, params, T, dt, snapshot_stride, c_cfl, nonlinear, nonlin_factory):
    """Drive the IF-RK4 core with a per-step tendency factory.

    nonlin_factory(i, theta) is called at every step index i = 0..n_steps
    with the state field at t = i dt. It returns the stage tendency function
    (mapping a stage field to its tendency field, called with stage indices
    1..3, in order), the advecting velocity used for the CFL measurement and
    the diagnostics, and the first slope k1 at theta, as a field. The call
    at i = n_steps only feeds the final diagnostics row. The state and every
    stage field lie in the dealias disc and carry its support bound, so the
    product engine need not scan them.
    """
    grid = theta0.grid
    n_steps = _step_count(T, dt)
    if snapshot_stride < 1:
        raise ValueError("snapshot stride must be a positive integer")
    factors = _integrating_factors(grid, params, dt)
    guard = c_cfl if nonlinear else None
    kmax = _disc_bound(grid)

    theta = _admissible_initial(theta0)
    times, fields, rows = [], [], []
    max_increase = 0.0
    # the state's one mirror per step, shared by its L2 norm and its row
    coeffs = theta.coeffs
    l2_now = _l2(coeffs, grid.period)

    for i in range(n_steps + 1):
        t = i * dt
        nonlin, u, k1 = nonlin_factory(i, theta)
        speed = _courant(u, dt)
        if i % snapshot_stride == 0 or i == n_steps:
            times.append(t)
            fields.append(theta)
            rows.append(
                _diagnostics_row(
                    t, coeffs, l2_now, params, u, speed,
                    k1.coeffs if nonlinear else None,
                )
            )
        if i == n_steps:
            break
        theta = _advance(theta, i, t, dt, factors, nonlin, k1, speed, l2_now, guard, kmax)
        coeffs = theta.coeffs
        l2_new = _l2(coeffs, grid.period)
        if l2_new > l2_now > 0:
            max_increase = max(max_increase, (l2_new - l2_now) / l2_now)
        l2_now = l2_new

    return Trajectory(
        times=tuple(times),
        fields=tuple(fields),
        rows=tuple(rows),
        params=params,
        dt=dt,
        max_l2_step_increase=max_increase,
    )


def simulate(
    theta0: SpectralField,
    params: ModelParams,
    T: float,
    dt: float,
    snapshot_stride: int = 1,
    *,
    c_cfl: float = DEFAULT_CFL,
    nonlinear: bool = True,
) -> Trajectory:
    """Integrate the full equation to horizon T with snapshots every
    snapshot_stride steps (the initial and final states are always kept).

    Initial data is restricted to the dealias disc and de-meaned. The run
    terminates with a blow-up signal if coefficients lose finiteness and
    with a CFL signal if the advective Courant number passes c_cfl.
    """
    factory = _advective_stages(theta0.grid, params, nonlinear)
    return _run(theta0, params, T, dt, snapshot_stride, c_cfl, nonlinear, factory)


# ---------------------------------------------------------------------------
# frozen-coefficient linear solve and the fixed-point iteration


def _as_stage_provider(q, grid, n_steps, dt):
    """Normalize q to a function (step, stage) -> SpectralField.

    Callables are sampled at the stage times t, t+dt/2, t+dt/2, t+dt (the
    two middle stages share their time). Sequences must hold one 4-tuple of
    fields per step, one per stage slot: no temporal interpolation ever
    happens.
    """
    if callable(q):
        offsets = (0.0, 0.5 * dt, 0.5 * dt, dt)

        def provider(i, stage):
            f = q(i * dt + offsets[stage])
            if f.grid != grid:
                raise ValueError("coefficient trajectory lives on the wrong grid")
            return f

        return provider

    samples = list(q)
    if len(samples) < n_steps:
        raise ValueError(
            f"coefficient trajectory has {len(samples)} steps, run needs {n_steps}"
        )

    def provider(i, stage):
        rec = samples[i]
        if len(rec) != 4:
            raise ValueError("each step needs exactly four stage samples")
        f = rec[stage]
        if f.grid != grid:
            raise ValueError("coefficient trajectory lives on the wrong grid")
        return f

    return provider


def linear_flux_solve(
    theta0: SpectralField,
    q,
    params: ModelParams,
    T: float,
    dt: float,
    snapshot_stride: int = 1,
    *,
    c_cfl: float = DEFAULT_CFL,
    stage_sink: list | None = None,
) -> Trajectory:
    """Integrate the linear equation with frozen transport coefficients q.

    q is either a callable t -> SpectralField or a per-step sequence of
    4-tuples of stage samples. The stepper matches simulate's, with the
    tendency -flux_divergence(q(stage), theta_stage); q identically zero
    reproduces the pure heat flow. When stage_sink is a list, the
    solution's own stage values (start of step, the two half-step stages,
    the end-of-step stage) are appended per step as 4-element lists, the
    exact shape the next fixed-point iterate consumes as q.
    """
    return _frozen_solve(
        theta0, q, params, T, dt, snapshot_stride, c_cfl, stage_sink, negate=True
    )


def _frozen_solve(theta0, q, params, T, dt, snapshot_stride, c_cfl, stage_sink, negate):
    """linear_flux_solve with the tendency -flux_divergence(q, theta) when
    negate is true and +flux_divergence(q, theta) otherwise.

    The Courant velocity is q's at the start of the step; when the first
    stage's products fit the n-grid, its samples are the ones that stage's
    flux transforms make.
    """
    grid = theta0.grid
    n_steps = _step_count(T, dt)
    provider = _as_stage_provider(q, grid, n_steps, dt)

    def factory(i, theta):
        # the final row, at t = T, reads q at the last step's end stage
        q0 = provider(i, 0) if i < n_steps else provider(n_steps - 1, 3)
        u = velocity_from_scalar(q0, params)
        record = None
        if stage_sink is not None and i < n_steps and len(stage_sink) <= i:
            record = []
            stage_sink.append(record)

        def tendency(f, stage):
            if record is not None and len(record) < 4:
                record.append(f)
            if stage == 0:
                div = flux_divergence(q0, f, params, velocity=u)
            else:
                div = flux_divergence(provider(i, stage), f, params)
            return -div if negate else div

        return tendency, u, tendency(theta, 0)

    return _run(theta0, params, T, dt, snapshot_stride, c_cfl, True, factory)


def _heat_flow_seed(theta0, params, T, dt, snapshot_stride):
    """Exact closed-form heat flow, the seed of the iteration: its trajectory
    on the snapshot schedule and its stage samples, each time evaluated once.
    """

    def prop(t):
        return linear_heat_propagator(
            theta0, t, params.gamma, params.kappa, params.eps_visc
        )

    n_steps = _step_count(T, dt)
    stages = []
    for i in range(n_steps):
        t = i * dt
        mid = prop(t + 0.5 * dt)
        stages.append([prop(t), mid, mid, prop(t + dt)])
    times, fields, rows = [], [], []
    for i in range(n_steps + 1):
        if i % snapshot_stride and i != n_steps:
            continue
        t = i * dt
        f = stages[i][0] if i < n_steps else prop(t)
        u = velocity_from_scalar(f, params)
        coeffs = f.coeffs
        times.append(t)
        fields.append(f)
        rows.append(
            _diagnostics_row(
                t, coeffs, _l2(coeffs, f.grid.period), params, u, _courant(u, dt)
            )
        )
    traj = Trajectory(
        times=tuple(times),
        fields=tuple(fields),
        rows=tuple(rows),
        params=params,
        dt=dt,
        max_l2_step_increase=0.0,
    )
    return traj, stages


def _step_values(stages, final_field):
    """Solution at every step time: stage-0 samples plus the final field."""
    return [rec[0] for rec in stages] + [final_field]


def picard_solve(
    theta0: SpectralField,
    params: ModelParams,
    T: float,
    dt: float,
    tol: float = 1e-10,
    max_iter: int = 20,
    *,
    snapshot_stride: int = 1,
    c_cfl: float = DEFAULT_CFL,
) -> list:
    """Fixed-point iteration: seed with the exact heat flow, then repeatedly
    solve the linear equation with transport coefficients frozen at the
    previous iterate (negated). Stops once the sup-in-time L2 distance
    between consecutive iterates drops below tol; exhausting max_iter
    raises, with the distance history attached.

    The previous iterate's stages go to the solve as they are, with the
    tendency +flux_divergence(f, theta): flux_divergence is linear in q and
    negation is exact, so that equals -flux_divergence(-f, theta) bit for bit.
    """
    theta0 = _admissible_initial(theta0)
    seed_traj, prev_stages = _heat_flow_seed(theta0, params, T, dt, snapshot_stride)
    iterates = [
        PicardIterate(
            index=0,
            trajectory=seed_traj,
            diff_sup_l2=None,
            diff_contraction=None,
            contraction_ratio=None,
            converged=False,
        )
    ]
    prev_values = _step_values(prev_stages, seed_traj.final)
    prev_contraction = None
    history = []
    period = theta0.grid.period
    # the two-term branch contracts in the sup-in-time L2 norm itself, the
    # one-term branch in the time-integrated cube of the 2 kappa / 3 Sobolev norm
    w = None if params.two_term else _homog_weight(theta0.grid, 4.0 * params.kappa / 3.0)

    for n in range(1, max_iter + 1):
        sink: list = []
        traj = _frozen_solve(
            theta0, prev_stages, params, T, dt, snapshot_stride, c_cfl, sink, negate=False
        )
        values = _step_values(sink, traj.final)
        l2s, cubes = [], []
        for a, b in zip(values, prev_values):
            coeffs = _wrap_half(theta0.grid, a.half - b.half).coeffs
            l2s.append(_l2(coeffs, period))
            if w is not None:
                cubes.append(_l2(coeffs, period, w) ** 3)
        sup_l2 = contraction = max(l2s)
        if w is not None:
            contraction = float(np.trapezoid(cubes, dx=dt)) ** (1.0 / 3.0)
        ratio = contraction / prev_contraction if prev_contraction else None
        history.append(sup_l2)
        converged = sup_l2 < tol
        iterates.append(
            PicardIterate(
                index=n,
                trajectory=traj,
                diff_sup_l2=sup_l2,
                diff_contraction=contraction,
                contraction_ratio=ratio,
                converged=converged,
            )
        )
        if converged:
            return iterates
        prev_stages, prev_values, prev_contraction = sink, values, contraction

    err = PicardConvergenceError(max_iter, history[-1], tol, history=history)
    err.iterates = iterates
    raise err


# ---------------------------------------------------------------------------
# self-similar rescaling


def rescale_solution(field: SpectralField, lam: int, params: ModelParams) -> SpectralField:
    """Map a field on a box of side L to its self-similar image on side L/lam.

    Mode index m keeps its coefficient (scaled by lam^(kappa-beta)); its
    physical wavevector grows by the factor lam through the box change, so
    the map is exact with no resolution loss. Under the area-weighted
    Parseval convention the critical Sobolev norm is invariant.
    """
    if isinstance(lam, bool) or not isinstance(lam, int):
        raise ValueError(f"scaling factor must be an integer, got {lam!r}")
    if lam < 1:
        raise ValueError(f"scaling factor must be >= 1, got {lam}")
    grid = field.grid
    target = GridSpec(grid.n, grid.period / lam, grid.dealias_fraction)
    return _wrap_half(target, float(lam) ** (params.kappa - params.beta) * field.half)


def scaling_equivariance_check(
    theta0: SpectralField,
    params: ModelParams,
    lam: int,
    T: float,
    dt: float,
    *,
    nonlinear: bool = True,
    c_cfl: float = DEFAULT_CFL,
) -> ScalingReport:
    """Compare rescale-then-solve against solve-then-rescale.

    The rescaled run uses horizon T/lam^kappa and step dt/lam^kappa; the
    artificial viscosity is rescaled by lam^(kappa-2) so that it commutes
    with the map as well. Reports the relative L2 gap at the final time.
    """
    if isinstance(lam, bool) or not isinstance(lam, int) or lam < 2:
        raise ValueError(f"scaling factor must be an integer >= 2, got {lam}")
    grid = theta0.grid
    outside = theta0.coeffs[~_dealias_mask(grid)]
    if outside.size and float(np.max(np.abs(outside))) > 0:
        raise ValueError(
            "initial data carries modes beyond the dealias radius; "
            "the rescaled comparison would be lossy"
        )
    n_steps = _step_count(T, dt)
    factor = float(lam) ** params.kappa
    params_b = replace(
        params, eps_visc=params.eps_visc * float(lam) ** (params.kappa - 2.0)
    )

    run_a = simulate(theta0, params, T, dt, n_steps, c_cfl=c_cfl, nonlinear=nonlinear)
    coarse = rescale_solution(run_a.final, lam, params)

    run_b = simulate(
        rescale_solution(theta0, lam, params),
        params_b,
        T / factor,
        dt / factor,
        n_steps,
        c_cfl=c_cfl,
        nonlinear=nonlinear,
    )
    fine = run_b.final

    period = fine.grid.period
    coarse_c, fine_c = coarse.coeffs, fine.coeffs
    denom = _l2(fine_c, period)
    gap = _l2(coarse_c - fine_c, period) / denom if denom > 0 else 0.0
    wc = _homog_weight(fine.grid, 2.0 * params.sigma_c)
    return ScalingReport(
        lam=lam,
        gap=gap,
        horizon=T,
        rescaled_horizon=T / factor,
        norm_final_coarse=_l2(coarse_c, period, wc),
        norm_final_fine=_l2(fine_c, period, wc),
    )


# ---------------------------------------------------------------------------
# long-time diagnostics


def default_delta(params: ModelParams) -> float:
    """Default extra regularity for the decay and tracking diagnostics."""
    if params.two_term:
        return params.kappa / 3.0
    return (params.kappa + 1.0 - params.beta) / 2.0


def decay_study(
    theta0: SpectralField,
    params: ModelParams,
    delta: float,
    k_list,
    T: float,
    dt: float,
    *,
    snapshot_stride: int = 1,
    c_cfl: float = DEFAULT_CFL,
    nonlinear: bool = True,
) -> DecayReport:
    """Fit log-log decay slopes of derivative norms over the final decade.

    For each k in k_list the series of the order-k derivative measured in
    the Sobolev index sigma_c + delta is fitted by least squares on
    t in [T/10, T]; the reference slope is -(k + delta) / kappa. Fewer
    than 10 usable snapshots in the window is an error.
    """
    traj = simulate(
        theta0, params, T, dt, snapshot_stride, c_cfl=c_cfl, nonlinear=nonlinear
    )
    t0 = T / 10.0
    grid = theta0.grid
    slopes, expected, series = {}, {}, {}
    times_all = np.array(traj.times)
    keep = times_all >= t0 * (1.0 - 1e-12)
    n_points = None
    weights = [_homog_weight(grid, 2.0 * (params.sigma_c + delta + k)) for k in k_list]
    # one mirror per snapshot, measured in every weight: a column per k
    mirrors = (f.coeffs for f in traj.fields)
    table = np.array([[_l2(c, grid.period, w) for w in weights] for c in mirrors])
    for k, vals in zip(k_list, table.T):
        series[k] = tuple(vals)
        usable = keep & (vals > 0)
        count = int(np.sum(usable))
        n_points = count if n_points is None else min(n_points, count)
        if count < 10:
            raise ValueError(
                f"decay fit needs at least 10 usable snapshots in [{t0:g}, {T:g}], "
                f"got {count}"
            )
        coef = np.polyfit(np.log(times_all[usable]), np.log(vals[usable]), 1)
        slopes[k] = float(coef[0])
        expected[k] = -(k + delta) / params.kappa
    return DecayReport(
        slopes=slopes,
        expected=expected,
        window=(t0, T),
        n_points=n_points or 0,
        times=traj.times,
        series=series,
    )


def gevrey_tracking(
    trajectory: Trajectory,
    alpha: float,
    eps_rate: float,
    delta: float,
) -> GevreyTrackReport:
    """Time-weighted analyticity-radius norm along a trajectory.

    Power law: the series holds each snapshot's term of norms.xt_norm (one
    Gevrey norm per snapshot), and the sup, the largest positive-time term,
    is xt_norm of the run, the space-time norm. Log law: the unweighted
    Gevrey norm with the linearly growing radius eps_rate * t. An overflow
    of the Gevrey weight is a meaningful diagnostic (the radius outgrew the
    resolvable range) and propagates as OverflowGuardError.
    """
    params = trajectory.params
    if not (0 < alpha < params.kappa):
        raise ValueError(f"alpha must lie in (0, kappa={params.kappa}), got {alpha}")
    if eps_rate < 0:
        raise ValueError(f"radius growth rate must be nonnegative, got {eps_rate}")
    bound = default_delta(params)
    if not (0 <= delta <= bound + 1e-12):
        raise ValueError(f"delta must lie in [0, {bound:g}], got {delta}")
    sigma = params.sigma_c + delta
    series = []
    for t, f in trajectory.snapshots():
        if params.velocity_law == "log":
            series.append(gevrey_norm(f, alpha, eps_rate * t, sigma))
        elif t <= 0:
            series.append(0.0 if delta > 0 else gevrey_norm(f, alpha, 0.0, sigma))
        else:
            series.append(
                _weighted_gevrey(
                    f, t, alpha, eps_rate, params.sigma_c, delta, params.gamma, params.kappa
                )
            )
    if params.velocity_law == "log":
        sup = max(series)
    else:
        positive = [v for t, v in zip(trajectory.times, series) if t > 0]
        sup = max(positive) if positive else (series[0] if series else 0.0)
    return GevreyTrackReport(
        times=trajectory.times,
        series=tuple(series),
        sup=sup,
        alpha=alpha,
        eps_rate=eps_rate,
        delta=delta,
    )
