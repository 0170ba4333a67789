"""Time integration for the dissipative active scalar family.

The stepper is an integrating-factor RK4: the stiff diagonal part (fractional
dissipation plus optional artificial viscosity) is applied exactly per mode
between stages, so with the transport term disabled every output coincides
with the closed-form propagator. The stepping core carries the m2 >= 0 half
spectra of the state, the stage values and the slopes, and wraps them with
spectral._wrap_half; it forms the RK4 combine in place, in the stage and
result buffers, bit for bit the written expression. The full coefficient
array of the state is mirrored once per step, for the per-step L2 norm and
the snapshot diagnostics, so every printed number keeps the full-array
summation order. Every L2 and Sobolev number here is norms._l2, the
Parseval sum behind norms.sobolev_norm. The state and stage fields of a run
carry the dealias disc's support bound, so the product engine sizes their
products without scanning them. Every run with transport steps the
modified-flux solve: the full equation is its member q = theta, whose
tendency flux_divergence(theta, theta) is -u . grad(theta). The Courant
number is read from n-grid samples of q's velocity at the start of the
step: when the first stage's products fit the n-grid, those of d1(M q) and
d2(M q) that `flux_divergence` makes, so the check costs no transform of
its own. On top of the direct solver sit the fixed-point machinery (a
linear solve with frozen transport coefficients, iterated to convergence),
exact self-similar rescaling, and the decay and analyticity-radius
diagnostics.

A run hands each snapshot (t, field, row) to a sink, chosen by the `sink`
keyword of `simulate` and `picard_solve`. row is a zero-argument maker of
the snapshot's `DiagnosticsRow`, which the sink calls, at most once, while
it takes the snapshot:
- `TrajectorySink`, the default, keeps every snapshot field and row and
  returns a `Trajectory`;
- `ReduceSink` keeps the rows, the scalar cells its `cells(t, field, row)`
  makes of each snapshot, and the last field, and returns a `RunSummary`.
  Beyond a row and its cells per snapshot, its memory does not grow with
  the number of steps;
- `FinalSink` keeps the last field alone and never makes a row; its
  `RunSummary` has no times, rows or cells. The callers that read only the
  iterate distances or the final field use it: the picard scenario, the
  amplitude sweep and the scaling check.
A row's velocity field and its mirrors are made only by the row maker, and
so are the final snapshot's slope and Courant number: a velocity field is
built for a row alone, except where the Courant number needs its samples
transformed (products on the 3n/2 grid). `picard_solve` reads the previous
iterate's stage records through the one stage provider, `_as_stage_provider`,
which holds the only copy of the record list and drops each record once the
new iterate's step has read it. Each step difference is reduced to its norms
as the step's start value is formed. With `ReduceSink` or `FinalSink` an
iterate holds one iterate's stage records at a time, plus the final fields
and, with `ReduceSink`, the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import BlowUpError, CourantError, PicardConvergenceError
from .norms import _l2, _weighted_gevrey, gevrey_norm
from .spectral import (
    GridSpec,
    ModelParams,
    SpectralField,
    _dealias_mask,
    _half,
    _homog_weight,
    _kabs,
    _wrap_half,
    flux_divergence,
    velocity_from_scalar,
)

# Not called here: perfbench/test_perfbench.py reads solver.advect to check
# that its tracer rebinds every module's binding of spectral.advect.
from .spectral import advect  # noqa: F401, E402

__all__ = [
    "DecayReport",
    "DiagnosticsRow",
    "FinalSink",
    "GevreyTrackReport",
    "PicardIterate",
    "ReduceSink",
    "RunSummary",
    "ScalingReport",
    "SimState",
    "Trajectory",
    "TrajectorySink",
    "decay_study",
    "default_delta",
    "gevrey_report",
    "gevrey_term",
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
class RunSummary:
    """What a run with ReduceSink keeps: the snapshot times and rows, the
    cells made of each snapshot, and the final field. A run with FinalSink
    keeps the final field alone: its times, rows and cells are empty.

    fields holds the final field alone, the one field the run retains.
    """

    times: tuple
    rows: tuple
    cells: tuple
    final: SpectralField
    params: ModelParams
    dt: float
    max_l2_step_increase: float

    @property
    def fields(self) -> tuple:
        return (self.final,)


class TrajectorySink:
    """In-memory sink: keeps every snapshot and builds the run's Trajectory."""

    def __init__(self):
        self.times, self.fields, self.rows = [], [], []

    def add(self, t: float, field: SpectralField, row) -> None:
        self.times.append(t)
        self.fields.append(field)
        self.rows.append(row())

    def result(self, params: ModelParams, dt: float, max_increase: float) -> Trajectory:
        return Trajectory(
            times=tuple(self.times),
            fields=tuple(self.fields),
            rows=tuple(self.rows),
            params=params,
            dt=dt,
            max_l2_step_increase=max_increase,
        )


class ReduceSink:
    """Reduce-only sink: keeps the rows, cells(t, field, row) of each snapshot
    when cells is given, and the last field; builds a RunSummary.

    An exception from cells is held and raised when the run has ended, so a
    failure of the run itself is reported first, as it would be if the cells
    were computed from the finished trajectory; no cells are computed after it.
    """

    def __init__(self, cells=None):
        self.times, self.rows, self.cells = [], [], []
        self.last = None
        self._make_cells = cells
        self._error = None

    def add(self, t: float, field: SpectralField, row) -> None:
        row = row()
        self.times.append(t)
        self.rows.append(row)
        self.last = field
        if self._make_cells is not None and self._error is None:
            try:
                self.cells.append(self._make_cells(t, field, row))
            except Exception as exc:   # re-raised by result()
                self._error = exc

    def result(self, params: ModelParams, dt: float, max_increase: float) -> RunSummary:
        if self._error is not None:
            raise self._error
        return RunSummary(
            times=tuple(self.times),
            rows=tuple(self.rows),
            cells=tuple(self.cells),
            final=self.last,
            params=params,
            dt=dt,
            max_l2_step_increase=max_increase,
        )


class FinalSink:
    """Final-field sink: keeps the last snapshot's field and never makes a
    row; builds a RunSummary with no times, rows or cells."""

    def __init__(self):
        self.last = None

    def add(self, t: float, field: SpectralField, row) -> None:
        self.last = field

    def result(self, params: ModelParams, dt: float, max_increase: float) -> RunSummary:
        return RunSummary(
            times=(),
            rows=(),
            cells=(),
            final=self.last,
            params=params,
            dt=dt,
            max_l2_step_increase=max_increase,
        )


@dataclass(frozen=True)
class PicardIterate:
    """One fixed-point iterate with its distance to the previous one.

    diff_sup_l2 is sup over the step grid of the L2 distance to the previous
    iterate; diff_contraction is the same distance in the branch-dependent
    contraction norm (sup-in-time L2 when the modified flux carries two
    terms, a cubed-time-integrated Sobolev norm otherwise). Both are None
    for the seed iterate, and the ratio needs two consecutive differences.
    trajectory is what the run's sink built: a Trajectory or a RunSummary.
    """

    index: int
    trajectory: Trajectory | RunSummary
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


@lru_cache(maxsize=128)
def _decay_rate(grid, gamma, kappa, eps_visc):
    """Read-only gamma |k|^kappa + eps |k|^2 on the m2 >= 0 half lattice."""
    kabs = _kabs(grid)
    rate = np.ascontiguousarray(_half(gamma * kabs**kappa + eps_visc * kabs * kabs))
    rate.flags.writeable = False
    return rate


def _decay_multiplier(grid, gamma, kappa, eps_visc, tau):
    """exp(-tau (gamma |k|^kappa + eps |k|^2)) on the m2 >= 0 half lattice."""
    return np.exp(-tau * _decay_rate(grid, gamma, kappa, eps_visc))


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


def rhs(state: SimState) -> SpectralField:
    """Nonlinear tendency -u . grad(theta), the modified flux divergence at
    q = theta; the stiff part lives in the integrating factor, not here."""
    return flux_divergence(state.field, state.field, state.params)


def _equation_stages(grid: GridSpec, params: ModelParams, nonlinear: bool):
    """Stage-tendency factory of the full equation: the modified-flux solve
    with each stage field its own q, the final state's included, or with
    transport off, zero tendencies and the state's velocity for the CFL
    measurement."""
    if nonlinear:
        return _flux_stages(lambda _i, _stage, f: f, params, math.inf, None, negate=False)

    def factory(_i, theta):
        u = velocity_from_scalar(theta, params)
        zero = _wrap_half(grid, np.zeros_like(theta.half))
        return (lambda _f, _stage: zero), (lambda: u), u.samples, zero

    return factory


def _courant(samples, grid: GridSpec, dt: float) -> tuple:
    """Peak speed of a velocity and the advective Courant number it gives at
    step dt, from its n-grid samples (u1, u2): one sqrt of the largest
    u1^2 + u2^2, which is the largest |u| since sqrt is monotone and
    correctly rounded. A non-finite sample gives a non-finite speed."""
    p1, p2 = samples
    max_u = float(np.sqrt((p1 * p1 + p2 * p2).max()))
    return max_u, dt * max_u / (grid.period / grid.n)


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

    The combine is formed in place in the buffers of the stages and the
    result, with every operation of

        s2 = eh2 (c + (h/2) k1),  s3 = eh2 c + (h/2) k2,  s4 = eh c + h (eh2 k3),
        out = eh c + (h/6) (eh k1 + (2 eh2) (k2 + k3) + k4)

    in its order and with its operands in their order (a complex product is
    not bitwise commutative), so the result is bit for bit that expression's.
    No other buffer is held while a slope is formed.
    """
    max_u, courant = speed
    if c_cfl is not None and courant > c_cfl:
        raise CourantError(courant, c_cfl, t, i)
    grid = theta.grid

    def slope(c, stage):
        return nonlin(_wrap_half(grid, c, kmax), stage).half

    coeffs, k1 = theta.half, k1.half
    eh, eh2 = factors
    s2 = np.multiply(0.5 * h, k1)
    np.add(coeffs, s2, out=s2)
    np.multiply(eh2, s2, out=s2)
    k2 = slope(s2, 1)
    s3 = np.multiply(eh2, coeffs)
    np.add(s3, np.multiply(0.5 * h, k2), out=s3)
    k3 = slope(s3, 2)
    s4 = np.multiply(eh2, k3)
    np.multiply(h, s4, out=s4)
    np.add(np.multiply(eh, coeffs), s4, out=s4)
    k4 = slope(s4, 3)
    out = np.add(k2, k3)
    np.multiply(2.0 * eh2, out, out=out)
    np.add(np.multiply(eh, k1), out, out=out)
    np.add(out, k4, out=out)
    np.multiply(h / 6.0, out, out=out)
    np.add(np.multiply(eh, coeffs), out, out=out)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(
            (i + 1) * h, i + 1, {"l2": l2, "max_u": max_u, "courant": courant}
        )
    return _wrap_half(grid, out, kmax)


# The stepping core runs with overflow and invalid-value warnings off: a
# state that loses finiteness is reported once, by BlowUpError.
_quiet_blow_up = np.errstate(over="ignore", invalid="ignore")


@_quiet_blow_up
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
    nonlin, _velocity, samples, k1 = _equation_stages(grid, state.params, nonlinear)(i, theta)
    out = _advance(
        theta,
        i,
        state.t,
        h,
        _integrating_factors(grid, state.params, h),
        nonlin,
        k1,
        _courant(samples, grid, h),
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


@_quiet_blow_up
def _run(
    theta0, params, T, dt, snapshot_stride, c_cfl, nonlinear, nonlin_factory, sink,
    on_state=None,
):
    """Drive the IF-RK4 core with a per-step tendency factory; hand each
    snapshot (t, field, row) to sink and return sink.result(...). row is a
    zero-argument maker of the snapshot's DiagnosticsRow, which the sink
    calls, at most once, before add returns.

    nonlin_factory(i, theta) is called with the state field at t = i dt at
    every step index i = 0..n_steps - 1, and at i = n_steps by the final
    row's maker alone. It returns the stage tendency function (mapping a
    stage field to its tendency field, called with stage indices 1..3, in
    order), a zero-argument maker of the advecting velocity, read only by
    the row, the n-grid samples (u1, u2) of that velocity, which give the
    CFL measurement, and the first slope k1 at theta, as a field.
    on_state(i, theta), if given, sees the state at every i = 0..n_steps
    first. The state and every stage field lie in the dealias disc and
    carry its support bound, so the product engine need not scan them.
    """
    grid = theta0.grid
    n_steps = _step_count(T, dt)
    if snapshot_stride < 1:
        raise ValueError("snapshot stride must be a positive integer")
    factors = _integrating_factors(grid, params, dt)
    guard = c_cfl if nonlinear else None
    kmax = _disc_bound(grid)

    theta = _admissible_initial(theta0)
    max_increase = 0.0
    # the state's one mirror per step, shared by its L2 norm and its row
    coeffs = theta.coeffs
    l2_now = _l2(coeffs, grid.period)

    def row(t, coeffs, l2, velocity, speed, k1):
        k1 = k1.coeffs if nonlinear else None
        return _diagnostics_row(t, coeffs, l2, params, velocity(), speed, k1)

    def final_row():
        # at t = T the factory's slope and samples feed the row alone
        _nonlin, velocity, samples, k1 = nonlin_factory(n_steps, theta)
        return row(t, coeffs, l2_now, velocity, _courant(samples, grid, dt), k1)

    for i in range(n_steps + 1):
        t = i * dt
        if on_state is not None:
            on_state(i, theta)
        if i == n_steps:
            sink.add(t, theta, final_row)
            break
        nonlin, velocity, samples, k1 = nonlin_factory(i, theta)
        speed = _courant(samples, grid, dt)
        if i % snapshot_stride == 0:
            sink.add(t, theta, partial(row, t, coeffs, l2_now, velocity, speed, k1))
        theta = _advance(theta, i, t, dt, factors, nonlin, k1, speed, l2_now, guard, kmax)
        coeffs = theta.coeffs
        l2_new = _l2(coeffs, grid.period)
        if l2_new > l2_now > 0:
            max_increase = max(max_increase, (l2_new - l2_now) / l2_now)
        l2_now = l2_new

    return sink.result(params, dt, max_increase)


def simulate(
    theta0: SpectralField,
    params: ModelParams,
    T: float,
    dt: float,
    snapshot_stride: int = 1,
    *,
    c_cfl: float = DEFAULT_CFL,
    nonlinear: bool = True,
    sink=TrajectorySink,
) -> Trajectory | RunSummary:
    """Integrate the full equation to horizon T with snapshots every
    snapshot_stride steps (the initial and final states are always taken).

    Initial data is restricted to the dealias disc and de-meaned. The run
    terminates with a blow-up signal if coefficients lose finiteness and
    with a CFL signal if the advective Courant number passes c_cfl. sink()
    makes the run's snapshot sink, whose result is returned: by default the
    Trajectory of every snapshot.
    """
    factory = _equation_stages(theta0.grid, params, nonlinear)
    return _run(theta0, params, T, dt, snapshot_stride, c_cfl, nonlinear, factory, sink())


# ---------------------------------------------------------------------------
# frozen-coefficient linear solve and the fixed-point iteration


def _as_stage_provider(q, grid, n_steps, dt):
    """Normalize q to a function (step, stage, f) -> SpectralField; f is ignored.

    Callables are sampled at the stage times t, t+dt/2, t+dt/2, t+dt (the
    two middle stages share their time). Sequences must hold one 4-tuple of
    fields per step, one per stage slot: no temporal interpolation ever
    happens. The provider reads a copy of the sequence and drops record
    i - 1 from it when step i reads stage 0, so the records free as the run
    passes them unless the caller holds the sequence. The last record stays:
    the final row reads its end stage.
    """
    if callable(q):
        offsets = (0.0, 0.5 * dt, 0.5 * dt, dt)

        def provider(i, stage, _f=None):
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

    def provider(i, stage, _f=None):
        if stage == 0 and i > 0:
            samples[i - 1] = None
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
    exact shape the next fixed-point iterate consumes as q. stage_sink must
    be empty: a list that already holds records raises ValueError before
    any step. A list passed as q is read, never changed.
    """
    if stage_sink:
        raise ValueError("stage_sink must be an empty list")
    n_steps = _step_count(T, dt)
    provider = _as_stage_provider(q, theta0.grid, n_steps, dt)
    factory = _flux_stages(provider, params, n_steps, stage_sink, negate=True)
    return _run(theta0, params, T, dt, snapshot_stride, c_cfl, True, factory, TrajectorySink())


def _flux_stages(provider, params, n_steps, stage_sink, *, negate):
    """Stage-tendency factory, in the shape _run takes, of the modified-flux
    solve over n_steps steps: the tendency of the stage field f at stage s
    of step i is flux_divergence(q, f), negated when negate is true, with
    q = provider(i, s, f); the final row reads q at the last step's end
    stage. When stage_sink is a list, each step's four stage fields are
    appended to it as one list. The Courant velocity is q's at the start of
    the step; when the first stage's products fit the n-grid, its samples
    are the ones that stage's flux transforms make, and the velocity field
    itself is built only for a row.
    """

    def factory(i, theta):
        q0 = provider(i, 0, theta) if i < n_steps else provider(n_steps - 1, 3, theta)
        samples = []
        record = None
        if stage_sink is not None and i < n_steps:
            record = []
            stage_sink.append(record)

        def tendency(f, stage):
            if record is not None and len(record) < 4:
                record.append(f)
            if stage == 0:
                div = flux_divergence(q0, f, params, velocity_samples=samples)
            else:
                div = flux_divergence(provider(i, stage, f), f, params)
            return -div if negate else div

        k1 = tendency(theta, 0)
        if samples:
            return tendency, partial(velocity_from_scalar, q0, params), samples, k1
        u = velocity_from_scalar(q0, params)
        return tendency, (lambda: u), u.samples, k1

    return factory


@_quiet_blow_up
def _heat_flow_seed(theta0, params, T, dt, snapshot_stride, sink):
    """Exact closed-form heat flow, the seed of the iteration: its snapshots,
    handed to sink, and its stage samples, each time evaluated once. Returns
    sink's result and the stage records. A snapshot's velocity is built
    only for its row.
    """

    def prop(t):
        return linear_heat_propagator(
            theta0, t, params.gamma, params.kappa, params.eps_visc
        )

    def row(t, f):
        u = velocity_from_scalar(f, params)
        coeffs = f.coeffs
        speed = _courant(u.samples, f.grid, dt)
        return _diagnostics_row(t, coeffs, _l2(coeffs, f.grid.period), params, u, speed)

    n_steps = _step_count(T, dt)
    stages = []
    for i in range(n_steps):
        t = i * dt
        mid = prop(t + 0.5 * dt)
        stages.append([prop(t), mid, mid, prop(t + dt)])
    for i in range(n_steps + 1):
        if i % snapshot_stride and i != n_steps:
            continue
        t = i * dt
        f = stages[i][0] if i < n_steps else prop(t)
        sink.add(t, f, partial(row, t, f))
    return sink.result(params, dt, 0.0), stages


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
    sink=TrajectorySink,
) -> list:
    """Fixed-point iteration: seed with the exact heat flow, then repeatedly
    solve the linear equation with transport coefficients frozen at the
    previous iterate (negated). Stops once the sup-in-time L2 distance
    between consecutive iterates drops below tol; exhausting max_iter
    raises, with the distance history attached.

    The previous iterate's stages go to the solve as they are, with the
    tendency +flux_divergence(f, theta): flux_divergence is linear in q and
    negation is exact, so that equals -flux_divergence(-f, theta) bit for bit.
    The solve and the step differences read them through one
    _as_stage_provider, which holds the only reference to them and drops
    each record once the new iterate's step has read it; each step's
    difference to the previous iterate is reduced to its norms as the
    step's start value is formed. sink() makes each iterate's snapshot
    sink, the seed's included; its result is the iterate's trajectory.
    """
    theta0 = _admissible_initial(theta0)
    grid = theta0.grid
    n_steps = _step_count(T, dt)
    seed_traj, stages = _heat_flow_seed(theta0, params, T, dt, snapshot_stride, sink())
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
    prev_final = seed_traj.final
    prev_contraction = None
    history = []
    period = grid.period
    # the two-term branch contracts in the sup-in-time L2 norm itself, the
    # one-term branch in the time-integrated cube of the 2 kappa / 3 Sobolev norm
    w = None if params.two_term else _homog_weight(grid, 4.0 * params.kappa / 3.0)

    def difference(i, theta):
        # theta minus the previous iterate at t = i dt (its step-i start stage,
        # or its final field at t = T), reduced to the current iterate's norms
        b = prev(i, 0) if i < n_steps else prev_final
        coeffs = _wrap_half(grid, theta.half - b.half).coeffs
        l2s.append(_l2(coeffs, period))
        if w is not None:
            cubes.append(_l2(coeffs, period, w) ** 3)

    for n in range(1, max_iter + 1):
        # the provider holds the only reference to the previous stage records
        prev = _as_stage_provider(stages, grid, n_steps, dt)
        stages = []
        l2s, cubes = [], []
        factory = _flux_stages(prev, params, n_steps, stages, negate=False)
        traj = _run(
            theta0, params, T, dt, snapshot_stride, c_cfl, True, factory, sink(), difference
        )
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
        prev_final, prev_contraction = traj.final, contraction

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

    run_a = simulate(
        theta0, params, T, dt, n_steps, c_cfl=c_cfl, nonlinear=nonlinear, sink=FinalSink
    )
    coarse = rescale_solution(run_a.final, lam, params)

    run_b = simulate(
        rescale_solution(theta0, lam, params),
        params_b,
        T / factor,
        dt / factor,
        n_steps,
        c_cfl=c_cfl,
        nonlinear=nonlinear,
        sink=FinalSink,
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


def _slope(xs, ys) -> float:
    """Least-squares slope of ys on xs; 0.0 unless two or more points vary in both."""
    varies = len(xs) >= 2 and max(xs) > min(xs) and max(ys) > min(ys)
    return float(np.polyfit(xs, ys, 1)[0]) if varies else 0.0


def _loglog_fit(times, values, t_min: float) -> tuple[list, list, float]:
    """The points (log t, log v) of a series with t >= t_min, up to roundoff,
    and v > 0, and their _slope: the one window and fit behind decay_study's
    slopes and the decay-study plot data."""
    kept = [(t, v) for t, v in zip(times, values) if t >= t_min * (1.0 - 1e-12) and v > 0]
    xs, ys = [math.log(t) for t, _ in kept], [math.log(v) for _, v in kept]
    return xs, ys, _slope(xs, ys)


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
    t in [T/10, T], t = T/10 kept up to roundoff, by the same _loglog_fit
    that gives the decay-study plot data; the reference slope is
    -(k + delta) / kappa. Fewer than 10 usable snapshots in the window is
    an error.
    """
    grid = theta0.grid
    weights = [_homog_weight(grid, 2.0 * (params.sigma_c + delta + k)) for k in k_list]

    def norms(_t, f, _row):
        c = f.coeffs   # one mirror per snapshot, measured in every weight
        return [_l2(c, grid.period, w) for w in weights]

    run = simulate(
        theta0, params, T, dt, snapshot_stride, c_cfl=c_cfl, nonlinear=nonlinear,
        sink=lambda: ReduceSink(norms),
    )
    t0 = T / 10.0
    slopes, expected, series = {}, {}, {}
    n_points = None
    # a row per snapshot, a column per k
    table = np.array(run.cells)
    for k, vals in zip(k_list, table.T):
        series[k] = tuple(vals)
        xs, _ys, slopes[k] = _loglog_fit(run.times, vals, t0)
        count = len(xs)
        n_points = count if n_points is None else min(n_points, count)
        if count < 10:
            raise ValueError(
                f"decay fit needs at least 10 usable snapshots in [{t0:g}, {T:g}], "
                f"got {count}"
            )
        expected[k] = -(k + delta) / params.kappa
    return DecayReport(
        slopes=slopes,
        expected=expected,
        window=(t0, T),
        n_points=n_points or 0,
        times=run.times,
        series=series,
    )


def _check_gevrey(params: ModelParams, alpha: float, eps_rate: float, delta: float):
    if not (0 < alpha < params.kappa):
        raise ValueError(f"alpha must lie in (0, kappa={params.kappa}), got {alpha}")
    if eps_rate < 0:
        raise ValueError(f"radius growth rate must be nonnegative, got {eps_rate}")
    bound = default_delta(params)
    if not (0 <= delta <= bound + 1e-12):
        raise ValueError(f"delta must lie in [0, {bound:g}], got {delta}")


def gevrey_term(
    t: float, field: SpectralField, params: ModelParams, alpha: float, eps_rate: float,
    delta: float,
) -> float:
    """The entry of gevrey_tracking's series for the snapshot (t, field),
    which a sink can compute as the snapshot arrives. Refuses the parameters
    gevrey_tracking refuses.
    """
    _check_gevrey(params, alpha, eps_rate, delta)
    sigma = params.sigma_c + delta
    if params.velocity_law == "log":
        return gevrey_norm(field, alpha, eps_rate * t, sigma)
    if t <= 0:
        return 0.0 if delta > 0 else gevrey_norm(field, alpha, 0.0, sigma)
    return _weighted_gevrey(
        field, t, alpha, eps_rate, params.sigma_c, delta, params.gamma, params.kappa
    )


def gevrey_report(
    params: ModelParams, times, series, alpha: float, eps_rate: float, delta: float
) -> GevreyTrackReport:
    """The report of a gevrey_term series over the snapshot times."""
    if params.velocity_law == "log":
        sup = max(series)
    else:
        positive = [v for t, v in zip(times, series) if t > 0]
        sup = max(positive) if positive else (series[0] if series else 0.0)
    return GevreyTrackReport(
        times=tuple(times),
        series=tuple(series),
        sup=sup,
        alpha=alpha,
        eps_rate=eps_rate,
        delta=delta,
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
    _check_gevrey(params, alpha, eps_rate, delta)
    series = [
        gevrey_term(t, f, params, alpha, eps_rate, delta) for t, f in trajectory.snapshots()
    ]
    return gevrey_report(params, trajectory.times, series, alpha, eps_rate, delta)
