"""Time integration for the dissipative active scalar family.

The stepper is an integrating-factor RK4: the stiff diagonal part (fractional
dissipation plus optional artificial viscosity) is applied exactly per mode
between stages, so with the transport term disabled every output coincides
with the closed-form propagator. Each `simulate`, `picard_solve` (its seed
and every iterate) and `linear_flux_solve` call makes one product plan
(spectral._Plan), dropped when it returns: it holds the decay rate of the
integrating factors, the diagnostics weights, the product engine's tables
and its workspace, so a run leaves nothing behind. The state, stage values
and slopes lie in the dealias box (spectral._box_bound), and the stepping
core carries them as (2K + 1) x (K + 1) box rows, 44 % of the half spectrum
at fraction 2/3; it forms the RK4 combine on them in place, bit for bit the
written expression. The product engine returns the tendency as box rows, so
every value inside the box is the one the public operators give on half
spectra. A field is made of the state only for a snapshot field a sink
keeps. Every L2 and Sobolev number here is norms._l2, the Parseval sum
behind norms.sobolev_norm. Every run with transport steps the modified-flux
solve: the full equation is its member q = theta, whose tendency
flux_divergence(theta, theta) is -u . grad(theta). The Courant number
(`_courant`) takes the peak speed of q's velocity on the n-grid at the start
of the step, read, when the first stage's products fit the n-grid, from the
samples of d1(M q) and d2(M q) the product engine makes. On top of the
direct solver sit the fixed-point machinery (a linear solve with frozen
transport coefficients, iterated to convergence), exact self-similar
rescaling, and the decay and analyticity-radius diagnostics.

A run hands each snapshot (t, field, row) to a sink, chosen by the `sink`
keyword of `simulate` and `picard_solve`. field and row are zero-argument
makers of the snapshot's field and `DiagnosticsRow`; the sink calls each at
most once, the row maker while it takes the snapshot, and the field maker
only for a field it keeps:
- `TrajectorySink`, the default, keeps every snapshot field and row and
  returns a `Trajectory`;
- `ReduceSink` keeps the snapshot times, the cells its `cells(t, field,
  row)` makes of each snapshot, and the last field, and returns a
  `RunSummary`. Beyond a time and its cells per snapshot, its memory does
  not grow with the number of steps. Without `cells` it makes no row and
  no field but the last: the callers that read only the iterate distances
  or the final field run so, the picard scenario, the amplitude sweep and
  the scaling check.
A row's velocity components are made only by the row maker, and so are the
final snapshot's slope and Courant number: velocity components are formed
for a row alone, except where the Courant number's peak speed needs them
transformed (products on the 3n/2 grid). `picard_solve` reads the previous
iterate's stage records, box rows (55 % less memory than half spectra at
n = 64), through the one stage provider, `_as_stage_provider`, which holds
the only copy of the record list and drops each record once the new
iterate's step has read it. Each step difference is reduced to its norms,
on the box rows, as the step's start value is formed. With `ReduceSink` an
iterate holds one iterate's stage records at a time, plus the final fields
and the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import BlowUpError, CourantError, PicardConvergenceError
from .norms import _hs, _l2, _parseval, _weighted_gevrey, gevrey_norm
from .spectral import (
    GridSpec,
    ModelParams,
    SpectralField,
    _box,
    _box_field,
    _dealias_mask,
    _decay_rate,
    _flux_rows,
    _from_box,
    _half,
    _kabs,
    _peak_speed,
    _Plan,
    _velocity_rows,
    _wrap_half,
)

# Not called here: perfbench/test_perfbench.py reads solver.advect to check
# that its tracer rebinds every module's binding of spectral.advect.
from .spectral import advect  # noqa: F401, E402

__all__ = [
    "DecayReport",
    "DiagnosticsRow",
    "GevreyTrackReport",
    "PicardIterate",
    "ReduceSink",
    "RunSummary",
    "ScalingReport",
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
    "scaling_equivariance_check",
    "simulate",
]

DEFAULT_CFL = 0.5


# ---------------------------------------------------------------------------
# trajectory containers


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
    """What a run with ReduceSink keeps: the snapshot times, the cells made
    of each snapshot (none without a cells function), and the final field.

    fields holds the final field alone, the one field the run retains.
    """

    times: tuple
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

    def add(self, t: float, field, row) -> None:
        self.times.append(t)
        self.fields.append(field())
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
    """Reduce-only sink: keeps the snapshot times, cells(t, field, row) of
    each snapshot when cells is given, and the last field, made when the run
    has ended unless cells made it; builds a RunSummary. Without cells it
    makes no row, and no field but the last.

    An exception from cells is held and raised when the run has ended, so a
    failure of the run itself is reported first, as it would be if the cells
    were computed from the finished trajectory; no cells are computed after it.
    """

    def __init__(self, cells=None):
        self.times, self.cells = [], []
        self._last = None   # the last snapshot's field maker
        self._make_cells = cells
        self._error = None

    def add(self, t: float, field, row) -> None:
        self.times.append(t)
        self._last = field
        if self._make_cells is None or self._error is not None:
            return
        made, row = field(), row()
        self._last = lambda: made
        try:
            self.cells.append(self._make_cells(t, made, row))
        except Exception as exc:   # re-raised by result()
            self._error = exc

    def result(self, params: ModelParams, dt: float, max_increase: float) -> RunSummary:
        if self._error is not None:
            raise self._error
        return RunSummary(
            times=tuple(self.times),
            cells=tuple(self.cells),
            final=self._last(),
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
    mult = np.exp(-t * _decay_rate(_half(_kabs(field.grid)), gamma, kappa, eps_visc))
    return _wrap_half(field.grid, mult * field.half)


# ---------------------------------------------------------------------------
# the stepping core


def _equation_stages(plan: _Plan, nonlinear: bool):
    """Stage-tendency factory of the full equation: the modified-flux solve
    with each stage its own q, the final state's included, or with transport
    off, zero tendencies and the state's velocity for the CFL measurement."""
    if nonlinear:
        return _flux_stages(plan, lambda _i, _stage, c: c, math.inf, None, negate=False)

    def factory(_i, c):
        u = _velocity_rows(plan, c)
        zero = np.zeros_like(c)
        return (lambda _c, _stage: zero), (lambda: u), _peak_speed(plan, u), zero

    return factory


def _courant(max_u: float, grid: GridSpec, dt: float) -> tuple:
    """A velocity's peak speed max_u and the advective Courant number it
    gives at step dt."""
    return max_u, dt * max_u / (grid.period / grid.n)


def _pairing(a: np.ndarray, b: np.ndarray, period: float) -> float:
    """The L2 pairing Re <a, b> of two arrays of box rows."""
    return period * period * _parseval(a.real * b.real + a.imag * b.imag)


def _diagnostics_row(plan, t, c, l2, u, speed, k1=None) -> DiagnosticsRow:
    """Snapshot diagnostics of the state's box rows c, its L2 norm l2 and the
    velocity components u = (u1, u2), box rows; without a transport
    tendency k1 (box rows) the residual is 0."""
    period = plan.grid.period
    residual = 0.0
    if k1 is not None:
        raw = abs(_pairing(k1, c, period))
        scale = (
            math.hypot(_l2(u[0], period), _l2(u[1], period))
            * _l2(c, period, plan.weight(2.0))
            * l2
        )
        residual = raw / scale if scale > 0 else 0.0
    max_u, courant = speed
    return DiagnosticsRow(
        t=t,
        l2=l2,
        hs_crit=_l2(c, period, plan.weight(2.0 * plan.params.sigma_c)),
        energy_residual=residual,
        max_u=max_u,
        courant=courant,
    )


def _integrating_factors(plan: _Plan, dt: float):
    """Exact linear flow over a full step and over half a step, as
    dealias-box rows."""
    rate = plan.rate()
    return np.exp(-dt * rate), np.exp(-(0.5 * dt) * rate)


def _advance(c, i, t, h, factors, nonlin, k1, speed, l2, c_cfl):
    """Step i of the integrating-factor RK4 from the state c and its first
    slope k1, both box rows, with the integrating factors in box rows;
    returns the new state's box rows.

    nonlin(value, s) gives the tendency of the value of stage s = 1, 2, 3,
    in box rows. Refuses to start when the Courant number passes c_cfl (None:
    no guard) and signals a blow-up when the result loses finiteness.

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
    eh, eh2 = factors
    s2 = np.multiply(0.5 * h, k1)
    np.add(c, s2, out=s2)
    np.multiply(eh2, s2, out=s2)
    k2 = nonlin(s2, 1)
    s3 = np.multiply(eh2, c)
    np.add(s3, np.multiply(0.5 * h, k2), out=s3)
    k3 = nonlin(s3, 2)
    s4 = np.multiply(eh2, k3)
    np.multiply(h, s4, out=s4)
    np.add(np.multiply(eh, c), s4, out=s4)
    k4 = nonlin(s4, 3)
    out = np.add(k2, k3)
    np.multiply(2.0 * eh2, out, out=out)
    np.add(np.multiply(eh, k1), out, out=out)
    np.add(out, k4, out=out)
    np.multiply(h / 6.0, out, out=out)
    np.add(np.multiply(eh, c), out, out=out)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(
            (i + 1) * h, i + 1, {"l2": l2, "max_u": max_u, "courant": courant}
        )
    return out


# The stepping core runs with overflow and invalid-value warnings off: a
# state that loses finiteness is reported once, by BlowUpError.
_quiet_blow_up = np.errstate(over="ignore", invalid="ignore")


# ---------------------------------------------------------------------------
# shared run driver


def _admissible_box(plan: _Plan, theta0: SpectralField) -> np.ndarray:
    """Box rows of the initial data restricted to the dealias disc, mean removed."""
    c = _box(theta0.half, plan.k) * plan.mask()
    c[0, 0] = 0.0
    return c


def _admissible_initial(theta0: SpectralField) -> SpectralField:
    """Restrict initial data to the dealias disc and remove its mean."""
    return _from_box(theta0.grid, _admissible_box(_Plan(theta0.grid), theta0))


def _step_count(T: float, dt: float) -> int:
    if not (T > 0 and dt > 0):
        raise ValueError("horizon and dt must be positive")
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-8 * T:
        raise ValueError(f"dt={dt} must divide the horizon T={T}")
    return n


@_quiet_blow_up
def _run(
    plan, theta0, T, dt, snapshot_stride, c_cfl, nonlinear, nonlin_factory, sink,
    on_state=None,
):
    """Drive the IF-RK4 core with a per-step tendency factory; hand each
    snapshot (t, field, row) to sink and return sink.result(...). field and
    row are zero-argument makers of the snapshot's field and DiagnosticsRow;
    the sink calls each at most once, row before add returns.

    The state, the stage values and the slopes are dealias-box rows (the
    module docstring). nonlin_factory(i, c) is called with the state's box
    rows c at t = i dt at every step index i = 0..n_steps - 1, and at
    i = n_steps by the final row's maker alone. It returns the stage
    tendency function (mapping a stage's box rows to its tendency's, called
    with stage indices 1..3, in order), a zero-argument maker of the
    advecting velocity's components, read only by the row, that velocity's
    peak speed on the n-grid, which gives the CFL measurement, and the
    first slope k1 at c. on_state(i, c), if given, sees the state at
    every i = 0..n_steps first. A field is made of the state only for a
    snapshot field the sink keeps. The plan gives the model and the tables.
    """
    grid, params = plan.grid, plan.params
    n_steps = _step_count(T, dt)
    if snapshot_stride < 1:
        raise ValueError("snapshot stride must be a positive integer")
    guard = c_cfl if nonlinear else None

    c = _admissible_box(plan, theta0)
    factors = _integrating_factors(plan, dt)
    max_increase = 0.0
    l2_now = _l2(c, grid.period)

    def row(t, c, l2, velocity, speed, k1):
        k1 = k1 if nonlinear else None
        return _diagnostics_row(plan, t, c, l2, velocity(), speed, k1)

    def final_row():
        # at t = T the factory's slope and speed feed the row alone
        _nonlin, velocity, max_u, k1 = nonlin_factory(n_steps, c)
        return row(t, c, l2_now, velocity, _courant(max_u, grid, dt), k1)

    for i in range(n_steps + 1):
        t = i * dt
        if on_state is not None:
            on_state(i, c)
        if i == n_steps:
            sink.add(t, partial(_from_box, grid, c), final_row)
            break
        nonlin, velocity, max_u, k1 = nonlin_factory(i, c)
        speed = _courant(max_u, grid, dt)
        if i % snapshot_stride == 0:
            sink.add(t, partial(_from_box, grid, c), partial(row, t, c, l2_now, velocity, speed, k1))
        c = _advance(c, i, t, dt, factors, nonlin, k1, speed, l2_now, guard)
        l2_new = _l2(c, grid.period)
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
    plan = _Plan(theta0.grid, params)
    factory = _equation_stages(plan, nonlinear)
    return _run(plan, theta0, T, dt, snapshot_stride, c_cfl, nonlinear, factory, sink())


# ---------------------------------------------------------------------------
# frozen-coefficient linear solve and the fixed-point iteration


def _as_stage_provider(q, grid, n_steps, dt):
    """Normalize q to a function (step, stage, f) -> q's stage value as box
    rows, a field's boxed by _box_field; f is ignored.

    Callables are sampled at the stage times t, t+dt/2, t+dt/2, t+dt (the
    two middle stages share their time). Sequences must hold one 4-tuple per
    step, one per stage slot, of fields or, as picard_solve keeps them, of
    dealias-box rows: no temporal interpolation ever happens. The provider
    reads a copy of the sequence and drops record i - 1 from it when step i
    reads stage 0, so the records free as the run passes them unless the
    caller holds the sequence. The last record stays: the final row reads
    its end stage.
    """
    def rows(f):
        if not isinstance(f, SpectralField):
            return f
        if f.grid != grid:
            raise ValueError("coefficient trajectory lives on the wrong grid")
        return _box_field(f)

    if callable(q):
        offsets = (0.0, 0.5 * dt, 0.5 * dt, dt)
        return lambda i, stage, _f=None: rows(q(i * dt + offsets[stage]))

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
        return rows(rec[stage])

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
    the end-of-step stage) are appended to it as fields, per step as
    4-element lists, once the run has ended: the exact shape the next
    fixed-point iterate consumes as q. A run that raises still leaves the
    records made before it stopped, the last one possibly short. stage_sink
    must be empty: a list that already holds records raises ValueError
    before any step. A list passed as q is read, never changed.
    """
    if stage_sink:
        raise ValueError("stage_sink must be an empty list")
    grid = theta0.grid
    n_steps = _step_count(T, dt)
    provider = _as_stage_provider(q, grid, n_steps, dt)
    records = None if stage_sink is None else []
    plan = _Plan(grid, params)
    factory = _flux_stages(plan, provider, n_steps, records, negate=True)
    try:
        return _run(plan, theta0, T, dt, snapshot_stride, c_cfl, True, factory, TrajectorySink())
    finally:
        if stage_sink is not None:
            stage_sink.extend([_from_box(grid, c) for c in rec] for rec in records)


def _flux_stages(plan, provider, n_steps, stage_sink, *, negate):
    """Stage-tendency factory, in the shape _run takes, of the modified-flux
    solve over n_steps steps: the tendency of the stage value c at stage s
    of step i is flux_divergence(q, c), negated when negate is true, with
    q = provider(i, s, c), box rows; the final row reads q at the
    last step's end stage. When stage_sink is a list, each step's four stage
    values are appended to it as one list, in the rows they come in. The
    Courant velocity is q's at the start of the step; when the first stage's
    products fit the n-grid, its peak speed is read from the samples that
    stage's flux transforms make, and its components are formed only for a
    row.
    """

    def factory(i, c):
        q0 = provider(i, 0, c) if i < n_steps else provider(n_steps - 1, 3, c)
        speed = []
        record = None
        if stage_sink is not None and i < n_steps:
            record = []
            stage_sink.append(record)

        def tendency(f, stage):
            if record is not None and len(record) < 4:
                record.append(f)
            if stage == 0:
                div = _flux_rows(plan, q0, f, speed)
            else:
                div = _flux_rows(plan, provider(i, stage, f), f)
            return -div if negate else div

        k1 = tendency(c, 0)
        if speed:
            return tendency, partial(_velocity_rows, plan, q0), speed[0], k1
        u = _velocity_rows(plan, q0)
        return tendency, (lambda: u), _peak_speed(plan, u), k1

    return factory


def _heat_flow_box(plan, c, t):
    """linear_heat_propagator's flow over time t of the dealias-box rows c."""
    return np.exp(-t * plan.rate()) * c


@_quiet_blow_up
def _heat_flow_seed(plan, theta0, T, dt, snapshot_stride, sink):
    """Exact closed-form heat flow, the seed of the iteration: its snapshots,
    handed to sink, and its stage values as dealias-box rows, each time
    evaluated once. Returns sink's result and the stage records. A
    snapshot's velocity is formed only for its row.
    """
    grid = plan.grid
    prop = partial(_heat_flow_box, plan, _box(theta0.half, plan.k))

    def row(t, c):
        u = _velocity_rows(plan, c)
        speed = _courant(_peak_speed(plan, u), grid, dt)
        return _diagnostics_row(plan, t, c, _l2(c, grid.period), u, speed)

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
        c = stages[i][0] if i < n_steps else prop(t)
        sink.add(t, partial(_from_box, grid, c), partial(row, t, c))
    return sink.result(plan.params, dt, 0.0), stages


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
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    grid = theta0.grid
    plan = _Plan(grid, params)
    theta0 = _from_box(grid, _admissible_box(plan, theta0))
    k = plan.k
    n_steps = _step_count(T, dt)
    seed_traj, stages = _heat_flow_seed(plan, theta0, T, dt, snapshot_stride, sink())
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
    prev_final = _box(seed_traj.final.half, k)
    prev_contraction = None
    history = []
    period = grid.period
    # the two-term branch contracts in the sup-in-time L2 norm itself, the
    # one-term branch in the time-integrated cube of the 2 kappa / 3 Sobolev norm
    w = None if params.two_term else plan.weight(4.0 * params.kappa / 3.0)

    def difference(i, c):
        # the state minus the previous iterate at t = i dt (its step-i start
        # stage, or its final state at t = T), reduced to the current
        # iterate's norms
        b = prev(i, 0) if i < n_steps else prev_final
        d = c - b
        l2s.append(_l2(d, period))
        if w is not None:
            cubes.append(_l2(d, period, w) ** 3)

    for n in range(1, max_iter + 1):
        # the provider holds the only reference to the previous stage records
        prev = _as_stage_provider(stages, grid, n_steps, dt)
        stages = []
        l2s, cubes = [], []
        factory = _flux_stages(plan, prev, n_steps, stages, negate=False)
        traj = _run(
            plan, theta0, T, dt, snapshot_stride, c_cfl, True, factory, sink(), difference
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
        prev_final, prev_contraction = _box(traj.final.half, k), contraction

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
    outside = theta0.half[~_half(_dealias_mask(grid))]
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
        theta0, params, T, dt, n_steps, c_cfl=c_cfl, nonlinear=nonlinear, sink=ReduceSink
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
        sink=ReduceSink,
    )
    fine = run_b.final

    period = fine.grid.period
    denom = _l2(fine.half, period)
    gap = _l2(coarse.half - fine.half, period) / denom if denom > 0 else 0.0
    return ScalingReport(
        lam=lam,
        gap=gap,
        horizon=T,
        rescaled_horizon=T / factor,
        norm_final_coarse=_hs(coarse, params.sigma_c),
        norm_final_fine=_hs(fine, params.sigma_c),
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
    orders = [params.sigma_c + delta + k for k in k_list]

    def norms(_t, f, _row):
        return [_hs(f, s) for s in orders]

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
