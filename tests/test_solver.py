"""Time stepper, frozen-coefficient solves, fixed-point iteration, rescaling,
and the long-time decay/analyticity diagnostics."""

import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsqglab import (
    BlowUpError,
    CourantError,
    GridSpec,
    ModelParams,
    OverflowGuardError,
    PicardConvergenceError,
    ReduceSink,
    SpectralField,
    Trajectory,
    TrajectorySink,
    advect,
    decay_study,
    default_delta,
    field_from_modes,
    flux_divergence,
    gevrey_norm,
    gevrey_tracking,
    linear_flux_solve,
    linear_heat_propagator,
    picard_solve,
    rescale_solution,
    scaling_equivariance_check,
    simulate,
    sobolev_norm,
    to_physical,
    velocity_from_scalar,
)
from gsqglab import norms, solver, spectral
from gsqglab.norms import _hs, xt_norm
from gsqglab.solver import DiagnosticsRow, _courant, _diagnostics_row, _l2
from gsqglab.spectral import _box, _box_bound, _dealias_mask, _hermitian_defect
from util import (
    advective_simulate,
    advective_tendency,
    hs_norm,
    l2_norm,
    lattice_k,
    peak_speed,
    per_array,
    random_field,
)

P = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)


def scaled(field, target_l2):
    return SpectralField(field.grid, field.coeffs * (target_l2 / l2_norm(field)))


def single_mode(grid, m, amp):
    c = np.zeros((grid.n, grid.n), dtype=complex)
    c[m[0] % grid.n, m[1] % grid.n] = amp
    c[-m[0] % grid.n, -m[1] % grid.n] = np.conj(amp)
    return SpectralField(grid, c)


# --- trajectory containers ----------------------------------------------------


def test_trajectory_validation():
    f = single_mode(GridSpec(16), (1, 0), 0.5)
    row = DiagnosticsRow(t=0.0, l2=1.0, hs_crit=1.0, energy_residual=0.0, max_u=0.0, courant=0.0)
    with pytest.raises(ValueError, match="align"):
        Trajectory(times=(0.0, 1.0), fields=(f,), rows=(row,), params=P, dt=1e-3,
                   max_l2_step_increase=0.0)
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=(0.0, 0.0), fields=(f, f), rows=(row, row), params=P, dt=1e-3,
                   max_l2_step_increase=0.0)
    traj = Trajectory(times=(0.0,), fields=(f,), rows=(row,), params=P, dt=1e-3,
                      max_l2_step_increase=0.0)
    assert traj.final is f
    assert traj.snapshots() == ((0.0, f),)


# --- exact dissipative propagator -------------------------------------------


def test_propagator_per_mode_closed_form():
    grid = GridSpec(16)
    f = random_field(grid, seed=1)
    t, gamma, kappa, eps = 0.7, 0.4, 0.8, 0.05
    out = linear_heat_propagator(f, t, gamma, kappa, eps)
    k1, k2 = lattice_k(grid)
    kk = np.sqrt(k1 * k1 + k2 * k2)
    expect = f.coeffs * np.exp(-t * (gamma * kk**kappa + eps * kk**2))
    assert np.max(np.abs(out.coeffs - expect)) <= 1e-15 * np.max(np.abs(f.coeffs))


def test_propagator_semigroup():
    grid = GridSpec(32)
    f = random_field(grid, seed=2)
    one = linear_heat_propagator(f, 0.9, 0.3, 0.5, 0.01)
    two = linear_heat_propagator(
        linear_heat_propagator(f, 0.4, 0.3, 0.5, 0.01), 0.5, 0.3, 0.5, 0.01
    )
    assert l2_norm(SpectralField(grid, one.coeffs - two.coeffs)) <= 1e-14 * l2_norm(f)


def test_propagator_validation():
    f = random_field(GridSpec(16), seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        linear_heat_propagator(f, -1.0, 0.3, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        linear_heat_propagator(f, 1.0, -0.3, 0.5)
    for kappa in (0.0, 2.5):
        with pytest.raises(ValueError, match="kappa"):
            linear_heat_propagator(f, 1.0, 0.3, kappa)


def test_propagator_identity_at_zero_time():
    f = random_field(GridSpec(16), seed=3)
    out = linear_heat_propagator(f, 0.0, 0.7, 0.6, 0.2)
    assert np.array_equal(out.coeffs, f.coeffs)


# --- tendency ----------------------------------------------------------------


def test_tendency_single_mode_is_steady():
    # a single real mode self-advects along its own level lines, so the
    # tendency vanishes up to the roundoff of the pointwise cancellation
    grid = GridSpec(16)
    f = single_mode(grid, (3, 2), 0.8)
    out = flux_divergence(f, f, P)
    assert np.max(np.abs(out.coeffs)) <= 1e-14 * 0.8**2


def test_tendency_two_mode_closed_form():
    # modes (1,0) and (1,1) with radii 1 and sqrt(2); the transfer onto
    # (2,1) and (0,1) carries the multiplier difference 1 - r^(beta-2)
    grid = GridSpec(16)
    a, b, beta = 0.3, 0.2, 1.2
    params = ModelParams(beta=beta, kappa=0.5)
    c = np.zeros((16, 16), dtype=complex)
    c[1, 0] = c[-1, 0] = a
    c[1, 1] = c[-1, -1] = b
    f = SpectralField(grid, c)
    s = math.sqrt(2.0) ** (beta - 2.0)
    out = flux_divergence(f, f, params).coeffs
    expect = np.zeros((16, 16), dtype=complex)
    expect[2, 1] = expect[-2, -1] = a * b * (s - 1.0)
    expect[0, 1] = expect[0, -1] = a * b * (1.0 - s)
    assert np.max(np.abs(out - expect)) <= 1e-12 * a * b


def test_tendency_is_mean_zero_and_dealiased():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=4), 1.0)
    out = flux_divergence(f, f, P)
    assert out.coeffs[0, 0] == 0.0
    k1, k2 = lattice_k(grid)
    outside = np.sqrt(k1**2 + k2**2) > grid.dealias_radius
    assert np.max(np.abs(out.coeffs[outside])) == 0.0


# --- the first steps of a run -------------------------------------------------


def test_single_mode_rides_the_heat_flow():
    grid = GridSpec(16)
    f = single_mode(grid, (2, 1), 0.5)
    traj = simulate(f, P, T=5e-2, dt=1e-2)
    expect = linear_heat_propagator(f, traj.times[-1], P.gamma, P.kappa, P.eps_visc)
    assert np.max(np.abs(traj.final.coeffs - expect.coeffs)) <= 1e-13


def test_linear_step_is_pure_multiplier():
    # one step without transport is the closed-form propagator, bit for bit,
    # of the admissible initial data (restricted to the dealias disc)
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=6), 1.0)
    traj = simulate(f, P, T=2e-3, dt=2e-3, nonlinear=False)
    expect = linear_heat_propagator(traj.fields[0], 2e-3, P.gamma, P.kappa, P.eps_visc)
    assert np.array_equal(traj.final.coeffs, expect.coeffs)


def test_courant_guard_stops_the_first_step():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=7), 500.0)
    with pytest.raises(CourantError) as exc:
        simulate(f, P, T=1e-2, dt=1e-2)
    assert exc.value.courant > exc.value.limit == 0.5
    # the guard is advisory for the linearized branch
    traj = simulate(f, P, T=1e-2, dt=1e-2, nonlinear=False)
    assert traj.rows[0].courant == exc.value.courant


def test_first_step_blowup_signal():
    grid = GridSpec(16)
    f = single_mode(grid, (1, 0), 1e200)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.0)
    c = f.coeffs.copy()
    c[2, 1] = c[-2, -1] = 1e180
    f = SpectralField(grid, c)
    with pytest.raises(BlowUpError) as exc:
        simulate(f, params, T=1e-3, dt=1e-3, c_cfl=math.inf)
    assert exc.value.step == 1
    assert set(exc.value.diagnostics) == {"l2", "max_u", "courant"}


def test_run_times_are_exact_multiples():
    traj = simulate(single_mode(GridSpec(16), (1, 0), 0.1), P, T=1.0, dt=0.1)
    assert traj.times == tuple(i * 0.1 for i in range(11))
    assert traj.times[-1] == 10 * 0.1  # no drift from repeated addition


# --- full runs -----------------------------------------------------------------


def test_simulate_zero_data_stays_zero():
    grid = GridSpec(16)
    z = SpectralField(grid, np.zeros((16, 16), dtype=complex))
    traj = simulate(z, P, T=0.01, dt=1e-3)
    assert all(r.l2 == 0.0 for r in traj.rows)
    assert all(r.energy_residual == 0.0 for r in traj.rows)
    assert np.max(np.abs(traj.final.coeffs)) == 0.0


def test_simulate_horizon_must_be_multiple_of_dt():
    f = single_mode(GridSpec(16), (1, 0), 0.1)
    with pytest.raises(ValueError, match="divide the horizon"):
        simulate(f, P, T=1.0, dt=3e-4)
    with pytest.raises(ValueError, match="positive"):
        simulate(f, P, T=0.0, dt=1e-3)
    with pytest.raises(ValueError, match="stride"):
        simulate(f, P, T=0.01, dt=1e-3, snapshot_stride=0)


def test_simulate_snapshot_schedule():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=8), 0.5)
    traj = simulate(f, P, T=0.01, dt=1e-3, snapshot_stride=3)
    # multiples of the stride plus the final step, always including t=0
    assert traj.times == tuple(i * 1e-3 for i in (0, 3, 6, 9, 10))
    dense = simulate(f, P, T=0.01, dt=1e-3)
    assert dense.times == tuple(i * 1e-3 for i in range(11))


def test_simulate_masks_initial_data():
    grid = GridSpec(16)
    c = np.zeros((16, 16), dtype=complex)
    c[0, 0] = 3.0  # mean is stripped
    c[7, 0] = c[-7, 0] = 1.0  # beyond the dealias radius (16/3 ~ 5.3)
    c[2, 0] = c[-2, 0] = 1.0
    traj = simulate(SpectralField(grid, c), P, T=0.002, dt=1e-3)
    f0 = traj.fields[0].coeffs
    assert f0[0, 0] == 0.0 and f0[7, 0] == 0.0 and f0[2, 0] == 1.0


def test_simulate_dissipative_l2_monotone():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=9), 2.0)
    traj = simulate(f, P, T=0.05, dt=1e-3)
    assert traj.max_l2_step_increase <= 1e-12
    l2s = [r.l2 for r in traj.rows]
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(l2s, l2s[1:]))


def test_simulate_conservative_l2_drift():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=10), 2.0)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.0)
    traj = simulate(f, params, T=0.1, dt=1e-3)
    l2s = [r.l2 for r in traj.rows]
    assert abs(l2s[-1] / l2s[0] - 1.0) <= 1e-10


def test_simulate_energy_residual_bound():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=11), 2.0)
    traj = simulate(f, P, T=0.05, dt=1e-3, snapshot_stride=5)
    assert all(r.energy_residual <= 1e-12 for r in traj.rows)


def test_simulate_linear_flag_matches_propagator():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=12, band=10), 1.0)
    params = ModelParams(beta=1.8, kappa=1.2, gamma=0.6, eps_visc=0.02)
    traj = simulate(f, params, T=0.5, dt=2.5e-3, nonlinear=False)
    expect = linear_heat_propagator(f, 0.5, 0.6, 1.2, 0.02)
    gap = l2_norm(SpectralField(grid, traj.final.coeffs - expect.coeffs))
    assert gap <= 1e-12 * l2_norm(f)


def test_simulate_self_convergence_is_fourth_order():
    grid = GridSpec(16)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.2)
    f = scaled(random_field(grid, seed=5, decay=3.0, band=6), 20.0)
    T = 0.064
    ref = simulate(f, params, T, 2.5e-4).final
    errs = [
        l2_norm(SpectralField(grid, simulate(f, params, T, dt).final.coeffs - ref.coeffs))
        for dt in (4e-3, 2e-3, 1e-3)
    ]
    slopes = (math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2]))
    assert all(3.7 <= s <= 4.3 for s in slopes)


def test_simulate_courant_abort_carries_position():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=13), 400.0)
    with pytest.raises(CourantError) as exc:
        simulate(f, P, T=0.1, dt=1e-2)
    assert exc.value.step == 0 and exc.value.t == 0.0


# --- frozen-coefficient linear solve -----------------------------------------


def zero_q(grid):
    z = SpectralField(grid, np.zeros((grid.n, grid.n), dtype=complex))
    return lambda t: z


def test_flux_solve_zero_coefficients_is_heat_flow():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=14, band=10), 1.0)
    traj = linear_flux_solve(f, zero_q(grid), P, T=0.1, dt=1e-3)
    expect = linear_heat_propagator(f, 0.1, P.gamma, P.kappa, P.eps_visc)
    gap = l2_norm(SpectralField(grid, traj.final.coeffs - expect.coeffs))
    assert gap <= 1e-12 * l2_norm(f)


def test_flux_solve_sequence_validation():
    grid = GridSpec(16)
    f = single_mode(grid, (1, 0), 0.1)
    with pytest.raises(ValueError, match="needs 10"):
        linear_flux_solve(f, [], P, T=0.01, dt=1e-3)
    bad = [[f, f, f] for _ in range(10)]
    with pytest.raises(ValueError, match="four stage samples"):
        linear_flux_solve(f, bad, P, T=0.01, dt=1e-3)
    other = single_mode(GridSpec(32), (1, 0), 0.1)
    with pytest.raises(ValueError, match="wrong grid"):
        linear_flux_solve(f, [[other] * 4] * 10, P, T=0.01, dt=1e-3)
    with pytest.raises(ValueError, match="wrong grid"):
        linear_flux_solve(f, lambda t: other, P, T=0.01, dt=1e-3)


def test_flux_solve_samples_stage_times_only():
    grid = GridSpec(16)
    f = single_mode(grid, (1, 0), 0.1)
    seen = []

    def q(t):
        seen.append(t)
        return f

    dt = 1e-3
    linear_flux_solve(f, q, P, T=5e-3, dt=dt)
    allowed = {round(i * dt + off, 12) for i in range(5) for off in (0.0, dt / 2, dt)}
    assert {round(t, 12) for t in seen} <= allowed


def test_flux_solve_stage_sink_shape():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=15), 0.5)
    sink = []
    traj = linear_flux_solve(f, zero_q(grid), P, T=0.01, dt=1e-3, stage_sink=sink)
    assert len(sink) == 10
    assert all(len(rec) == 4 for rec in sink)
    # stage zero of step i is the solution at t = i dt
    for i in range(10):
        assert np.array_equal(sink[i][0].coeffs, traj.fields[i].coeffs)


def test_flux_solve_refuses_a_stage_sink_holding_records():
    # a list that already holds records would keep them in place of the
    # solve's own; it is refused before any step, and left as it was
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=15), 0.5)
    q = scaled(random_field(grid, seed=16), 0.5)
    sink = []
    linear_flux_solve(f, lambda t: q, P, T=5e-3, dt=1e-3, stage_sink=sink)
    first = [list(rec) for rec in sink]
    assert len(first) == 5
    calls = []
    with pytest.raises(ValueError, match="stage_sink"):
        linear_flux_solve(f, lambda t: calls.append(t) or q, P, T=5e-3, dt=1e-3, stage_sink=sink)
    assert calls == []
    assert len(sink) == 5 and all(a == b for a, b in zip(sink, first))


def test_flux_solve_stage_sink_keeps_the_records_of_a_failed_run():
    # q jumps past the Courant limit at t = 3 dt: the run stops at the start
    # of step 3, after its first stage, and the sink holds every record made
    # so far, as fields, the same as a run whose q never jumps
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=15), 0.5)
    q = scaled(random_field(grid, seed=16), 0.5)
    big = scaled(q, 1e6)
    clean = []
    linear_flux_solve(f, lambda t: q, P, T=5e-3, dt=1e-3, stage_sink=clean)
    sink = []
    with pytest.raises(CourantError) as exc:
        linear_flux_solve(
            f, lambda t: big if t > 2.9e-3 else q, P, T=5e-3, dt=1e-3, stage_sink=sink
        )
    assert exc.value.step == 3
    assert [len(rec) for rec in sink] == [4, 4, 4, 1]
    assert all(isinstance(s, SpectralField) for rec in sink for s in rec)
    for rec, ref in zip(sink[:3], clean):
        assert all(np.array_equal(a.half, b.half) for a, b in zip(rec, ref))


def test_flux_solve_final_row_reads_q_at_horizon():
    # the row at t = T measures the transport field at T, not at T - dt
    grid = GridSpec(32)
    params = ModelParams(beta=1.3, kappa=0.5, gamma=0.0)
    f = scaled(random_field(grid, seed=3, decay=2.5), 1.0)
    qb = scaled(random_field(grid, seed=9, decay=2.5), 4.0)

    def q(t):
        return SpectralField(grid, qb.coeffs * (1.0 + 50.0 * t))

    traj = linear_flux_solve(f, q, params, T=0.01, dt=1e-3)
    u = velocity_from_scalar(q(0.01), params)
    speed = float(np.sqrt(to_physical(u.u1) ** 2 + to_physical(u.u2) ** 2).max())
    last = traj.rows[-1]
    assert last.max_u == pytest.approx(speed, rel=1e-12)
    assert last.max_u == pytest.approx(1.7437, abs=1e-4)
    assert last.courant == pytest.approx(1e-3 * speed / (grid.period / grid.n), rel=1e-12)


def test_flux_solve_one_term_branch_conserves_l2():
    # the transport field is divergence-free, so the single-flux form is skew
    grid = GridSpec(32)
    params = ModelParams(beta=1.3, kappa=0.5, gamma=0.0)
    f = scaled(random_field(grid, seed=3, decay=2.5), 1.0)
    qb = random_field(grid, seed=9, decay=2.5)
    qb = SpectralField(grid, qb.coeffs * (4.0 / l2_norm(qb)))

    def q(t):
        return SpectralField(grid, qb.coeffs * (1.0 + 0.5 * math.cos(3.0 * t)))

    traj = linear_flux_solve(f, q, params, T=0.2, dt=1e-3, snapshot_stride=10)
    l2s = [r.l2 for r in traj.rows]
    assert max(abs(v / l2s[0] - 1.0) for v in l2s) <= 1e-10


def test_flux_solve_two_term_energy_envelope():
    # Gronwall envelope with a frozen constant well above the fitted one
    grid = GridSpec(32)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.0)
    f = scaled(random_field(grid, seed=3, decay=2.5), 1.0)
    qb = random_field(grid, seed=9, decay=2.5)
    qb = SpectralField(grid, qb.coeffs * (4.0 / l2_norm(qb)))

    def q(t):
        return SpectralField(grid, qb.coeffs * (1.0 + 0.5 * math.cos(3.0 * t)))

    traj = linear_flux_solve(f, q, params, T=0.2, dt=1e-3, snapshot_stride=5)
    c_env = 0.01
    for t, row in zip(traj.times, traj.rows):
        ts = np.linspace(0.0, t, 101)
        integral = np.trapezoid([l2_norm(q(s)) ** 2 for s in ts], ts) if t > 0 else 0.0
        assert abs(math.log(row.l2 / traj.rows[0].l2)) <= c_env * integral + 1e-12


# --- half-spectrum stepping core against a full-array reference ---------------

FRACTIONS = [2.0 / 3.0, 0.9, 1.0]


def _full_array_reference(theta0, params, T, dt, stride, slope, velocity_at):
    """IF-RK4 on full coefficient arrays, built from the public operators.

    slope(i, stage, coeffs) is the stage tendency as a full array and
    velocity_at(i, field) the velocity behind the CFL measurement and the
    diagnostics. Returns the snapshot arrays, the diagnostics rows and the
    largest per-step relative L2 increase, as simulate computes them: the
    L2 norms are the library's Parseval sum over the half spectrum, and the
    rows are made of the dealias-box rows of the arrays.
    """
    grid = theta0.grid
    n_steps = int(round(T / dt))
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64)
    m1, m2 = m[:, None], m[None, :]
    kabs = grid.k_fundamental * np.sqrt((m1 * m1 + m2 * m2).astype(np.float64))

    def decay(tau):
        return np.exp(-tau * (params.gamma * kabs**params.kappa + params.eps_visc * kabs * kabs))

    eh, eh2 = decay(dt), decay(0.5 * dt)
    disc = (m1 * m1 + m2 * m2) <= grid.dealias_radius**2
    c = np.where(disc, theta0.coeffs, 0.0)
    c[0, 0] = 0.0
    half = slice(None, grid.n // 2 + 1)
    k = _box_bound(grid)
    l2 = _l2(c[:, half], grid.period)
    fields, rows, max_increase = [], [], 0.0
    for i in range(n_steps + 1):
        u = velocity_at(i, SpectralField(grid, c))
        speed = _courant(peak_speed(u), grid, dt)
        k1 = slope(i, 0, c)
        if i % stride == 0 or i == n_steps:
            fields.append(c)
            u_rows = (u.u1.half, u.u2.half)
            box, k1_box = _box(c, k), _box(k1, k)
            plan = spectral._Plan(grid, params)
            rows.append(_diagnostics_row(plan, i * dt, box, l2, u_rows, speed, k1_box))
        if i == n_steps:
            break
        h = dt
        s2 = eh2 * (c + (0.5 * h) * k1)
        k2 = slope(i, 1, s2)
        s3 = eh2 * c + (0.5 * h) * k2
        k3 = slope(i, 2, s3)
        s4 = eh * c + h * (eh2 * k3)
        k4 = slope(i, 3, s4)
        c = eh * c + (h / 6.0) * (eh * k1 + 2.0 * eh2 * (k2 + k3) + k4)
        l2_new = _l2(c[:, half], grid.period)
        if l2_new > l2 > 0:
            max_increase = max(max_increase, (l2_new - l2) / l2)
        l2 = l2_new
    return fields, rows, max_increase


def _assert_matches_reference(traj, ref):
    fields, rows, max_increase = ref
    assert len(traj.fields) == len(fields)
    for got, want in zip(traj.fields, fields):
        assert np.array_equal(got.coeffs, want)
    for got, want in zip(traj.rows, rows):
        assert np.array_equal(dataclasses.astuple(got), dataclasses.astuple(want))
    assert traj.max_l2_step_increase == max_increase


def _assert_canonical(f):
    n = f.grid.n
    assert _hermitian_defect(f.coeffs) == 0.0
    assert np.all(f.coeffs[n // 2, :] == 0.0)
    assert np.all(f.coeffs[:, n // 2] == 0.0)


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_simulate_matches_full_array_reference(fraction):
    grid = GridSpec(32, dealias_fraction=fraction)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.3, eps_visc=0.01)
    f = scaled(random_field(grid, seed=21, decay=2.0), 2.0)

    def slope(_i, _stage, c):
        theta = SpectralField(grid, c)
        return -advect(velocity_from_scalar(theta, params), theta).coeffs

    traj = simulate(f, params, T=0.01, dt=1e-3, snapshot_stride=3)
    ref = _full_array_reference(
        f, params, 0.01, 1e-3, 3, slope, lambda _i, theta: velocity_from_scalar(theta, params)
    )
    _assert_matches_reference(traj, ref)
    assert traj.rows[-1].energy_residual > 0   # the nonlinear term is live
    theta = traj.final
    u = velocity_from_scalar(theta, params)
    q = scaled(random_field(grid, seed=22, decay=2.0), 1.0)
    for out in (u.u1, u.u2, advect(u, theta), flux_divergence(q, theta, ModelParams(1.7, 0.5))):
        _assert_canonical(out)


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_flux_solve_matches_full_array_reference(fraction):
    grid = GridSpec(32, dealias_fraction=fraction)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=23, decay=2.0), 1.0)
    qb = scaled(random_field(grid, seed=24, decay=2.0), 2.0)
    dt, n_steps = 1e-3, 10
    offsets = (0.0, 0.5 * dt, 0.5 * dt, dt)

    def q(t):
        return linear_heat_propagator(qb, t, 1.0, 0.5)

    def q_at(i, stage):
        # the final row reads q at the last step's end stage
        if i == n_steps:
            i, stage = n_steps - 1, 3
        return q(i * dt + offsets[stage])

    def slope(i, stage, c):
        return -flux_divergence(q_at(i, stage), SpectralField(grid, c), params).coeffs

    sink = []
    traj = linear_flux_solve(f, q, params, T=0.01, dt=dt, snapshot_stride=3, stage_sink=sink)
    ref = _full_array_reference(
        f, params, 0.01, dt, 3, slope, lambda i, _theta: velocity_from_scalar(q_at(i, 0), params)
    )
    _assert_matches_reference(traj, ref)
    for rec in sink:
        for stage in rec:
            _assert_canonical(stage)


# --- transforms, shared Courant samples and support bounds ----------------------


def _one_step_transforms(run, transforms):
    """Real transforms made by one more step: run(2) minus run(1)."""
    transforms.clear()
    run(1)
    before = sum(transforms.values())
    transforms.clear()
    run(2)
    return sum(transforms.values()) - before


def test_transforms_per_step(transforms):
    # simulate: 4 fluxes at q = theta of 5 transforms, one-term or two-term
    # alike, since the second term is not formed for q = theta, and the
    # Courant check reads the samples of the first; the flux solve: 4
    # two-term fluxes of 8. With q inside the dealias disc the first flux's
    # products land on the n-grid and give the Courant check its samples; f
    # reaches |m_i| = 15, so with q = -f they land on 3n/2 and the check
    # transforms q's velocity itself
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=25, decay=2.0), 0.5)
    in_disc = SpectralField(grid, f.coeffs * _dealias_mask(grid))
    dt = 1e-3
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    one_term = ModelParams(beta=1.2, kappa=0.5, gamma=0.3)
    assert params.two_term and not one_term.two_term

    def sim(p):
        return lambda k: simulate(f, p, T=k * dt, dt=dt)

    def flux_solve(q):
        return lambda k: linear_flux_solve(f, lambda _t: q, params, T=k * dt, dt=dt)

    assert _one_step_transforms(sim(one_term), transforms) == 20
    assert _one_step_transforms(sim(params), transforms) == 20
    assert _one_step_transforms(flux_solve(-in_disc), transforms) == 32
    assert _one_step_transforms(flux_solve(-f), transforms) == 34


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_courant_reads_the_velocity_samples_once(fraction, monkeypatch):
    grid = GridSpec(32, dealias_fraction=fraction)
    theta = scaled(random_field(grid, seed=26), 0.5)
    theta = SpectralField(grid, theta.coeffs * _dealias_mask(grid))
    u = velocity_from_scalar(theta, P)
    halves = (u.u1.half, u.u2.half)
    n_grid = []
    term_samples = spectral._term_samples

    def spy(plan, terms, size, k):
        if size == grid.n:
            n_grid.extend(size for t in terms if any(t is h for h in halves))
        return term_samples(plan, terms, size, k)

    monkeypatch.setattr(spectral, "_term_samples", spy)
    dt = 1e-3
    speed = _courant(spectral._peak_speed(spectral._Plan(grid), halves), grid, dt)
    assert len(n_grid) == 2
    monkeypatch.undo()
    ref = peak_speed(u)
    assert speed == (ref, dt * ref / (grid.period / grid.n))


def _old_courant(u_samples, grid, dt):
    p1, p2 = u_samples
    max_u = float(np.sqrt(p1 * p1 + p2 * p2).max())
    return max_u, dt * max_u / (grid.period / grid.n)


def test_courant_takes_one_sqrt_of_the_largest_square():
    # sqrt is monotone and correctly rounded, and NaN propagates through max
    grid = GridSpec(32)
    rng = np.random.default_rng(7)
    finite = tuple(rng.standard_normal((2, 32, 32)) * 3.0)
    big, nan = finite[0].copy(), finite[1].copy()
    big[3, 4] = 1e200       # its square overflows to inf
    nan[5, 6] = np.nan
    for samples in (finite, (big, finite[1]), (finite[0], nan)):
        with np.errstate(over="ignore"):
            got = _courant(spectral._speed(*samples), grid, 1e-3)
            want = _old_courant(samples, grid, 1e-3)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    assert math.isfinite(spectral._speed(*finite))
    with np.errstate(over="ignore"):
        assert spectral._speed(big, finite[1]) == math.inf
    assert math.isnan(spectral._speed(finite[0], nan))


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_integrating_factors_are_the_box_rows_of_the_heat_flow(fraction):
    # the full- and half-step factors, box rows of the half-lattice
    # exp(-t (gamma |k|^kappa + eps |k|^2)) that linear_heat_propagator applies
    grid = GridSpec(32, dealias_fraction=fraction)
    params = ModelParams(1.5, 0.5, gamma=0.3, eps_visc=0.01)
    h, k = 1e-2, _box_bound(grid)
    rate = _half_decay_rate(grid, params)
    eh, eh2 = solver._integrating_factors(spectral._Plan(grid, params), h)
    assert eh.shape == eh2.shape == (2 * k + 1, k + 1)
    assert np.array_equal(eh, _box(np.exp(-h * rate), k))
    assert np.array_equal(eh2, _box(np.exp(-(0.5 * h) * rate), k))


def test_in_place_combine_is_the_rk4_expression_bit_for_bit():
    grid = GridSpec(32)
    rng = np.random.default_rng(8)

    shape = (2 * _box_bound(grid) + 1, _box_bound(grid) + 1)

    def rows():
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b[rng.random(shape) < 0.2] = 0.0    # exact zeros, as outside the disc
        return b

    c, k1, *slopes = (rows() for _ in range(5))
    h = 1e-2
    eh, eh2 = solver._integrating_factors(spectral._Plan(grid, ModelParams(1.5, 0.5, gamma=0.3)), h)

    def nonlin(_c, stage):
        return slopes[stage - 1]

    got = solver._advance(c, 0, 0.0, h, (eh, eh2), nonlin, k1, (0.0, 0.0), 1.0, None)
    k2, k3, k4 = slopes
    want = eh * c + (h / 6.0) * (eh * k1 + 2.0 * eh2 * (k2 + k3) + k4)
    assert got.tobytes() == want.tobytes()


def test_run_fields_need_no_support_scan(monkeypatch):
    calls = []
    scan = spectral._support

    def spy(*halves):
        calls.append(len(halves))
        return scan(*halves)

    monkeypatch.setattr(spectral, "_support", spy)
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=27, decay=2.0), 0.5)
    per_run = []
    for k in (1, 3):
        calls.clear()
        simulate(f, P, T=k * 1e-3, dt=1e-3)
        per_run.append(len(calls))
    assert per_run == [0, 0]


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
def test_run_product_grids_match_exact_scans(fraction, product_sizes, monkeypatch):
    grid = GridSpec(16, dealias_fraction=fraction)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    fields = (scaled(random_field(grid, seed=28, decay=2.0), 0.5), single_mode(grid, (2, 1), 0.3))

    def runs():
        for f in fields:
            simulate(f, P, T=3e-3, dt=1e-3)
            picard_solve(f, params, T=3e-3, dt=1e-3)
        return list(product_sizes)

    bounded = runs()
    product_sizes.clear()
    monkeypatch.setattr(spectral, "_support_bound", lambda box: spectral._support(box))
    assert runs() == bounded
    # at 0.9 the bound alone would give 3n/2; the single mode's first
    # products still land on the n-grid
    assert set(bounded) == ({16} if fraction < 0.7 else {16, 24})


# --- fixed-point iteration ------------------------------------------------------


@pytest.mark.parametrize("beta", [1.2, 1.7], ids=["one_term", "two_term"])
def test_picard_iterate_solves_with_the_negated_stages(beta):
    # picard hands the solve the previous stages un-negated, with tendency
    # +flux_divergence; the public solve on explicitly negated stages must
    # give the same iterate bit for bit
    grid = GridSpec(32)
    params = ModelParams(beta=beta, kappa=0.5, gamma=0.3)
    theta0 = solver._admissible_initial(scaled(random_field(grid, seed=29, decay=2.0), 0.5))
    T, dt, stride = 5e-3, 1e-3, 2
    plan = spectral._Plan(grid, params)
    _seed, stages = solver._heat_flow_seed(plan, theta0, T, dt, stride, solver.TrajectorySink())
    negated = [[-f for f in rec] for rec in stages]
    sink: list = []
    ref = linear_flux_solve(theta0, negated, params, T, dt, stride, stage_sink=sink)
    got = picard_solve(theta0, params, T, dt, tol=math.inf, snapshot_stride=stride)[1].trajectory
    assert got.times == ref.times and got.rows == ref.rows
    assert got.max_l2_step_increase == ref.max_l2_step_increase
    assert all(np.array_equal(a.half, b.half) for a, b in zip(got.fields, ref.fields))


def test_picard_makes_no_negated_copies(monkeypatch):
    calls = []
    neg = SpectralField.__neg__

    def spy(f):
        calls.append(f)
        return neg(f)

    monkeypatch.setattr(SpectralField, "__neg__", spy)
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=30, decay=2.0), 0.5)
    its = picard_solve(f, ModelParams(beta=1.7, kappa=0.5, gamma=0.3), T=3e-3, dt=1e-3)
    assert len(its) > 2 and calls == []


@pytest.mark.parametrize("sink", [TrajectorySink, ReduceSink])
def test_picard_blow_up_raises_blow_up_error_alone(sink):
    # the seed's rows overflow in their norms and Courant number; under the
    # suite's error::RuntimeWarning filter a warning from them would be
    # raised in place of the BlowUpError
    grid = GridSpec(16)
    theta0 = field_from_modes(grid, {(1, 0): 1e200, (0, 2): 1e180})
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.0)
    with pytest.raises(BlowUpError):
        picard_solve(theta0, params, T=0.2, dt=0.01, c_cfl=math.inf, sink=sink)


def test_picard_zero_data_converges_immediately():
    grid = GridSpec(16)
    z = SpectralField(grid, np.zeros((16, 16), dtype=complex))
    its = picard_solve(z, P, T=0.01, dt=1e-3)
    assert len(its) == 2
    assert its[1].converged and its[1].diff_sup_l2 == 0.0


def test_picard_seed_is_exact_heat_flow(monkeypatch):
    import gsqglab.solver as solver

    times = []

    flow = solver._heat_flow_box

    def counting(plan, c, t):
        times.append(t)
        return flow(plan, c, t)

    monkeypatch.setattr(solver, "_heat_flow_box", counting)
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=16, band=10), 0.5)
    its = picard_solve(f, P, T=0.02, dt=1e-3, snapshot_stride=4)
    # each time is evaluated once: start, midpoint and end of the 20 steps,
    # plus the horizon
    assert len(times) == 3 * 20 + 1
    seed = its[0].trajectory
    assert its[0].contraction_ratio is None
    for t, g in seed.snapshots():
        expect = linear_heat_propagator(f, t, P.gamma, P.kappa, P.eps_visc)
        assert np.max(np.abs(g.coeffs - expect.coeffs)) <= 1e-15
    assert all(r.energy_residual == 0.0 for r in seed.rows)


def test_picard_contracts_and_matches_direct_solver():
    grid = GridSpec(32)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=17, decay=3.0), 0.2)
    its = picard_solve(f, params, T=0.05, dt=1e-3)
    assert its[-1].converged
    ratios = [it.contraction_ratio for it in its if it.contraction_ratio is not None]
    assert ratios and all(r < 0.1 for r in ratios)
    sups = [it.diff_sup_l2 for it in its[1:]]
    assert all(b < a for a, b in zip(sups, sups[1:-1]))
    # the two-term branch contracts in the sup-in-time L2 distance itself
    assert [it.diff_contraction for it in its[1:]] == sups

    direct = simulate(f, params, T=0.05, dt=1e-3)
    limit = its[-1].trajectory
    gap = max(
        l2_norm(SpectralField(grid, a.coeffs - b.coeffs))
        for a, b in zip(limit.fields, direct.fields)
    )
    assert gap <= 1e-10 * max(r.l2 for r in direct.rows)


def test_picard_one_term_branch_converges():
    grid = GridSpec(32)
    params = ModelParams(beta=1.2, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=18, decay=3.0), 0.2)
    its = picard_solve(f, params, T=0.05, dt=1e-3)
    assert its[-1].converged
    assert all(it.diff_contraction is not None for it in its[1:])


def test_picard_refuses_zero_iterations():
    f = scaled(random_field(GridSpec(16), seed=19), 0.5)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(f, P, T=0.01, dt=1e-3, max_iter=0)


def test_picard_exhaustion_reports_history():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=19), 0.5)
    with pytest.raises(PicardConvergenceError) as exc:
        picard_solve(f, P, T=0.01, dt=1e-3, tol=1e-30, max_iter=3)
    err = exc.value
    assert err.iterations == 3 and err.tol == 1e-30
    assert len(err.history) == 3 and err.residual == err.history[-1]
    assert len(err.iterates) == 4  # seed plus the three attempts


# --- snapshot sinks and released stages -------------------------------------------


def _same_field(a, b):
    return a.half.tobytes() == b.half.tobytes()


def _iterate_scalars(iterates):
    return [
        (it.index, it.diff_sup_l2, it.diff_contraction, it.contraction_ratio, it.converged)
        for it in iterates
    ]


def _row_of(_t, _f, row):
    return row


def _row_sink():
    """A ReduceSink whose cell of a snapshot is its row."""
    return ReduceSink(_row_of)


def _assert_same_run(reduced, full):
    """reduced, a run of _row_sink, against the Trajectory full."""
    assert reduced.times == full.times and reduced.cells == full.rows
    assert reduced.max_l2_step_increase == full.max_l2_step_increase
    assert len(reduced.fields) == 1 and _same_field(reduced.final, full.final)


@pytest.mark.parametrize("stride", [1, 3])
def test_reduce_sink_simulate_equals_in_memory_bit_for_bit(stride):
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=40, decay=2.0), 0.5)

    def cells(t, g, row):
        return t, sobolev_norm(g, 0.3), row

    full = simulate(f, P, T=0.02, dt=1e-3, snapshot_stride=stride)
    run = simulate(
        f, P, T=0.02, dt=1e-3, snapshot_stride=stride, sink=lambda: ReduceSink(cells)
    )
    assert run.times == full.times
    assert run.max_l2_step_increase == full.max_l2_step_increase
    assert len(run.fields) == 1 and _same_field(run.final, full.final)
    assert run.cells == tuple(map(cells, full.times, full.fields, full.rows))


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("beta", [1.2, 1.7], ids=["one_term", "two_term"])
def test_reduce_sink_picard_equals_in_memory_bit_for_bit(beta, stride):
    grid = GridSpec(32)
    params = ModelParams(beta=beta, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=41, decay=2.0), 0.5)
    kw = dict(T=0.01, dt=1e-3, tol=1e-13, snapshot_stride=stride)
    full = picard_solve(f, params, **kw)
    reduced = picard_solve(f, params, **kw, sink=_row_sink)
    assert len(full) > 3 and full[-1].converged
    assert _iterate_scalars(reduced) == _iterate_scalars(full)
    for a, b in zip(reduced, full):
        _assert_same_run(a.trajectory, b.trajectory)


def test_reduce_sink_picard_exhaustion_equals_in_memory():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=19), 0.5)
    kw = dict(T=0.01, dt=1e-3, tol=1e-30, max_iter=3, snapshot_stride=3)
    with pytest.raises(PicardConvergenceError) as full:
        picard_solve(f, P, **kw)
    with pytest.raises(PicardConvergenceError) as reduced:
        picard_solve(f, P, **kw, sink=_row_sink)
    assert reduced.value.history == full.value.history
    assert _iterate_scalars(reduced.value.iterates) == _iterate_scalars(full.value.iterates)
    for a, b in zip(reduced.value.iterates, full.value.iterates):
        _assert_same_run(a.trajectory, b.trajectory)


def test_reduce_sink_raises_a_cells_error_after_the_run():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=42, decay=2.0), 0.5)
    seen = []

    def cells(t, _g, _row):
        seen.append(t)
        raise OverflowGuardError(1.0, 800.0)

    with pytest.raises(OverflowGuardError):
        simulate(f, P, T=5e-3, dt=1e-3, sink=lambda: ReduceSink(cells))
    assert seen == [0.0]   # no cells after the first error
    # a failure of the run itself is reported first
    with pytest.raises(CourantError):
        simulate(scaled(f, 1e4), P, T=5e-3, dt=1e-3, sink=lambda: ReduceSink(cells))


def _iterates_of(run):
    """The iterates of a picard run, whether it converged or ran out of iterations."""
    try:
        return run()
    except PicardConvergenceError as exc:
        return exc.iterates


def _rows_bytes(rows):
    return np.array([dataclasses.astuple(r) for r in rows]).tobytes()


_RUN_LAWS = {
    "one_term": ModelParams(beta=1.2, kappa=0.5, gamma=0.3),
    "two_term": ModelParams(beta=1.7, kappa=0.5, gamma=0.3),
    "log_law": ModelParams(beta=2.0, kappa=0.5, gamma=0.3, velocity_law="log", mu=0.7),
}


@pytest.mark.parametrize("sink", [ReduceSink, _row_sink, TrajectorySink])
@pytest.mark.parametrize("law", list(_RUN_LAWS))
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
def test_picard_run_matches_per_array_products_bit_for_bit(fraction, law, sink, monkeypatch):
    # the whole run against the product sites written one full-width array
    # per transform, in place of the stepping core's product on box rows;
    # the stand-in reads no peak speed, so the Courant number transforms q's
    # velocity itself
    grid = GridSpec(32, dealias_fraction=fraction)
    params = _RUN_LAWS[law]
    f = scaled(random_field(grid, seed=45, decay=2.0), 0.5)
    kw = dict(T=5e-3, dt=1e-3, tol=1e-13, max_iter=4, snapshot_stride=2, sink=sink)
    got = _iterates_of(lambda: picard_solve(f, params, **kw))
    k = _box_bound(grid)

    def flux_rows(plan, q, theta, speed=None):
        q, theta = (spectral._from_box(grid, x) for x in (q, theta))
        return _box(per_array("flux", q, theta, plan.params).half, k)

    monkeypatch.setattr(solver, "_flux_rows", flux_rows)
    want = _iterates_of(lambda: picard_solve(f, params, **kw))
    assert len(got) == len(want) >= 3
    assert _iterate_scalars(got) == _iterate_scalars(want)
    for a, b in zip(got, want):
        assert a.trajectory.final.half.tobytes() == b.trajectory.final.half.tobytes()
        if sink is ReduceSink:
            assert a.trajectory.cells == b.trajectory.cells == ()
        else:
            kept = "rows" if sink is TrajectorySink else "cells"
            rows_a, rows_b = (getattr(it.trajectory, kept) for it in (a, b))
            assert _rows_bytes(rows_a) == _rows_bytes(rows_b)
            assert len(rows_a) == 4


def _plus_zero(half):
    """The bytes of a half spectrum with each zero written as +0.0."""
    return (half + 0.0).tobytes()


@pytest.mark.parametrize("law", list(_RUN_LAWS))
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_flux_stepping_matches_the_advective_reference(fraction, law):
    # simulate steps the modified flux at q = theta; the reference steps
    # -advect(velocity_from_scalar(f), f). Every value agrees, and so does
    # every byte once each zero is written as +0.0, in the runs and in the
    # tendencies of their snapshots
    grid = GridSpec(32, dealias_fraction=fraction)
    params = _RUN_LAWS[law]
    f = scaled(random_field(grid, seed=50, decay=2.0), 0.5)
    dt, stride = 1e-3, 3
    got = simulate(f, params, 8e-3, dt, stride)
    want = advective_simulate(f, params, 8e-3, dt, stride)
    assert got.times == want.times and _rows_bytes(got.rows) == _rows_bytes(want.rows)
    assert got.max_l2_step_increase == want.max_l2_step_increase
    assert np.any(advective_tendency(got.final, params).half)   # transport is live
    for a, b in zip(got.fields, want.fields, strict=True):
        assert np.array_equal(a.half, b.half) and _plus_zero(a.half) == _plus_zero(b.half)
        new, ref = flux_divergence(a, a, params), advective_tendency(a, params)
        assert np.array_equal(new.half, ref.half)
        assert _plus_zero(new.half) == _plus_zero(ref.half)


def _half_decay_rate(grid, params):
    """The decay rate linear_heat_propagator applies, on the half lattice."""
    kabs = spectral._half(spectral._kabs(grid))
    return spectral._decay_rate(kabs, params.gamma, params.kappa, params.eps_visc)


def _half_spectrum_step(field, params, h):
    """One integrating-factor RK4 step of the whole half spectrum, the
    tendency flux_divergence(f, f) of each stage's field, written as the
    expression _advance's docstring gives, operation for operation."""
    grid = field.grid
    rate = _half_decay_rate(grid, params)
    eh, eh2 = np.exp(-h * rate), np.exp(-(0.5 * h) * rate)

    def slope(c):
        f = spectral._wrap_half(grid, c)
        return flux_divergence(f, f, params).half

    c = field.half
    k1 = slope(c)
    k2 = slope(eh2 * (c + (0.5 * h) * k1))
    k3 = slope(eh2 * c + (0.5 * h) * k2)
    k4 = slope(eh * c + h * (eh2 * k3))
    out = eh * c + (h / 6.0) * (eh * k1 + (2.0 * eh2) * (k2 + k3) + k4)
    return spectral._wrap_half(grid, out)


@pytest.mark.parametrize("law", list(_RUN_LAWS))
@pytest.mark.parametrize("fraction", FRACTIONS)
def test_box_carried_simulate_matches_half_spectrum_steps(fraction, law):
    # simulate carries dealias-box rows; the reference steps the whole half
    # spectrum of each field: every snapshot is the same, value for value
    # and byte for byte once each zero is +0.0, and each row's L2 is the
    # half-spectrum Parseval sum of the stepped field
    grid = GridSpec(32, dealias_fraction=fraction)
    params = _RUN_LAWS[law]
    f = scaled(random_field(grid, seed=51, decay=2.0), 0.5)
    dt = 1e-3
    traj = simulate(f, params, 6 * dt, dt)
    s = traj.fields[0]
    for k in range(1, 7):
        s = _half_spectrum_step(s, params, dt)
        got = traj.fields[k].half
        assert np.array_equal(got, s.half) and _plus_zero(got) == _plus_zero(s.half)
        assert traj.rows[k].l2 == _l2(s.half, grid.period) == sobolev_norm(s, 0.0)


@pytest.mark.parametrize("law", list(_RUN_LAWS))
def test_run_restarted_from_a_snapshot_continues_bit_for_bit(law):
    # the stepping core keeps no state between steps but the field: a run
    # started from a snapshot gives the later snapshots and their rows
    grid = GridSpec(32)
    params = _RUN_LAWS[law]
    f = scaled(random_field(grid, seed=16, band=10), 2.0)
    traj = simulate(f, params, T=5e-3, dt=1e-3)
    rest = simulate(traj.fields[2], params, T=3e-3, dt=1e-3)
    for a, b in zip(traj.fields[2:], rest.fields, strict=True):
        assert np.array_equal(a.half, b.half) and _plus_zero(a.half) == _plus_zero(b.half)
    strip = [dataclasses.replace(r, t=0.0) for r in traj.rows[2:]]
    assert _rows_bytes(strip) == _rows_bytes([dataclasses.replace(r, t=0.0) for r in rest.rows])


@pytest.mark.parametrize("beta", [1.2, 1.7], ids=["one_term", "two_term"])
def test_final_sink_picard_keeps_the_final_fields_and_no_rows(beta):
    grid = GridSpec(32)
    params = ModelParams(beta=beta, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=46, decay=2.0), 0.5)
    kw = dict(T=0.01, dt=1e-3, tol=1e-13, snapshot_stride=3)
    full = picard_solve(f, params, **kw)
    # a ReduceSink without cells keeps the final field alone
    final = picard_solve(f, params, **kw, sink=ReduceSink)
    assert _iterate_scalars(final) == _iterate_scalars(full)
    for a, b in zip(final, full):
        run = a.trajectory
        assert run.cells == () and run.times == b.trajectory.times
        assert len(run.fields) == 1 and _same_field(run.final, b.trajectory.final)
        assert run.max_l2_step_increase == b.trajectory.max_l2_step_increase


def test_final_sink_simulate_never_makes_a_row(monkeypatch):
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=47, decay=2.0), 0.5)
    full = simulate(f, P, T=0.01, dt=1e-3, snapshot_stride=3)
    monkeypatch.setattr(solver, "_diagnostics_row", None)   # a row would fail
    run = simulate(f, P, T=0.01, dt=1e-3, snapshot_stride=3, sink=ReduceSink)
    assert _same_field(run.final, full.final) and run.cells == ()
    assert run.max_l2_step_increase == full.max_l2_step_increase


@pytest.mark.parametrize(
    "sink, fields",
    [(ReduceSink, 1), (lambda: ReduceSink(lambda t, f, row: t), 5), (TrajectorySink, 5)],
    ids=["reduce", "reduce_cells", "trajectory"],
)
def test_sinks_make_only_the_fields_they_keep(monkeypatch, sink, fields):
    # a snapshot's field is made from the box state only when the sink keeps
    # it or its cells read it: stride 3 over 10 steps gives 5 snapshots
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=47, decay=2.0), 0.5)
    made = []
    from_box = solver._from_box
    monkeypatch.setattr(solver, "_from_box", lambda *a: made.append(1) or from_box(*a))
    run = simulate(f, P, T=0.01, dt=1e-3, snapshot_stride=3, sink=sink)
    assert len(made) == fields
    assert _same_field(run.final, simulate(f, P, T=0.01, dt=1e-3, snapshot_stride=3).final)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
def test_frozen_solve_builds_velocity_fields_only_for_rows(fraction, monkeypatch):
    # on the n-grid the Courant number reads the first flux's samples, so
    # without rows no velocity field is built; on 3n/2 the check builds it
    grid = GridSpec(32, dealias_fraction=fraction)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=48, decay=2.0), 0.5)
    calls = []
    build = solver._velocity_rows

    def spy(plan, theta):
        calls.append(theta)
        return build(plan, theta)

    monkeypatch.setattr(solver, "_velocity_rows", spy)
    picard_solve(f, params, T=5e-3, dt=1e-3, tol=math.inf, sink=ReduceSink)
    # one iterate of 5 steps; the final snapshot makes no row, so no Courant number
    assert len(calls) == (0 if fraction < 0.7 else 5)
    calls.clear()
    picard_solve(f, params, T=5e-3, dt=1e-3, tol=math.inf, snapshot_stride=5)
    # a row per snapshot (t = 0 and T) in the seed and the iterate
    assert len(calls) == (4 if fraction < 0.7 else 8)


def test_picard_frees_each_stage_record_once_read(monkeypatch):
    grid = GridSpec(16)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    f = scaled(random_field(grid, seed=43, decay=2.0), 0.5)
    refs = []
    seed = solver._heat_flow_seed

    def spy(*args):
        traj, stages = seed(*args)
        # the arrays behind the seed's step-0 record, read by iterate 1's first step
        refs.extend(weakref.ref(g) for g in stages[0])
        return traj, stages

    monkeypatch.setattr(solver, "_heat_flow_seed", spy)
    alive = []

    def cells(t, _g, _row):
        if refs:   # iterate 1: snapshots are taken after the step's q is read
            alive.append(sum(r() is not None for r in refs))
        return ()

    its = picard_solve(f, params, T=5e-3, dt=1e-3, tol=math.inf, sink=lambda: ReduceSink(cells))
    assert len(its) == 2
    assert alive == [4, 0, 0, 0, 0, 0]


def test_flux_solve_leaves_the_callers_stage_list_unchanged():
    grid = GridSpec(16)
    theta0 = solver._admissible_initial(scaled(random_field(grid, seed=44, decay=2.0), 0.5))
    plan = spectral._Plan(grid, P)
    _seed, q = solver._heat_flow_seed(plan, theta0, 5e-3, 1e-3, 1, solver.TrajectorySink())
    before = [list(rec) for rec in q]
    linear_flux_solve(theta0, q, P, T=5e-3, dt=1e-3)
    assert len(q) == len(before)
    assert all(a is b for ra, rb in zip(q, before) for a, b in zip(ra, rb, strict=True))


# --- self-similar rescaling ------------------------------------------------------


def test_rescale_identity():
    f = random_field(GridSpec(16), seed=20)
    out = rescale_solution(f, 1, P)
    assert out.grid == f.grid
    assert np.array_equal(out.coeffs, f.coeffs)


def test_rescale_validation():
    f = random_field(GridSpec(16), seed=21)
    for lam in (0, -2, 2.5, True):
        with pytest.raises(ValueError):
            rescale_solution(f, lam, P)


@settings(max_examples=20, deadline=None)
@given(lam=st.integers(min_value=2, max_value=5), s_off=st.sampled_from([0.0, 0.5, -0.3, 1.0]))
def test_rescale_norm_scaling_law(lam, s_off):
    # Hdot^s norms pick up lam^(s - sigma_c); s = sigma_c is exactly invariant
    grid = GridSpec(32)
    f = random_field(grid, seed=22)
    params = ModelParams(beta=1.5, kappa=0.5)
    out = rescale_solution(f, lam, params)
    s = params.sigma_c + s_off
    got = hs_norm(out, s)
    expect = float(lam) ** s_off * hs_norm(f, s)
    assert abs(got / expect - 1.0) <= 1e-12


def test_rescale_shrinks_box():
    f = random_field(GridSpec(16), seed=23)
    out = rescale_solution(f, 4, P)
    assert out.grid.period == pytest.approx(f.grid.period / 4)
    assert out.grid.n == f.grid.n


def test_equivariance_validation():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=24), 0.2)
    for lam in (1, 2.0):
        with pytest.raises(ValueError, match="integer >= 2"):
            scaling_equivariance_check(f, P, lam, T=0.01, dt=1e-3)
    c = np.zeros((16, 16), dtype=complex)
    c[7, 0] = c[-7, 0] = 1.0
    with pytest.raises(ValueError, match="dealias"):
        scaling_equivariance_check(SpectralField(grid, c), P, 2, T=0.01, dt=1e-3)


def test_equivariance_heat_flow_gap_is_roundoff():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=25, band=10), 1.0)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.4, eps_visc=0.03)
    rep = scaling_equivariance_check(f, params, 2, T=0.04, dt=1e-3, nonlinear=False)
    assert rep.gap <= 1e-13
    assert rep.rescaled_horizon == pytest.approx(0.04 / 2**0.5)


def test_equivariance_nonlinear_small_data():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=26, band=10), 0.5)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)
    rep = scaling_equivariance_check(f, params, 2, T=0.04, dt=1e-3)
    assert rep.gap <= 1e-8
    assert rep.norm_final_coarse == pytest.approx(rep.norm_final_fine, rel=1e-12)


# --- long-time diagnostics --------------------------------------------------------


def test_decay_study_matches_external_fit():
    grid = GridSpec(32)
    params = ModelParams(beta=1.5, kappa=0.8, gamma=0.5)
    f = scaled(random_field(grid, seed=27, decay=3.0, band=10), 1.0)
    delta = 0.2
    rep = decay_study(f, params, delta, [0, 1], T=1.0, dt=5e-3,
                      snapshot_stride=10, nonlinear=False)
    assert rep.expected[0] == pytest.approx(-delta / params.kappa)
    assert rep.expected[1] == pytest.approx(-(1 + delta) / params.kappa)
    for k in (0, 1):
        s = params.sigma_c + delta + k
        times, vals = [], []
        for t in rep.times:
            if t >= 0.1:
                g = linear_heat_propagator(f, t, params.gamma, params.kappa)
                times.append(t)
                vals.append(hs_norm(g, s))
        slope = np.polyfit(np.log(times), np.log(vals), 1)[0]
        assert rep.slopes[k] == pytest.approx(slope, rel=1e-6)
    assert rep.n_points == len([t for t in rep.times if t >= 0.1])
    assert rep.window == (0.1, 1.0)


def test_decay_study_needs_enough_snapshots():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=28), 0.3)
    with pytest.raises(ValueError, match="at least 10"):
        decay_study(f, P, 0.2, [0], T=1.0, dt=0.125, nonlinear=False)


def test_gevrey_tracking_plain_norm_at_zero_radius():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=29), 1.0)
    traj = simulate(f, P, T=0.05, dt=1e-3, snapshot_stride=10)
    rep = gevrey_tracking(traj, alpha=0.3, eps_rate=0.0, delta=0.0)
    for (t, g), v in zip(traj.snapshots(), rep.series):
        assert v == pytest.approx(sobolev_norm(g, P.sigma_c), rel=1e-12)


def test_gevrey_tracking_single_mode_closed_form():
    grid = GridSpec(32)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.4)
    f = single_mode(grid, (3, 4), 0.05)  # radius exactly 5
    traj = simulate(f, params, T=0.5, dt=2e-3, snapshot_stride=25)
    alpha, eps_rate, delta = 0.3, 0.2, 0.1
    rep = gevrey_tracking(traj, alpha, eps_rate, delta)
    r = 5.0
    sigma = params.sigma_c + delta
    for t, v in zip(rep.times, rep.series):
        if t == 0.0:
            assert v == 0.0
            continue
        lam = eps_rate * params.gamma ** (alpha / params.kappa) * t ** (alpha / params.kappa)
        amp = 2.0 * (0.05 * math.exp(-params.gamma * t * r**params.kappa)) ** 2
        expect = ((params.gamma * t) ** (delta / params.kappa)
                  * grid.period * math.sqrt(amp * math.exp(2 * lam * r**alpha) * r ** (2 * sigma)))
        assert v == pytest.approx(expect, rel=1e-10)
    assert rep.sup == pytest.approx(max(rep.series), rel=1e-12)


def test_gevrey_tracking_log_law_series():
    grid = GridSpec(32)
    params = ModelParams(beta=2.0, kappa=0.5, gamma=0.3, mu=1.0, velocity_law="log")
    f = scaled(random_field(grid, seed=30, decay=3.5), 0.2)
    traj = simulate(f, params, T=0.04, dt=1e-3, snapshot_stride=10)
    alpha, eps_rate = 0.3, 0.15
    rep = gevrey_tracking(traj, alpha, eps_rate, delta=0.0)
    for (t, g), v in zip(traj.snapshots(), rep.series):
        expect = gevrey_norm(g, alpha, eps_rate * t, params.sigma_c)
        assert v == pytest.approx(expect, rel=1e-12)
    assert rep.sup == max(rep.series)


def test_gevrey_tracking_validation():
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=31), 0.2)
    traj = simulate(f, P, T=0.01, dt=1e-3)
    with pytest.raises(ValueError, match="alpha"):
        gevrey_tracking(traj, alpha=0.5, eps_rate=0.1, delta=0.0)
    with pytest.raises(ValueError, match="alpha"):
        gevrey_tracking(traj, alpha=0.0, eps_rate=0.1, delta=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gevrey_tracking(traj, alpha=0.3, eps_rate=-0.1, delta=0.0)
    with pytest.raises(ValueError, match="delta"):
        gevrey_tracking(traj, alpha=0.3, eps_rate=0.1, delta=default_delta(P) + 0.05)


def test_gevrey_tracking_overflow_is_loud():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=32), 0.2)
    traj = simulate(f, P, T=0.01, dt=1e-3)
    with pytest.raises(OverflowGuardError):
        gevrey_tracking(traj, alpha=0.3, eps_rate=1e5, delta=0.0)


def test_gevrey_tracking_evaluates_one_gevrey_norm_per_snapshot(monkeypatch):
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=33), 0.5)
    traj = simulate(f, P, T=0.04, dt=1e-3, snapshot_stride=5)
    positive = [(t, g) for t, g in traj.snapshots() if t > 0]
    alpha, eps_rate = 0.3, 0.2
    for delta, evaluated in ((0.1, len(positive)), (0.0, len(traj.times))):
        calls = []

        def counted(*args, _orig=norms.gevrey_norm):
            calls.append(args)
            return _orig(*args)

        with monkeypatch.context() as m:
            m.setattr(norms, "gevrey_norm", counted)
            m.setattr(solver, "gevrey_norm", counted)
            rep = gevrey_tracking(traj, alpha, eps_rate, delta)
        assert len(calls) == evaluated
        # the sup is the space-time norm itself, bit for bit
        assert rep.sup == xt_norm(positive, alpha, eps_rate, P.sigma_c, delta, P.gamma, P.kappa)


def test_printed_norms_are_sobolev_norms_bit_for_bit():
    grid = GridSpec(32)
    f = scaled(random_field(grid, seed=34, decay=3.0), 0.5)
    traj = simulate(f, P, T=0.05, dt=1e-3, snapshot_stride=5)
    for g, row in zip(traj.fields, traj.rows):
        assert row.l2 == sobolev_norm(g, 0.0)
        assert row.hs_crit == sobolev_norm(g, P.sigma_c)
    delta = 0.1
    rep = decay_study(f, P, delta, [0, 2], T=0.05, dt=1e-3, snapshot_stride=5)
    for k, series in rep.series.items():
        assert series == tuple(sobolev_norm(g, P.sigma_c + delta + k) for g in traj.fields)
    # the inequality battery's seminorm gives the mean weight zero
    stripped = random_field(grid, seed=35)
    c = stripped.coeffs.copy()
    c[0, 0] = 0.7
    with_mean = SpectralField(grid, c)
    for s in (-0.5, 0.0, 1.3):
        assert _hs(with_mean, s) == sobolev_norm(stripped, s)


def test_retained_snapshots_hold_only_their_half_spectra():
    grid = GridSpec(64)
    f = scaled(random_field(grid, seed=36, decay=3.0), 0.5)
    simulate(f, P, T=2e-3, dt=1e-3)   # fill the per-grid caches first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate(f, P, T=0.05, dt=1e-3, snapshot_stride=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.fields) == 51
    # one full mirror per snapshot would be about 1.96x
    assert retained / len(traj.fields) <= 1.25 * traj.fields[0].half.nbytes


@pytest.mark.parametrize(
    "grid, params, run",
    [
        (GridSpec(64, period=3.0, dealias_fraction=0.9), ModelParams(1.0, 0.5, gamma=0.3), simulate),
        (GridSpec(64, period=5.0), ModelParams(1.7, 0.5, gamma=0.3), picard_solve),
    ],
    ids=["simulate", "picard"],
)
def test_a_run_leaves_nothing_behind(grid, params, run):
    # the run's plan owns its tables and workspace and goes when it returns:
    # on a grid no other test uses, so that no lattice table of it is cached
    # yet, a run whose result is dropped leaves no memory held
    f = scaled(random_field(grid, seed=37, decay=2.0), 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(f, params, 5e-3, 1e-3, sink=ReduceSink)
        del result
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 64 * 1024


def test_default_delta_branches():
    assert default_delta(ModelParams(beta=1.7, kappa=0.5)) == pytest.approx(0.5 / 3)
    assert default_delta(ModelParams(beta=1.2, kappa=0.5)) == pytest.approx((0.5 + 1 - 1.2) / 2)
    # the boundary case beta = 1 + kappa sits in the two-term branch
    assert default_delta(ModelParams(beta=1.5, kappa=0.5)) == pytest.approx(0.5 / 3)
