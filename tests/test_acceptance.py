"""Twelve end-to-end checks, one per guarantee the library commits to.

Each guarantee is a single test function, so a verbose pytest run prints
exactly one pass/fail line per check. Tolerances and runtime budgets are
part of the assertions. Run configurations that needed tuning (seeds,
amplitudes, horizons) are frozen here; the helpers that located them
(amplitude_threshold_sweep, the ensemble generators) ship with the
package so every number can be relocated from scratch.
"""

import math
import time

import numpy as np
import pytest

from gsqglab import (
    EnsembleSpec,
    GridSpec,
    ModelParams,
    SpectralField,
    decay_study,
    estimate_best_constant,
    linear_heat_propagator,
    picard_solve,
    random_test_field,
    rescale_solution,
    scaling_equivariance_check,
    simulate,
    sobolev_norm,
    verify_inequalities,
    verify_operators,
)
from gsqglab.spectral import _kabs
from util import gevrey_track, l2_norm, random_field


def scaled(field, target_l2):
    return SpectralField(field.grid, field.coeffs * (target_l2 / l2_norm(field)))


def masked_member(n, decay):
    """Ensemble member 0 at seed 101, restricted to the dealias disc."""
    grid = GridSpec(n)
    f = random_test_field(EnsembleSpec(grid, decay, 1, seed=101), 0)
    keep = _kabs(grid) <= grid.dealias_radius
    return SpectralField(grid, f.coeffs * keep)


def small_data(n, params, amplitude):
    """Decaying random profile with critical Sobolev norm `amplitude`.

    The normalizing scalar is always computed from the N=64 member, so the
    same call at a finer resolution yields the exact spectral extension of
    the coarse field (the ensemble draws are keyed on integer modes).
    """
    decay = params.sigma_c + 1.5
    scale = amplitude / sobolev_norm(masked_member(64, decay), params.sigma_c)
    return SpectralField(GridSpec(n), masked_member(n, decay).coeffs * scale)


def rel_gap(got, want):
    diff = SpectralField(want.grid, got.coeffs - want.coeffs)
    return l2_norm(diff) / l2_norm(want)


# ---------------------------------------------------------------------------
# 1: every spectral operation against a direct per-mode oracle


def test_01_multiplier_and_advection_direct_oracles():
    start = time.perf_counter()
    rows = verify_operators()
    elapsed = time.perf_counter() - start
    bad = [(r.name, r.measured) for r in rows if not r.passed]
    assert len(rows) == 13
    assert all(r.limit == 1e-12 for r in rows)
    assert any(r.name.startswith("advect") for r in rows)
    assert not bad, f"direct-oracle mismatches: {bad}"
    assert elapsed < 5.0, f"oracle battery took {elapsed:.2f}s, budget is 5s"


# ---------------------------------------------------------------------------
# 2-4: the randomized inequality batteries (one shared full-size run)


@pytest.fixture(scope="module")
def inequality_battery():
    start = time.perf_counter()
    rows = verify_inequalities()
    return rows, time.perf_counter() - start


def test_02_paraproduct_three_way_split_identity(inequality_battery):
    """Low-high + high-low + high-high recombine to the full trilinear form
    to 1e-10 relative, over 100 random triples at N=32 and four Sobolev
    indices spanning negative through near-critical weights."""
    rows, elapsed = inequality_battery
    bony = [r for r in rows if r.name.startswith("bony")]
    assert len(bony) == 400
    worst = max(r.measured for r in bony)
    bad = [(r.name, r.measured) for r in bony if not r.passed]
    assert not bad, f"split identity violated: {bad}"
    assert worst <= 1e-10
    assert elapsed < 120.0, f"battery took {elapsed:.1f}s, budget is 2 min"


def test_03_dyadic_shell_norm_bracket(inequality_battery):
    """On every nonzero dyadic block of 100 random fields, the weighted to
    unweighted norm ratio stays inside the two-sided 2^(sigma j) bracket."""
    rows, _ = inequality_battery
    shell = [r for r in rows if r.name.startswith("shell")]
    fields = {r.name.split()[1] for r in shell}
    assert len(fields) == 100
    bad = [(r.name, r.measured) for r in shell if not r.passed]
    assert not bad, f"bracket violated: {bad}"


def test_04_radius_to_regularity_interpolation(inequality_battery):
    """500 random draws of (field, radius, weight, index pair), zero
    violations of the interpolation bound with its explicit constants."""
    rows, _ = inequality_battery
    draws = [r for r in rows if r.name.startswith("gevrey-interp")]
    assert len(draws) == 500
    bad = [(r.name, r.measured) for r in draws if not r.passed]
    assert not bad, f"interpolation bound violated: {bad}"


# ---------------------------------------------------------------------------
# 5: commutator constants stay bounded under grid refinement


def test_05_commutator_constant_refinement_stability():
    """The realized best constant of each commutator bound at N=32 is at
    most twice its N=16 value over identically seeded ensembles. Sobolev
    weights are kappa/2 = 0.25 at the two transport exponents; the
    logarithmic case runs at its own parameter point."""
    cases = (
        ("block_commutator", {"rho1": 0.25, "rho2": 0.25}),
        ("singular_commutator", {"beta": 1.3, "rho1": 0.25, "rho2": 0.25}),
        ("singular_commutator", {"beta": 1.7, "rho1": 0.25, "rho2": 0.25}),
        (
            "gevrey_commutator",
            {"alpha": 0.4, "lam": 0.05, "sigma": 0.3, "rho": 0.0, "nu": 0.5, "zeta": 0.3},
        ),
        ("log_commutator", {"mu": 1.0, "eps": 0.3, "de": 0.5, "rho": 1.0}),
    )
    ensemble = EnsembleSpec(GridSpec(16), 2.0, 6, seed=11)
    for form, params in cases:
        survey = estimate_best_constant(form, params, ensemble, refine=True)
        coarse, fine = survey.refinement
        assert math.isfinite(fine) and fine > 0
        assert fine <= 2.0 * coarse, (
            f"{form} {params}: constant grew {coarse:.4g} -> {fine:.4g} under refinement"
        )


# ---------------------------------------------------------------------------
# 6: discrete skew symmetry and the energy law


def test_06_advection_skew_symmetry_and_energy_decay():
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.37)
    traj = simulate(small_data(64, params, 0.1), params, T=1.0, dt=1e-3, snapshot_stride=1)
    assert len(traj.rows) == 1001
    worst = max(r.energy_residual for r in traj.rows)
    assert worst <= 1e-12, f"normalized advection pairing reached {worst:.2e}"
    assert traj.max_l2_step_increase <= 1e-9, (
        f"L2 norm grew by {traj.max_l2_step_increase:.2e} relative in one step"
    )


# ---------------------------------------------------------------------------
# 7: the linear flow is exact


LINEAR_POINTS = ((0.3, 0.5, 0.0), (1.1, 0.9, 0.0), (0.6, 1.2, 0.02), (0.0, 0.3, 0.0))


def assert_linear_flow_exact(make_params):
    f = scaled(random_field(GridSpec(32), seed=12, band=10), 1.0)
    for gamma, kappa, eps in LINEAR_POINTS:
        params = make_params(gamma, kappa, eps)
        traj = simulate(f, params, T=1.0, dt=2e-3, nonlinear=False)
        want = linear_heat_propagator(f, 1.0, gamma, kappa, eps)
        gap = rel_gap(traj.final, want)
        assert gap <= 1e-10, f"gamma={gamma} kappa={kappa} eps={eps}: gap {gap:.2e}"
    two = linear_heat_propagator(
        linear_heat_propagator(f, 0.7, 0.6, 1.2, 0.02), 0.3, 0.6, 1.2, 0.02
    )
    one = linear_heat_propagator(f, 1.0, 0.6, 1.2, 0.02)
    assert rel_gap(two, one) <= 1e-14


def test_07_linear_flow_matches_heat_propagator():
    assert_linear_flow_exact(
        lambda gamma, kappa, eps: ModelParams(
            beta=1.5, kappa=kappa, gamma=gamma, eps_visc=eps
        )
    )


# ---------------------------------------------------------------------------
# 8: fourth-order self-convergence of the stepper


def self_convergence_slope(params):
    grid = GridSpec(16)
    f = scaled(random_field(grid, seed=5, decay=3.0, band=6), 20.0)
    T, steps = 0.064, (4e-3, 2e-3, 1e-3)
    ref = simulate(f, params, T, 2.5e-4).final.coeffs
    errs = [
        l2_norm(SpectralField(grid, simulate(f, params, T, dt).final.coeffs - ref))
        for dt in steps
    ]
    return float(np.polyfit(np.log(steps), np.log(errs), 1)[0]), errs


def test_08_time_stepper_fourth_order_self_convergence():
    slope, errs = self_convergence_slope(ModelParams(beta=1.5, kappa=0.5, gamma=0.2))
    assert 3.7 <= slope <= 4.3, f"self-convergence slope {slope:.3f}, errors {errs}"


# ---------------------------------------------------------------------------
# 9: fixed-point iteration contracts well below its amplitude threshold


def test_09_fixed_point_contraction_below_threshold():
    """At 1% of amplitude 227 in the critical norm, the limit that
    amplitude_threshold_sweep locates at this resolution and step, every
    contraction ratio sits under 1/2 and the limit agrees with the direct
    solver in sup-in-time L2. That limit is the Courant guard at dt = 1e-3,
    not a loss of contraction: 215 contracts, while 235 raises CourantError."""
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    base = masked_member(64, params.sigma_c + 1.5)
    theta0 = SpectralField(
        base.grid, base.coeffs * (2.27 / sobolev_norm(base, params.sigma_c))
    )
    start = time.perf_counter()
    iterates = picard_solve(theta0, params, T=0.1, dt=1e-3, tol=1e-12)
    direct = simulate(theta0, params, T=0.1, dt=1e-3)
    elapsed = time.perf_counter() - start
    assert iterates[-1].converged
    ratios = [it.contraction_ratio for it in iterates if it.contraction_ratio is not None]
    assert ratios, "need at least two difference norms to form a ratio"
    assert max(ratios) <= 0.5, f"contraction ratios {ratios}"
    limit = iterates[-1].trajectory
    assert limit.times == direct.times
    sup_ref = max(l2_norm(f) for f in direct.fields)
    sup_gap = max(
        l2_norm(SpectralField(a.grid, a.coeffs - b.coeffs))
        for a, b in zip(limit.fields, direct.fields)
    )
    assert sup_gap <= 1e-6 * sup_ref, f"limit vs direct: {sup_gap / sup_ref:.2e} relative"
    assert elapsed < 600.0, f"fixed-point check took {elapsed:.1f}s, budget is 10 min"


# ---------------------------------------------------------------------------
# 10: the scaling symmetry on the lattice


def test_10_critical_norm_scaling_equivariance():
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)
    assert params.sigma_c == 2.0
    f = scaled(random_field(GridSpec(32), seed=5, decay=3.0, band=6), 5.0)
    for lam in (2, 3, 4):
        g = rescale_solution(f, lam, params)
        drift = abs(
            sobolev_norm(g, params.sigma_c) / sobolev_norm(f, params.sigma_c) - 1.0
        )
        assert drift <= 1e-12, f"lam={lam}: critical norm drifted by {drift:.2e}"
    report = scaling_equivariance_check(f, params, 2, T=0.05, dt=1e-3)
    assert report.gap <= 1e-8, f"rescale/solve order gap {report.gap:.2e}"


# ---------------------------------------------------------------------------
# 11: dissipation-rate decay and analyticity-radius tracking


TRACK = {"alpha": 0.4, "eps_rate": 0.2, "delta": 0.1}


def decay_and_tracking(params):
    """Slope of the shifted-index norm over the final decade of a unit-time
    run, plus the weighted radius-tracking sup at N=64 and N=128."""
    theta0 = small_data(64, params, 0.1)
    report = decay_study(
        theta0, params, TRACK["delta"], [0], T=1.0, dt=2e-3, snapshot_stride=10
    )
    assert report.window == (0.1, 1.0)
    assert report.n_points >= 10
    sups = {
        n: gevrey_track(small_data(n, params, 0.1), params, 1.0, 2e-3, 10, **TRACK).sup
        for n in (64, 128)
    }
    return report, sups


def assert_decay_and_tracking(params):
    report, sups = decay_and_tracking(params)
    slope, expected = report.slopes[0], report.expected[0]
    assert expected == -TRACK["delta"] / params.kappa
    assert abs(slope - expected) <= 0.15 * abs(expected), (
        f"fitted decay slope {slope:.4f}, expected {expected} within 15%"
    )
    assert math.isfinite(sups[64]) and sups[64] > 0
    change = abs(sups[128] / sups[64] - 1.0)
    assert change <= 0.10, f"tracking sup moved {change:.2%} from N=64 to N=128"


def test_11_supercritical_decay_rate_and_radius_tracking():
    assert_decay_and_tracking(ModelParams(beta=1.7, kappa=0.5, gamma=0.37))


# ---------------------------------------------------------------------------
# 12: the logarithmic velocity endpoint passes the same dynamic suite


def test_12_logarithmic_velocity_endpoint_suite():
    """Energy law, linear exactness, stepper order, and decay/tracking,
    rerun with the logarithmic velocity law at mu=1, kappa=0.5. The tracked
    Sobolev index is the endpoint's own critical value plus 0.1, and the
    tracking radius grows linearly in time for this law."""
    energy_params = ModelParams(
        beta=2.0, kappa=0.5, gamma=0.37, mu=1.0, velocity_law="log"
    )
    traj = simulate(
        small_data(64, energy_params, 0.1), energy_params, T=1.0, dt=1e-3, snapshot_stride=1
    )
    assert len(traj.rows) == 1001
    assert max(r.energy_residual for r in traj.rows) <= 1e-12
    assert traj.max_l2_step_increase <= 1e-9

    assert_linear_flow_exact(
        lambda gamma, kappa, eps: ModelParams(
            beta=2.0, kappa=kappa, gamma=gamma, eps_visc=eps, mu=1.0, velocity_law="log"
        )
    )

    slope, errs = self_convergence_slope(
        ModelParams(beta=2.0, kappa=0.5, gamma=0.2, mu=1.0, velocity_law="log")
    )
    assert 3.7 <= slope <= 4.3, f"self-convergence slope {slope:.3f}, errors {errs}"

    track_params = ModelParams(beta=2.0, kappa=0.5, gamma=0.37, mu=1.0, velocity_law="log")
    assert track_params.sigma_c == 3.0 - track_params.kappa
    assert_decay_and_tracking(track_params)
