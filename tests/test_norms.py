import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsqglab import (
    GridSpec,
    OverflowGuardError,
    SpectralField,
    check_gevrey_interpolation,
    check_interpolation,
    derivative_bound_check,
    field_from_modes,
    gevrey_norm,
    ModelParams,
    gevrey_report,
    gevrey_term,
    sobolev_norm,
)
from gsqglab import norms, solver
from gsqglab.spectral import _box, _box_bound, _dealias_mask, _homog_weight, _kabs
from util import hs_norm, l2_norm, random_field

SQRT2_PI = math.sqrt(2.0) * math.pi


def shell_field(grid, modes, seed=0):
    """Field supported on the given modes with unit-modulus random phases."""
    rng = np.random.default_rng(seed)
    spec = {}
    for m in modes:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        spec[m] = np.exp(1j * phase)
    return field_from_modes(grid, spec)


def heat_multiplier(grid, gamma, kappa, t):
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    kabs = grid.k_fundamental * np.hypot(m[:, None], m[None, :])
    return np.exp(-gamma * kabs**kappa * t)


# ---------------------------------------------------------------- sobolev


@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_sobolev_norm_of_sine_is_sqrt2_pi_for_all_orders(s):
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 1.0 / 2.0j})
    assert sobolev_norm(f, s) == pytest.approx(SQRT2_PI, rel=1e-13)


def test_sobolev_order_zero_is_l2():
    f = random_field(GridSpec(32), seed=3)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-13)


@pytest.mark.parametrize("s", [-1.0, 0.7, 2.0])
def test_inhomogeneous_over_homogeneous_on_unit_shell(s):
    # weight ratio is ((1 + 1)/1)^(s/2) on |k| = 1
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 0.3 - 0.2j, (0, 1): 0.1j})
    ratio = sobolev_norm(f, s, homogeneous=False) / sobolev_norm(f, s)
    assert ratio == pytest.approx(2.0 ** (s / 2.0), rel=1e-13)


def test_homogeneous_norm_rejects_nonzero_mean():
    g = GridSpec(16)
    f = field_from_modes(g, {(0, 0): 1.0, (1, 0): 1j})
    with pytest.raises(ValueError):
        sobolev_norm(f, 0.5)
    assert sobolev_norm(f, 0.5, homogeneous=False) > 0.0


@pytest.mark.parametrize("s", [-1.2, 0.0, 1.3])
def test_sobolev_matches_direct_weighted_sum(s):
    f = random_field(GridSpec(32), seed=11, decay=2.4)
    assert sobolev_norm(f, s) == pytest.approx(hs_norm(f, s), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    s=st.floats(min_value=-2.0, max_value=2.5),
    seed=st.integers(min_value=0, max_value=50),
)
@example(c=37.0, s=2.5, seed=0)  # the two sides differ by 1 ulp at 8.2e3
def test_sobolev_absolute_homogeneity(c, s, seed):
    f = random_field(GridSpec(16), seed=seed)
    scaled = SpectralField(f.grid, c * f.coeffs)
    assert sobolev_norm(scaled, s) == pytest.approx(
        abs(c) * sobolev_norm(f, s), rel=1e-14, abs=1e-12
    )


@pytest.mark.parametrize("s", [-0.8, 0.0, 1.4])
def test_sobolev_triangle_inequality(s):
    g = GridSpec(16)
    for seed in range(6):
        f = random_field(g, seed=seed)
        h = random_field(g, seed=seed + 100, decay=1.7)
        both = SpectralField(g, f.coeffs + h.coeffs)
        assert sobolev_norm(both, s) <= sobolev_norm(f, s) + sobolev_norm(h, s) + 1e-12


# ---------------------------------------------------------------- gevrey


def test_gevrey_norm_at_zero_radius_is_sobolev():
    f = random_field(GridSpec(32), seed=5)
    assert gevrey_norm(f, 0.7, 0.0, 1.1) == sobolev_norm(f, 1.1)


def test_gevrey_norm_of_sine_closed_form():
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 1.0 / 2.0j})
    assert gevrey_norm(f, 1.0, 1.0, 0.0) == pytest.approx(math.e * SQRT2_PI, rel=1e-12)


def test_gevrey_norm_monotone_and_continuous_in_radius():
    f = random_field(GridSpec(32), seed=9, band=10)
    lams = np.linspace(0.0, 0.4, 9)
    vals = [gevrey_norm(f, 0.6, lam, 0.5) for lam in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    base = gevrey_norm(f, 0.6, 0.2, 0.5)
    assert abs(gevrey_norm(f, 0.6, 0.2 + 1e-7, 0.5) - base) <= 1e-4 * base


def test_gevrey_norm_overflow_guard():
    f = random_field(GridSpec(64), seed=1)
    with pytest.raises(OverflowGuardError):
        gevrey_norm(f, 1.0, 30.0, 0.0)


# ---------------------------------------------------------------- space-time norm


def tracked_sup(params, snaps, alpha, eps, delta):
    """gevrey_report's sup over the gevrey_term series of the snapshots
    (t, field): the space-time Gevrey norm, as gevrey-track composes it."""
    series = [gevrey_term(t, f, params, alpha, eps, delta) for t, f in snaps]
    return gevrey_report(params, [t for t, _ in snaps], series, alpha, eps, delta).sup


def test_space_time_norm_of_heat_flow_matches_per_mode_oracle():
    g = GridSpec(32)
    theta0 = random_field(g, seed=21, decay=2.5, band=8)
    params = ModelParams(beta=1.3, kappa=0.5, gamma=0.7)
    gamma, kappa, alpha, eps = params.gamma, params.kappa, 0.4, 0.2
    delta = 0.1
    times = np.linspace(0.05, 1.0, 20)
    snaps = [
        (t, SpectralField(g, heat_multiplier(g, gamma, kappa, t) * theta0.coeffs))
        for t in times
    ]
    got = tracked_sup(params, snaps, alpha, eps, delta)

    m = np.fft.fftfreq(g.n, 1.0 / g.n)
    kabs = np.hypot(m[:, None], m[None, :])
    w = np.where(kabs > 0, kabs ** (2.0 * (params.sigma_c + delta)), 0.0)
    best = 0.0
    for t in times:
        lam = eps * gamma ** (alpha / kappa) * t ** (alpha / kappa)
        boost = np.exp(2.0 * lam * kabs**alpha - 2.0 * gamma * kabs**kappa * t)
        val = (gamma * t) ** (delta / kappa) * g.period * math.sqrt(
            float(np.sum(w * boost * np.abs(theta0.coeffs) ** 2))
        )
        best = max(best, val)
    assert got == pytest.approx(best, rel=1e-10)


def test_space_time_norm_skips_time_zero_snapshot():
    g = GridSpec(16)
    f = random_field(g, seed=2, band=4)
    snaps = [(0.5, f), (1.0, f)]
    params = ModelParams(beta=1.0, kappa=0.5, gamma=1.0)
    args = (0.4, 0.1, 0.2)
    assert tracked_sup(params, [(0.0, f)] + snaps, *args) == tracked_sup(params, snaps, *args)


def test_space_time_norm_single_snapshot_reduces_to_critical_sobolev():
    f = random_field(GridSpec(16), seed=7)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=1.4)
    got = tracked_sup(params, [(0.3, f)], 0.4, 0.0, 0.0)
    assert got == sobolev_norm(f, params.sigma_c)


def test_space_time_norm_without_weights_is_sup_of_sobolev():
    g = GridSpec(16)
    snaps = [(t, random_field(g, seed=i, decay=1.5 + i)) for i, t in enumerate([0.1, 0.4, 0.9])]
    params = ModelParams(beta=0.9, kappa=0.7, gamma=1.0)
    got = tracked_sup(params, snaps, 0.5, 0.0, 0.0)
    assert got == max(sobolev_norm(f, params.sigma_c) for _, f in snaps)


def test_space_time_norm_of_heat_flow_stable_under_refinement():
    modes = {(1, 0): 0.3, (2, 1): 0.1 - 0.05j, (5, 3): 0.02j, (0, 4): 0.07}
    params = ModelParams(beta=1.3, kappa=0.5, gamma=1.0)
    times = np.linspace(0.1, 2.0, 15)
    vals = []
    for n in (32, 64):
        g = GridSpec(n)
        f0 = field_from_modes(g, modes)
        snaps = [
            (t, SpectralField(g, heat_multiplier(g, params.gamma, params.kappa, t) * f0.coeffs))
            for t in times
        ]
        vals.append(tracked_sup(params, snaps, 0.4, 0.3, 0.1))
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


# ---------------------------------------------------------------- interpolation


@pytest.mark.parametrize(
    "s1,s,s2",
    [(0.0, 0.5, 1.0), (-1.0, -0.2, 0.6), (0.3, 0.9, 2.1), (-1.5, 0.0, 1.5)],
)
def test_interpolation_ratio_never_exceeds_one(s1, s, s2):
    for seed in range(10):
        f = random_field(GridSpec(32), seed=seed, decay=1.5 + 0.2 * seed)
        rep = check_interpolation(f, s, s1, s2)
        assert rep.holds
        assert rep.ratio <= 1.0 + 1e-12


def test_interpolation_single_shell_is_sharp():
    g = GridSpec(32)
    f = shell_field(g, [(5, 0), (3, 4), (4, 3), (0, 5)], seed=4)
    rep = check_interpolation(f, 0.7, -0.4, 1.9)
    assert abs(rep.ratio - 1.0) <= 1e-13


def test_interpolation_at_endpoints_is_exact():
    f = random_field(GridSpec(16), seed=13)
    assert check_interpolation(f, 0.2, 0.2, 1.5).ratio == 1.0
    assert check_interpolation(f, 1.5, 0.2, 1.5).ratio == 1.0
    assert check_interpolation(f, 0.8, 0.8, 0.8).ratio == 1.0


def test_interpolation_input_validation():
    g = GridSpec(16)
    f = random_field(g, seed=0)
    with pytest.raises(ValueError):
        check_interpolation(f, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_interpolation(field_from_modes(g, {}), 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_interpolation(field_from_modes(g, {(0, 0): 1.0}), 0.5, 0.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=30),
    s1=st.floats(min_value=-1.5, max_value=0.5),
    ds=st.floats(min_value=0.0, max_value=1.5),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_interpolation_property(seed, s1, ds, frac):
    f = random_field(GridSpec(16), seed=seed)
    s2 = s1 + ds
    rep = check_interpolation(f, s1 + frac * ds, s1, s2)
    assert rep.ratio <= 1.0 + 1e-12


# ---------------------------------------------------------------- gevrey interpolation


def test_gevrey_interpolation_zero_radius_ratio():
    f = random_field(GridSpec(16), seed=6)
    rep = check_gevrey_interpolation(f, 0.5, 0.0, 0.5, 0.3, 1.1)
    assert rep.ratio == pytest.approx(1.0 / math.e, rel=1e-12)


def test_gevrey_interpolation_single_mode_closed_form():
    g = GridSpec(16)
    f = field_from_modes(g, {(2, 0): 0.4 - 0.1j})
    alpha, lam, s1, s2 = 0.6, 0.15, 0.2, 1.4
    rep = check_gevrey_interpolation(f, alpha, lam, 1.0, s1, s2)
    w2 = 2.0 * abs(0.4 - 0.1j) ** 2 * g.period**2
    boost = math.exp(2.0 * lam * 2.0**alpha)
    lhs = boost * 2.0 ** (2.0 * s1) * w2
    bound = math.e * 2.0 ** (2.0 * s1) * w2
    bound += (2.0 * lam) ** (2.0 * (s2 - s1) / alpha) * boost * 2.0 ** (2.0 * s2) * w2
    assert rep.lhs == pytest.approx(lhs, rel=1e-12)
    assert rep.bound == pytest.approx(bound, rel=1e-12)


def test_gevrey_interpolation_ensemble_has_no_violations():
    g = GridSpec(32)
    cases = 0
    for seed in range(4):
        f = random_field(g, seed=seed, decay=2.0 + 0.3 * seed)
        for alpha in (0.3, 0.6, 1.0):
            for lam in (0.05, 0.2):
                for rho in (0.25, 0.6, 1.0):
                    for s1, s2 in ((0.0, 1.0), (-0.5, 0.8), (1.2, 1.2)):
                        rep = check_gevrey_interpolation(f, alpha, lam, rho, s1, s2)
                        assert rep.holds
                        cases += 1
    assert cases == 216


def test_gevrey_interpolation_validation():
    f = random_field(GridSpec(16), seed=0)
    with pytest.raises(ValueError):
        check_gevrey_interpolation(f, 0.5, 0.1, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_gevrey_interpolation(f, 0.5, 0.1, 1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_gevrey_interpolation(f, 0.5, 0.1, 0.5, 1.0, 0.0)


# ---------------------------------------------------------------- derivative bounds


def test_derivative_bound_order_zero_is_gevrey_monotonicity():
    f = random_field(GridSpec(16), seed=3)
    rep = derivative_bound_check(f, 0.5, 0.2, (0, 0), sigma=0.4)
    assert rep.lhs == pytest.approx(sobolev_norm(f, 0.4), rel=1e-13)
    assert rep.holds


def test_derivative_bound_single_mode_closed_form():
    g = GridSpec(16)
    f = field_from_modes(g, {(3, 0): 1.0 / 2.0j})
    alpha, lam = 0.7, 0.3
    rep = derivative_bound_check(f, alpha, lam, (1, 0))
    w = SQRT2_PI / 2.0  # two modes of modulus 1/2
    assert rep.lhs == pytest.approx(3.0 * 2.0 * w, rel=1e-12)
    factor = (1.0 / (lam * alpha)) ** (1.0 / alpha)
    assert rep.bound == pytest.approx(factor * math.exp(lam * 3.0**alpha) * 2.0 * w, rel=1e-12)
    assert rep.holds


def test_derivative_bound_ensemble_up_to_third_order():
    g = GridSpec(32)
    indices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3)]
    checked = 0
    for seed in range(3):
        f = random_field(g, seed=seed, decay=1.8 + 0.4 * seed)
        for alpha in (0.4, 0.7, 1.0):
            for lam in (0.1, 0.5):
                for b in indices:
                    for sigma in (0.0, 0.8):
                        rep = derivative_bound_check(f, alpha, lam, b, sigma=sigma)
                        assert rep.holds
                        checked += 1
    assert checked == 360


def test_derivative_bound_validation():
    f = random_field(GridSpec(16), seed=0)
    with pytest.raises(ValueError):
        derivative_bound_check(f, 0.5, 0.0, (1, 0))
    with pytest.raises(ValueError):
        derivative_bound_check(f, 0.5, 0.1, (-1, 0))


# ---------------------------------------------------------------- the Parseval sum

FRACTIONS = [2.0 / 3.0, 0.9, 1.0]


def _mirror_sum(coeffs, period, weight=None):
    """period * sqrt(sum w |c|^2) over the full Hermitian array."""
    w = 1.0 if weight is None else weight
    return period * math.sqrt(float(np.sum(w * np.abs(coeffs) ** 2)))


def _parseval_weights(grid):
    """No weight, |k|^(2s) and the inhomogeneous (1 + |k|^2)^s, on the full lattice."""
    kabs = _kabs(grid)
    return [None, _homog_weight(grid, 2.6), (1.0 + kabs * kabs) ** 0.7]


def _disc_field(grid, seed):
    keep = _dealias_mask(grid)
    return SpectralField(grid, random_field(grid, seed=seed, decay=1.0).coeffs * keep)


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_half_parseval_sum_matches_the_full_mirror_sum(fraction):
    # _l2 sums the half with column weights 1, 2, ..., 2, 1, and box rows with
    # 1, 2, ..., 2: against the full mirror's sum to 1e-14, and the half and
    # box rows of one field give the same bits
    g = GridSpec(32, dealias_fraction=fraction)
    n, period, k = g.n, g.period, _box_bound(g)
    wide = random_field(g, seed=81, decay=0.5)   # reaches every mode but the Nyquist ones
    disc = _disc_field(g, seed=82)
    for f in (wide, disc):
        full = f.coeffs
        for w in _parseval_weights(g):
            want = _mirror_sum(full, period, w)
            got = norms._l2(f.half, period, None if w is None else w[:, : n // 2 + 1])
            assert abs(got - want) <= 1e-14 * want
            if f is disc:
                on_box = norms._l2(_box(f.half, k), period, None if w is None else _box(w, k))
                assert on_box == got
    # the energy pairing Re <a, b> of the diagnostics rows
    for a, b in ((wide, disc), (disc, _disc_field(g, seed=83)), (disc, disc)):
        want = period**2 * float(np.real(np.sum(a.coeffs * np.conj(b.coeffs))))
        got = solver._pairing(a.half, b.half, period)
        scale = _mirror_sum(a.coeffs, period) * _mirror_sum(b.coeffs, period)
        assert abs(got - want) <= 1e-14 * scale
        if a is not wide:
            assert solver._pairing(_box(a.half, k), _box(b.half, k), period) == got
    assert solver._pairing(disc.half, disc.half, period) == pytest.approx(
        _mirror_sum(disc.coeffs, period) ** 2, rel=1e-14
    )
