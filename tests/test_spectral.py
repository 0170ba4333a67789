import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsqglab import spectral
from gsqglab import (
    GridSpec,
    ModelParams,
    OverflowGuardError,
    SpectralField,
    advect,
    build_partition,
    commutator_block,
    dyadic_block,
    field_from_modes,
    flux_divergence,
    fractional_laplacian,
    from_physical,
    gevrey_avg_operator,
    gevrey_operator,
    inner_product,
    log_multiplier,
    low_pass,
    multiply_fields,
    perp_gradient,
    to_physical,
    velocity_from_scalar,
)
from gsqglab.dyadic import _chi_lattice, _phi_lattice
from gsqglab.spectral import (
    _apply_multiplier,
    _dealias_mask,
    _homog_weight,
    _kabs,
    _log_weight,
    _nyquist_mask,
    _structure_multiplier,
    _support,
    _wavevectors,
    _wrap_half,
)
from util import direct_convolution, hs_norm, l2_norm, lattice_k, random_field


# --- grid and field construction -------------------------------------------


@pytest.mark.parametrize("bad_n", [8, 15, 24, 100, 0])
def test_grid_rejects_non_power_of_two(bad_n):
    with pytest.raises(ValueError):
        GridSpec(bad_n)


def test_grid_rejects_bad_period_and_fraction():
    with pytest.raises(ValueError):
        GridSpec(16, period=0.0)
    with pytest.raises(ValueError):
        GridSpec(16, dealias_fraction=0.0)
    with pytest.raises(ValueError):
        GridSpec(16, dealias_fraction=1.5)


def test_field_rejects_asymmetric_coefficients():
    g = GridSpec(16)
    c = np.zeros((16, 16), dtype=complex)
    c[3, 2] = 1.0   # no conjugate partner
    with pytest.raises(ValueError):
        SpectralField(g, c)


def test_field_rejects_nyquist_content_and_nonfinite():
    g = GridSpec(16)
    c = np.zeros((16, 16), dtype=complex)
    c[8, 0] = 1.0
    with pytest.raises(ValueError):
        SpectralField(g, c)
    c = np.zeros((16, 16), dtype=complex)
    c[1, 0] = np.nan
    with pytest.raises(ValueError):
        SpectralField(g, c)


def test_mean_zero_flag():
    g = GridSpec(16)
    assert field_from_modes(g, {(1, 0): 1j}).mean_zero
    assert not field_from_modes(g, {(0, 0): 2.0, (1, 0): 1j}).mean_zero


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(beta=0.0, kappa=0.5)
    with pytest.raises(ValueError):
        ModelParams(beta=2.5, kappa=0.5)
    with pytest.raises(ValueError):
        ModelParams(beta=1.5, kappa=0.0)
    with pytest.raises(ValueError):
        ModelParams(beta=1.5, kappa=0.5, gamma=-1.0)
    with pytest.raises(ValueError):
        ModelParams(beta=1.5, kappa=0.5, mu=0.0)
    with pytest.raises(ValueError):
        ModelParams(beta=1.5, kappa=0.5, velocity_law="log")
    ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=1.0)


def test_critical_exponent_and_flux_branch():
    p = ModelParams(beta=1.5, kappa=0.5)
    assert p.sigma_c == 2.0
    assert p.two_term   # 1.5 >= 1.5, the boundary case is inclusive
    assert not ModelParams(beta=1.2, kappa=0.5).two_term
    assert ModelParams(beta=1.7, kappa=0.5).two_term


# --- transforms -------------------------------------------------------------


def test_single_mode_evaluates_to_sine():
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 1.0 / 2.0j})
    x1, _ = g.sample_points()
    assert np.max(np.abs(to_physical(f) - np.sin(x1 + np.zeros((16, 16))))) <= 1e-13


def test_zero_field_round_trip():
    g = GridSpec(16)
    z = field_from_modes(g, {})
    assert np.all(to_physical(z) == 0.0)
    assert np.all(from_physical(np.zeros((16, 16)), g).coeffs == 0.0)


def test_round_trip_identity():
    g = GridSpec(32)
    f = random_field(g, seed=7, decay=1.5)
    back = from_physical(to_physical(f), g)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_to_physical_matches_complex_inverse_transform():
    # to_physical reads only the m2 >= 0 half spectrum, which is enough
    # because SpectralField enforces exact Hermitian symmetry
    g = GridSpec(32)
    f = random_field(g, seed=8, decay=0.5, mean_zero=False)
    ref = np.real(np.fft.ifft2(f.coeffs)) * 32**2
    assert np.max(np.abs(to_physical(f) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_from_physical_rejects_nonfinite():
    g = GridSpec(16)
    s = np.zeros((16, 16))
    s[3, 3] = np.inf
    with pytest.raises(ValueError):
        from_physical(s, g)


def test_from_physical_output_is_exactly_hermitian():
    g = GridSpec(32)
    rng = np.random.default_rng(11)
    f = from_physical(rng.standard_normal((32, 32)), g)
    idx = (-np.arange(32)) % 32
    assert np.array_equal(f.coeffs, np.conj(f.coeffs[np.ix_(idx, idx)]))


# --- diagonal operators ------------------------------------------------------


def test_fractional_laplacian_unit_shell_fixed_point():
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 0.5 - 0.25j})
    out = fractional_laplacian(f, 0.5)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_fractional_laplacian_shell_five():
    g = GridSpec(16)
    f = field_from_modes(g, {(3, 4): 1.0 + 2.0j})
    out = fractional_laplacian(f, 2.0)
    assert abs(out.coeffs[3, 4] - 25.0 * f.coeffs[3, 4]) <= 1e-14 * 25.0


def test_fractional_laplacian_inverts():
    g = GridSpec(32)
    f = random_field(g, seed=3)
    back = fractional_laplacian(fractional_laplacian(f, 0.7), -0.7)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_fractional_laplacian_negative_order_needs_mean_zero():
    g = GridSpec(16)
    f = field_from_modes(g, {(0, 0): 1.0, (1, 0): 1j})
    with pytest.raises(ValueError):
        fractional_laplacian(f, -0.5)


@settings(max_examples=25, deadline=None)
@given(
    s=st.floats(min_value=-2.0, max_value=2.0),
    m1=st.integers(min_value=-7, max_value=7),
    m2=st.integers(min_value=-7, max_value=7),
)
def test_fractional_laplacian_is_diagonal(s, m1, m2):
    if m1 == 0 and m2 == 0:
        return
    g = GridSpec(16)
    f = field_from_modes(g, {(m1, m2): 0.3 + 0.4j})
    out = fractional_laplacian(f, s)
    expected = (float(m1 * m1 + m2 * m2)) ** (s / 2.0)
    got = out.coeffs[m1 % 16, m2 % 16] / f.coeffs[m1 % 16, m2 % 16]
    assert abs(got - expected) <= 1e-12 * max(expected, 1.0)


def test_gevrey_identity_at_zero_radius():
    g = GridSpec(16)
    f = random_field(g, seed=1)
    assert gevrey_operator(f, 0.5, 0.0) is f
    assert gevrey_avg_operator(f, 0.5, 0.0) is f


def test_gevrey_weight_on_shell_two():
    g = GridSpec(16)
    f = field_from_modes(g, {(2, 0): 1.0})
    out = gevrey_operator(f, 1.0, 0.5)
    assert abs(out.coeffs[2, 0] - math.e) <= 1e-14 * math.e


def test_gevrey_semigroup_in_radius():
    g = GridSpec(32)
    f = random_field(g, seed=5)
    lhs = gevrey_operator(gevrey_operator(f, 0.7, 0.013), 0.7, 0.029)
    rhs = gevrey_operator(f, 0.7, 0.042)
    scale = np.max(np.abs(rhs.coeffs))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_gevrey_overflow_guard_names_shell():
    g = GridSpec(64)
    f = random_field(g, seed=2)
    with pytest.raises(OverflowGuardError) as exc:
        gevrey_operator(f, 1.0, 30.0)
    # largest applied shell on n=64: |m|=(31,31)
    assert abs(exc.value.shell - math.sqrt(31**2 + 31**2)) < 1e-9
    assert exc.value.exponent > 700.0


def test_gevrey_avg_alpha_one_closed_form():
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 1.0})
    out = gevrey_avg_operator(f, 1.0, 1.0)
    assert abs(out.coeffs[1, 0] - (math.e - 1.0)) <= 1e-12


def test_gevrey_avg_matches_high_resolution_trapezoid():
    # alpha = 0.5, lambda = 0.3, |k| = 4; reference is a 1e6-panel trapezoid
    t = np.linspace(0.0, 1.0, 1_000_001)
    reference = np.trapezoid(np.exp(0.3 * np.sqrt(t) * 2.0), t)
    # closed form (2/c^2)((c-1)e^c + 1), c = 0.6, for the trapezoid's own sanity
    assert abs(reference - 1.5064026657988689) <= 1e-9
    g = GridSpec(16)
    f = field_from_modes(g, {(4, 0): 1.0})
    out = gevrey_avg_operator(f, 0.5, 0.3)
    assert abs(out.coeffs[4, 0] - reference) <= 1e-10 * reference


def test_log_multiplier_values():
    g = GridSpec(16)
    f = field_from_modes(g, {(0, 0): 3.0, (1, 0): 1.0})
    out = log_multiplier(f, 1.0)
    assert out.coeffs[0, 0] == 0.0
    assert abs(out.coeffs[1, 0] - math.log(2.0)) <= 1e-15
    # |k|^2 = 3 realized through the box size: period 2pi/sqrt(3) puts the
    # first shell at |k| = sqrt(3)
    g3 = GridSpec(16, period=2.0 * math.pi / math.sqrt(3.0))
    f3 = field_from_modes(g3, {(1, 0): 1.0})
    out3 = log_multiplier(f3, 2.0)
    assert abs(out3.coeffs[1, 0] - math.log(4.0) ** 2) <= 1e-12
    assert abs(out3.coeffs[1, 0] - 1.921812) <= 1e-6


def test_log_weight_is_cached_read_only_and_bit_identical():
    # the cached weight is the elementwise formula its call sites used to build
    g = GridSpec(32)
    kabs = _kabs(g)
    f = random_field(g, seed=11)
    for mu in (0.7, 1.0, 1.3):
        formula = np.log1p(kabs * kabs) ** mu
        w = _log_weight(g, mu)
        assert np.array_equal(w, formula)
        assert _log_weight(g, mu) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[1, 0] = 0.0
        assert np.array_equal(log_multiplier(f, mu).coeffs, f.coeffs * formula)
        law = ModelParams(beta=2.0, kappa=0.5, mu=mu, velocity_law="log")
        assert np.array_equal(_structure_multiplier(g, law), formula[:, : 32 // 2 + 1])


def test_multipliers_preserve_symmetry_and_nyquist():
    g = GridSpec(32)
    f = random_field(g, seed=9)
    idx = (-np.arange(32)) % 32
    for out in (
        fractional_laplacian(f, 1.3),
        gevrey_operator(f, 0.5, 0.1),
        gevrey_avg_operator(f, 0.5, 0.1),
        log_multiplier(f, 1.5),
    ):
        assert np.array_equal(out.coeffs, np.conj(out.coeffs[np.ix_(idx, idx)]))
        assert np.all(out.coeffs[16, :] == 0.0)
        assert np.all(out.coeffs[:, 16] == 0.0)


# --- constitutive operators --------------------------------------------------


def test_perp_gradient_of_sine():
    g = GridSpec(16)
    psi = field_from_modes(g, {(1, 0): 1.0 / 2.0j})
    v = perp_gradient(psi)
    x1, _ = g.sample_points()
    assert np.max(np.abs(to_physical(v.u1))) <= 1e-14
    assert np.max(np.abs(to_physical(v.u2) - np.cos(x1 + np.zeros((16, 16))))) <= 1e-13


def test_perp_gradient_divergence_free_per_mode():
    g = GridSpec(32)
    psi = random_field(g, seed=4)
    v = perp_gradient(psi)
    k1, k2 = lattice_k(g)
    div = 1j * k1 * v.u1.coeffs + 1j * k2 * v.u2.coeffs
    assert np.max(np.abs(div)) <= 1e-15 * np.max(np.abs(psi.coeffs))


def test_perp_gradient_physical_divergence():
    g = GridSpec(32)
    psi = random_field(g, seed=6)
    div = perp_gradient(psi).divergence()
    assert np.max(np.abs(to_physical(div))) <= 1e-13 * np.max(np.abs(to_physical(psi)))


def test_velocity_unit_shell_any_beta():
    g = GridSpec(16)
    theta = field_from_modes(g, {(1, 0): 1.0 / 2.0j})
    x1, _ = g.sample_points()
    cos = np.cos(x1 + np.zeros((16, 16)))
    for beta in (1.2, 1.5, 2.0):
        u = velocity_from_scalar(theta, ModelParams(beta=beta, kappa=0.5))
        assert np.max(np.abs(to_physical(u.u1))) <= 1e-14
        assert np.max(np.abs(to_physical(u.u2) + cos)) <= 1e-13


def test_velocity_log_law_unit_shell():
    g = GridSpec(16)
    theta = field_from_modes(g, {(1, 0): 1.0 / 2.0j})
    u = velocity_from_scalar(theta, ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=1.0))
    x1, _ = g.sample_points()
    expected = -math.log(2.0) * np.cos(x1 + np.zeros((16, 16)))
    assert np.max(np.abs(to_physical(u.u2) - expected)) <= 1e-13


def test_velocity_matches_operator_composition():
    g = GridSpec(32)
    theta = random_field(g, seed=8)
    params = ModelParams(beta=1.5, kappa=0.5)
    u = velocity_from_scalar(theta, params)
    v = perp_gradient(fractional_laplacian(theta, params.beta - 2.0))
    assert np.array_equal(u.u1.coeffs, (-v.u1).coeffs)
    assert np.array_equal(u.u2.coeffs, (-v.u2).coeffs)


def test_velocity_requires_mean_zero_for_singular_symbol():
    g = GridSpec(16)
    theta = field_from_modes(g, {(0, 0): 1.0, (1, 0): 1j})
    with pytest.raises(ValueError):
        velocity_from_scalar(theta, ModelParams(beta=1.5, kappa=0.5))
    # beta = 2 has a regular symbol and must accept the same input
    velocity_from_scalar(theta, ModelParams(beta=2.0, kappa=0.5))


# --- nonlinear products ------------------------------------------------------


def test_advect_zero_velocity():
    g = GridSpec(16)
    theta = random_field(g, seed=10)
    u = perp_gradient(field_from_modes(g, {}))
    out = advect(u, theta)
    assert np.all(out.coeffs == 0.0)


def test_advect_grid_mismatch():
    theta = random_field(GridSpec(16), seed=1)
    u = perp_gradient(random_field(GridSpec(32), seed=1))
    with pytest.raises(ValueError):
        advect(u, theta)


def test_advect_skew_symmetry():
    g = GridSpec(32)
    theta = random_field(g, seed=12, band=10)
    u = perp_gradient(random_field(g, seed=13, band=10))
    val = inner_product(advect(u, theta), theta)
    scale = (
        math.hypot(l2_norm(u.u1), l2_norm(u.u2))
        * hs_norm(theta, 1.0)
        * l2_norm(theta)
    )
    assert abs(val) <= 1e-12 * scale


def test_advect_single_triad_closed_form():
    # u = perp grad of one mode pair at p, theta one mode pair at q;
    # coefficient at p + q is (p2 q1 - p1 q2) a b by hand convolution
    g = GridSpec(16)
    p, a = (1, 2), 0.3 - 0.1j
    q, b = (3, -1), 0.2 + 0.4j
    u = perp_gradient(field_from_modes(g, {p: a}))
    theta = field_from_modes(g, {q: b})
    out = advect(u, theta)
    det = p[1] * q[0] - p[0] * q[1]
    assert abs(out.coeffs[4, 1] - det * a * b) <= 1e-14
    assert abs(out.coeffs[-2 % 16, 3] - (-det) * a * np.conj(b)) <= 1e-14
    assert abs(out.coeffs[-4 % 16, -1 % 16] - det * np.conj(a) * np.conj(b)) <= 1e-14


def test_product_matches_direct_convolution():
    g = GridSpec(16)
    f = random_field(g, seed=21, band=5)
    h = random_field(g, seed=22, band=5)
    prod = multiply_fields(f, h)
    ref = direct_convolution(f.coeffs, h.coeffs)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(prod.coeffs - ref)) <= 1e-12 * scale


def test_advect_matches_direct_convolution():
    g = GridSpec(16)
    theta = random_field(g, seed=31, band=5)
    u = perp_gradient(random_field(g, seed=32, band=5))
    k1, k2 = lattice_k(g)
    ref = direct_convolution(u.u1.coeffs, 1j * k1 * theta.coeffs)
    ref += direct_convolution(u.u2.coeffs, 1j * k2 * theta.coeffs)
    m = np.fft.fftfreq(16, 1.0 / 16).astype(int)
    keep = (m[:, None] ** 2 + m[None, :] ** 2) <= (g.dealias_radius) ** 2
    ref[~keep] = 0.0
    ref[0, 0] = 0.0
    out = advect(u, theta)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(out.coeffs - ref)) <= 1e-12 * scale


def test_flux_divergence_zero_source():
    g = GridSpec(16)
    theta = random_field(g, seed=14)
    zero = field_from_modes(g, {})
    params = ModelParams(beta=1.5, kappa=0.5)
    assert np.all(flux_divergence(zero, theta, params).coeffs == 0.0)


@pytest.mark.parametrize("beta", [1.2, 1.7])
def test_flux_divergence_self_advection(beta):
    g = GridSpec(32)
    theta = random_field(g, seed=15, band=10)
    params = ModelParams(beta=beta, kappa=0.5)
    lhs = flux_divergence(-theta, theta, params)
    rhs = advect(velocity_from_scalar(theta, params), theta)
    scale = max(np.max(np.abs(rhs.coeffs)), 1e-30)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_flux_divergence_log_law_self_advection():
    g = GridSpec(32)
    theta = random_field(g, seed=16, band=10)
    params = ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=1.0)
    lhs = flux_divergence(-theta, theta, params)
    rhs = advect(velocity_from_scalar(theta, params), theta)
    scale = max(np.max(np.abs(rhs.coeffs)), 1e-30)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_two_term_flux_pairing_matches_commutator():
    # <Div F_q(theta), theta> against -(1/2) sum_l <[D_l, g_l] theta, theta>
    # where D_l applies i k_l |k|^(beta-2) and g_l is the l-th component of
    # the rotated gradient of q; evaluated directly on the lattice
    g = GridSpec(32)
    beta = 1.7
    params = ModelParams(beta=beta, kappa=0.5)
    assert params.two_term
    theta = random_field(g, seed=17, band=10)
    q = random_field(g, seed=18, band=10)
    lhs = inner_product(flux_divergence(q, theta, params), theta)

    k1, k2 = lattice_k(g)
    kabs = np.sqrt(k1 * k1 + k2 * k2)
    with np.errstate(divide="ignore"):
        sym = kabs ** (beta - 2.0)
    sym[0, 0] = 0.0
    gq = perp_gradient(q)
    rhs = 0.0
    for kl, gl in ((k1, gq.u1), (k2, gq.u2)):
        d_theta = SpectralField(g, 1j * kl * sym * theta.coeffs)
        prod_inner = multiply_fields(gl, d_theta)            # g * (D theta)
        prod_outer = multiply_fields(gl, theta)              # g * theta
        d_prod = SpectralField(g, 1j * kl * sym * prod_outer.coeffs)
        comm = d_prod.coeffs - prod_inner.coeffs
        rhs += float(
            np.real(np.vdot(theta.coeffs, comm)) * g.period**2
        )
    rhs *= -0.5
    scale = max(abs(lhs), abs(rhs), 1e-30)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_flux_divergence_requires_mean_zero():
    g = GridSpec(16)
    theta = field_from_modes(g, {(0, 0): 1.0, (1, 0): 1j})
    q = field_from_modes(g, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        flux_divergence(q, theta, ModelParams(beta=1.5, kappa=0.5))


def test_nonlinear_outputs_stay_admissible():
    g = GridSpec(32)
    theta = random_field(g, seed=19)
    u = perp_gradient(random_field(g, seed=20))
    out = advect(u, theta)
    idx = (-np.arange(32)) % 32
    assert np.array_equal(out.coeffs, np.conj(out.coeffs[np.ix_(idx, idx)]))
    assert np.all(out.coeffs[16, :] == 0.0)
    assert out.mean_zero


# --- product engine: direct-convolution oracles and the grid-size rule ------

FRACTIONS = [2.0 / 3.0, 0.9, 1.0]


def _disc(grid):
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(int)
    return (m[:, None] ** 2 + m[None, :] ** 2) <= grid.dealias_radius**2


def _disc_field(grid, seed):
    """Random field restricted to the grid's dealias disc, like solver state."""
    return SpectralField(grid, random_field(grid, seed=seed, decay=1.0).coeffs * _disc(grid))


def _disc_restrict(grid, coeffs):
    out = np.where(_disc(grid), coeffs, 0.0)
    out[0, 0] = 0.0
    return out


def _direct_advect(u, theta):
    k1, k2 = lattice_k(theta.grid)
    ref = direct_convolution(u.u1.coeffs, 1j * k1 * theta.coeffs)
    ref += direct_convolution(u.u2.coeffs, 1j * k2 * theta.coeffs)
    return _disc_restrict(theta.grid, ref)


def _assert_close(got, ref, rel=1e-12):
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(got - ref)) <= rel * scale


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_advect_oracle_across_dealias_fractions(fraction):
    g = GridSpec(16, dealias_fraction=fraction)
    theta = _disc_field(g, seed=41)
    u = velocity_from_scalar(_disc_field(g, seed=42), ModelParams(beta=1.5, kappa=0.5))
    _assert_close(advect(u, theta).coeffs, _direct_advect(u, theta))


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_multiply_fields_full_support_oracle(fraction, product_sizes):
    g = GridSpec(16, dealias_fraction=fraction)
    f = random_field(g, seed=43, band=7, decay=1.0)
    h = random_field(g, seed=44, band=7, decay=1.0)
    _assert_close(multiply_fields(f, h).coeffs, direct_convolution(f.coeffs, h.coeffs))
    assert product_sizes == [24]


def _direct_flux(q, theta, params):
    """Direct-convolution modified flux divergence, spelled out per term."""
    g = theta.grid
    k1, k2 = lattice_k(g)
    kk = k1 * k1 + k2 * k2
    if params.velocity_law == "log":
        sym = np.log1p(kk) ** params.mu
    else:
        with np.errstate(divide="ignore"):
            sym = np.where(kk > 0, kk ** ((params.beta - 2.0) / 2.0), 0.0)
    vq = sym * q.coeffs
    out = 1j * k1 * direct_convolution(-1j * k2 * vq, theta.coeffs)
    out += 1j * k2 * direct_convolution(1j * k1 * vq, theta.coeffs)
    if params.two_term:
        second = 1j * k1 * direct_convolution(-1j * k2 * theta.coeffs, q.coeffs)
        second += 1j * k2 * direct_convolution(1j * k1 * theta.coeffs, q.coeffs)
        out += sym * second
    return _disc_restrict(g, out)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize(
    "params",
    [
        ModelParams(beta=1.2, kappa=0.5),
        ModelParams(beta=1.7, kappa=0.5),
        ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=0.7),
    ],
    ids=["one_term", "two_term", "log_law"],
)
def test_flux_divergence_oracle_across_dealias_fractions(params, fraction):
    g = GridSpec(16, dealias_fraction=fraction)
    theta = _disc_field(g, seed=45)
    q = _disc_field(g, seed=46)
    assert params.two_term == (params.beta >= 1.5)
    _assert_close(flux_divergence(q, theta, params).coeffs, _direct_flux(q, theta, params))


def _edge_field(grid, k, seed):
    """Field with a few modes, at least one of them with |m_i| = k."""
    rng = np.random.default_rng(seed)
    modes = [(k, k), (k, -k), (-k, 1), (2, k), (1, 0)]
    return field_from_modes(
        grid, {m: complex(rng.standard_normal(), rng.standard_normal()) for m in modes}
    )


@pytest.mark.parametrize(
    "op, k_out",
    [("advect", 5), ("multiply", 7)],
)
def test_product_grid_rule_at_its_edge(op, k_out, product_sizes):
    # n = 16: supports with k_a + k_b + k_out = n - 1 are the largest the
    # n-grid holds exactly; one more must move the product to 3n/2
    g = GridSpec(16)
    assert op != "advect" or int(g.dealias_radius) == k_out
    k = (g.n - 1 - k_out) // 2
    for k_a, k_b, size in ((k, k, 16), (k, k + 1, 24), (k + 1, k + 1, 24)):
        product_sizes.clear()
        a = _edge_field(g, k_a, seed=k_a)
        b = _edge_field(g, k_b, seed=k_b + 100)
        if op == "advect":
            u = perp_gradient(a)
            got, ref = advect(u, b).coeffs, _direct_advect(u, b)
        else:
            got, ref = multiply_fields(a, b).coeffs, direct_convolution(a.coeffs, b.coeffs)
        _assert_close(got, ref)
        assert product_sizes == [size]


def test_product_grid_rule_zero_support(product_sizes):
    g = GridSpec(16)
    zero = field_from_modes(g, {})
    f = random_field(g, seed=47, band=7)
    assert np.all(advect(perp_gradient(zero), f).coeffs == 0.0)
    assert np.all(multiply_fields(f, zero).coeffs == 0.0)
    assert product_sizes == [16, 16]


@pytest.mark.parametrize(
    "op, inverse, forward",
    [("advect", 4, 1), ("one_term", 4, 1), ("two_term", 6, 2)],
)
def test_transforms_per_product_call(op, inverse, forward, transforms):
    # the flux shares the samples of grad theta between its two terms
    g = GridSpec(32)
    theta = _disc_field(g, seed=48)
    q = _disc_field(g, seed=49)
    beta = {"advect": 1.5, "one_term": 1.2, "two_term": 1.7}[op]
    params = ModelParams(beta=beta, kappa=0.5)
    if op == "advect":
        u = velocity_from_scalar(q, params)
        transforms.clear()
        advect(u, theta)
    else:
        assert params.two_term == (op == "two_term")
        flux_divergence(q, theta, params)
    assert dict(transforms) == {"irfft2": inverse, "rfft2": forward}


@pytest.mark.parametrize("n, inverse, forward", [(64, 1, 1), (256, 6, 2)])
def test_flux_transform_calls_on_both_sides_of_the_stack_limit(n, inverse, forward, transforms):
    # M = n: one stacked call per direction up to _STACK_MAX, one call per
    # transform above it
    g = GridSpec(n)
    theta = _disc_field(g, seed=53)
    q = _disc_field(g, seed=54)
    flux_divergence(q, theta, ModelParams(beta=1.7, kappa=0.5))
    assert dict(transforms) == {"irfft2": 6, "rfft2": 2}
    assert dict(transforms.calls) == {"irfft2": inverse, "rfft2": forward}


def _per_array(op, a, b, params):
    """The product sites written with one _samples / _lattice_half call per array."""
    grid = b.grid
    n, r = grid.n, int(grid.dealias_radius)
    samples, lattice_half = spectral._samples, spectral._lattice_half
    ik1, ik2 = spectral._ik(grid)
    if op == "multiply":
        size = spectral._grid_size(n, (a,), (b,), n // 2 - 1)
        prod = lattice_half(samples(a.half, size) * samples(b.half, size), n)
        return _wrap_half(grid, spectral._canonical_half(prod))
    if op == "advect":
        u, th = velocity_from_scalar(a, params), b.half
        size = spectral._grid_size(n, (u.u1, u.u2), (b,), r)
        acc = samples(u.u1.half, size) * samples(ik1 * th, size)
        acc += samples(u.u2.half, size) * samples(ik2 * th, size)
        return spectral._dealiased(grid, lattice_half(acc, n))
    mult = _structure_multiplier(grid, params)
    qh, th = a.half, b.half
    size = spectral._grid_size(n, (a,), (b,), r)
    d1t, d2t = samples(ik1 * th, size), samples(ik2 * th, size)
    mq = mult * qh
    out = lattice_half(samples(ik1 * mq, size) * d2t - samples(ik2 * mq, size) * d1t, n)
    if params.two_term:
        second = d1t * samples(ik2 * qh, size) - d2t * samples(ik1 * qh, size)
        out += mult * lattice_half(second, n)
    return spectral._dealiased(grid, out)


_STACK_OPS = {
    "one_term": ModelParams(beta=1.2, kappa=0.5),
    "two_term": ModelParams(beta=1.7, kappa=0.5),
    "log_law": ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=0.7),
    "advect": ModelParams(beta=1.5, kappa=0.5),
    "multiply": ModelParams(beta=1.5, kappa=0.5),
}


@pytest.mark.parametrize("stack_max", [None, 0, 1 << 20], ids=["limit", "single", "stacked"])
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("op", list(_STACK_OPS))
def test_stacked_transforms_equal_per_array_bit_for_bit(op, n, fraction, stack_max, monkeypatch):
    # at fraction 0.9 the disc fields' products move to M = 3n/2
    if stack_max is not None:
        monkeypatch.setattr(spectral, "_STACK_MAX", stack_max)
    g = GridSpec(n, dealias_fraction=fraction)
    params = _STACK_OPS[op]
    a, b = _disc_field(g, seed=55), _disc_field(g, seed=56)
    if op == "multiply":
        got = multiply_fields(a, b)
    elif op == "advect":
        got = advect(velocity_from_scalar(a, params), b)
    else:
        got = flux_divergence(a, b, params)
    assert got.half.tobytes() == _per_array(op, a, b, params).half.tobytes()
    u = velocity_from_scalar(a, params)
    assert all(
        s.tobytes() == spectral._samples(c.half, n).tobytes()
        for s, c in zip(u.samples, (u.u1, u.u2))
    )


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
@pytest.mark.parametrize("op", ["one_term", "two_term", "log_law"])
def test_flux_fills_the_velocity_samples_on_the_n_grid(op, fraction):
    g = GridSpec(32, dealias_fraction=fraction)
    params = _STACK_OPS[op]
    q, theta = _disc_field(g, seed=57), _disc_field(g, seed=58)
    u = velocity_from_scalar(q, params)
    got = flux_divergence(q, theta, params, velocity=u)
    assert got.half.tobytes() == flux_divergence(q, theta, params).half.tobytes()
    on_n_grid = spectral._grid_size(g.n, (q,), (theta,), int(g.dealias_radius)) == g.n
    assert ("samples" in vars(u)) == on_n_grid == (fraction < 0.7)
    ref = velocity_from_scalar(q, params)
    for s, r in zip(u.samples, (to_physical(ref.u1), to_physical(ref.u2))):
        assert np.array_equal(s, r) and not s.flags.writeable
    with pytest.raises(ValueError):
        flux_divergence(q, theta, params, velocity=velocity_from_scalar(_disc_field(GridSpec(16), 1), params))


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_support_bound_never_changes_the_product_grid(fraction, product_sizes):
    # a bound is read only when it puts the product on the n-grid; a loose
    # one that would not is overruled by the exact scan
    g = GridSpec(16, dealias_fraction=fraction)
    low = field_from_modes(g, {(2, 1): 0.5, (-1, 2): 0.25j})
    wide = _disc_field(g, seed=50)
    params = ModelParams(beta=1.7, kappa=0.5)
    k_out = int(g.dealias_radius)
    for a, b in ((low, low), (low, wide), (wide, wide)):
        product_sizes.clear()
        loose_a = _wrap_half(g, a.half.copy(), k_out)
        loose_b = _wrap_half(g, b.half.copy(), k_out)
        flux_divergence(loose_a, loose_b, params)
        advect(velocity_from_scalar(loose_a, params), loose_b)
        ka, kb = _support(a.half), _support(b.half)
        size = 16 if 16 > ka + kb + k_out else 24
        assert product_sizes == [size] * 3
        assert loose_a._kmax == k_out and loose_b._kmax == k_out


def test_support_scan_is_made_once_per_field(monkeypatch):
    calls = []
    scan = _support

    def spy(*halves):
        calls.append(len(halves))
        return scan(*halves)

    monkeypatch.setattr(spectral, "_support", spy)
    g = GridSpec(32)
    theta = _disc_field(g, seed=51)
    q = _disc_field(g, seed=52)
    params = ModelParams(beta=1.7, kappa=0.5)
    for _ in range(3):
        flux_divergence(q, theta, params)
        flux_divergence(-q, theta, params)
    assert calls == [1, 1]
    assert theta._kmax == scan(theta.half) and (-q)._kmax == q._kmax


# --- storage contract: half spectra are the stored form ------------------------


def _spectral_operator_outputs(grid):
    """(name, inputs, thunk) for every public operator that returns fields."""
    theta = _disc_field(grid, 31)
    q = _disc_field(grid, 32)
    params = ModelParams(beta=1.7, kappa=0.5)
    u = perp_gradient(random_field(grid, seed=33))
    samples = to_physical(random_field(grid, seed=34))
    return [
        ("constructor", (theta,), lambda: SpectralField(grid, theta.coeffs)),
        ("field_from_modes", (), lambda: field_from_modes(grid, {(1, 2): 0.5 + 0.25j})),
        ("from_physical", (), lambda: from_physical(samples, grid)),
        ("negation", (theta,), lambda: -theta),
        ("fractional_laplacian", (theta,), lambda: fractional_laplacian(theta, 0.7)),
        ("gevrey_operator", (theta,), lambda: gevrey_operator(theta, 0.5, 0.1)),
        ("gevrey_avg_operator", (theta,), lambda: gevrey_avg_operator(theta, 0.5, 0.1)),
        ("log_multiplier", (theta,), lambda: log_multiplier(theta, 1.2)),
        ("perp_gradient.u1", (theta,), lambda: perp_gradient(theta).u1),
        ("perp_gradient.u2", (theta,), lambda: perp_gradient(theta).u2),
        ("velocity.u1", (theta,), lambda: velocity_from_scalar(theta, params).u1),
        ("velocity.u2", (theta,), lambda: velocity_from_scalar(theta, params).u2),
        ("divergence", (u.u1, u.u2), lambda: u.divergence()),
        ("multiply_fields", (theta, q), lambda: multiply_fields(theta, q)),
        ("advect", (u.u1, u.u2, theta), lambda: advect(u, theta)),
        ("flux_divergence", (q, theta), lambda: flux_divergence(q, theta, params)),
        ("dyadic_block", (theta,), lambda: dyadic_block(theta, 2)),
        ("low_pass", (theta,), lambda: low_pass(theta, 2)),
        ("commutator_block", (theta, q), lambda: commutator_block(theta, q, 2)),
    ]


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_operator_outputs_keep_the_storage_contract(fraction):
    grid = GridSpec(32, dealias_fraction=fraction)
    h = grid.n // 2 + 1
    for name, inputs, make in _spectral_operator_outputs(grid):
        before = [f.half.tobytes() for f in inputs]
        out = make()
        assert not out.half.flags.writeable, name
        assert out.half.shape == (grid.n, h), name
        stored = out.half
        half = stored.copy()
        coeffs = out.coeffs
        assert not coeffs.flags.writeable, name
        # bit for bit, signed zeros included
        assert np.ascontiguousarray(coeffs[:, :h]).tobytes() == half.tobytes(), name
        # each read is a new mirror; the stored half is never replaced
        again = out.coeffs
        assert again is not coeffs and not np.shares_memory(again, coeffs), name
        assert not again.flags.writeable, name
        assert again.tobytes() == coeffs.tobytes(), name
        assert out.half is stored and not np.shares_memory(stored, coeffs), name
        assert not out.half.flags.writeable, name
        assert [f.half.tobytes() for f in inputs] == before, name


def test_negating_a_half_spectrum_field_leaves_it_unexpanded():
    grid = GridSpec(32)
    f = advect(perp_gradient(random_field(grid, seed=35)), random_field(grid, seed=36))
    g = -f
    assert g.mean_zero == f.mean_zero
    assert np.array_equal(g.coeffs, -f.coeffs)


def _multiplier_symbols(grid):
    """(name, full-lattice symbol) for each family of diagonal multiplier in use."""
    k1, k2 = _wavevectors(grid)
    kabs = _kabs(grid)
    gevrey = np.exp(np.where(_nyquist_mask(grid), -np.inf, 0.1 * kabs**0.5))
    return [
        ("homog", _homog_weight(grid, 0.7)),
        ("homog_negative", _homog_weight(grid, -0.5)),
        ("log", _log_weight(grid, 1.2)),
        ("phi", _phi_lattice(grid, 2)),
        ("phi_unmasked", build_partition(grid).phi(2, kabs)),
        ("chi", _chi_lattice(grid, 2)),
        ("dealias_mask", _dealias_mask(grid)),
        ("ik_homog", 1j * k1 * _homog_weight(grid, 0.3)),
        ("log_ik", _log_weight(grid, 1.0) * 1j * k2),
        ("gevrey", gevrey),
    ]


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_apply_multiplier_on_the_half_matches_the_full_product(fraction):
    grid = GridSpec(32, dealias_fraction=fraction)
    base = random_field(grid, seed=38)
    bounded = _wrap_half(grid, base.half.copy(), grid.n // 2 - 1)
    for f in (base, bounded):
        kmax = f._kmax
        for name, symbol in _multiplier_symbols(grid):
            out = _apply_multiplier(f, symbol)
            assert out._kmax == kmax, name
            assert np.array_equal(out.coeffs, f.coeffs * symbol), name
