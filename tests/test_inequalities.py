import math

import numpy as np
import pytest
from scipy.signal import convolve2d

from gsqglab import spectral
from gsqglab import (
    EnsembleSpec,
    GridSpec,
    OverflowGuardError,
    SpectralField,
    TrilinearReport,
    bony_split,
    build_partition,
    commutator_block,
    commutator_gevrey,
    commutator_log,
    commutator_singular,
    estimate_best_constant,
    field_from_modes,
    inner_product,
    random_test_field,
    sobolev_norm,
    trilinear_form,
)
from gsqglab.dyadic import _chi_lattice, dyadic_block
from gsqglab.harness import _direct_bilinear
from gsqglab.inequalities import _bracket
from gsqglab.spectral import _apply_multiplier, _kabs
from util import (
    block_tau,
    bracket_symbol,
    full_lattice_test_field,
    gevrey_tau,
    lattice_k,
    log_tau,
    random_field,
    singular_tau,
    unit_symbol,
)


def block_of(field, j):
    part = build_partition(field.grid)
    return SpectralField(field.grid, part.phi(j, _kabs(field.grid)) * field.coeffs)


# ---------------------------------------------------------------- ensembles


def test_random_test_field_is_deterministic():
    spec = EnsembleSpec(GridSpec(16), 2.5, 4, seed=11)
    a = random_test_field(spec, 3)
    b = random_test_field(spec, 3)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, random_test_field(spec, 4).coeffs)


def test_random_test_field_invariants():
    spec = EnsembleSpec(GridSpec(32), 2.0, 1, seed=5)
    f = random_test_field(spec, 0)
    assert f.mean_zero
    idx = (-np.arange(32)) % 32
    assert np.array_equal(f.coeffs, np.conj(f.coeffs[np.ix_(idx, idx)]))
    assert np.all(f.coeffs[16, :] == 0) and np.all(f.coeffs[:, 16] == 0)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_random_test_field_bytes_match_the_full_lattice_construction(n):
    # only the half lattice is hashed and wrapped as it is; the full-lattice
    # draws through the validating constructor give the same bytes
    for seed in (0, 3, -7, 2**63 + 5):
        for decay in (1.5, 3.0, 3.7):
            spec = EnsembleSpec(GridSpec(n), decay, 8, seed=seed)
            for index in (0, 1, 7):
                got = random_test_field(spec, index)
                want = full_lattice_test_field(spec, index)
                assert got.half.tobytes() == want.half.tobytes(), (seed, decay, index)
                assert not got.half.flags.writeable


def test_coarse_grid_is_exact_truncation_of_fine():
    coarse = random_test_field(EnsembleSpec(GridSpec(16), 2.5, 1, seed=7), 0)
    fine = random_test_field(EnsembleSpec(GridSpec(64), 2.5, 1, seed=7), 0)
    for m1 in range(-7, 8):
        for m2 in range(-7, 8):
            assert coarse.coeffs[m1 % 16, m2 % 16] == fine.coeffs[m1 % 64, m2 % 64]


def test_decay_three_tail_behavior():
    specs = [EnsembleSpec(GridSpec(n), 3.0, 1, seed=2) for n in (16, 64)]
    low = [sobolev_norm(random_test_field(s, 0), 1.0) for s in specs]
    high = [sobolev_norm(random_test_field(s, 0), 2.6) for s in specs]
    assert abs(low[1] - low[0]) <= 0.05 * low[0]
    assert high[1] > 1.5 * high[0]


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(GridSpec(16), 1.0, 4)
    with pytest.raises(ValueError):
        EnsembleSpec(GridSpec(16), 2.0, 0)


# ---------------------------------------------------------------- trilinear


def test_trilinear_triad_mismatch_vanishes():
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 0.4j})
    q = field_from_modes(g, {(2, 1): 0.3})
    h = field_from_modes(g, {(4, 4): 1.0})
    assert trilinear_form(f, q, h, 0.7) == 0


def test_trilinear_sigma_zero_is_plancherel_pairing():
    from gsqglab import multiply_fields

    spec = EnsembleSpec(GridSpec(16), 2.2, 3, seed=3)
    f, q, h = (random_test_field(spec, i) for i in range(3))
    val = trilinear_form(f, q, h, 0.0)
    ref = inner_product(multiply_fields(f, q), h)
    assert abs(val.real - ref) <= 1e-12 * abs(ref)
    assert abs(val.imag) <= 1e-12 * abs(ref)


def test_trilinear_single_triad_closed_form():
    g = GridSpec(16)
    a, b, c = 0.3 - 0.2j, 0.1 + 0.4j, -0.25 + 0.15j
    f = field_from_modes(g, {(1, 0): a})
    q = field_from_modes(g, {(2, 1): b})
    h = field_from_modes(g, {(3, 1): c})
    sigma = 0.7
    expected = g.period**2 * 10.0 ** (sigma / 2.0) * 2.0 * (a * b * np.conj(c)).real
    assert trilinear_form(f, q, h, sigma) == pytest.approx(expected, rel=1e-13)


def test_trilinear_swap_invariance():
    # the product f g is symmetric, so the form is in its first two slots
    spec = EnsembleSpec(GridSpec(16), 2.2, 3, seed=13)
    f, q, h = (random_test_field(spec, i) for i in range(3))
    for sigma in (-0.5, 0.0, 0.6):
        one = trilinear_form(f, q, h, sigma)
        two = trilinear_form(q, f, h, sigma)
        assert abs(one - two) <= 1e-12 * abs(one)


def _output_weight(grid, sigma):
    """|k|^sigma per mode; sigma = 0 weights the mean mode 1, otherwise 0."""
    k1, k2 = lattice_k(grid)
    kk = k1 * k1 + k2 * k2
    with np.errstate(divide="ignore"):
        return np.where(kk > 0, kk ** (sigma / 2.0), 1.0 if sigma == 0 else 0.0)


def _form_from_convolution(conv, h, sigma):
    return h.grid.period**2 * np.sum(_output_weight(h.grid, sigma) * conv * np.conj(h.coeffs))


def direct_form(f, g, h, sigma):
    """O(N^4) loop reference for the trilinear form."""
    return _form_from_convolution(_direct_bilinear((f.coeffs,), g.coeffs, unit_symbol), h, sigma)


def direct_pairing(f, g, h, tau):
    """<[T, g] f, h> by the direct kernel, T the multiplier tau."""
    out = _direct_bilinear((g.coeffs,), f.coeffs, bracket_symbol(tau))
    return h.grid.period**2 * np.vdot(h.coeffs, out)


def convolve2d_form(f, g, h, sigma):
    """Reference form through scipy's direct 2-D convolution, cut to the lattice."""
    n = f.grid.n
    full = convolve2d(np.fft.fftshift(f.coeffs), np.fft.fftshift(g.coeffs))
    conv = np.fft.ifftshift(full[n // 2 : n // 2 + n, n // 2 : n // 2 + n])
    return _form_from_convolution(conv, h, sigma)


def assert_form_close(got, ref, rel=1e-13):
    assert abs(got - ref) <= rel * abs(ref)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9, 1.0])
def test_trilinear_matches_direct_oracle_across_dealias_fractions(fraction):
    spec = EnsembleSpec(GridSpec(16, dealias_fraction=fraction), 2.2, 3, seed=21)
    f, q, h = (random_test_field(spec, i) for i in range(3))
    conv = _direct_bilinear((f.coeffs,), q.coeffs, unit_symbol)
    for sigma in (-0.5, 0.0, 0.3, 0.9):
        assert_form_close(trilinear_form(f, q, h, sigma), _form_from_convolution(conv, h, sigma))


@pytest.mark.parametrize("n", [32, 64])
def test_trilinear_matches_convolve2d_oracle(n):
    # no grid-size cap: n = 64 is as exact as n = 32
    spec = EnsembleSpec(GridSpec(n), 2.2, 3, seed=3)
    f, q, h = (random_test_field(spec, i) for i in range(3))
    for sigma in (-0.5, 0.0, 0.3, 0.9):
        assert_form_close(trilinear_form(f, q, h, sigma), convolve2d_form(f, q, h, sigma))


@pytest.fixture
def sample_sizes(monkeypatch):
    """Record the grid size of every inverse transform to physical samples,
    once per 2-D transform of a stacked call."""
    sizes = []
    samples = spectral._samples

    def spy(coeffs, out, *args, **kwargs):
        sizes.extend([out.shape[-1]] * math.prod(np.shape(coeffs)[:-2]))
        return samples(coeffs, out, *args, **kwargs)

    monkeypatch.setattr(spectral, "_samples", spy)
    return sizes


def test_trilinear_product_grid_rule_at_its_edge(sample_sizes):
    # n = 16: supports with k_f + k_g + k_h = n - 1 are the largest the n-grid
    # sums exactly; one more must move the samples to 3n/2
    # (band b puts a mode at (b, 0), so the support is exactly b)
    g = GridSpec(16)
    k_h = 5
    h = random_field(g, seed=7, band=k_h, decay=1.0)
    k = (g.n - 1 - k_h) // 2
    for k_f, k_g, size in ((k, k, 16), (k, k + 1, 24)):
        sample_sizes.clear()
        f = random_field(g, seed=k_f, band=k_f, decay=1.0)
        q = random_field(g, seed=k_g + 100, band=k_g, decay=1.0)
        assert_form_close(trilinear_form(f, q, h, 0.3), direct_form(f, q, h, 0.3))
        assert sample_sizes == [size] * 3


def test_trilinear_negative_weight_needs_mean_zero_pairing_slot():
    g = GridSpec(16)
    f = field_from_modes(g, {(1, 0): 1j})
    h = field_from_modes(g, {(0, 0): 1.0, (1, 0): 1j})
    with pytest.raises(ValueError):
        trilinear_form(f, f, h, -0.5)


# ---------------------------------------------------------------- bony split


def test_bony_split_of_zero_field():
    g = GridSpec(16)
    z = field_from_modes(g, {})
    f = random_field(g, seed=1)
    assert bony_split(z, f, f, 0.3) == (0, 0, 0)


@pytest.mark.parametrize("sigma", [-0.5, 0.0, 0.3, 0.9])
def test_bony_split_sums_to_trilinear(sigma):
    g = GridSpec(16)
    for seed in range(3):
        spec = EnsembleSpec(g, 2.2, 3, seed=seed)
        f, q, h = (random_test_field(spec, i) for i in range(3))
        total = sum(bony_split(f, q, h, sigma))
        ref = trilinear_form(f, q, h, sigma)
        assert abs(total - ref) <= 1e-10 * abs(ref)


def test_bony_split_low_high_bookkeeping():
    # constant first slot: all content lands in the low-high sum
    g = GridSpec(32)
    f = field_from_modes(g, {(0, 0): 2.0})
    q = field_from_modes(g, {(8, 0): 0.5 - 0.1j})
    h = random_field(g, seed=4)
    low, high, diag = bony_split(f, q, h, 0.0)
    assert high == 0 and diag == 0
    ref = trilinear_form(f, q, h, 0.0)
    assert abs(low - ref) <= 1e-12 * abs(ref)


def test_bony_split_sums_to_direct_form_at_n64():
    spec = EnsembleSpec(GridSpec(64), 2.2, 3, seed=4)
    f, q, h = (random_test_field(spec, i) for i in range(3))
    assert_form_close(sum(bony_split(f, q, h, 0.3)), convolve2d_form(f, q, h, 0.3))


# ---------------------------------------------------------------- block commutator


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9, 1.0])
@pytest.mark.parametrize("n", [16, 32])
def test_cached_lattice_tables_give_the_per_call_profiles_bytes(n, fraction):
    """The cached tables zero the Nyquist row and column where the per-call
    profile need not vanish; every field holds zeros there, so blocks, low
    passes and block commutators keep the per-call spelling's bytes."""
    grid = GridSpec(n, dealias_fraction=fraction)
    spec = EnsembleSpec(grid, 2.0, 2, seed=7)
    f, g = random_test_field(spec, 0), random_test_field(spec, 1)
    part = build_partition(grid)
    kabs = _kabs(grid)
    for j in part.block_range:
        phi, chi = part.phi(j, kabs), part.chi(j - 3, kabs)
        block = _apply_multiplier(f, phi)
        assert dyadic_block(f, j).half.tobytes() == block.half.tobytes()
        low = _apply_multiplier(f, _chi_lattice(grid, j - 3))
        assert low.half.tobytes() == _apply_multiplier(f, chi).half.tobytes()
        expected = _bracket(lambda x: _apply_multiplier(x, phi), f, g)
        assert commutator_block(f, g, j).half.tobytes() == expected.half.tobytes()


def test_commutator_block_with_constant_multiplier():
    g = GridSpec(16)
    f = random_field(g, seed=6)
    const = field_from_modes(g, {(0, 0): 3.0})
    out = commutator_block(f, const, 2)
    assert np.max(np.abs(out.coeffs)) <= 1e-13 * 3.0 * np.max(np.abs(f.coeffs))


def test_commutator_block_single_modes_two_point_symbol():
    g = GridSpec(16)
    a, b = 0.2 + 0.5j, -0.7 + 0.1j
    f = field_from_modes(g, {(2, 1): a})
    q = field_from_modes(g, {(3, 0): b})
    j = 2
    part = build_partition(g)
    out = commutator_block(f, q, j)
    expected_sum = (part.phi(j, math.sqrt(26.0)) - part.phi(j, math.sqrt(5.0))) * a * b
    expected_diff = (part.phi(j, math.sqrt(2.0)) - part.phi(j, math.sqrt(5.0))) * a * np.conj(b)
    assert out.coeffs[5, 1] == pytest.approx(expected_sum, rel=1e-14, abs=1e-16)
    assert out.coeffs[-1 % 16, 1] == pytest.approx(expected_diff, rel=1e-14, abs=1e-16)


def test_commutator_block_pairing_matches_symbol_sum():
    g = GridSpec(16)
    f = random_field(g, seed=21, band=5)
    q = random_field(g, seed=22, band=5)
    h = block_of(random_field(g, seed=23, band=7), 2)
    lhs = inner_product(commutator_block(f, q, 2), h)
    ref = direct_pairing(f, q, h, block_tau(g, 2))
    assert abs(lhs - ref.real) <= 1e-11 * max(abs(ref), 1e-30)
    assert abs(ref.imag) <= 1e-11 * max(abs(ref), 1e-30)


# ---------------------------------------------------------------- singular commutator


def test_commutator_singular_validation():
    g = GridSpec(16)
    f = random_field(g, seed=0)
    with pytest.raises(ValueError):
        commutator_singular(f, f, 1, 1.0)
    with pytest.raises(ValueError):
        commutator_singular(f, f, 1, 2.0)
    with pytest.raises(ValueError):
        commutator_singular(f, f, 3, 1.5)


def test_commutator_singular_constant_multiplier():
    g = GridSpec(16)
    f = random_field(g, seed=2)
    const = field_from_modes(g, {(0, 0): 1.5})
    out = commutator_singular(f, const, 1, 1.7)
    assert np.max(np.abs(out.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))


def test_commutator_singular_single_modes_two_point_symbol():
    g = GridSpec(16)
    a, b = 0.2 + 0.5j, -0.7 + 0.1j
    f = field_from_modes(g, {(2, 1): a})
    q = field_from_modes(g, {(3, 0): b})
    beta, ell = 1.7, 1

    def mult(k1, k2):
        r = math.hypot(k1, k2)
        return 1j * k1 * r ** (beta - 2.0) if r > 0 else 0.0

    out = commutator_singular(f, q, ell, beta)
    expected = (mult(5.0, 1.0) - mult(2.0, 1.0)) * a * b
    assert out.coeffs[5, 1] == pytest.approx(expected, rel=1e-14)


def test_commutator_singular_matches_symbol_sum():
    g = GridSpec(16)
    f = random_field(g, seed=31, band=5)
    q = random_field(g, seed=32, band=5)
    h = random_field(g, seed=33, band=6)
    beta = 1.3
    lhs = inner_product(commutator_singular(f, q, 2, beta), h)
    ref = direct_pairing(f, q, h, singular_tau(g, 2, beta))
    assert abs(lhs - ref.real) <= 1e-11 * abs(ref)


# ---------------------------------------------------------------- gevrey commutator


def test_commutator_gevrey_zero_radius_drops_second_term():
    g = GridSpec(16)
    spec = EnsembleSpec(g, 2.2, 3, seed=17)
    f, q, hsrc = (random_test_field(spec, i) for i in range(3))
    h = block_of(hsrc, 2)
    rep = commutator_gevrey(f, q, h, 0.4, 0.0, 0.3, 0.0, 2, 0.5, 0.3)
    assert rep.bound_terms[1] == 0.0
    expected_term1 = (
        2.0 ** (0.5 * 2)
        * min(
            sobolev_norm(f, 0.5) * sobolev_norm(q, 1.3),
            sobolev_norm(q, 1.5) * sobolev_norm(f, 0.3),
        )
        * sobolev_norm(h, 0.0)
    )
    assert rep.bound_terms[0] == pytest.approx(expected_term1, rel=1e-12)
    assert rep.ratio == pytest.approx(abs(rep.value) / rep.bound_terms[0], rel=1e-12)


def test_commutator_gevrey_constant_multiplier():
    g = GridSpec(16)
    f = random_field(g, seed=8)
    const = field_from_modes(g, {(0, 0): 2.0})
    h = block_of(random_field(g, seed=9), 2)
    rep = commutator_gevrey(f, const, h, 0.4, 0.05, 0.3, 0.0, 2, 0.5, 0.3)
    assert abs(rep.value) <= 1e-12


def test_commutator_gevrey_single_triad_closed_form():
    g = GridSpec(16)
    part = build_partition(g)
    a, b, c = 0.4 - 0.3j, 0.2 + 0.1j, 0.15 + 0.25j
    f = field_from_modes(g, {(1, 1): a})
    q = field_from_modes(g, {(2, 0): b})
    h = field_from_modes(g, {(3, 1): c})
    alpha, lam, sigma, rho, j = 0.6, 0.08, 0.3, 0.0, 2

    def w(k1, k2):
        r = math.hypot(k1, k2)
        return math.exp(lam * r**alpha) * r ** (sigma + rho) * 1j * k1 * part.phi(j, r)

    rep = commutator_gevrey(f, q, h, alpha, lam, sigma, rho, j, 0.5, 0.3)
    expected = g.period**2 * 2.0 * ((w(3.0, 1.0) - w(1.0, 1.0)) * a * b * np.conj(c)).real
    assert rep.value.real == pytest.approx(expected, rel=1e-13)


def test_commutator_gevrey_matches_symbol_sum():
    g = GridSpec(16)
    f = random_field(g, seed=41, band=5)
    q = random_field(g, seed=42, band=5)
    h = block_of(random_field(g, seed=43, band=7), 3)
    alpha, lam, sigma, rho, j = 0.4, 0.05, 0.3, 0.2, 3
    rep = commutator_gevrey(f, q, h, alpha, lam, sigma, rho, j, 0.5, 0.3)
    ref = direct_pairing(f, q, h, gevrey_tau(g, alpha, lam, sigma + rho, j))
    assert abs(rep.value.real - ref.real) <= 1e-11 * abs(ref)


def test_commutator_gevrey_validation():
    g = GridSpec(16)
    f = random_field(g, seed=1)
    h = block_of(random_field(g, seed=2), 2)
    with pytest.raises(ValueError):
        commutator_gevrey(f, f, h, 0.4, 0.05, 1.0, 0.0, 2, 0.5, 0.3)
    with pytest.raises(ValueError):
        commutator_gevrey(f, f, h, 0.4, 0.05, 0.3, 0.0, 2, 1.5, 0.3)
    with pytest.raises(ValueError):
        commutator_gevrey(f, f, h, 0.4, 0.05, 0.3, 0.0, 2, 0.5, 1.0)
    with pytest.raises(ValueError):
        commutator_gevrey(f, f, h, 0.4, 0.05, 0.3, 0.0, 2, 0.5, 0.3, deriv="dx")
    with pytest.raises(ValueError):
        commutator_gevrey(f, f, random_field(g, seed=3), 0.4, 0.05, 0.3, 0.0, 2, 0.5, 0.3)
    with pytest.raises(OverflowGuardError):
        commutator_gevrey(f, f, h, 1.0, 200.0, 0.3, 0.0, 2, 0.5, 0.3)


# ---------------------------------------------------------------- log commutator


def test_commutator_log_constant_multiplier():
    g = GridSpec(16)
    f = random_field(g, seed=3)
    const = field_from_modes(g, {(0, 0): 2.5})
    h = random_field(g, seed=4)
    rep = commutator_log(f, const, h, 1.0, 0.3, 0.5, 1.0)
    assert abs(rep.value) <= 1e-12
    assert rep.bound_terms == (0.0,)


def test_commutator_log_single_triad_closed_form():
    g = GridSpec(16)
    a, b, c = 0.4 - 0.3j, 0.2 + 0.1j, 0.15 + 0.25j
    f = field_from_modes(g, {(1, 1): a})
    q = field_from_modes(g, {(2, 0): b})
    h = field_from_modes(g, {(3, 1): c})
    mu = 1.2

    def w(k1, k2):
        return math.log1p(k1 * k1 + k2 * k2) ** mu * 1j * k1

    rep = commutator_log(f, q, h, mu, 0.3, 0.5, 1.0)
    expected = g.period**2 * 2.0 * ((w(3.0, 1.0) - w(1.0, 1.0)) * a * b * np.conj(c)).real
    assert rep.value.real == pytest.approx(expected, rel=1e-13)


def test_commutator_log_matches_symbol_sum():
    g = GridSpec(16)
    f = random_field(g, seed=51, band=5)
    q = random_field(g, seed=52, band=5)
    h = random_field(g, seed=53, band=6)
    mu = 1.0
    rep = commutator_log(f, q, h, mu, 0.3, 0.5, 1.0, ell=2)
    ref = direct_pairing(f, q, h, log_tau(g, mu, 2))
    assert abs(rep.value.real - ref.real) <= 1e-11 * abs(ref)


def test_commutator_log_validation():
    g = GridSpec(16)
    f = random_field(g, seed=1)
    for bad in [
        dict(mu=0.0, eps=0.3, de=0.5, rho=1.0),
        dict(mu=1.0, eps=1.0, de=0.5, rho=1.0),
        dict(mu=1.0, eps=0.3, de=2.5, rho=1.0),
        dict(mu=1.0, eps=0.3, de=0.5, rho=0.0),
        dict(mu=1.0, eps=0.3, de=0.5, rho=1.0, ell=0),
    ]:
        with pytest.raises(ValueError):
            commutator_log(f, f, f, **bad)


# ---------------------------------------------------------------- reports and surveys


def test_trilinear_report_invariants():
    with pytest.raises(ValueError):
        TrilinearReport(form="x", value=0j, bound_terms=(-1.0,), ratio=0.0)
    with pytest.raises(ValueError):
        TrilinearReport(form="x", value=0j, bound_terms=(1.0,), ratio=math.inf)
    rep = TrilinearReport(form="x", value=0j, bound_terms=(0.0,), ratio=math.inf)
    assert rep.ratio == math.inf


def test_survey_single_member_max_equals_median():
    spec = EnsembleSpec(GridSpec(16), 1.8, 1, seed=3)
    surv = estimate_best_constant("trilinear", {"sigma": 0.3, "eps": 0.5}, spec)
    assert surv.max_ratio == surv.median_ratio
    assert surv.samples == 1
    assert surv.weight_l2 > 0


def test_survey_unknown_form_and_bad_params():
    spec = EnsembleSpec(GridSpec(16), 1.8, 2, seed=3)
    with pytest.raises(ValueError):
        estimate_best_constant("quadratic", {}, spec)
    with pytest.raises(ValueError):
        estimate_best_constant("trilinear", {"sigma": 0.9, "eps": 1.95}, spec)
    with pytest.raises(ValueError):
        estimate_best_constant("block_commutator", {"rho1": 0.2, "rho2": -0.9}, spec)


def test_survey_trilinear_refinement_stability():
    for n in (16, 32):   # 16 -> 32 and 32 -> 64
        spec = EnsembleSpec(GridSpec(n), 1.8, 4, seed=5)
        surv = estimate_best_constant("trilinear", {"sigma": 0.3, "eps": 0.5}, spec, refine=True)
        coarse, fine = surv.refinement
        assert coarse == surv.max_ratio
        assert fine <= 2.0 * coarse


def test_survey_block_commutator():
    spec = EnsembleSpec(GridSpec(16), 2.0, 3, seed=6)
    surv = estimate_best_constant("block_commutator", {"rho1": 0.8, "rho2": 0.3}, spec)
    assert math.isfinite(surv.max_ratio) and surv.max_ratio > 0
    assert len(surv.block_weights) > 0
    assert surv.weight_l2 == pytest.approx(
        math.sqrt(sum(w * w for _, w in surv.block_weights)), rel=1e-15
    )


def test_survey_singular_commutator_refinement():
    spec = EnsembleSpec(GridSpec(16), 1.9, 3, seed=7)
    params = {"beta": 1.7, "rho1": 0.25, "rho2": 0.25}
    surv = estimate_best_constant("singular_commutator", params, spec, refine=True)
    coarse, fine = surv.refinement
    assert fine <= 2.0 * coarse


def test_survey_gevrey_commutator_refinement():
    spec = EnsembleSpec(GridSpec(16), 2.0, 3, seed=8)
    params = {"alpha": 0.4, "lam": 0.05, "sigma": 0.3, "rho": 0.0, "nu": 0.5, "zeta": 0.3}
    surv = estimate_best_constant("gevrey_commutator", params, spec, refine=True)
    coarse, fine = surv.refinement
    assert math.isfinite(fine) and fine <= 2.0 * coarse


def test_survey_log_commutator_refinement():
    spec = EnsembleSpec(GridSpec(16), 2.0, 3, seed=9)
    params = {"mu": 1.0, "eps": 0.3, "de": 0.5, "rho": 1.0}
    surv = estimate_best_constant("log_commutator", params, spec, refine=True)
    coarse, fine = surv.refinement
    assert fine <= 2.0 * coarse
