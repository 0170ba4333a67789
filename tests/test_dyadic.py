import numpy as np
import pytest

from gsqglab import GridSpec, field_from_modes, sobolev_norm
from gsqglab.dyadic import (
    _chi_lattice,
    _fat_diagonal,
    _lattice_bound,
    _phi_lattice,
    bernstein_check,
    build_partition,
    decompose,
    dyadic_block,
    low_pass,
)
from gsqglab.spectral import _half, _support
from util import l2_norm, random_field


def test_profile_plateau_and_support():
    part = build_partition(GridSpec(32))
    assert part.rho(0.4) == 1.0
    assert part.rho(0.5) == 1.0
    assert part.rho(1.0) == 0.0
    assert part.rho(1.2) == 0.0
    mid = part.rho(0.75)
    assert 0.0 < mid < 1.0


def test_profile_is_monotone():
    part = build_partition(GridSpec(32))
    r = np.linspace(0.0, 1.5, 2001)
    v = part.rho(r)
    assert np.all(np.diff(v) <= 0.0)


def test_shell_profile_peaks_at_dyadic_radius():
    part = build_partition(GridSpec(32))
    # phi_0 equals 1 at |xi| = 1 and vanishes outside (1/2, 2)
    assert part.phi(0, 1.0) == 1.0
    assert part.phi(0, 0.5) == 0.0
    assert part.phi(0, 2.0) == 0.0
    assert part.phi(0, 0.500001) > 0.0


def test_partition_range_covers_lattice():
    g = GridSpec(32)
    part = build_partition(g)
    assert part.j_min == 0       # fundamental wavenumber 1 on the 2 pi box
    assert 2.0**part.j_max >= 15.0 * np.sqrt(2.0)


def test_telescoping_sum_on_lattice():
    g = GridSpec(64)
    part = build_partition(g)
    m = np.fft.fftfreq(64, 1.0 / 64)
    kabs = np.hypot(m[:, None], m[None, :])
    total = part.chi(part.j_min, kabs)
    for j in part.block_range:
        total = total + part.phi(j, kabs)
    assert np.max(np.abs(total - 1.0)) <= 1e-15


def test_at_most_two_shells_overlap():
    g = GridSpec(64)
    part = build_partition(g)
    m = np.fft.fftfreq(64, 1.0 / 64)
    kabs = np.hypot(m[:, None], m[None, :])
    hits = np.zeros_like(kabs)
    for j in part.block_range:
        hits += (part.phi(j, kabs) != 0.0).astype(float)
    assert np.max(hits) <= 2


def test_unit_mode_lands_in_block_zero():
    g = GridSpec(32)
    f = field_from_modes(g, {(1, 0): 1.0j})
    b0 = dyadic_block(f, 0)
    assert np.array_equal(b0.coeffs, f.coeffs)   # phi_0(1) = 1
    part = build_partition(g)
    for j in part.block_range:
        if j == 0:
            continue
        assert np.all(dyadic_block(f, j).coeffs == 0.0)


def test_block_support_is_exact():
    g = GridSpec(64)
    f = random_field(g, seed=1)
    part = build_partition(g)
    m = np.fft.fftfreq(64, 1.0 / 64)
    kabs = np.hypot(m[:, None], m[None, :])
    for j in part.block_range:
        b = dyadic_block(f, j)
        outside = (kabs <= 2.0 ** (j - 1)) | (kabs >= 2.0 ** (j + 1))
        assert np.all(b.coeffs[outside] == 0.0)


def test_block_index_range_errors():
    g = GridSpec(32)
    f = random_field(g, seed=2)
    part = build_partition(g)
    with pytest.raises(ValueError):
        dyadic_block(f, part.j_min - 1)
    with pytest.raises(ValueError):
        dyadic_block(f, part.j_max + 1)
    with pytest.raises(ValueError):
        low_pass(f, part.j_max + 2)
    low_pass(f, part.j_max + 1)   # allowed: chi is 1 on the whole lattice


def test_low_pass_above_range_is_identity():
    g = GridSpec(32)
    f = random_field(g, seed=3)
    part = build_partition(g)
    out = low_pass(f, part.j_max + 1)
    assert np.max(np.abs(out.coeffs - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))


def test_low_pass_telescopes_through_blocks():
    g = GridSpec(64)
    f = random_field(g, seed=4)
    part = build_partition(g)
    i, j = part.j_min, part.j_max + 1
    acc = low_pass(f, i).coeffs.copy()
    for k in range(i, j):
        acc += dyadic_block(f, k).coeffs
    target = low_pass(f, j)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(acc - target.coeffs)) <= 1e-14 * scale


def test_decompose_zero_field():
    g = GridSpec(16)
    blocks = decompose(field_from_modes(g, {}))
    assert blocks.residual == 0.0
    for _, b in blocks.items():
        assert np.all(b.coeffs == 0.0)


def test_decompose_reconstructs():
    g = GridSpec(64)
    f = random_field(g, seed=5, decay=1.0)
    blocks = decompose(f)
    assert blocks.residual <= 1e-12 * l2_norm(f)


def test_decompose_keeps_mean_in_low_pass():
    g = GridSpec(16)
    f = field_from_modes(g, {(0, 0): 2.5, (3, 1): 1.0 - 1.0j})
    blocks = decompose(f)
    assert blocks.low.coeffs[0, 0] == 2.5
    assert blocks.residual <= 1e-12 * l2_norm(f)


@pytest.mark.parametrize("seed", range(8))
def test_block_energy_ratio(seed):
    g = GridSpec(32)
    f = random_field(g, seed=seed, decay=1.2)
    blocks = decompose(f)
    total = sum(l2_norm(b) ** 2 for _, b in blocks.items())
    ratio = total / l2_norm(f) ** 2
    assert 0.5 <= ratio <= 1.0


@pytest.mark.parametrize("s", [-1.5, -0.5, 0.0, 0.7, 1.5])
def test_weighted_block_sum_brackets_the_sobolev_norm(s):
    # Littlewood-Paley: block j lives on 2^(j-1) < |k| < 2^(j+1) and the
    # squared blocks sum to between half and all of the energy, so
    # (sum_j 4^(js) ||block_j||^2)^(1/2) lies within 2^(|s| + 1/2) of the
    # homogeneous H^s norm of a mean-zero field
    lo, hi = 2.0 ** (-abs(s) - 0.5), 2.0 ** (abs(s) + 0.5)
    for seed in range(8):
        f = random_field(GridSpec(32), seed=seed, decay=1.5 + 0.25 * seed)
        weighted = np.sqrt(sum(4.0 ** (j * s) * l2_norm(b) ** 2 for j, b in decompose(f).items()))
        assert lo <= weighted / sobolev_norm(f, s) <= hi


def test_bernstein_identity_exponent():
    g = GridSpec(32)
    f = random_field(g, seed=6)
    rep = bernstein_check(f, 2, 0.0)
    assert rep.ratio == 1.0
    assert rep.within


def test_bernstein_bracket_sigma_one():
    g = GridSpec(32)
    f = random_field(g, seed=7)
    rep = bernstein_check(f, 3, 1.0)
    assert 0.5 <= rep.ratio <= 2.0


@pytest.mark.parametrize("sigma", [-1.5, -0.5, 1.0, 1.5, 3.0])
def test_bernstein_bracket_ensemble(sigma):
    g = GridSpec(32)
    part = build_partition(g)
    checked = 0
    for seed in range(25):
        f = random_field(g, seed=100 + seed, decay=1.0)
        for j in part.block_range:
            try:
                rep = bernstein_check(f, j, sigma)
            except ValueError:
                continue
            assert rep.within, (sigma, j, rep.ratio)
            checked += 1
    assert checked > 50


def test_bernstein_zero_block_is_error():
    g = GridSpec(32)
    f = field_from_modes(g, {(1, 0): 1.0j})   # energy only in shell j=0
    with pytest.raises(ValueError):
        bernstein_check(f, 3, 1.0)


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("period", [2 * np.pi, 3.0, 5.0])
def test_lattice_bound_bounds_every_table_it_stands_for(n, period):
    # chi_j, phi_(j-1) and the fattened diagonal of block j - 4 vanish
    # beyond the bound; at a table that reaches it, the bound is its support
    grid = GridSpec(n, period=period)
    part = build_partition(grid)
    tight = 0
    for j in range(part.j_min - 3, part.j_max + 5):
        bound = _lattice_bound(grid, j)
        assert 0 <= bound <= n // 2 - 1
        tables = (_chi_lattice(grid, j), _phi_lattice(grid, j - 1), _fat_diagonal(grid, j - 4))
        supports = [_support(_half(t)) for t in tables]
        assert max(supports) <= bound, j
        tight += supports[0] == bound
    assert tight >= 2
