import math
import sys
import threading

import numpy as np
import pytest
import scipy.fft
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
from gsqglab.harness import _direct_advect, _direct_bilinear
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
)
from util import (
    direct_flux,
    hs_norm,
    l2_norm,
    lattice_k,
    peak_speed,
    per_array,
    random_field,
    unit_symbol,
)


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


def _scipy_samples(half, size):
    """The samples scipy.fft.irfft2 gives of half spectra zero-padded to size."""
    h = half.shape[-2] // 2
    padded = np.zeros(half.shape[:-2] + (size, size // 2 + 1), dtype=np.complex128)
    padded[..., np.r_[:h, size - h : size], : h + 1] = half
    return scipy.fft.irfft2(padded, s=(size, size), norm="forward")


def _engine_samples(half, size, k, plan=None):
    """The product engine's samples of a half spectrum, or of each in a
    stack of them, as one stacked inverse call, in plan's workspace or in a
    fresh plan's."""
    terms = tuple(half) if half.ndim == 3 else (half,)
    plan = spectral._Plan(GridSpec(half.shape[-2])) if plan is None else plan
    return spectral._term_samples(plan, terms, size, k)


def _scipy_lattice_half(phys, n):
    """The n-lattice box rows, |m1|, m2 <= n/2 - 1, that
    scipy.fft.rfft2(norm="forward") gives."""
    k = n // 2 - 1
    half = scipy.fft.rfft2(phys, norm="forward")[..., : k + 1]
    return np.concatenate((half[..., : k + 1, :], half[..., phys.shape[-2] - k :, :]), axis=-2)


@pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("padded", [False, True], ids=["M=n", "M=3n/2"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_transform_engine_matches_scipy_byte_for_byte(n, padded, stack):
    # scipy.fft is the engine the numpy.fft passes replaced; every output,
    # pruned or not, must be the same bytes
    g = GridSpec(n)
    size = 3 * n // 2 if padded else n
    k = n // 3
    fields = [random_field(g, seed=60 + i, decay=1.0, band=k) for i in range(3 if stack else 1)]
    assert all(_support(f.half) == k for f in fields)
    half = np.stack([f.half for f in fields]) if stack else fields[0].half
    ref = _scipy_samples(half, size)
    assert ref.shape == half.shape[:-2] + (size, size)
    # the true support, a bound above it, and the largest bound
    for bound in (k, k + 3, n // 2):
        assert _engine_samples(half, size, bound).tobytes() == ref.tobytes(), bound
    rng = np.random.default_rng(n + size)
    for phys in (ref, rng.standard_normal(ref.shape)):
        got = spectral._lattice_half(phys, n)
        assert got.tobytes() == _scipy_lattice_half(phys, n).tobytes()
    zero = np.zeros_like(half)
    for bound in (0, n // 2):
        assert _engine_samples(zero, size, bound).tobytes() == _scipy_samples(zero, size).tobytes()
    phys = np.zeros(ref.shape)
    assert spectral._lattice_half(phys, n).tobytes() == _scipy_lattice_half(phys, n).tobytes()


def _short_bin_samples(half, size, k):
    """The inverse as two numpy.fft passes whose real pass gets only the
    columns m2 <= k and pads the rest itself."""
    n = half.shape[-2]
    h = n // 2
    cols = half[..., : k + 1]
    if size != n:
        padded = np.zeros(half.shape[:-2] + (size, k + 1), dtype=np.complex128)
        padded[..., np.r_[:h, size - h : size], :] = cols
        cols = padded
    cols = np.fft.ifftn(cols, s=(size,), axes=(-2,), norm="forward")
    return np.fft.irfftn(cols, s=(size,), axes=(-1,), norm="forward")


def _mirrored_samples(half, size):
    """np.fft.irfft2 of the full Hermitian spectrum zero-padded to size."""
    n = half.shape[-2]
    h = n // 2
    full = np.zeros(half.shape[:-2] + (size, size), dtype=np.complex128)
    rows, cols = np.r_[:h, size - h : size], np.r_[: h + 1, size - h + 1 : size]
    mirror = np.stack([spectral._full_from_half(a, n) for a in half.reshape(-1, n, h + 1)])
    full[..., rows[:, None], cols] = mirror.reshape(half.shape[:-2] + (n, n))
    return np.fft.irfft2(full, s=(size, size), norm="forward")


def _column_bounded(grid, k, depth, seed):
    """The half spectra of depth random fields whose coefficients vanish
    beyond |m2| = k, one array or a stack of them."""
    kept = np.abs(np.fft.fftfreq(grid.n, 1.0 / grid.n))[None, :] <= k
    fields = [random_field(grid, seed=seed + i, decay=1.0) for i in range(depth)]
    halves = [SpectralField(grid, np.where(kept, f.coeffs, 0.0)).half for f in fields]
    return np.stack(halves) if depth > 1 else halves[0]


@pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("padded", [False, True], ids=["M=n", "M=3n/2"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_samples_equal_short_bin_and_mirrored_transforms(n, padded, stack):
    # the full-bin real pass gives the bytes of the real pass that pads the
    # kept bins itself, and of irfft2 on the whole mirrored spectrum
    g = GridSpec(n)
    size = 3 * n // 2 if padded else n
    for k in (0, int(g.dealias_radius), n // 2):
        half = _column_bounded(g, k, 3 if stack else 1, seed=70 + k)
        got = _engine_samples(half, size, k)
        assert got.tobytes() == _short_bin_samples(half, size, k).tobytes(), k
        assert got.tobytes() == _mirrored_samples(half, size).tobytes(), k


@pytest.mark.parametrize("padded", [False, True], ids=["M=n", "M=3n/2"])
@pytest.mark.parametrize("n", [16, 128])
def test_samples_keep_no_trace_of_an_earlier_call(n, padded):
    # a narrow call after a wide one on one shape, and a second call of one
    # width, each in one plan's workspace, give the transform a fresh buffer
    # gives: no column or row the earlier pass wrote leaks into a later one
    g = GridSpec(n)
    plan = spectral._Plan(g)
    size = 3 * n // 2 if padded else n
    wide, narrow = n // 2, n // 8
    calls = [(wide, 80), (narrow, 81), (narrow, 82), (wide, 83), (narrow, 84)]
    for stack in (1, 2):
        for k, seed in calls:
            half = _column_bounded(g, k, stack, seed)
            want = _mirrored_samples(half, size)
            got = _engine_samples(half, size, k, plan)
            assert got.tobytes() == want.tobytes(), (k, seed)


@pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("padded", [False, True], ids=["M=n", "M=3n/2"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_lattice_half_kept_columns_equal_the_unpruned_pass(n, padded, stack):
    g = GridSpec(n)
    size = 3 * n // 2 if padded else n
    rng = np.random.default_rng(n + size)
    phys = rng.standard_normal(((3,) if stack else ()) + (size, size))
    full = spectral._lattice_half(phys, n)
    assert full.shape[-2:] == (n - 1, n // 2)
    for k in (0, int(g.dealias_radius), n // 2 - 1, n // 2):
        got = spectral._lattice_half(phys, n, k)
        box = min(k, n // 2 - 1)   # the zero Nyquist row and column are never formed
        assert got.shape[-2:] == (2 * box + 1, box + 1)
        assert got.tobytes() == spectral._box(full, box).tobytes(), k


def test_samples_agree_across_threads():
    # the workspaces are per thread: threads transforming different fields
    # on one shape at once each get their own transforms, for bare samples
    # and for the flux on box rows and on half spectra
    g = GridSpec(64)
    k = int(g.dealias_radius)
    box = spectral._box_bound(g)
    params = ModelParams(beta=1.7, kappa=0.5)
    fields = [_disc_field(g, seed=110 + i) for i in range(7)]
    jobs = []
    for i in range(6):
        h = _column_bounded(g, k, 1, seed=90 + i)
        q, theta = fields[i], fields[i + 1]
        qb, tb = spectral._box(q.half, box), spectral._box(theta.half, box)
        jobs.append((
            lambda h=h: _engine_samples(h, 64, k),
            lambda qb=qb, tb=tb: spectral._flux_rows(spectral._Plan(g, params), qb, tb),
            lambda q=q, theta=theta: flux_divergence(q, theta, params).half,
        ))
    wants = [[f().tobytes() for f in job] for job in jobs]
    wrong = []
    start = threading.Barrier(len(jobs), timeout=60)

    def work(i):
        start.wait()
        for _ in range(100):
            for j, (f, want) in enumerate(zip(jobs[i], wants[i])):
                if f().tobytes() != want:
                    wrong.append((i, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
def test_samples_that_leave_the_engine_keep_their_bytes(fraction):
    # a plan's next transform of a shape reuses its workspace, so what the
    # engine hands out must not be it; the speeds it reads are floats
    g = GridSpec(32, dealias_fraction=fraction)
    params = ModelParams(beta=1.7, kappa=0.5)
    plan = spectral._Plan(g, params)
    a, b, c, d = (spectral._box(_disc_field(g, seed=120 + i).half, plan.k) for i in range(4))
    speed = []
    handed = [to_physical(spectral._from_box(g, x)) for x in (a, b)]
    spectral._flux_rows(plan, a, b, speed)
    assert len(speed) == (1 if fraction < 0.7 else 0)
    speeds = [spectral._peak_speed(plan, (a, b)), *speed]
    assert all(type(x) is float for x in speeds)
    kept = [x.tobytes() for x in handed]
    # the same shapes again, on other fields
    to_physical(spectral._from_box(g, c))
    spectral._peak_speed(plan, (c, d))
    spectral._flux_rows(plan, c, d, [])
    flux_divergence(spectral._from_box(g, d), spectral._from_box(g, c), params)
    assert [x.tobytes() for x in handed] == kept
    assert speeds == [spectral._peak_speed(plan, (a, b)), *speed]


@pytest.mark.parametrize("padded", [False, True], ids=["M=n", "M=3n/2"])
@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_pocketfft_passes_equal_the_public_2d_transforms(n, padded):
    # the engine calls numpy.fft's private pocketfft ufuncs through
    # spectral._pass; a numpy release that changes them fails here, against
    # the public irfft2 and rfft2, bit for bit
    size = 3 * n // 2 if padded else n
    h = n // 2
    rng = np.random.default_rng(n + size)
    half = rng.standard_normal((n, h + 1)) + 1j * rng.standard_normal((n, h + 1))
    full = np.zeros((size, size // 2 + 1), dtype=np.complex128)
    full[np.r_[:h, size - h : size], : h + 1] = half
    want = np.fft.irfft2(full, s=(size, size), norm="forward")
    cols = full.copy()
    spectral._pass(spectral._pfu.ifft, cols, -2, cols)
    got = spectral._pass(spectral._pfu.irfft, cols, -1, np.empty((size, size)))
    assert got.tobytes() == want.tobytes()
    assert _engine_samples(half, size, h).tobytes() == want.tobytes()

    phys = rng.standard_normal((size, size))
    want = np.fft.rfft2(phys)
    spec = np.empty((size, size // 2 + 1), dtype=np.complex128)
    spectral._pass(spectral._pfu.rfft_n_even, phys, -1, spec)
    spectral._pass(spectral._pfu.fft, spec, -2, spec)
    assert spec.tobytes() == want.tobytes()
    # the forward scale 1/M^2 is pocketfft's factor on the real pass: the
    # bytes of numpy.fft's one-axis passes with the scale between them and,
    # where M is a power of two and each 1/M exact, of rfft2(norm="forward")
    scaled = np.fft.rfft(phys)
    scaled.view(np.float64)[...] *= 1.0 / (size * size)
    want = spectral._box(np.fft.fft(scaled, axis=-2), h - 1)
    assert spectral._lattice_half(phys, n).tobytes() == want.tobytes()
    if not padded:
        want = spectral._box(np.fft.rfft2(phys, norm="forward"), h - 1)
        assert spectral._lattice_half(phys, n).tobytes() == want.tobytes()


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
        assert np.array_equal(_structure_multiplier(kabs[:, :17], law), formula[:, :17])


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
    ref = _direct_bilinear((f.coeffs,), h.coeffs, unit_symbol)
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(prod.coeffs - ref)) <= 1e-12 * scale


def test_advect_matches_direct_convolution():
    g = GridSpec(16)
    theta = random_field(g, seed=31, band=5)
    u = perp_gradient(random_field(g, seed=32, band=5))
    ref = _direct_advect(u, theta)
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


def _assert_close(got, ref, rel=1e-12):
    scale = max(np.max(np.abs(ref)), 1e-30)
    assert np.max(np.abs(got - ref)) <= rel * scale


def _parent_dealiased_half(grid, half):
    """The half spectrum the half-spectrum engine's dealias step made of a
    forward transform's half: the disc mask, the mean zeroed, column m2 = 0
    made Hermitian, the Nyquist row and column zeroed."""
    n = grid.n
    half = half * _dealias_mask(grid)[:, : n // 2 + 1]
    half[0, 0] = 0.0
    col = half[:, 0]
    half[:, 0] = 0.5 * (col + np.conj(col[(-np.arange(n)) % n]))
    half[n // 2, :] = 0.0
    half[:, n // 2] = 0.0
    return half


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("n", [16, 32])
def test_dealias_box_round_trips_and_scatters_the_dealiased_half(n, fraction):
    g = GridSpec(n, dealias_fraction=fraction)
    k = spectral._box_bound(g)
    # at fraction 1 the disc bound is n/2: the box stops at n/2 - 1, so it
    # never holds the zero Nyquist row (it would hold it twice, as m1 = +-n/2)
    assert k == min(int(g.dealias_radius), n // 2 - 1)
    assert (int(g.dealias_radius) == n // 2 == k + 1) == (fraction == 1.0)
    rng = np.random.default_rng(n)
    box = rng.standard_normal((2 * k + 1, k + 1)) + 1j * rng.standard_normal((2 * k + 1, k + 1))
    half = spectral._unbox(box, n)
    assert half.shape == (n, n // 2 + 1)
    assert spectral._box(half, k).tobytes() == box.tobytes()
    # the half holds the box rows at their modes and +0 everywhere else
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    inside = (np.abs(m)[:, None] <= k) & (np.arange(n // 2 + 1)[None, :] <= k)
    assert not np.any(half[~inside]) and not np.any(np.signbit(half[~inside].view(np.float64)))
    for m1, m2 in ((k, k), (-k, 0), (-1, k), (0, 0)):
        row = m1 if m1 >= 0 else 2 * k + 1 + m1
        assert half[m1 % n, m2] == box[row, m2]
    # half -> box -> half is exact for every field inside the disc
    f = _disc_field(g, seed=n + 1)
    assert spectral._unbox(spectral._box(f.half, k), n).tobytes() == (f.half + 0.0).tobytes()
    # the forward transform's dealiased box rows, scattered into a half, are
    # the half-spectrum engine's dealiased half: byte for byte inside the
    # box, signs of zeros included, and +0 outside it, where the mask left
    # zeros of either sign
    phys = rng.standard_normal((n, n))
    want = _parent_dealiased_half(g, scipy.fft.rfft2(phys, norm="forward"))
    box = spectral._dealiased(spectral._Plan(g), spectral._lattice_half(phys, n, int(g.dealias_radius)))
    assert box.tobytes() == spectral._box(want, k).tobytes()
    got = spectral._unbox(box, n)
    assert np.array_equal(got, want)
    assert not np.any(np.signbit(got[~inside].view(np.float64)))


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
    _assert_close(
        multiply_fields(f, h).coeffs, _direct_bilinear((f.coeffs,), h.coeffs, unit_symbol)
    )
    assert product_sizes == [24]


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
    _assert_close(flux_divergence(q, theta, params).coeffs, direct_flux(q, theta, params))
    # q and theta as one object: the full equation's tendency, formed
    # without the second term
    _assert_close(
        flux_divergence(theta, theta, params).coeffs, direct_flux(theta, theta, params)
    )


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
            got = multiply_fields(a, b).coeffs
            ref = _direct_bilinear((a.coeffs,), b.coeffs, unit_symbol)
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


@pytest.mark.parametrize("n", [64, 256])
def test_flux_makes_one_inverse_and_one_forward_call_at_every_size(n, transforms):
    # M = n: every transform of a product site goes into one stacked call
    # per direction, on small and large grids alike
    g = GridSpec(n)
    theta = _disc_field(g, seed=53)
    q = _disc_field(g, seed=54)
    flux_divergence(q, theta, ModelParams(beta=1.7, kappa=0.5))
    assert dict(transforms) == {"irfft2": 6, "rfft2": 2}
    assert dict(transforms.calls) == {"irfft2": 1, "rfft2": 1}


_STACK_OPS = {
    "one_term": ModelParams(beta=1.2, kappa=0.5),
    "two_term": ModelParams(beta=1.7, kappa=0.5),
    "log_law": ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=0.7),
    "advect": ModelParams(beta=1.5, kappa=0.5),
    "multiply": ModelParams(beta=1.5, kappa=0.5),
}


def _stack_op(op, a, b, params):
    if op == "multiply":
        return multiply_fields(a, b)
    if op == "advect":
        return advect(velocity_from_scalar(a, params), b)
    return flux_divergence(a, b, params)


@pytest.mark.parametrize("before", ["none", "same_op", "wide_op"])
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("op", list(_STACK_OPS))
def test_stacked_transforms_equal_per_array_bit_for_bit(op, n, fraction, before):
    # at fraction 0.9 the disc fields' products move to M = 3n/2; the call
    # comes after nothing, after the same op on other fields (the same
    # workspace, spent by its forward pass), or after fields filling the
    # lattice on this grid, whose terms are wider than the disc's
    g = GridSpec(n, dealias_fraction=fraction)
    params = _STACK_OPS[op]
    a, b = _disc_field(g, seed=55), _disc_field(g, seed=56)
    if before == "same_op":
        _stack_op(op, _disc_field(g, seed=57), _disc_field(g, seed=58), params)
    elif before == "wide_op":
        wide = random_field(g, seed=59, decay=1.0), random_field(g, seed=60, decay=1.0)
        _stack_op(op, *wide, params)
    got = _stack_op(op, a, b, params)
    assert got.half.tobytes() == per_array(op, a, b, params).half.tobytes()
    u = velocity_from_scalar(a, params)
    plan = spectral._Plan(g)
    pruned = spectral._term_samples(plan, (u.u1.half, u.u2.half), n, _support(a.half)).copy()
    assert all(
        s.tobytes() == _engine_samples(c.half, n, n // 2).tobytes()
        for s, c in zip(pruned, (u.u1, u.u2))
    )
    # box rows of the support's bound: the column pass pruned to it
    u_box = tuple(spectral._box(c.half, _support(a.half)) for c in (u.u1, u.u2))
    assert spectral._peak_speed(plan, u_box) == peak_speed(u)


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.9])
@pytest.mark.parametrize("op", ["one_term", "two_term", "log_law"])
def test_flux_reads_the_peak_speed_on_the_n_grid(op, fraction):
    g = GridSpec(32, dealias_fraction=fraction)
    params = _STACK_OPS[op]
    plan = spectral._Plan(g, params)
    q, theta = (spectral._box(_disc_field(g, seed=s).half, plan.k) for s in (57, 58))
    speed = []
    got = spectral._flux_rows(plan, q, theta, speed)
    assert got.tobytes() == spectral._flux_rows(plan, q, theta).tobytes()
    on_n_grid = spectral._grid_size(g.n, (q,), (theta,), int(g.dealias_radius))[0] == g.n
    assert (len(speed) == 1) == on_n_grid == (fraction < 0.7)
    want = peak_speed(velocity_from_scalar(spectral._from_box(g, q), params))
    assert [np.float64(x).tobytes() for x in speed] == [np.float64(want).tobytes()] * len(speed)


def _flux_rows_one_by_one(plan, q, theta, speed=None):
    """The flux on box rows as it was written before the per-layout kernel:
    a fresh factor stack, a product per ufunc call, the speed's squares in
    fresh arrays, and the two terms' boxes combined after the forward call."""
    n = plan.grid.n
    k_out = int(plan.grid.dealias_radius)
    size, k = spectral._grid_size(n, (q,), (theta,), k_out)
    kb = len(theta) // 2
    m = 3 if plan.params.two_term and q is not theta else 2
    qk = q[:, : k + 1]
    factors = np.empty((m, len(theta), k + 1), dtype=np.complex128)
    np.multiply(plan.mult(kb)[:, : k + 1], qk, out=factors[0])
    factors[1] = theta[:, : k + 1]
    if m == 3:
        factors[2] = qk
    s = spectral._term_samples(plan, [(plan.ik(kb)[..., : k + 1], factors)], size, k)
    if speed is not None and size == n:
        speed.append(float(np.sqrt((s[m] * s[m] + s[0] * s[0]).max())))
    if m == 3:
        np.multiply(s[1], s[5], out=s[5])
        np.multiply(s[4], s[2], out=s[2])
    np.multiply(s[m], s[1], out=s[m])
    if m == 3:
        np.subtract(s[5], s[2], out=s[1])
    np.multiply(s[0], s[m + 1], out=s[0])
    s[0] -= s[m]
    boxes = spectral._product_box(plan, s, slice(None, m - 1), k_out, k + 1)
    out = boxes[0]
    if m == 3:
        out = np.multiply(plan.mult(len(out) // 2), boxes[1])
        np.add(boxes[0], out, out=out)
    return spectral._dealiased(plan, out)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("op", ["one_term", "two_term", "log_law"])
def test_flux_kernel_keeps_the_bytes_of_the_products_formed_one_by_one(op, fraction):
    # call after call in one plan, across layouts: q = theta and q != theta,
    # products on the n-grid and on 3n/2, rows of the dealias box's bound
    # and of n/2 - 1
    g = GridSpec(32, dealias_fraction=fraction)
    params = _STACK_OPS[op]
    plan, ref_plan = spectral._Plan(g, params), spectral._Plan(g, params)
    disc = [spectral._box(_disc_field(g, seed=s).half, plan.k) for s in (61, 62)]
    full = [spectral._box_field(random_field(g, seed=s, decay=1.0)) for s in (63, 64)]
    low = [spectral._box(random_field(g, seed=s, band=4).half, plan.k) for s in (65, 66)]
    cases = [
        (disc[0], disc[1]), (disc[0], disc[0]), (full[0], full[1]), (full[0], full[0]),
        (-disc[1], disc[0]), (disc[1], disc[0]), (low[0], low[1]), (low[0], low[0]),
        (low[1], disc[0]),
    ]
    sizes = set()
    for q, theta in cases * 2:
        got_speed, want_speed = [], []
        got = spectral._flux_rows(plan, q, theta, got_speed)
        want = _flux_rows_one_by_one(ref_plan, q, theta, want_speed)
        assert got.tobytes() == want.tobytes()
        assert np.array(got_speed).tobytes() == np.array(want_speed).tobytes()
        assert got.tobytes() == spectral._flux_rows(plan, q, theta).tobytes()
        sizes.add(spectral._grid_size(g.n, [q], [theta], int(g.dealias_radius))[0])
    assert sizes == {g.n, 3 * g.n // 2}
    assert len(disc[0]) < len(full[0]) if fraction < 1 else len(disc[0]) == len(full[0])


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_support_bound_never_changes_the_product_grid(fraction, product_sizes):
    # a bound is read only when it puts the product on the n-grid; a loose
    # one that would not is overruled by the exact scan: the stepping core's
    # rows, bounded by the dealias box, and a public product's, by n/2 - 1,
    # land on the grid of the exact supports, with the same bytes
    g = GridSpec(16, dealias_fraction=fraction)
    low = field_from_modes(g, {(2, 1): 0.5, (-1, 2): 0.25j})
    wide = _disc_field(g, seed=50)
    params = ModelParams(beta=1.7, kappa=0.5)
    plan = spectral._Plan(g, params)
    k_out = int(g.dealias_radius)
    for a, b in ((low, low), (low, wide), (wide, wide)):
        product_sizes.clear()
        qb = spectral._box(a.half, plan.k)
        tb = qb if a is b else spectral._box(b.half, plan.k)
        core = spectral._flux_rows(plan, qb, tb)
        public = flux_divergence(a, b, params)
        advect(velocity_from_scalar(a, params), b)
        ka, kb = _support(a.half), _support(b.half)
        size = 16 if 16 > ka + kb + k_out else 24
        # two forward transforms per two-term flux, one where q is theta
        assert product_sizes == [size] * (3 if a is b else 5)
        assert core.tobytes() == spectral._box(public.half, plan.k).tobytes()


def test_public_products_scan_their_factors(monkeypatch, product_sizes):
    # a public product boxes its factors at n/2 - 1, a bound that never puts
    # a product on the n-grid, so every call scans them, and the scan gives
    # the grid of their exact supports and the same bytes call after call
    calls = []
    scan = _support

    def spy(*rows):
        calls.append(len(rows))
        return scan(*rows)

    monkeypatch.setattr(spectral, "_support", spy)
    g = GridSpec(32)
    theta = _disc_field(g, seed=51)
    q = _disc_field(g, seed=52)
    params = ModelParams(beta=1.7, kappa=0.5)
    outs = [flux_divergence(f, theta, params).half.tobytes() for _ in range(3) for f in (q, -q)]
    assert calls == [1, 1] * 6
    assert product_sizes == [32] * 12   # two forward transforms per flux
    assert outs == outs[:2] * 3


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
    # a diagonal multiplier never widens the support a product reads
    f = random_field(grid, seed=38, band=9)
    for name, symbol in _multiplier_symbols(grid):
        out = _apply_multiplier(f, symbol)
        assert _support(out.half) <= _support(f.half), name
        assert np.array_equal(out.coeffs, f.coeffs * symbol), name
