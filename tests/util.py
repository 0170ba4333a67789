"""Shared helpers for the test suite: seeded fields and direct-sum references."""

import numpy as np

from gsqglab import (
    GridSpec,
    SpectralField,
    VectorField,
    advect,
    build_partition,
    solver,
    spectral,
    to_physical,
    velocity_from_scalar,
)
from gsqglab.dyadic import _chi_lattice, _fat_diagonal, _phi_lattice
from gsqglab.harness import _advect_symbol, _direct_bilinear
from gsqglab.inequalities import _hash_uniform
from gsqglab.spectral import (
    _dealias_mask,
    _half,
    _homog_weight,
    _kabs,
    _modes,
    _structure_multiplier,
)


def random_field(grid: GridSpec, seed=0, decay=2.0, band=None, mean_zero=True) -> SpectralField:
    """Random real field with |coeff| ~ |m|^(-decay), optionally band-limited."""
    rng = np.random.default_rng(seed)
    n = grid.n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    m1, m2 = m[:, None], m[None, :]
    mag2 = (m1 * m1 + m2 * m2).astype(float)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with np.errstate(divide="ignore"):
        amp = np.where(mag2 > 0, np.sqrt(mag2) ** (-decay), 0.0)
    if band is not None:
        amp = np.where(mag2 <= band * band, amp, 0.0)
    c = c * amp
    idx = (-np.arange(n)) % n
    c = 0.5 * (c + np.conj(c[np.ix_(idx, idx)]))
    c[n // 2, :] = 0.0
    c[:, n // 2] = 0.0
    if mean_zero:
        c[0, 0] = 0.0
    return SpectralField(grid, c)


def lattice_k(grid: GridSpec):
    """Physical wavevector component arrays (k1, k2) in fft layout."""
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    s = 2.0 * np.pi / grid.period
    return s * m[:, None], s * m[None, :]


def l2_norm(f: SpectralField) -> float:
    return f.grid.period * float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))


def hs_norm(f: SpectralField, s: float) -> float:
    k1, k2 = lattice_k(f.grid)
    kk = k1 * k1 + k2 * k2
    with np.errstate(divide="ignore"):
        w = np.where(kk > 0, kk**s, 0.0)
    return f.grid.period * float(np.sqrt(np.sum(w * np.abs(f.coeffs) ** 2)))


def _lattice_modes(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, 1.0 / n).astype(int)


def scalar_direct_bilinear(fs, g: np.ndarray, symbol) -> np.ndarray:
    """The scalar loop over mode pairs that harness._direct_bilinear must
    match bit for bit: out(k) = sum over p + q = k of
    (sum_j sigma_j(k, q) f_j(p)) g(q), over the open lattice.

    The symbol is evaluated once, on every pair the loop visits (flat
    arrays, the array arithmetic the kernel runs, one pair per element);
    the loop then adds each pair's term as scalar complex arithmetic.
    """
    n = g.shape[0]
    half = n // 2
    m = _lattice_modes(n)
    pairs = [
        (i1, i2, j1, j2)
        for i1 in range(n)
        for i2 in range(n)
        if any(f[i1, i2] for f in fs)
        for j1 in range(n)
        for j2 in range(n)
        if g[j1, j2] != 0 and abs(m[i1] + m[j1]) < half and abs(m[i2] + m[j2]) < half
    ]
    i1, i2, j1, j2 = np.array(pairs, dtype=int).reshape(-1, 4).T
    q1, q2 = m[j1], m[j2]
    k1, k2 = m[i1] + q1, m[i2] + q2
    sigma = [np.broadcast_to(s, q1.shape) for s in symbol(k1, k2, q1, q2)]
    out = np.zeros((n, n), dtype=complex)
    for e, (a1, a2, b1, b2) in enumerate(pairs):
        t = fs[0][a1, a2] * sigma[0][e]
        for f, s in zip(fs[1:], sigma[1:]):
            t = t + f[a1, a2] * s[e]
        out[k1[e] % n, k2[e] % n] += t * g[b1, b2]
    return out


def unit_symbol(k1, k2, q1, q2):
    """sigma = 1: _direct_bilinear((f,), g, unit_symbol) is the plain product."""
    return (1.0,)


def _homog(r, s):
    """r^s, zero where r = 0."""
    with np.errstate(divide="ignore"):
        return np.where(r > 0, r**s, 0.0)


def structure_symbol(grid: GridSpec, params):
    """The structure multiplier M of integer modes, written here on its own:
    |k|^(beta-2), zero at k = 0, or (ln(1 + |k|^2))^mu for the log law."""
    k0 = grid.k_fundamental

    def mult(m1, m2):
        x1, x2 = k0 * m1, k0 * m2
        kk = x1 * x1 + x2 * x2
        if params.velocity_law == "log":
            return np.log1p(kk) ** params.mu
        return _homog(kk, (params.beta - 2.0) / 2.0)

    return mult


def flux_second_symbol(grid: GridSpec, params):
    """sigma_j(k, q) = M(k) i k0 q_j: the modified flux's second term
    M (perp_grad(theta) . grad(q)) is _direct_bilinear(perp_grad(theta), q, .)."""
    mult, advect_symbol = structure_symbol(grid, params), _advect_symbol(grid.k_fundamental)

    def symbol(k1, k2, q1, q2):
        mk = mult(k1, k2)
        return tuple(mk * s for s in advect_symbol(k1, k2, q1, q2))

    return symbol


def direct_flux(q: SpectralField, theta: SpectralField, params) -> np.ndarray:
    """flux_divergence(q, theta, params) by the direct kernel, term by term:
    perp_grad(M q) . grad(theta), plus, when params.two_term, M times
    perp_grad(theta) . grad(q) (q = theta included); dealias-masked, mean
    zeroed."""
    grid = theta.grid
    k1, k2 = lattice_k(grid)
    m = _lattice_modes(grid.n)
    mq = structure_symbol(grid, params)(m[:, None], m[None, :]) * q.coeffs
    out = _direct_bilinear(
        (-1j * k2 * mq, 1j * k1 * mq), theta.coeffs, _advect_symbol(grid.k_fundamental)
    )
    if params.two_term:
        t = theta.coeffs
        out += _direct_bilinear(
            (-1j * k2 * t, 1j * k1 * t), q.coeffs, flux_second_symbol(grid, params)
        )
    out *= _dealias_mask(grid)
    out[0, 0] = 0.0
    return out


def bracket_symbol(tau):
    """sigma(k, q) = tau(k) - tau(q), for T the multiplier tau of integer
    modes: <[T, g] f, h> = period^2 vdot(h, _direct_bilinear((g,), f, .))."""
    return lambda k1, k2, q1, q2: (tau(k1, k2) - tau(q1, q2),)


def block_tau(grid: GridSpec, j: int):
    """phi_j(|k|), the j-th dyadic block's multiplier."""
    part, k0 = build_partition(grid), grid.k_fundamental
    return lambda m1, m2: part.phi(j, k0 * np.hypot(m1, m2))


def singular_tau(grid: GridSpec, ell: int, beta: float):
    """i k_ell |k|^(beta-2), zero at k = 0: commutator_singular's multiplier."""
    k0 = grid.k_fundamental
    return lambda m1, m2: 1j * (k0 * (m1, m2)[ell - 1]) * _homog(k0 * np.hypot(m1, m2), beta - 2.0)


def gevrey_tau(grid: GridSpec, alpha: float, lam: float, s: float, j: int):
    """exp(lam |k|^alpha) |k|^s i k1 phi_j(|k|): commutator_gevrey's d1
    multiplier, s = sigma + rho > 0."""
    part, k0 = build_partition(grid), grid.k_fundamental

    def tau(m1, m2):
        r = k0 * np.hypot(m1, m2)
        return np.exp(lam * r**alpha) * r**s * (1j * (k0 * m1)) * part.phi(j, r)

    return tau


def log_tau(grid: GridSpec, mu: float, ell: int):
    """(ln(1 + |k|^2))^mu i k_ell: commutator_log's multiplier."""
    k0 = grid.k_fundamental

    def tau(m1, m2):
        x1, x2 = k0 * m1, k0 * m2
        return np.log1p(x1 * x1 + x2 * x2) ** mu * (1j * (x1, x2)[ell - 1])

    return tau


def full_lattice_test_field(spec, index) -> SpectralField:
    """inequalities.random_test_field built on the full lattice: every mode
    hashed, then the validating constructor, the reference for the bytes of
    the half-lattice construction."""
    grid = spec.grid
    n = grid.n
    m1, m2 = np.broadcast_arrays(*_modes(grid))
    canon = (m1 > 0) | ((m1 == 0) & (m2 > 0))
    cm1 = np.where(canon, m1, -m1)
    cm2 = np.where(canon, m2, -m2)
    u_mod = _hash_uniform(spec.seed, index, cm1, cm2, 1)
    u_arg = _hash_uniform(spec.seed, index, cm1, cm2, 2)
    amp = _homog_weight(grid, -spec.decay) * (0.5 + 0.5 * u_mod)
    sign = np.where(canon, 1.0, -1.0)
    coeffs = amp * np.exp(2j * np.pi * u_arg * sign)
    coeffs[0, 0] = 0.0
    coeffs[n // 2, :] = 0.0
    coeffs[:, n // 2] = 0.0
    return SpectralField(grid, coeffs)


def per_array(op, a, b, params):
    """The product sites written with one inverse / forward transform call per
    full-width array: multiply_fields(a, b) for op "multiply", the advection
    of b by a's velocity for "advect", else flux_divergence(a, b, params).
    Each forward call keeps the box rows the site keeps, as the engine's do."""
    grid = b.grid
    n, r = grid.n, int(grid.dealias_radius)
    lattice_half = spectral._lattice_half
    plan = spectral._Plan(grid, params)

    def samples(coeffs, size):
        # the engine's samples are the plan's workspace, which its next call reuses
        return spectral._term_samples(plan, (coeffs,), size, n // 2)[0].copy()

    def size_of(a, b, k_out):
        boxed = [tuple(map(spectral._box_field, x)) for x in (a, b)]
        return spectral._grid_size(n, *boxed, k_out)[0]

    ik1, ik2 = spectral._ik(grid)
    if op == "multiply":
        size = size_of((a,), (b,), n // 2 - 1)
        prod = lattice_half(samples(a.half, size) * samples(b.half, size), n, n // 2 - 1)
        return spectral._from_box(grid, spectral._canonical(prod))
    if op == "advect":
        u, th = velocity_from_scalar(a, params), b.half
        size = size_of((u.u1, u.u2), (b,), r)
        acc = samples(u.u1.half, size) * samples(ik1 * th, size)
        acc += samples(u.u2.half, size) * samples(ik2 * th, size)
        return spectral._from_box(grid, spectral._dealiased(plan, lattice_half(acc, n, r)))
    mult = _structure_multiplier(_half(_kabs(grid)), params)
    qh, th = a.half, b.half
    size = size_of((a,), (b,), r)
    d1t, d2t = samples(ik1 * th, size), samples(ik2 * th, size)
    mq = mult * qh
    out = lattice_half(samples(ik1 * mq, size) * d2t - samples(ik2 * mq, size) * d1t, n, r)
    if params.two_term:
        second = d1t * samples(ik2 * qh, size) - d2t * samples(ik1 * qh, size)
        out += plan.mult() * lattice_half(second, n, r)
    return spectral._from_box(grid, spectral._dealiased(plan, out))


def stacked_form(grid: GridSpec, fh, gh, hh) -> complex:
    """The trilinear form of half spectra fh, gh and the weighted third hh,
    its three factors sampled together in one stacked call of a fresh plan:
    the form the sampler's must equal byte for byte."""
    supports = spectral._support(fh), spectral._support(gh), spectral._support(hh)
    size = spectral._product_size(grid.n, *supports)
    fs, gs, hs = spectral._term_samples(spectral._Plan(grid), (fh, gh, hh), size, max(supports))
    np.multiply(fs, gs, out=fs)
    fs *= hs
    return complex(grid.period**2 / size**2 * np.sum(fs))


def split_forms_oracle(f: SpectralField, g: SpectralField, h: SpectralField, sigma: float):
    """(trilinear_form, *bony_split) at sigma, one stacked_form per form."""
    grid = f.grid
    hh = h.half if sigma == 0.0 else _half(_homog_weight(grid, sigma)) * h.half
    full = stacked_form(grid, f.half, g.half, hh)
    low = high = diag = 0j
    for k in build_partition(grid).block_range:
        chi, phi = _half(_chi_lattice(grid, k - 3)), _half(_phi_lattice(grid, k))
        fat = _half(_fat_diagonal(grid, k))
        low += stacked_form(grid, chi * f.half, phi * g.half, hh)
        high += stacked_form(grid, phi * f.half, chi * g.half, hh)
        diag += stacked_form(grid, phi * f.half, fat * g.half, hh)
    return full, low, high, diag


def advective_tendency(f: SpectralField, params) -> SpectralField:
    """The full equation's tendency written with advect: -u . grad(f), u the
    velocity of f."""
    return -advect(velocity_from_scalar(f, params), f)


def peak_speed(u: VectorField) -> float:
    """The largest |u| over the n-grid samples to_physical makes of a
    velocity's components: the oracle of the Courant number's speed."""
    return float(np.sqrt(to_physical(u.u1) ** 2 + to_physical(u.u2) ** 2).max())


def advective_stages(grid, params):
    """Stage-tendency factory of the full equation, in the shape solver._run
    takes, with every stage tendency advective_tendency(f), f the field of
    the stage's box rows: the reference stepper that simulate, which steps
    the modified flux at q = theta, must match."""
    k = spectral._box_bound(grid)

    def box(f):
        return spectral._box(f.half, k)

    def factory(_i, c):
        theta = spectral._from_box(grid, c)
        u = velocity_from_scalar(theta, params)
        return (
            lambda s, _stage: box(advective_tendency(spectral._from_box(grid, s), params)),
            lambda: (u.u1.half, u.u2.half),
            peak_speed(u),
            box(-advect(u, theta)),
        )

    return factory


def advective_simulate(theta0, params, T, dt, stride):
    """simulate's Trajectory, stepped by advective_stages."""
    return solver._run(
        spectral._Plan(theta0.grid, params), theta0, T, dt, stride, solver.DEFAULT_CFL, True,
        advective_stages(theta0.grid, params), solver.TrajectorySink(),
    )


def read_csv_columns(path: str) -> dict[str, list]:
    """Read back a CSV written by write_csv, column by column: the round-trip
    oracle of the CSV artifacts.

    Numeric cells parse to float (booleans to 1.0/0.0); anything else, like
    the name column of a check table, stays a string.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    cols: dict[str, list] = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            if cell == "true":
                value = 1.0
            elif cell == "false":
                value = 0.0
            else:
                try:
                    value = float(cell)
                except ValueError:
                    value = cell
            cols[name].append(value)
    return cols
