"""Shared helpers for the test suite: seeded fields and direct-sum references."""

import numpy as np

from gsqglab import GridSpec, SpectralField, VectorField
from gsqglab.spectral import _dealias_mask


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


def direct_convolution(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """O(N^4) reference convolution on the fft-layout lattice.

    Returns sum over p of f(p) g(m - p) for every m representable on the
    lattice, with out-of-range p + q pairs dropped (no aliasing), matching
    an exact padded product restricted to the lattice.
    """
    n = fc.shape[0]
    half = n // 2
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    out = np.zeros_like(fc)
    for i1 in range(n):
        for i2 in range(n):
            if fc[i1, i2] == 0:
                continue
            p1, p2 = m[i1], m[i2]
            for j1 in range(n):
                for j2 in range(n):
                    if gc[j1, j2] == 0:
                        continue
                    q1, q2 = p1 + m[j1], p2 + m[j2]
                    if -half < q1 < half and -half < q2 < half:
                        out[q1 % n, q2 % n] += fc[i1, i2] * gc[j1, j2]
    return out


def scalar_direct_advect(u: VectorField, theta: SpectralField) -> np.ndarray:
    """O(N^4) direct convolution reference for the advection term.

    The scalar loop over mode pairs that harness._direct_advect must match
    bit for bit.
    """
    grid = theta.grid
    n = grid.n
    half = n // 2
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    k0 = grid.k_fundamental
    out = np.zeros((n, n), dtype=complex)
    u1, u2, tc = u.u1.coeffs, u.u2.coeffs, theta.coeffs
    for i1 in range(n):
        for i2 in range(n):
            if u1[i1, i2] == 0 and u2[i1, i2] == 0:
                continue
            for j1 in range(n):
                for j2 in range(n):
                    c = tc[j1, j2]
                    if c == 0:
                        continue
                    q1, q2 = m[j1], m[j2]
                    s1, s2 = m[i1] + q1, m[i2] + q2
                    if -half < s1 < half and -half < s2 < half:
                        out[s1 % n, s2 % n] += (
                            u1[i1, i2] * (1j * k0 * q1)
                            + u2[i1, i2] * (1j * k0 * q2)
                        ) * c
    out *= _dealias_mask(grid)
    out[0, 0] = 0.0
    return out
