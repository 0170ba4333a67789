"""Real scalar fields on the periodic square box, spectral side.

Coefficient convention: a field f is stored by complex amplitudes f_hat on
the integer lattice m in [-n/2, n/2)^2 (numpy fft2 ordering) with

    f(x) = sum_m f_hat(m) exp(i k(m) . x),    k(m) = (2 pi / period) m.

Under this normalization Parseval reads ||f||_{L2}^2 = period^2 sum |f_hat|^2.
The unpaired Nyquist row and column (m_i = -n/2) are kept identically zero so
that every derivative multiplier is exactly odd under k -> -k.

Storage: a SpectralField is its m2 >= 0 half spectrum (`half`, n x (n/2 + 1)),
which is all a real field needs, and holds no other coefficient buffer. The
full Hermitian array (`coeffs`) is a fresh read-only mirror of it, built on
every read, so a caller that needs it more than once keeps a local. Every
operator, diagonal multipliers included (`_apply_multiplier`), writes a half
spectrum; norms, inequalities and diagnostics read `coeffs`. The private
constructor `_wrap_half` takes ownership of the half it is given and freezes
it in place instead of copying it.

Products are formed by real FFTs on an M x M grid, M = n if n > K_a + K_b +
K_out else 3n/2, with K_a, K_b the factors' largest nonzero |m_i| and K_out the
largest |m_i| kept: every kept mode gets its exact, alias-free convolution sum
(Orszag's 2/3 rule, J. Atmos. Sci. 1971). Solver state at fraction 2/3 has M = n.
K_a and K_b come from a field's support bound: one it was built with (the
solver's stepping core builds its state and stage fields with the dealias
disc's floor(dealias_radius); the velocity and negation keep their source's),
else its nonzero scan, made once per field and cached. A bound is used only
when it already gives M = n; otherwise the exact scan of the factors decides,
so M is always the one their exact supports give.

A velocity's n-grid samples, `VectorField.samples`, are transformed once and
cached: `advect` reads them when M = n, and the solver's Courant number reads
the same arrays; `flux_divergence`, given q's velocity, fills them from its
own samples of d1(M q) and d2(M q) instead. The modified flux is evaluated
in advective form, Div((perp_grad a) b) = perp_grad a . grad b, which holds
exactly for alias-free products because perp_grad a is divergence free, so
both of its terms share the samples of grad theta. Transforms per call:
`advect` 4 inverse and 1 forward (2 and 1 when it reads cached samples),
`flux_divergence` 4 and 1, or 6 and 2 with the second term,
`multiply_fields` 2 and 1, `VectorField.samples` 2 inverse. On a product
grid of M <= _STACK_MAX = 64 a call site makes them as one stacked inverse
scipy.fft call and one forward call, which saves the per-call dispatch;
above it, where a stack runs slower per transform, one call per transform.
The stacked and single calls agree bit for bit (`_term_samples`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .errors import OverflowGuardError

EXP_GUARD = 700.0   # double precision exp() overflows near 709

_SYM_TOL = 1e-12    # constructor tolerance for Hermitian / Nyquist violations


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: n modes per dimension on a box of side period."""

    n: int
    period: float = 2.0 * math.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not (0 < self.period < math.inf):
            raise ValueError(f"period must be positive, got {self.period}")
        if not (0 < self.dealias_fraction <= 1):
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    @property
    def k_fundamental(self) -> float:
        """Magnitude of the smallest nonzero wavevector, 2 pi / period."""
        return 2.0 * math.pi / self.period

    @property
    def dealias_radius(self) -> float:
        """Retained-mode radius of the dealias disc, in lattice units."""
        return self.dealias_fraction * (self.n / 2.0)

    def sample_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical sample coordinates (x1, x2) as broadcastable arrays."""
        x = np.arange(self.n) * (self.period / self.n)
        return x[:, None], x[None, :]


@lru_cache(maxsize=None)
def _modes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    m = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64)
    return m[:, None], m[None, :]


@lru_cache(maxsize=None)
def _kabs(grid: GridSpec) -> np.ndarray:
    m1, m2 = _modes(grid)
    return grid.k_fundamental * np.sqrt((m1 * m1 + m2 * m2).astype(np.float64))


@lru_cache(maxsize=128)
def _homog_weight(grid: GridSpec, s: float) -> np.ndarray:
    """Read-only |k|^s per mode with the mean mode weighted zero."""
    kabs = _kabs(grid)
    with np.errstate(divide="ignore"):
        w = np.where(kabs > 0, kabs**s, 0.0)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=128)
def _log_weight(grid: GridSpec, mu: float) -> np.ndarray:
    """Read-only (ln(1 + |k|^2))^mu per mode; the mean mode weighs zero."""
    kabs = _kabs(grid)
    w = np.log1p(kabs * kabs) ** mu
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _wavevectors(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    m1, m2 = _modes(grid)
    s = grid.k_fundamental
    return s * m1.astype(np.float64), s * m2.astype(np.float64)


@lru_cache(maxsize=None)
def _ik(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only derivative symbols (i k1, i k2) on the m2 >= 0 half lattice."""
    k1, k2 = map(_half, _wavevectors(grid))
    pair = (1j * k1, 1j * k2)
    for a in pair:
        a.flags.writeable = False
    return pair


@lru_cache(maxsize=None)
def _nyquist_mask(grid: GridSpec) -> np.ndarray:
    mask = np.zeros((grid.n, grid.n), dtype=bool)
    mask[grid.n // 2, :] = True
    mask[:, grid.n // 2] = True
    return mask


@lru_cache(maxsize=None)
def _dealias_mask(grid: GridSpec) -> np.ndarray:
    """Boolean keep-mask of the dealias disc |m| <= dealias_radius."""
    m1, m2 = _modes(grid)
    keep = (m1 * m1 + m2 * m2) <= grid.dealias_radius**2
    return keep & ~_nyquist_mask(grid)


@lru_cache(maxsize=None)
def _flip_index(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def _hermitian_defect(coeffs: np.ndarray) -> float:
    idx = _flip_index(coeffs.shape[0])
    return float(np.max(np.abs(coeffs - np.conj(coeffs[np.ix_(idx, idx)]))))


class SpectralField:
    """Immutable spectral representation of one real scalar field.

    The constructor validates the lattice invariants (Hermitian symmetry,
    zero Nyquist modes) up to roundoff and then enforces them exactly, so
    downstream operators never have to re-check. The stored form is the
    read-only half spectrum `half`, a copy of the symmetrized array's m2 >= 0
    columns, and nothing else; `coeffs` is the full array, mirrored from it
    afresh on every read (see the module docstring). `_kmax` is the support
    bound the product engine reads (None until it is given or scanned).
    """

    __slots__ = ("grid", "half", "_kmax")

    def __init__(self, grid: GridSpec, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n, grid.n):
            raise ValueError(
                f"coefficient array shape {coeffs.shape} does not match grid n={grid.n}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite spectral coefficients")
        scale = float(np.max(np.abs(coeffs))) or 1.0
        nyq = _nyquist_mask(grid)
        if float(np.max(np.abs(coeffs[nyq]))) > _SYM_TOL * scale:
            raise ValueError("Nyquist modes must be zero (unpaired on this lattice)")
        if _hermitian_defect(coeffs) > 2 * _SYM_TOL * scale:
            raise ValueError("coefficients violate Hermitian symmetry")
        coeffs = coeffs.copy()
        coeffs[nyq] = 0.0
        idx = _flip_index(grid.n)
        coeffs = 0.5 * (coeffs + np.conj(coeffs[np.ix_(idx, idx)]))
        _store(self, grid, _half(coeffs).copy())

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @property
    def coeffs(self) -> np.ndarray:
        """The full Hermitian coefficient array: a new read-only mirror per read."""
        full = _full_from_half(self.half, self.grid.n)
        full.flags.writeable = False
        return full

    @property
    def mean_zero(self) -> bool:
        return self.half[0, 0] == 0

    def __neg__(self) -> "SpectralField":
        return _wrap_half(self.grid, -self.half, self._kmax)


def _store(f: SpectralField, grid: GridSpec, half: np.ndarray, kmax=None) -> SpectralField:
    half.flags.writeable = False
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "half", half)
    object.__setattr__(f, "_kmax", kmax)
    return f


def _wrap_half(grid: GridSpec, half: np.ndarray, kmax: int | None = None) -> SpectralField:
    """Fast constructor from an m2 >= 0 half spectrum (n x (n/2 + 1)).

    The caller guarantees four invariants, none of which is checked:
    - the array is owned: nothing else holds or writes it, because it is
      frozen in place and kept, not copied;
    - the Nyquist row m1 = -n/2 and column m2 = n/2 are zero;
    - column m2 = 0 is exactly Hermitian, half[-m1, 0] == conj(half[m1, 0]);
    - kmax, if given, bounds the largest |m_i| of a nonzero coefficient.
    Under them `coeffs` mirrors to the field's exact Hermitian array.
    """
    return _store(object.__new__(SpectralField), grid, half, kmax)


@dataclass(frozen=True)
class VectorField:
    """Pair of spectral components (u1, u2) on a shared grid."""

    u1: SpectralField
    u2: SpectralField

    def __post_init__(self):
        if self.u1.grid != self.u2.grid:
            raise ValueError("vector components must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.u1.grid

    @cached_property
    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (u1, u2) at the n x n sample points, transformed once."""
        n = self.grid.n
        return _read_only(*_term_samples((self.u1.half, self.u2.half), n, n))

    def divergence(self) -> SpectralField:
        ik1, ik2 = _ik(self.grid)
        return _wrap_half(self.grid, ik1 * self.u1.half + ik2 * self.u2.half)


@dataclass(frozen=True)
class ModelParams:
    """Equation parameters for the dissipative active scalar family.

    beta sets the constitutive law u = -perp_grad(Lambda^(beta-2) theta)
    (velocity_law "power"); velocity_law "log" replaces Lambda^(beta-2) by
    (ln(I - Delta))^mu and requires beta = 2. gamma and kappa control the
    fractional dissipation gamma*Lambda^kappa, eps_visc an extra -eps*Delta.
    """

    beta: float
    kappa: float
    gamma: float = 0.0
    mu: float = 1.0
    eps_visc: float = 0.0
    velocity_law: str = "power"

    def __post_init__(self):
        if not (0 < self.beta <= 2):
            raise ValueError(f"beta must lie in (0, 2], got {self.beta}")
        if not (0 < self.kappa <= 2):
            raise ValueError(f"kappa must lie in (0, 2], got {self.kappa}")
        if not (0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not (0 < self.mu < math.inf):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (0 <= self.eps_visc < math.inf):
            raise ValueError(f"eps_visc must be nonnegative, got {self.eps_visc}")
        if self.velocity_law not in ("power", "log"):
            raise ValueError(f"velocity_law must be 'power' or 'log', got {self.velocity_law!r}")
        if self.velocity_law == "log" and self.beta != 2:
            raise ValueError("velocity_law 'log' requires beta = 2")

    @property
    def sigma_c(self) -> float:
        """Critical Sobolev exponent 1 + beta - kappa."""
        return 1.0 + self.beta - self.kappa

    @property
    def two_term(self) -> bool:
        """Whether the modified flux carries its second term (beta >= 1 + kappa)."""
        return self.beta >= 1.0 + self.kappa


# ---------------------------------------------------------------------------
# transforms


def to_physical(field: SpectralField) -> np.ndarray:
    """Evaluate the field at the n x n physical sample points."""
    return _samples(field.half, field.grid.n)


def _canonical_half(half: np.ndarray) -> np.ndarray:
    """Enforce, in place, the invariants _wrap_half relies on."""
    n = len(half)
    col = half[:, 0]
    # column m2 = 0 pairs with itself; average out fft roundoff asymmetry
    half[:, 0] = 0.5 * (col + np.conj(col[_flip_index(n)]))
    half[n // 2, :] = 0.0
    half[:, n // 2] = 0.0
    return half


def _full_from_half(half: np.ndarray, n: int) -> np.ndarray:
    """Mirror a canonical half spectrum to its full Hermitian array."""
    full = np.empty((n, n), dtype=np.complex128)
    full[:, : n // 2 + 1] = half
    np.conjugate(half[_flip_index(n), n // 2 - 1 : 0 : -1], out=full[:, n // 2 + 1 :])
    return full


def from_physical(samples: np.ndarray, grid: GridSpec) -> SpectralField:
    """Transform real physical samples to spectral coefficients.

    Hermitian symmetry holds by construction (real transform plus explicit
    mirror); Nyquist modes are dropped. Non-finite samples are rejected.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n, grid.n):
        raise ValueError(
            f"sample array shape {samples.shape} does not match grid n={grid.n}"
        )
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite physical samples")
    return _wrap_half(grid, _canonical_half(_lattice_half(samples, grid.n)))


def field_from_modes(grid: GridSpec, modes: dict) -> SpectralField:
    """Build a field from {(m1, m2): amplitude}, completing conjugate pairs.

    Each entry sets coeff(m) = a and coeff(-m) = conj(a). The zero mode, if
    given, must be real.
    """
    c = np.zeros((grid.n, grid.n), dtype=np.complex128)
    half = grid.n // 2
    for (m1, m2), a in modes.items():
        if not (-half < m1 < half and -half < m2 < half):
            raise ValueError(f"mode {(m1, m2)} outside the open lattice of n={grid.n}")
        if m1 == 0 and m2 == 0:
            if np.imag(a) != 0:
                raise ValueError("zero-mode amplitude must be real")
            c[0, 0] = a
            continue
        c[m1 % grid.n, m2 % grid.n] = a
        c[-m1 % grid.n, -m2 % grid.n] = np.conj(a)
    return _wrap_half(grid, _half(c).copy())


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the box, period^2 sum f_hat conj(g_hat)."""
    if f.grid != g.grid:
        raise ValueError("inner product requires a shared grid")
    return float(np.real(np.vdot(g.coeffs, f.coeffs))) * f.grid.period**2


# ---------------------------------------------------------------------------
# diagonal (Fourier multiplier) operators


def _apply_multiplier(field: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply each mode by a full-lattice symbol, on the half spectrum.

    The symbol must satisfy symbol(-m) = conj(symbol(m)), as real even and
    imaginary odd ones do, and be finite on the Nyquist modes. A diagonal
    multiplier cannot widen the support, so the field's bound carries over.
    """
    return _wrap_half(field.grid, _half(symbol) * field.half, field._kmax)


def fractional_laplacian(field: SpectralField, s: float) -> SpectralField:
    """Apply |k|^s per mode (the fractional Laplacian of order s/2)."""
    if s == 0:
        return field
    if s < 0 and not field.mean_zero:
        raise ValueError(
            "fractional_laplacian with s < 0 requires a mean-zero field "
            "(the symbol |k|^s is singular at k = 0)"
        )
    return _apply_multiplier(field, _homog_weight(field.grid, s))


def _guard_exponent(grid: GridSpec, alpha: float, lam: float) -> None:
    kabs = _kabs(grid)
    kmax = float(np.max(kabs[~_nyquist_mask(grid)]))
    worst = lam * kmax**alpha
    if worst > EXP_GUARD:
        raise OverflowGuardError(shell=kmax, exponent=worst, limit=EXP_GUARD)


def gevrey_operator(field: SpectralField, alpha: float, lam: float) -> SpectralField:
    """Multiply each mode by exp(lam |k|^alpha).

    Guarded against double overflow: lam * kmax^alpha must stay below
    EXP_GUARD, otherwise an OverflowGuardError names the offending shell.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if lam == 0:
        return field
    _guard_exponent(field.grid, alpha, lam)
    kabs = _kabs(field.grid)
    expo = np.where(_nyquist_mask(field.grid), -np.inf, lam * kabs**alpha)
    return _apply_multiplier(field, np.exp(expo))


@lru_cache(maxsize=None)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(64)
    return 0.5 * (x + 1.0), 0.5 * w   # mapped to [0, 1]


def _avg_weight(c: np.ndarray, alpha: float) -> np.ndarray:
    """integral_0^1 exp(c t^alpha) dt by 64-node Gauss-Legendre, vectorized in c.

    The substitution u = t^alpha turns the integrand into u^(1/alpha - 1) e^(cu);
    whichever parametrization has the milder endpoint power is the one the
    quadrature converges fastest on, so pick it per alpha.
    """
    tau, w = _gl_nodes()
    if 1.0 / alpha - 1.0 >= alpha:
        integrand = (1.0 / alpha) * tau ** (1.0 / alpha - 1.0) * np.exp(np.outer(c, tau))
    else:
        integrand = np.exp(np.outer(c, tau**alpha))
    return integrand @ w


def gevrey_avg_operator(field: SpectralField, alpha: float, lam: float) -> SpectralField:
    """Multiply each mode by the averaged weight integral_0^1 exp(lam t^alpha |k|^alpha) dt.

    The integral is evaluated by 64-node Gauss-Legendre quadrature once per
    distinct wavenumber shell. lam = 0 is the identity.
    """
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    if lam == 0:
        return field
    _guard_exponent(field.grid, alpha, lam)
    grid = field.grid
    kabs = _kabs(grid)
    nyq = _nyquist_mask(grid)
    shells, inv = np.unique(np.where(nyq, -1.0, kabs), return_inverse=True)
    vals = _avg_weight(lam * np.maximum(shells, 0.0) ** alpha, alpha)
    mult = vals[inv].reshape(grid.n, grid.n)
    mult[nyq] = 0.0
    return _apply_multiplier(field, mult)


def log_multiplier(field: SpectralField, mu: float) -> SpectralField:
    """Multiply each mode by (ln(1 + |k|^2))^mu; the mean mode is annihilated."""
    if not (mu > 0):
        raise ValueError(f"mu must be positive, got {mu}")
    return _apply_multiplier(field, _log_weight(field.grid, mu))


# ---------------------------------------------------------------------------
# constitutive operators


def perp_gradient(field: SpectralField) -> VectorField:
    """Rotated gradient (-d2 f, d1 f); divergence-free per mode exactly."""
    ik1, ik2 = _ik(field.grid)
    u1 = _wrap_half(field.grid, -(ik2 * field.half))
    u2 = _wrap_half(field.grid, ik1 * field.half)
    return VectorField(u1, u2)


def _structure_multiplier(grid: GridSpec, params: ModelParams) -> np.ndarray:
    """Scalar symbol linking the advected scalar to its streamfunction source,
    on the m2 >= 0 half lattice."""
    if params.velocity_law == "log":
        return _half(_log_weight(grid, params.mu))
    if params.beta == 2:
        return _half(np.ones_like(_kabs(grid)))
    return _half(_homog_weight(grid, params.beta - 2.0))


def velocity_from_scalar(theta: SpectralField, params: ModelParams) -> VectorField:
    """Velocity induced by the scalar under the model's constitutive law.

    Power law: u = -perp_grad(Lambda^(beta-2) theta), the perp gradient of
    the streamfunction solving Delta psi = Lambda^beta theta. Log law:
    u = -perp_grad((ln(I - Delta))^mu theta).
    """
    if params.velocity_law == "power" and params.beta < 2 and not theta.mean_zero:
        raise ValueError("velocity_from_scalar with beta < 2 requires a mean-zero scalar")
    grid = theta.grid
    ik1, ik2 = _ik(grid)
    source = _structure_multiplier(grid, params) * theta.half
    kmax = theta._kmax
    return VectorField(
        _wrap_half(grid, ik2 * source, kmax), _wrap_half(grid, -(ik1 * source), kmax)
    )


# ---------------------------------------------------------------------------
# exact nonlinear products


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, frozen in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _half(a: np.ndarray) -> np.ndarray:
    """The m2 >= 0 columns of a lattice array; an (n, 1) column stays whole."""
    return a[..., : a.shape[-1] // 2 + 1]


def _support(*halves: np.ndarray) -> int:
    """Largest |m_i| of a nonzero coefficient in the half spectra; 0 if none."""
    nz = np.logical_or.reduce([h != 0 for h in halves])
    rows = np.flatnonzero(nz.any(axis=1))
    m1 = np.minimum(rows, len(nz) - rows)           # |m1| of an fft-order row
    m2 = np.flatnonzero(nz.any(axis=0))             # a half's columns are m2 >= 0
    return int(max(m1.max(initial=0), m2.max(initial=0)))


def _product_size(n: int, k_a: int, k_b: int, k_out: int) -> int:
    """The module docstring's product grid size M."""
    return n if n > k_a + k_b + k_out else 3 * n // 2


def _support_bound(f: SpectralField) -> int:
    """f's support bound: the one it was built with, else its scan, cached."""
    if f._kmax is None:
        object.__setattr__(f, "_kmax", _support(f.half))
    return f._kmax


def _grid_size(n: int, a: tuple, b: tuple, k_out: int) -> int:
    """M for a product of factors supported within the fields a and b."""
    size = _product_size(n, max(map(_support_bound, a)), max(map(_support_bound, b)), k_out)
    if size == n:
        return n
    # a bound above the true support may overstate M: the exact scan decides
    return _product_size(
        n, _support(*(f.half for f in a)), _support(*(f.half for f in b)), k_out
    )


def _samples(coeffs: np.ndarray, size: int) -> np.ndarray:
    """Samples on the size x size grid of a Hermitian full or half spectrum,
    or of each spectrum in a stack of them, in one transform call."""
    n = coeffs.shape[-2]
    h = n // 2
    half = coeffs[..., : h + 1]
    if size != n:   # rows m1 < 0 go to the end of the size-grid layout
        half = np.zeros(coeffs.shape[:-2] + (size, size // 2 + 1), dtype=np.complex128)
        half[..., np.r_[:h, size - h : size], : h + 1] = coeffs[..., : h + 1]
    return scipy.fft.irfft2(half, s=(size, size), norm="forward")


def _lattice_half(phys: np.ndarray, n: int) -> np.ndarray:
    """Half spectrum, on the n-lattice, of samples on any product grid, or of
    each array in a stack of them, in one transform call."""
    half = scipy.fft.rfft2(phys, norm="forward")[..., : n // 2 + 1]
    if half.shape[-2] == n:
        return half
    return np.concatenate((half[..., : n // 2, :], half[..., -(n // 2) :, :]), axis=-2)


# Largest product grid M whose transforms go to scipy.fft as one stacked call
# per product site. A call costs a fixed dispatch, about a third of one
# transform at M = 64, but pocketfft runs a stack slower per transform on
# larger grids. Per inverse transform, 6 stacked against 6 single calls
# (median of 9 timeit runs, 2-CPU host, scipy 1.17.1): 39 against 59 us at
# M = 64, 166 against 125 us at M = 96, 283 against 183 us at M = 128 and
# 1200 against 774 us at M = 256. Stacked and single results agree bit for bit.
_STACK_MAX = 64


def _stacked(size: int) -> bool:
    return size <= _STACK_MAX


def _term_samples(terms, n: int, size: int):
    """Samples on the size grid of each term: an n-lattice half spectrum, or
    a pair (symbol, half) standing for their product.

    On a small grid the terms are written into one stack, the products
    straight into their slots, and transformed in one call. Otherwise each is
    transformed on its own as the caller takes it, so a caller that consumes
    the samples in turn holds no more of them at once than it needs.
    """
    if not _stacked(size):
        return (_samples(np.multiply(*t) if isinstance(t, tuple) else t, size) for t in terms)
    stack = np.empty((len(terms), n, n // 2 + 1), dtype=np.complex128)
    for dst, t in zip(stack, terms):
        if isinstance(t, tuple):
            np.multiply(*t, out=dst)
        else:
            dst[...] = t
    return _samples(stack, size)


def _dealiased(grid: GridSpec, half: np.ndarray) -> SpectralField:
    """Field from a half spectrum restricted to the dealias disc, mean zeroed."""
    half *= _half(_dealias_mask(grid))
    half[0, 0] = 0.0
    return _wrap_half(grid, _canonical_half(half))


def multiply_fields(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product fg, exact on the full retained lattice."""
    if f.grid != g.grid:
        raise ValueError("product requires a shared grid")
    n = f.grid.n
    size = _grid_size(n, (f,), (g,), n // 2 - 1)
    a, b = _term_samples((f.half, g.half), n, size)
    prod = _lattice_half(a * b, n)
    return _wrap_half(f.grid, _canonical_half(prod))


def advect(u: VectorField, theta: SpectralField) -> SpectralField:
    """Dealiased advection term u . grad(theta).

    Products are exact on the dealias disc, to which the result is then
    restricted. The output mean mode is zeroed: the advection of a scalar by
    a divergence-free field integrates to zero exactly. On the n-grid the
    velocity's cached `samples` are used.
    """
    grid = theta.grid
    if u.grid != grid:
        raise ValueError("advect requires u and theta on one grid")
    ik1, ik2 = _ik(grid)
    th = theta.half
    # grad theta lies inside theta's support
    size = _grid_size(grid.n, (u.u1, u.u2), (theta,), int(grid.dealias_radius))
    own = () if size == grid.n else (u.u1.half, u.u2.half)
    factors = iter(_term_samples((*own, (ik1, th), (ik2, th)), grid.n, size))
    p1, p2 = (next(factors), next(factors)) if own else u.samples
    acc = p1 * next(factors)
    acc += p2 * next(factors)
    return _dealiased(grid, _lattice_half(acc, grid.n))


def flux_divergence(
    q: SpectralField,
    theta: SpectralField,
    params: ModelParams,
    *,
    velocity: VectorField | None = None,
) -> SpectralField:
    """Divergence of the modified nonlinear flux built from q and theta.

    One-term branch: Div((perp_grad M q) theta) where M is the constitutive
    symbol (|k|^(beta-2) or its log analog). Two-term branch (active when
    params.two_term) adds M Div((perp_grad theta) q). For q = -theta both
    branches collapse to u . grad(theta).

    Both terms are evaluated in advective form, Div((perp_grad a) b) =
    perp_grad a . grad b, exact for alias-free products since perp_grad a is
    divergence free; they share the samples of grad theta. Transforms: 4
    inverse and 1 forward for one term, 6 and 2 for two, in one inverse and
    one forward call on a small product grid.

    velocity, if given, must be velocity_from_scalar(q, params). When the
    products are formed on the n-grid, its `samples` are taken from the
    samples of d1(M q) and d2(M q) made here, u = (d2(M q), -d1(M q)), so
    reading them costs no transform.
    """
    grid = theta.grid
    if q.grid != grid:
        raise ValueError("flux_divergence requires a shared grid")
    if velocity is not None and velocity.grid != grid:
        raise ValueError("flux_divergence requires the velocity on the shared grid")
    if not (q.mean_zero and theta.mean_zero):
        raise ValueError("flux_divergence requires mean-zero q and theta")
    n = grid.n
    mult = _structure_multiplier(grid, params)
    ik1, ik2 = _ik(grid)
    qh, th = q.half, theta.half
    mq = mult * qh
    terms = [(ik1, th), (ik2, th), (ik1, mq), (ik2, mq)]
    if params.two_term:
        terms += [(ik2, qh), (ik1, qh)]
    # every factor lies inside q's or theta's support
    size = _grid_size(n, (q,), (theta,), int(grid.dealias_radius))
    d1t, d2t, d1mq, d2mq, *dq = _term_samples(terms, n, size)
    if velocity is not None and size == n and "samples" not in vars(velocity):
        vars(velocity)["samples"] = _read_only(d2mq, -d1mq)   # the cached_property's slot
    phys = np.empty((2 if params.two_term else 1, size, size))
    # perp_grad(M q) . grad(theta) = d1(M q) d2(theta) - d2(M q) d1(theta)
    np.multiply(d1mq, d2t, out=phys[0])
    phys[0] -= d2mq * d1t
    if params.two_term:
        # perp_grad(theta) . grad(q)
        d2q, d1q = dq
        np.multiply(d1t, d2q, out=phys[1])
        phys[1] -= d2t * d1q
    halves = _lattice_half(phys, n) if _stacked(size) else [_lattice_half(p, n) for p in phys]
    out = halves[0] if len(halves) == 1 else halves[0] + mult * halves[1]
    return _dealiased(grid, out)
