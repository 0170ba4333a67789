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
spectrum. Every L2 and Sobolev norm is a Parseval sum over the half
(norms._parseval); the other norms, the inequality checks and the
verification battery read `coeffs`.
The private constructor `_wrap_half` takes ownership of the half it is given
and freezes it in place instead of copying it.

The dealias box is the part of the half lattice with |m1| <= K and
m2 <= K, K = min(floor(dealias_radius), n/2 - 1) (`_box_bound`): it holds
the dealias disc and never the zero Nyquist row or column. Box rows are a
(2K + 1) x (K + 1) array of it in fft row order, m1 = 0, ..., K, -K, ...,
-1 (`_box`, `_unbox`). The product engine's products take box rows: the
solver's stepping core carries its state, stage values and slopes as
dealias-box rows, 44 % of the half at fraction 2/3, and a public product
boxes each field's half at K = n/2 - 1 (`_box_field`), dropping only the
zero Nyquist row and column. Its sampler, `_term_samples`, also takes half
spectra: `inequalities` samples its trilinear forms' factors from their
halves, with no forward transform, each factor once per product grid in
one plan per form, split or survey member (`inequalities._Sampler`).
Every forward transform returns box rows (`_lattice_half`), which the
public operators write into a half.

Products are formed by real FFTs on an M x M grid, M = n if n > K_a + K_b +
K_out else 3n/2, with K_a, K_b the factors' largest nonzero |m_i| and K_out the
largest |m_i| kept: every kept mode gets its exact, alias-free convolution sum
(Orszag's 2/3 rule, J. Atmos. Sci. 1971). Solver state at fraction 2/3 has M = n.
K_a and K_b come from a factor's support bound, its box rows' K. A bound
is used only when it already gives M = n; otherwise the exact scan of the
factors decides, so M is always the one their exact supports give. A public
product's bound, n/2 - 1, never gives M = n: it scans its factors.

The solver's Courant number reads a velocity's peak speed on the n-grid
(`_peak_speed`). The stepping core's product, `_flux_rows`, given a list,
appends the peak speed of q's velocity, read from its own samples of
d1(M q) and d2(M q), which its products read and do not write, so no
velocity field need be built for it. The modified flux is evaluated in
advective form (`flux_divergence`), every call of it by the plan's kernel
of its layout (`_Plan.flux`, `_flux_kernel`). Transforms per call:
`advect` 4 inverse and 1 forward, `flux_divergence` 4 and 1, or 6 and 2
with the second term, which is not formed for q = theta, `multiply_fields`
2 and 1, `to_physical` 1 inverse, `_peak_speed` 1 inverse per component.

A product site works in a plan (`_Plan`) that each run and each public
product call makes and drops when it returns, after FFTW's plans (Frigo &
Johnson, Proc. IEEE 93(2), 2005): it builds the tables the site reads from
the box's own modes and keeps the workspace per stack shape (terms, M), a
complex column buffer of all M/2 + 1 columns and the real samples array, so
no module cache holds either. Every product site makes all its transforms in
one stacked inverse call (`_samples`) and one stacked forward call
(`_lattice_half`), on every grid. A 2-D transform is the two
one-axis pocketfft passes that irfft2 and rfft2 make, called as numpy.fft's
ufuncs through one helper (`_pass`) without numpy.fft's argument handling,
so its output is bit for bit that of scipy.fft's 2-D transform.
- Inverse. The terms, derivative products included, are written straight
  into the buffer's rows in the grid's fft order, the rows between them
  zeroed, and only their columns m2 <= K, K the support bound that sized
  the product grid. The first pass runs in place over those columns: the
  pass of a zero column is zero. The real pass reads all M/2 + 1 bins, the
  columns beyond K being zero: numpy's real pass is about 1.4x slower on the
  kept bins alone, which it pads itself (0.20 against 0.15 ms at M = 256,
  1.50 against 1.12 ms at M = 512; one thread, 2-CPU host, numpy 2.4.6).
- Products. A site forms its physical products in the workspace samples it
  no longer reads, without a temporary per product. The flux, the one
  site a run steps with, keeps its views of the workspace in a kernel the
  plan builds once per layout (m factors, grid M, bound K, box rows): its
  factors are written into the samples' memory, which the inverse
  transform reads only after they are spent, and its four two-term
  products are three ufunc calls on stacked slices, [a, c] [d, f] -
  [b, d] [c, e] (`_flux_slots`), with [b, d] [c, e] written into the
  spent buffer's slots of the forward transform. Real products commute exactly
  and each difference keeps its order, so the samples are those of the
  products formed one by one. The speed's squares are formed in the
  samples of d1(M q) and d2(M q), which the forward transform does not
  read.
- Forward. The real pass writes into the spent buffer, scaled by 1/M^2
  through pocketfft's own factor, and the columns beyond K are zeroed
  again for the next inverse (`_product_box`). The second pass runs only
  over the columns m2 <= K_out, the largest m2 the site keeps (0.09
  against 0.13 ms at n = 256, fraction 2/3), and the call returns the box
  rows of those columns alone, gathered by one concatenate: the modes
  beyond them, which the dealias mask would zero, are not formed. The
  mask and the two terms' M-weighted sum are then applied to the box
  rows, each as one contiguous ufunc call; applied to the two row blocks
  of the transform's output instead, in place of the gather, they took
  longer (11 against 8 us at n = 64, 28 against 25 us at n = 256; 2-CPU
  host, numpy 2.4.6), the strided blocks costing more than the copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

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


def _power(kabs: np.ndarray, s: float) -> np.ndarray:
    """|k|^s of the |k| table kabs, the mean mode weighted zero."""
    with np.errstate(divide="ignore"):
        return np.where(kabs > 0, kabs**s, 0.0)


@lru_cache(maxsize=128)
def _homog_weight(grid: GridSpec, s: float) -> np.ndarray:
    """Read-only |k|^s per mode with the mean mode weighted zero."""
    w = _power(_kabs(grid), s)
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
    afresh on every read (see the module docstring).
    """

    __slots__ = ("grid", "half")

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
        return _wrap_half(self.grid, -self.half)


def _store(f: SpectralField, grid: GridSpec, half: np.ndarray) -> SpectralField:
    half.flags.writeable = False
    object.__setattr__(f, "grid", grid)
    object.__setattr__(f, "half", half)
    return f


def _wrap_half(grid: GridSpec, half: np.ndarray) -> SpectralField:
    """Fast constructor from an m2 >= 0 half spectrum (n x (n/2 + 1)).

    The caller guarantees three invariants, none of which is checked:
    - the array is owned: nothing else holds or writes it, because it is
      frozen in place and kept, not copied;
    - the Nyquist row m1 = -n/2 and column m2 = n/2 are zero;
    - column m2 = 0 is exactly Hermitian, half[-m1, 0] == conj(half[m1, 0]).
    Under them `coeffs` mirrors to the field's exact Hermitian array.
    """
    return _store(object.__new__(SpectralField), grid, half)


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
    """Evaluate the field at the n x n physical sample points.

    Public, though no scenario calls it: the tests read physical samples
    through it (their peak-speed oracle among them). Oracle:
    test_to_physical_matches_complex_inverse_transform.
    """
    box = _box_field(field)
    return _term_samples(_Plan(field.grid), (box,), field.grid.n, _support_bound(box))[0]


def _canonical(box: np.ndarray) -> np.ndarray:
    """Make column m2 = 0 of box rows exactly Hermitian, in place: it pairs
    with itself, so this averages out the fft roundoff asymmetry."""
    col = box[:, 0]
    box[:, 0] = 0.5 * (col + np.conj(col[_flip_index(len(box))]))
    return box


def _full_from_half(half: np.ndarray, n: int) -> np.ndarray:
    """Mirror a canonical half spectrum to its full Hermitian array."""
    full = np.empty((n, n), dtype=np.complex128)
    full[:, : n // 2 + 1] = half
    np.conjugate(half[_flip_index(n), n // 2 - 1 : 0 : -1], out=full[:, n // 2 + 1 :])
    return full


# ---------------------------------------------------------------------------
# the dealias box


def _box_bound(grid: GridSpec) -> int:
    """K of the dealias box, the modes |m1| <= K, 0 <= m2 <= K of the half
    lattice: min(floor(dealias_radius), n/2 - 1). The box holds the dealias
    disc, and at fraction 1 stops short of the zero Nyquist row and column,
    which it would otherwise hold twice."""
    return min(int(grid.dealias_radius), grid.n // 2 - 1)


def _box(a: np.ndarray, k: int) -> np.ndarray:
    """The modes |m1| <= k, 0 <= m2 <= k of a lattice array in fft row order
    (full, half, box rows, or a broadcast (rows, 1) shape), as a new array
    of box rows: m1 = 0, ..., k, -k, ..., -1."""
    cols = a[..., : k + 1]
    rows = a.shape[-2]
    return np.concatenate((cols[..., : k + 1, :], cols[..., rows - k :, :]), axis=-2)


def _unbox(box: np.ndarray, n: int) -> np.ndarray:
    """The n x (n/2 + 1) half spectrum of box rows, zero outside them."""
    half = np.zeros(box.shape[:-2] + (n, n // 2 + 1), dtype=np.complex128)
    for src, dst in _row_slices(box.shape[-2], n):
        half[..., dst, : box.shape[-1]] = box[..., src, :]
    return half


def _box_field(f: SpectralField) -> np.ndarray:
    """A field's half as box rows of bound n/2 - 1, less its zero Nyquist row and column."""
    return _box(f.half, f.grid.n // 2 - 1)


def _from_box(grid: GridSpec, box: np.ndarray) -> SpectralField:
    """The field of canonical box rows."""
    return _wrap_half(grid, _unbox(box, grid.n))


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
    return _from_box(grid, _canonical(_lattice_half(samples, grid.n)))


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
    """L2 inner product over the box, period^2 sum f_hat conj(g_hat).

    Public, though no scenario calls it: the commutator checks pair their
    brackets with h through it. Oracle:
    test_trilinear_sigma_zero_is_plancherel_pairing.
    """
    if f.grid != g.grid:
        raise ValueError("inner product requires a shared grid")
    return float(np.real(np.vdot(g.coeffs, f.coeffs))) * f.grid.period**2


# ---------------------------------------------------------------------------
# diagonal (Fourier multiplier) operators


def _apply_multiplier(field: SpectralField, symbol: np.ndarray) -> SpectralField:
    """Multiply each mode by a full-lattice symbol, on the half spectrum.

    The symbol must satisfy symbol(-m) = conj(symbol(m)), as real even and
    imaginary odd ones do, and be finite on the Nyquist modes.
    """
    return _wrap_half(field.grid, _half(symbol) * field.half)


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


def _structure_multiplier(kabs: np.ndarray, params: ModelParams) -> np.ndarray:
    """Scalar symbol linking the advected scalar to its streamfunction
    source, of the |k| table kabs."""
    if params.velocity_law == "log":
        return np.log1p(kabs * kabs) ** params.mu
    if params.beta == 2:
        return np.ones_like(kabs)
    return _power(kabs, params.beta - 2.0)


def _decay_rate(kabs: np.ndarray, gamma: float, kappa: float, eps_visc: float) -> np.ndarray:
    """gamma |k|^kappa + eps |k|^2 of the |k| table kabs, the dissipative flow's rate."""
    return gamma * kabs**kappa + eps_visc * kabs * kabs


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
    source = _structure_multiplier(_half(_kabs(grid)), params) * theta.half
    return VectorField(_wrap_half(grid, ik2 * source), _wrap_half(grid, -(ik1 * source)))


def _velocity_rows(plan: "_Plan", c: np.ndarray) -> tuple:
    """velocity_from_scalar's components (u1, u2) of the scalar whose box
    rows are c, unchecked, in c's rows."""
    ik1, ik2 = plan.ik(len(c) // 2)
    source = plan.mult(len(c) // 2) * c
    return ik2 * source, -(ik1 * source)


# ---------------------------------------------------------------------------
# the product plan


class _Plan:
    """The product plan of one run or public product call (module docstring):
    tables on box rows of a bound k, the dealias box's by default, each built
    on first use from the box's modes by its lattice table's formula, so bit
    for bit that table's box rows; and the transform workspace."""

    def __init__(self, grid: GridSpec, params: ModelParams | None = None):
        self.grid, self.params, self.k = grid, params, _box_bound(grid)
        self._tables, self._work, self._fluxes = {}, {}, {}

    def _table(self, name, k: int | None, make) -> np.ndarray:
        """make(m1, m2), read-only, of the modes of box rows of bound k."""
        key = (name, self.k if k is None else k)
        if key not in self._tables:
            k = key[1]
            m1 = (np.arange(2 * k + 1) + k) % (2 * k + 1) - k
            table = self._tables[key] = make(m1[:, None], np.arange(k + 1)[None, :])
            table.flags.writeable = False
        return self._tables[key]

    def kabs(self, k: int | None = None) -> np.ndarray:
        """|k|, by _kabs's formula."""
        s = self.grid.k_fundamental
        return self._table("kabs", k, lambda m1, m2: s * np.sqrt((m1 * m1 + m2 * m2).astype(float)))

    def weight(self, s: float) -> np.ndarray:
        """|k|^s, the mean mode weighted zero."""
        return self._table(("weight", s), None, lambda *_: _power(self.kabs(), s))

    def mult(self, k: int | None = None) -> np.ndarray:
        """The structure multiplier."""
        return self._table("mult", k, lambda *_: _structure_multiplier(self.kabs(k), self.params))

    def rate(self) -> np.ndarray:
        """The decay rate gamma |k|^kappa + eps |k|^2."""
        p = self.params
        rate = (p.gamma, p.kappa, p.eps_visc)
        return self._table("rate", None, lambda *_: _decay_rate(self.kabs(), *rate))

    def mask(self, k: int | None = None) -> np.ndarray:
        """The dealias disc as complex ones and zeros (a boolean is cast per multiply)."""
        r2 = self.grid.dealias_radius**2
        return self._table("mask", k, lambda m1, m2: (m1 * m1 + m2 * m2 <= r2).astype(complex))

    def ik(self, k: int | None = None) -> np.ndarray:
        """The derivative symbols (i k1, i k2) as one stack."""
        s = self.grid.k_fundamental

        def make(*m):
            return np.stack(np.broadcast_arrays(*(1j * (s * x.astype(float)) for x in m)))

        return self._table("ik", k, make)

    def workspace(self, lead: tuple, size: int, width: int) -> tuple:
        """For a stack of shape lead on the size grid, column pass over width
        columns: a complex buffer of all size/2 + 1 columns, zero from column
        width on, and the real samples; kept, since fresh pages cost more."""
        work = self._work.get((lead, size))
        if work is None:
            buf = np.zeros(lead + (size, size // 2 + 1), dtype=np.complex128)
            work = self._work[lead, size] = [buf, np.empty(lead + (size, size)), width]
        buf, samples, clean = work   # the buffer is zero from column clean on
        if clean > width:
            buf[..., width:clean] = 0.0
        work[2] = width
        return buf, samples

    def flux(self, m: int, size: int, k: int, rows: int):
        """The flux kernel (_flux_kernel) of one layout: m factors, grid
        size, support bound k and box rows of rows rows; built on first use."""
        key = (m, size, k, rows)
        if key not in self._fluxes:
            self._fluxes[key] = _flux_kernel(self, m, size, k, rows)
        return self._fluxes[key]


# ---------------------------------------------------------------------------
# exact nonlinear products


def _speed(u1: np.ndarray, u2: np.ndarray, out=None) -> float:
    """Peak speed of a velocity from its samples (u1, u2): one sqrt of the
    largest u1^2 + u2^2, which is the largest |u| since sqrt is monotone
    and correctly rounded. A non-finite sample gives a non-finite speed.
    The squares are formed in out, a pair of arrays of the samples' shape
    (u1 and u2 themselves may be its members), or else in fresh arrays."""
    sq = np.multiply(u1, u1, out=None if out is None else out[0])
    sq += np.multiply(u2, u2, out=None if out is None else out[1])
    return float(np.sqrt(sq.max()))


def _peak_speed(plan: _Plan, u: tuple) -> float:
    """_speed of the n-grid samples of velocity components u = (u1, u2),
    box rows of one bound, its squares formed in the workspace samples."""
    s = _term_samples(plan, u, plan.grid.n, _support_bound(u[0]))
    return _speed(s[0], s[1], out=s)


def _half(a: np.ndarray) -> np.ndarray:
    """The m2 >= 0 columns of a lattice array; an (n, 1) column stays whole."""
    return a[..., : a.shape[-1] // 2 + 1]


def _support(*halves: np.ndarray) -> int:
    """Largest |m_i| of a nonzero coefficient in half spectra or box rows; 0 if none."""
    nz = np.logical_or.reduce([h != 0 for h in halves])
    rows = np.flatnonzero(nz.any(axis=1))
    m1 = np.minimum(rows, len(nz) - rows)           # |m1| of an fft-order row
    m2 = np.flatnonzero(nz.any(axis=0))             # a half's columns are m2 >= 0
    return int(max(m1.max(initial=0), m2.max(initial=0)))


def _product_size(n: int, k_a: int, k_b: int, k_out: int) -> int:
    """The module docstring's product grid size M."""
    return n if n > k_a + k_b + k_out else 3 * n // 2


def _support_bound(box: np.ndarray) -> int:
    """The support bound of box rows: their K."""
    return len(box) // 2


def _grid_size(n: int, a: tuple, b: tuple, k_out: int) -> tuple[int, int]:
    """M for a product of factors supported within the box rows a and b,
    and the bound on their supports that gave it."""
    k_a, k_b = max(map(_support_bound, a)), max(map(_support_bound, b))
    size = _product_size(n, k_a, k_b, k_out)
    if size != n:
        # a bound above the true support may overstate M: the exact scan decides
        k_a, k_b = _support(*a), _support(*b)
        size = _product_size(n, k_a, k_b, k_out)
    return size, max(k_a, k_b)


def _pass(ufunc, a: np.ndarray, axis: int, out: np.ndarray, fct: float = 1) -> np.ndarray:
    """One pocketfft pass of a or of each array in a stack along axis, into
    out: the ufunc call (ifft, irfft, rfft_n_even or fft) and the scale fct
    that numpy.fft's one-axis functions make, without their argument
    handling. irfft's transform length is out's along axis, the others'
    is a's; rfft_n_even needs it even."""
    return ufunc(a, fct, axes=[(axis,), (), (axis,)], out=out)


def _row_slices(rows: int, size: int) -> tuple:
    """(source, destination) row slices that place the rows of an array of
    rows rows in fft row order, a half spectrum or box rows, in the fft row
    order of length size: first its rows m1 >= 0, then its rows m1 < 0."""
    p = (rows + 1) // 2
    return (slice(None, p), slice(None, p)), (slice(p, None), slice(size - (rows - p), None))


def _clear_between(dst: np.ndarray, rows: int) -> None:
    """Zero the rows of dst, in the fft row order of its length, between
    the places _row_slices gives the rows of an array of rows rows."""
    p = (rows + 1) // 2
    dst[..., p : dst.shape[-2] - (rows - p), :] = 0.0


def _samples(buf: np.ndarray, samples: np.ndarray, k: int) -> np.ndarray:
    """Samples, into the workspace samples, of each Hermitian spectrum in
    the stack buf, the workspace column buffer as _term_samples fills it.

    The two one-axis passes irfft2 makes: a complex pass along m1, then a
    real pass along m2. k bounds |m2| of every nonzero coefficient, so the
    first pass runs in place over the columns m2 <= k only, since the pass
    of a zero column is zero. The real pass reads every column, zero beyond
    the kept ones: numpy's real pass runs faster on full bins than on kept
    ones it pads itself. The samples are bit for bit those of the unpruned
    transform.
    """
    cols = buf[..., : k + 1]
    _pass(_pfu.ifft, cols, -2, cols)
    return _pass(_pfu.irfft, buf, -1, samples)


def _lattice_half(phys: np.ndarray, n: int, k_out: int | None = None, out=None) -> np.ndarray:
    """Box rows, on the n-lattice, of samples on any even product grid, or
    of each array in a stack of them: the modes |m1|, m2 <= K, with
    K = k_out, the largest |m_i| the caller keeps, or n/2 - 1 if it is None
    or larger, so the zero Nyquist row and column are never formed.

    The two one-axis passes that scipy.fft's rfft2(norm="forward") makes:
    a real pass along x2, scaled by 1 / size^2 through pocketfft's own
    factor, into out (a complex array of size/2 + 1 columns) if it is
    given, then a complex pass along x1 over the kept columns only, in
    place. Every kept mode is bit for bit that of the unpruned transform.
    """
    size = phys.shape[-1]
    k = n // 2 - 1 if k_out is None else min(k_out, n // 2 - 1)
    if out is None:
        out = np.empty(phys.shape[:-1] + (size // 2 + 1,), dtype=np.complex128)
    kept = _pass(_pfu.rfft_n_even, phys, -1, out, 1.0 / (size * size))[..., : k + 1]
    return _box(_pass(_pfu.fft, kept, -2, kept), k)


def _product_box(plan: _Plan, samples: np.ndarray, slots, k_out: int, width: int) -> np.ndarray:
    """_lattice_half of the product samples samples[slots], samples being
    the plan's workspace samples whose column pass runs over width columns,
    written into the spent column buffer. The real pass writes every column
    there, so the columns from width on are zeroed again for the next
    inverse transform, which reads them."""
    buf = plan.workspace(samples.shape[:-2], samples.shape[-1], width)[0]
    box = _lattice_half(samples[slots], plan.grid.n, k_out, out=buf[slots])
    buf[slots, :, width:] = 0.0
    return box


def _term_samples(plan: _Plan, terms, size: int, k: int) -> np.ndarray:
    """Samples on the size grid of each term, as the plan's (terms, size,
    size) workspace samples, from one stacked inverse transform call. A term
    is box rows or a half spectrum, all with as many rows, or a pair (symbols,
    factors), a stack of symbols on the columns m2 <= k (plan.ik) and a
    stack of such arrays, standing for the product of every symbol with
    every factor, symbol by symbol: (plan.ik()[..., : k + 1], np.stack([a,
    b])) gives d1 a, d1 b, d2 a, d2 b. k bounds the support of every term,
    and only the columns m2 <= k of a term are read or formed.
    Each term is written straight into its rows of the workspace's column
    buffer, a pair's products by one broadcast multiply per block of rows.
    """
    width = k + 1
    rows = (terms[0][1] if isinstance(terms[0], tuple) else terms[0]).shape[-2]
    depth = sum(len(t[0]) * len(t[1]) if isinstance(t, tuple) else 1 for t in terms)
    buf, samples = plan.workspace((depth,), size, width)
    _clear_between(buf[..., :width], rows)
    places = _row_slices(rows, size)
    j = 0
    for t in terms:
        if isinstance(t, tuple):
            sym, factors = t
            d = len(sym) * len(factors)
            block = buf[j : j + d].reshape(len(sym), len(factors), size, -1)
            for src, dst in places:
                np.multiply(sym[:, None, src], factors[:, src, :width], out=block[:, :, dst, :width])
            j += d
        else:
            for src, dst in places:
                buf[j, dst, :width] = t[src, :width]
            j += 1
    return _samples(buf, samples, k)


def _dealiased(plan: _Plan, box: np.ndarray) -> np.ndarray:
    """Box rows restricted, in place, to the dealias disc, mean zeroed."""
    box *= plan.mask(len(box) // 2)
    box[0, 0] = 0.0
    return _canonical(box)


def multiply_fields(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product fg, exact on the full retained lattice.

    Public, though no scenario calls it: the commutator brackets are built
    of it. Oracle: test_product_matches_direct_convolution.
    """
    if f.grid != g.grid:
        raise ValueError("product requires a shared grid")
    n = f.grid.n
    k_out = n // 2 - 1
    a, b = _box_field(f), _box_field(g)
    size, k = _grid_size(n, (a,), (b,), k_out)
    plan = _Plan(f.grid)
    s = _term_samples(plan, (a, b), size, k)
    np.multiply(s[0], s[1], out=s[0])
    return _from_box(f.grid, _canonical(_product_box(plan, s, 0, k_out, k + 1)))


def advect(u: VectorField, theta: SpectralField) -> SpectralField:
    """Dealiased advection term u . grad(theta).

    Products are exact on the dealias disc, to which the result is then
    restricted. The output mean mode is zeroed: the advection of a scalar by
    a divergence-free field integrates to zero exactly.
    """
    grid = theta.grid
    if u.grid != grid:
        raise ValueError("advect requires u and theta on one grid")
    # grad theta lies inside theta's support
    k_out = int(grid.dealias_radius)
    u1, u2, th = _box_field(u.u1), _box_field(u.u2), _box_field(theta)
    size, k = _grid_size(grid.n, (u1, u2), (th,), k_out)
    plan = _Plan(grid)
    terms = (u1, u2, (plan.ik(len(th) // 2)[..., : k + 1], th[None]))
    s = _term_samples(plan, terms, size, k)
    # u1 d1(theta) + u2 d2(theta), in the samples of grad theta
    np.multiply(s[0], s[2], out=s[2])
    np.multiply(s[1], s[3], out=s[3])
    s[2] += s[3]
    return _from_box(grid, _dealiased(plan, _product_box(plan, s, 2, k_out, k + 1)))


def flux_divergence(q: SpectralField, theta: SpectralField, params: ModelParams) -> SpectralField:
    """Divergence of the modified nonlinear flux built from q and theta.

    One-term branch: Div((perp_grad M q) theta) where M is the constitutive
    symbol (|k|^(beta-2) or its log analog). Two-term branch (active when
    params.two_term) adds M Div((perp_grad theta) q). For q = theta both
    branches give the full equation's tendency -u . grad(theta), u the
    velocity of theta, and the second term is formed only when q is not
    theta: its samples d1(theta) d2(theta) - d2(theta) d1(theta) are then
    exactly zero.

    Both terms are evaluated in advective form, Div((perp_grad a) b) =
    perp_grad a . grad b, exact for alias-free products since perp_grad a is
    divergence free; they share the samples of grad theta. Transforms: 4
    inverse and 1 forward for one term, 6 and 2 for two, in one inverse and
    one forward call.

    Public, though no scenario calls it: the field form of the flux the
    stepping core runs on box rows (_flux_rows), which the tests compare
    with it. Oracle: test_flux_divergence_oracle_across_dealias_fractions.
    """
    grid = theta.grid
    if q.grid != grid:
        raise ValueError("flux_divergence requires a shared grid")
    if not (q.mean_zero and theta.mean_zero):
        raise ValueError("flux_divergence requires mean-zero q and theta")
    th = _box_field(theta)
    qb = th if q is theta else _box_field(q)
    return _from_box(grid, _flux_rows(_Plan(grid, params), qb, th))


def _flux_rows(plan: _Plan, q: np.ndarray, theta: np.ndarray, speed=None) -> np.ndarray:
    """flux_divergence under the plan's params of the box rows q and theta,
    unchecked, as dealias-box rows, by the plan's kernel of their layout.
    q and theta are rows of one bound: the stepping core's are the dealias
    box's, a public product's n/2 - 1.

    speed, if given, is a list. When the products are formed on the n-grid,
    the peak speed (_speed) of velocity_from_scalar(q, params) is appended
    to it: u = (d2(M q), -d1(M q)), read from the samples made here at no
    transform; (-x)(-x) = x x, so the sign of u2 is not formed. Otherwise
    it stays as it is.
    """
    # every factor lies inside q's or theta's support
    size, k = _grid_size(plan.grid.n, (q,), (theta,), int(plan.grid.dealias_radius))
    m = 3 if plan.params.two_term and q is not theta else 2
    return plan.flux(m, size, k, len(theta))(plan, q, theta, speed)


def _flux_slots(m: int) -> tuple:
    """The slots of the flux's stacked products, for m factors. The samples
    hold d1 of each factor, then d2 of each: a, c[, e], b, d[, f], with a, b
    from M q, c, d from theta and e, f from q. The products are
    [a, c] [d, f] - [b, d] [c, e], that is a d - b c, the first term,
    perp_grad(M q) . grad(theta), and c f - d e, the second,
    perp_grad(theta) . grad(q); one term keeps the first of each. Returns
    the slices of [a, c], [d, f], [b, d] and [c, e]."""
    t = m - 1
    return slice(0, t), slice(m + 1, m + 1 + t), slice(m, m + t), slice(1, 1 + t)


def _flux_kernel(plan: _Plan, m: int, size: int, k: int, rows: int):
    """The flux of box rows q and theta of one layout (_Plan.flux), as a
    function (plan, q, theta, speed) -> dealias-box rows, on fixed views
    into the plan's workspace for 2m transforms on the size grid; it is
    handed the plan at each call, so the plan that keeps it is not part of a
    reference cycle and goes when its run drops it:
    - the factors M q, theta[, q] are written into the samples' memory,
      which the inverse transform writes only after reading them, and
      scattered with their derivative symbols into the column buffer;
    - the products are three ufunc calls on slices of the samples
      (_flux_slots), [b, d] [c, e] written into the spent buffer's slots
      of the forward transform, which overwrites them, and the difference
      into the slots it reads; each product keeps its operands' values and
      each difference its order, so every sample is that of the products
      formed one by one;
    - the speed's squares are formed in the samples of d1(M q) and
      d2(M q), which the forward transform does not read.
    Every transform goes through _samples and _lattice_half.
    """
    n, w, kb, t = plan.grid.n, k + 1, rows // 2, m - 1
    lead, k_out = (2 * m,), int(plan.grid.dealias_radius)
    buf, samples = plan.workspace(lead, size, w)
    factors = samples.reshape(-1).view(np.complex128)[: m * rows * w].reshape(m, rows, w)
    mq = plan.mult(kb)[:, :w]
    ik = plan.ik(kb)[..., :w]
    block = buf.reshape(2, m, size, -1)
    scatter = [
        (ik[:, None, src], factors[:, src], block[:, :, dst, :w])
        for src, dst in _row_slices(rows, size)
    ]
    cols = buf[..., :w]
    y1, y2, x1, x2 = (samples[sl] for sl in _flux_slots(m))
    x = buf[m + 1 :].reshape(-1).view(np.float64)[: t * size * size].reshape(t, size, size)
    speed_of = (samples[m], samples[0]) if size == n else None
    mult, forward = plan.mult(), slice(m + 1, None)

    def flux(plan: _Plan, q: np.ndarray, theta: np.ndarray, speed) -> np.ndarray:
        plan.workspace(lead, size, w)
        np.multiply(mq, q[:, :w], out=factors[0])
        factors[1] = theta[:, :w]
        if t == 2:
            factors[2] = q[:, :w]
        _clear_between(cols, rows)
        for sym, src, dst in scatter:
            np.multiply(sym, src, out=dst)
        _samples(buf, samples, k)
        np.multiply(x1, x2, out=x)
        np.multiply(y1, y2, out=y2)
        np.subtract(y2, x, out=y2)
        if speed is not None and speed_of is not None:
            speed.append(_speed(*speed_of, out=speed_of))
        boxes = _product_box(plan, samples, forward, k_out, w)
        out = boxes[0]
        if t == 2:
            out = np.multiply(mult, boxes[1])
            np.add(boxes[0], out, out=out)
        return _dealiased(plan, out)

    return flux
