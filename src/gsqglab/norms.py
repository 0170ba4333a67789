"""Sobolev, Besov, and Gevrey norms plus interpolation-inequality checks.

All norms follow the box Parseval convention ||f||_{L2}^2 = L^2 sum |f_hat|^2,
so every value here is an exact finite lattice sum, and the interpolation
checks report realized constants rather than asymptotic ones.

`_parseval` is the one Parseval sum of the package. It sums over the
m2 >= 0 half spectrum, or over the dealias box rows the solver carries,
with column weights 1, 2, ..., 2, 1: each column m2 > 0 stands for itself
and its mirror -m2, and a half's Nyquist column m2 = n/2 has none. It sums
row by row and then column by column, in order, so zero rows and trailing
zero columns leave the total as it is: the sum over a field's half and over
its box rows agree bit for bit. `_l2` takes it of weight |c|^2;
`sobolev_norm` and every L2 or Sobolev number the solver prints
(diagnostics rows, Picard distances, scaling and decay reports) go through
it, so each printed value is `sobolev_norm`'s bit for bit, and no full
array is mirrored for one. The Besov norm and the Bernstein check keep BLAS
sums over the full array (`np.linalg.norm`), and `inner_product` its
`np.vdot`: both round differently, and switching them would change printed
digits. The one norm that scales an initial profile to its amplitude
(`harness._profile_norm`) keeps a plain sum over the mirrored full lattice,
so initial states, and the checkpoints made from them, do not depend on
`_parseval`'s order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import decompose
from .spectral import (
    SpectralField,
    _half,
    _homog_weight,
    _kabs,
    _wavevectors,
    gevrey_operator,
)

REL_SLACK = 1e-12   # float slack for sharp-constant assertions


@dataclass(frozen=True)
class InequalityReport:
    """Realized two sides of one inequality check."""

    name: str
    lhs: float
    bound: float
    params: tuple

    @property
    def ratio(self) -> float:
        if self.bound == 0.0:
            return math.inf if self.lhs > 0 else 0.0
        return self.lhs / self.bound

    @property
    def holds(self) -> bool:
        return self.lhs <= self.bound * (1.0 + REL_SLACK)


def _parseval(terms: np.ndarray) -> float:
    """The sum over the full lattice of a real per-mode quantity that is even
    under m -> -m, given on a half spectrum (n rows) or box rows (odd)."""
    cols = terms.sum(axis=0)   # row by row: a zero row adds exactly nothing
    # a half's last column, its Nyquist column m2 = n/2, is its own mirror
    cols[1 : len(cols) - (len(terms) % 2 == 0)] *= 2.0
    return float(np.cumsum(cols)[-1])   # in column order, unlike np.sum


def _l2(coeffs: np.ndarray, period: float, weight: np.ndarray | None = None) -> float:
    """period * sqrt(sum weight |c|^2) over the full lattice, the Parseval
    sum of a half spectrum or box rows; weight comes in their rows, and no
    weight means 1."""
    sq = coeffs.real**2 + coeffs.imag**2
    return period * math.sqrt(_parseval(sq if weight is None else weight * sq))


def sobolev_norm(field: SpectralField, s: float, homogeneous: bool = True) -> float:
    """Sobolev norm of order s; weight |k|^s (homogeneous) or (1+|k|^2)^(s/2)."""
    if homogeneous and not field.mean_zero:
        raise ValueError("homogeneous Sobolev norm requires a mean-zero field")
    kabs = _half(_kabs(field.grid))
    weight = _half(_homog_weight(field.grid, 2.0 * s)) if homogeneous else (1.0 + kabs * kabs) ** s
    return _l2(field.half, field.grid.period, weight)


def besov_norm(field: SpectralField, s: float) -> float:
    """l2-summed dyadic block norms, (sum_j (2^(js) ||block_j||)^2)^(1/2)."""
    if not field.mean_zero:
        raise ValueError("Besov norm requires a mean-zero field")
    blocks = decompose(field)
    total = 0.0
    for j, b in blocks.items():
        block_l2 = field.grid.period * float(np.linalg.norm(b.coeffs))
        total += (2.0 ** (j * s) * block_l2) ** 2
    return math.sqrt(total)


def gevrey_norm(field: SpectralField, alpha: float, lam: float, s: float) -> float:
    """Sobolev norm of order s after the Gevrey weight exp(lam |k|^alpha)."""
    return sobolev_norm(gevrey_operator(field, alpha, lam), s, homogeneous=True)


def _weighted_gevrey(field, t, alpha, eps, sigma_c, delta, gamma, kappa) -> float:
    """The term snapshot (t, field) contributes to xt_norm."""
    lam = eps * gamma ** (alpha / kappa) * t ** (alpha / kappa)
    return (gamma * t) ** (delta / kappa) * gevrey_norm(field, alpha, lam, sigma_c + delta)


def xt_norm(
    snapshots,
    alpha: float,
    eps: float,
    sigma_c: float,
    delta: float,
    gamma: float,
    kappa: float,
) -> float:
    """Supremum over positive-time snapshots of the weighted Gevrey norm.

    Each snapshot (t, field) with t > 0 contributes `_weighted_gevrey`:
    (gamma t)^(delta/kappa) * ||field|| in the Gevrey class of order alpha,
    radius eps * gamma^(alpha/kappa) * t^(alpha/kappa), and regularity
    sigma_c + delta. t = 0 snapshots carry a zero prefactor by convention
    and are skipped.
    """
    best = None
    for t, field in snapshots:
        if t <= 0.0:
            continue
        val = _weighted_gevrey(field, t, alpha, eps, sigma_c, delta, gamma, kappa)
        best = val if best is None else max(best, val)
    if best is None:
        raise ValueError("trajectory has no positive-time snapshots")
    return best


def check_interpolation(field: SpectralField, s: float, s1: float, s2: float) -> InequalityReport:
    """Sharp-constant frequency interpolation between Sobolev orders s1 <= s <= s2.

    On the lattice the bound holds with constant exactly 1: the check reports
    ||f||_s against ||f||_{s1}^a ||f||_{s2}^b with the conjugate exponents.
    """
    if not (s1 <= s <= s2):
        raise ValueError(f"need s1 <= s <= s2, got {s1}, {s}, {s2}")
    if not field.mean_zero:
        raise ValueError("interpolation check requires a mean-zero field")
    lhs = sobolev_norm(field, s)
    if lhs == 0.0 and sobolev_norm(field, s1) == 0.0:
        raise ValueError("interpolation ratio undefined for the zero field")
    if s1 == s2:
        bound = sobolev_norm(field, s1)
    else:
        a = (s2 - s) / (s2 - s1)
        b = (s - s1) / (s2 - s1)
        bound = sobolev_norm(field, s1) ** a * sobolev_norm(field, s2) ** b
    return InequalityReport(
        name="sobolev_interpolation",
        lhs=lhs,
        bound=bound,
        params=(("s", s), ("s1", s1), ("s2", s2)),
    )


def check_gevrey_interpolation(
    field: SpectralField,
    alpha: float,
    lam: float,
    rho: float,
    s1: float,
    s2: float,
) -> InequalityReport:
    """Two-radius Gevrey interpolation with explicit constants.

    Verifies ||G(lam) f||_{s1}^2 against
    e ||G((1-rho) lam) f||_{s1}^2 + (2 rho lam)^(2(s2-s1)/alpha) ||G(lam) f||_{s2}^2.
    """
    if not (s1 <= s2):
        raise ValueError(f"need s1 <= s2, got {s1}, {s2}")
    if not (0 < rho <= 1):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    boosted = gevrey_operator(field, alpha, lam)
    lhs = sobolev_norm(boosted, s1) ** 2
    low = gevrey_norm(field, alpha, (1.0 - rho) * lam, s1) ** 2
    high = sobolev_norm(boosted, s2) ** 2
    bound = math.e * low + (2.0 * rho * lam) ** (2.0 * (s2 - s1) / alpha) * high
    return InequalityReport(
        name="gevrey_interpolation",
        lhs=lhs,
        bound=bound,
        params=(("alpha", alpha), ("lam", lam), ("rho", rho), ("s1", s1), ("s2", s2)),
    )


def derivative_bound_check(
    field: SpectralField,
    alpha: float,
    lam: float,
    multi_index: tuple,
    sigma: float = 0.0,
) -> InequalityReport:
    """Derivative growth against the Gevrey norm with factorial constants.

    Verifies ||d^b f||_{Ḣ^sigma} <= (b! / (lam alpha)^|b|)^(1/alpha)
    ||f||_{Gevrey(alpha, lam), sigma} for one multi-index b = (b1, b2).
    """
    b1, b2 = multi_index
    if b1 < 0 or b2 < 0:
        raise ValueError("multi-index entries must be nonnegative integers")
    if lam <= 0:
        raise ValueError("derivative bound needs a positive Gevrey radius")
    grid = field.grid
    k1, k2 = map(np.abs, _wavevectors(grid))
    deriv = (k1**b1) * (k2**b2) * np.abs(field.coeffs)
    w = _homog_weight(grid, 2.0 * sigma)
    lhs = grid.period * math.sqrt(float(np.sum(w * deriv**2)))
    order = b1 + b2
    factor = (math.factorial(b1) * math.factorial(b2) / (lam * alpha) ** order) ** (1.0 / alpha)
    bound = factor * gevrey_norm(field, alpha, lam, sigma)
    return InequalityReport(
        name="gevrey_derivative_bound",
        lhs=lhs,
        bound=bound,
        params=(("alpha", alpha), ("lam", lam), ("b", (b1, b2)), ("sigma", sigma)),
    )
