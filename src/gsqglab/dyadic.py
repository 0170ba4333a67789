"""Dyadic frequency decomposition: smooth shell partition and block operators.

The radial cutoff rho equals 1 on [0, 1/2], 0 on [1, infinity), and descends
by a quintic smoothstep in log2 radius in between. chi_j(xi) = rho(|xi|/2^j)
and phi_j = chi_(j+1) - chi_j then give shell profiles supported on the open
annuli (2^(j-1), 2^(j+1)), with the telescoping property

    chi_jmin + sum_(j=jmin..jmax) phi_j = chi_(jmax+1) = 1   on |xi| <= 2^jmax.

Outside its annulus each phi_j is a difference of two identical branch values
(both 0 or both 1), so block supports are exact, not just small.

Only this module evaluates the profiles on the lattice, as cached tables
(`_phi_lattice`, `_chi_lattice`, `_fat_diagonal`) that zero the Nyquist row
and column, as every field does; `inequalities` multiplies by them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import GridSpec, SpectralField, _apply_multiplier, _homog_weight, _kabs, _nyquist_mask


def _smoothstep(u: np.ndarray) -> np.ndarray:
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class Partition:
    """Smooth dyadic partition of unity resolved on one grid.

    chi and phi accept any integer j (they are pure profile evaluations);
    j_min..j_max is the range that carries lattice energy and that the
    block operators accept.
    """

    grid: GridSpec
    j_min: int
    j_max: int

    @staticmethod
    def rho(r):
        r = np.asarray(r, dtype=np.float64)
        u = np.log2(np.maximum(2.0 * r, 0.5))   # clamp keeps log2 finite at r = 0
        ramp = 1.0 - _smoothstep(np.clip(u, 0.0, 1.0))
        return np.where(r >= 1.0, 0.0, np.where(r <= 0.5, 1.0, ramp))

    def chi(self, j: int, r):
        return self.rho(np.asarray(r, dtype=np.float64) / 2.0**j)

    def phi(self, j: int, r):
        return self.chi(j + 1, r) - self.chi(j, r)

    @property
    def block_range(self) -> range:
        return range(self.j_min, self.j_max + 1)


@lru_cache(maxsize=None)
def build_partition(grid: GridSpec) -> Partition:
    """Partition whose blocks cover the resolved wavenumbers [2 pi/L, k_max]."""
    k_min = grid.k_fundamental
    kabs = _kabs(grid)
    k_max = float(np.max(kabs[~_nyquist_mask(grid)]))
    j_min = math.floor(math.log2(k_min))
    j_max = math.ceil(math.log2(k_max))
    return Partition(grid=grid, j_min=j_min, j_max=j_max)


@lru_cache(maxsize=None)
def _phi_lattice(grid: GridSpec, j: int) -> np.ndarray:
    part = build_partition(grid)
    mult = part.phi(j, _kabs(grid))
    mult[_nyquist_mask(grid)] = 0.0
    mult.flags.writeable = False
    return mult


@lru_cache(maxsize=None)
def _chi_lattice(grid: GridSpec, j: int) -> np.ndarray:
    part = build_partition(grid)
    mult = part.chi(j, _kabs(grid))
    mult[_nyquist_mask(grid)] = 0.0
    mult[0, 0] = 1.0   # rho(0) = 1; keep the mean mode in every low pass
    mult.flags.writeable = False
    return mult


@lru_cache(maxsize=None)
def _fat_diagonal(grid: GridSpec, k: int) -> np.ndarray:
    """Read-only sum of the lattice blocks k-3..k+3: the fattened diagonal."""
    fat = sum(_phi_lattice(grid, i) for i in range(k - 3, k + 4))
    fat.flags.writeable = False
    return fat


def _lattice_bound(grid: GridSpec, j: int) -> int:
    """A support bound of chi_j's lattice table: the largest |m_i| of a mode
    with |k| < 2^j, where chi_j can be nonzero, at most n/2 - 1. It bounds
    phi_(j-1) = chi_j - chi_(j-1) and the fattened diagonal of block j - 4
    too. A mode's |k| = kf sqrt(m1^2 + m2^2) is at least kf max|m_i| in
    floating point as in exact arithmetic, so kf b < 2^j holds for every
    |m_i| = b of the table's nonzero modes."""
    b = np.arange(grid.n // 2)
    return int(np.count_nonzero(grid.k_fundamental * b < 2.0**j)) - 1


def dyadic_block(field: SpectralField, j: int) -> SpectralField:
    """Shell projection: coefficients multiplied by phi_j(|k|)."""
    part = build_partition(field.grid)
    if not (part.j_min <= j <= part.j_max):
        raise ValueError(
            f"block index {j} outside partition range [{part.j_min}, {part.j_max}]"
        )
    return _apply_multiplier(field, _phi_lattice(field.grid, j))


def low_pass(field: SpectralField, j: int) -> SpectralField:
    """Low-pass projection: coefficients multiplied by chi_j(|k|)."""
    part = build_partition(field.grid)
    if not (part.j_min <= j <= part.j_max + 1):
        raise ValueError(
            f"low-pass index {j} outside range [{part.j_min}, {part.j_max + 1}]"
        )
    return _apply_multiplier(field, _chi_lattice(field.grid, j))


def _l2(coeffs: np.ndarray, period: float) -> float:
    return period * float(np.linalg.norm(coeffs))


@dataclass(frozen=True)
class DyadicBlocks:
    """Full decomposition of one field: low pass plus per-shell blocks."""

    partition: Partition
    low: SpectralField
    blocks: tuple
    residual: float

    def items(self):
        return zip(self.partition.block_range, self.blocks)


def decompose(field: SpectralField) -> DyadicBlocks:
    """Split a field into S_(jmin) f plus the dyadic blocks over the lattice."""
    part = build_partition(field.grid)
    low = low_pass(field, part.j_min)
    blocks = tuple(dyadic_block(field, j) for j in part.block_range)
    recon = low.coeffs.copy()
    for b in blocks:
        recon += b.coeffs
    residual = _l2(field.coeffs - recon, field.grid.period)
    return DyadicBlocks(partition=part, low=low, blocks=blocks, residual=residual)


@dataclass(frozen=True)
class BernsteinReport:
    """Realized two-sided shell bound for one block and one exponent."""

    j: int
    sigma: float
    ratio: float
    lower: float
    upper: float

    @property
    def within(self) -> bool:
        return self.lower <= self.ratio <= self.upper


def bernstein_check(field: SpectralField, j: int, sigma: float) -> BernsteinReport:
    """Ratio ||Lambda^sigma block|| / (2^(sigma j) ||block||) with its bracket.

    Support in the annulus (2^(j-1), 2^(j+1)) forces the ratio into
    [2^(-|sigma|), 2^(|sigma|)]. A zero block has no ratio and is an error.
    """
    block = dyadic_block(field, j)
    period = field.grid.period
    base = _l2(block.coeffs, period)
    if base == 0.0:
        raise ValueError(f"block {j} is identically zero, Bernstein ratio undefined")
    if sigma == 0:
        ratio = 1.0
    else:
        num = _l2(_homog_weight(field.grid, sigma) * block.coeffs, period)
        ratio = num / (2.0 ** (sigma * j) * base)
    b = 2.0 ** abs(sigma)
    return BernsteinReport(j=j, sigma=sigma, ratio=ratio, lower=1.0 / b, upper=b)
