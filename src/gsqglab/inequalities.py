"""Exact trilinear forms, commutator brackets, and constant surveys.

Everything here evaluates frequency sums exactly on the lattice: trilinear
forms as alias-free sums of physical samples on the spectral product grid,
commutators by operator composition with exact products. Bounds are never
assumed; each check reports the realized ratio so ensembles can probe
whether constants stay resolution independent. Blocks, low passes and the
fattened diagonal are `dyadic`'s cached lattice tables, and every Sobolev
seminorm is `norms._hs`: no profile or seminorm is computed here.

Every trilinear form goes through a sampler (`_Sampler`), which keeps one
product plan and the samples of each factor on each product grid M it has
met, so a factor shared by several forms is transformed once per M. The
battery's split (`_split_forms`: the full form and Bony's three sums at
several sigma) samples f, g and each sigma's H once, and each block's five
pieces once for all sigma; the trilinear survey samples f and g once per
member. A piece's samples do not depend on what is stacked with it or on a
column width at or above its support, so every form keeps the bytes of
sampling its three factors alone.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .dyadic import _chi_lattice, _fat_diagonal, _phi_lattice, build_partition, dyadic_block
from .norms import _hs
from .spectral import (
    GridSpec,
    SpectralField,
    _apply_multiplier,
    _half,
    _homog_weight,
    _kabs,
    _log_weight,
    _modes,
    _Plan,
    _product_size,
    _support,
    _term_samples,
    _wavevectors,
    _wrap_half,
    gevrey_avg_operator,
    gevrey_operator,
    inner_product,
    multiply_fields,
)

FORM_IDS = (
    "trilinear",
    "block_commutator",
    "singular_commutator",
    "gevrey_commutator",
    "log_commutator",
)


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic family of decaying random fields for constant surveys."""

    grid: GridSpec
    decay: float
    count: int
    seed: int = 0

    def __post_init__(self):
        if not self.decay > 1.0:
            raise ValueError(f"spectral decay must exceed 1 for summable tails, got {self.decay}")
        if self.count < 1:
            raise ValueError("ensemble needs at least one member")


@dataclass(frozen=True)
class TrilinearReport:
    """One evaluated bracket with every right-hand factor spelled out."""

    form: str
    value: complex
    bound_terms: tuple
    ratio: float
    j: int | None = None
    c_weight: float | None = None
    n: int | None = None

    def __post_init__(self):
        if any(t < 0 for t in self.bound_terms):
            raise ValueError("bound terms must be nonnegative")
        if sum(self.bound_terms) > 0 and not math.isfinite(self.ratio):
            raise ValueError("ratio must be finite when the bound is positive")


@dataclass(frozen=True)
class ConstantSurvey:
    """Ensemble statistics for one inequality's realized constant."""

    form: str
    params: tuple
    n: int
    samples: int
    max_ratio: float
    median_ratio: float
    block_weights: tuple
    weight_l2: float
    refinement: tuple | None = None


# ------------------------------------------------------------- ensembles

_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    # 64-bit avalanche mix; wraparound is intentional
    z = z + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _hash_uniform(seed: int, index: int, m1: np.ndarray, m2: np.ndarray, salt: int) -> np.ndarray:
    """Per-mode uniform in [0, 1), keyed only on integers (grid-size free).

    The seed enters as its residue mod 2^64, which is the bit pattern the
    int64 view gave every seed in [-2^63, 2^63)."""
    with np.errstate(over="ignore"):
        h = _mix64(np.asarray(int(seed) % 2**64, dtype=_U64))
        h = _mix64(h ^ _U64(index))
        h = _mix64(h ^ _U64(salt))
        h = _mix64(h ^ m1.astype(np.int64).view(_U64))
        h = _mix64(h ^ m2.astype(np.int64).view(_U64))
    return (h >> _U64(11)) * 2.0**-53


def random_test_field(spec: EnsembleSpec, index: int) -> SpectralField:
    """Member `index` of the ensemble: |coeff| ~ |k|^(-decay) with hashed phases.

    Draws are keyed on the integer mode, not the array position, so a coarse
    grid is the exact truncation of any finer one with the same seed. Only
    the m2 >= 0 half lattice is drawn: a mode m with m1 < 0 = m2 takes the
    draws of -m and the conjugate phase, so column m2 = 0 is exactly
    Hermitian by construction.
    """
    grid = spec.grid
    n = grid.n
    m1, m2 = np.broadcast_arrays(*map(_half, _modes(grid)))
    canon = (m1 > 0) | ((m1 == 0) & (m2 > 0))
    cm1 = np.where(canon, m1, -m1)
    cm2 = np.where(canon, m2, -m2)
    u_mod = _hash_uniform(spec.seed, index, cm1, cm2, 1)
    u_arg = _hash_uniform(spec.seed, index, cm1, cm2, 2)
    amp = _half(_homog_weight(grid, -spec.decay)) * (0.5 + 0.5 * u_mod)
    sign = np.where(canon, 1.0, -1.0)
    half = amp * np.exp(2j * np.pi * u_arg * sign)
    half[0, 0] = 0.0
    half[n // 2, :] = 0.0
    half[:, n // 2] = 0.0
    return _wrap_half(grid, half)


# ------------------------------------------------------------- trilinear forms


def _shared_grid(*fields: SpectralField) -> GridSpec:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields live on different grids")
    return grid


def _ghs(f: SpectralField, alpha: float, lam: float, s: float) -> float:
    return _hs(gevrey_operator(f, alpha, lam), s)


def _weighted_third(h: SpectralField, sigma: float) -> np.ndarray:
    """H = |k|^sigma h as a half spectrum; sigma = 0 weighs every mode 1,
    the mean included."""
    if sigma < 0 and not h.mean_zero:
        raise ValueError("negative output weight needs a mean-zero third slot")
    return h.half if sigma == 0.0 else _half(_homog_weight(h.grid, sigma)) * h.half


class _Sampler:
    """The samples of trilinear-form factors on one grid (module docstring).

    A piece is a half spectrum held under a name, with its support. A form
    of three named pieces reads each piece's samples on the form's product
    grid M, made the first time that piece meets that M: the pieces not yet
    held at M are sampled in one stacked call and copied out of the
    workspace, which the next call overwrites. Putting a piece under a name
    forgets the samples of the piece it replaces.
    """

    def __init__(self, grid: GridSpec):
        self.grid, self._plan, self._pieces = grid, _Plan(grid), {}

    def put(self, name, half: np.ndarray) -> None:
        """Hold the half spectrum half as piece name."""
        self._pieces[name] = half, _support(half), {}

    def _sample(self, names, size: int) -> None:
        """Sample the pieces names, none yet held at M = size, in one call."""
        pieces = [self._pieces[x] for x in names]
        k = max(support for _, support, _ in pieces)
        s = _term_samples(self._plan, [half for half, _, _ in pieces], size, k)
        for (_, _, held), row in zip(pieces, s):
            held[size] = row.copy()

    def form(self, a, b, c) -> complex:
        """trilinear_form of the pieces a, b and c, c being the weighted third."""
        size = _product_size(self.grid.n, *(self._pieces[x][1] for x in (a, b, c)))
        new = [x for x in dict.fromkeys((a, b, c)) if size not in self._pieces[x][2]]
        if new:
            self._sample(new, size)
        fs, gs, hs = (self._pieces[x][2][size] for x in (a, b, c))
        out = np.multiply(fs, gs)
        out *= hs
        return complex(self.grid.period**2 / size**2 * np.sum(out))


def trilinear_form(f: SpectralField, g: SpectralField, h: SpectralField, sigma: float) -> complex:
    """Exact double sum of |k|^sigma (f*g)(k) conj(h_hat(k)) over the lattice.

    f, g and H = |k|^sigma h are sampled on the spectral product grid M, with
    H's support as the kept band: the aliases of fg then miss every mode of H,
    so by Parseval the form is period^2 / M^2 times the sum of f g H over the
    M x M samples, exactly and without a forward transform. The three are
    sampled through a fresh sampler, in one stacked transform call.
    """
    sampler = _Sampler(_shared_grid(f, g, h))
    sampler.put("f", f.half)
    sampler.put("g", g.half)
    sampler.put("h", _weighted_third(h, sigma))
    return sampler.form("f", "g", "h")


def _split_forms(f: SpectralField, g: SpectralField, h: SpectralField, sigmas) -> list:
    """(trilinear_form, *bony_split) of f, g, h at each sigma, through one
    sampler: f, g and each sigma's H are sampled once per product grid, and
    each block's pieces once per grid for every sigma. The blocks run in
    the outer loop, so the sampler holds one block's five pieces at a time,
    and each sigma's sums add the blocks in bony_split's order."""
    grid = _shared_grid(f, g, h)
    sampler = _Sampler(grid)
    sampler.put("f", f.half)
    sampler.put("g", g.half)
    for i, sigma in enumerate(sigmas):
        sampler.put(i, _weighted_third(h, sigma))
    sums = [[sampler.form("f", "g", i), 0j, 0j, 0j] for i in range(len(sigmas))]
    for k in build_partition(grid).block_range:
        chi = _half(_chi_lattice(grid, k - 3))
        phi = _half(_phi_lattice(grid, k))
        sampler.put("chi f", chi * f.half)
        sampler.put("phi f", phi * f.half)
        sampler.put("phi g", phi * g.half)
        sampler.put("chi g", chi * g.half)
        sampler.put("fat g", _half(_fat_diagonal(grid, k)) * g.half)
        for i, row in enumerate(sums):
            row[1] += sampler.form("chi f", "phi g", i)
            row[2] += sampler.form("phi f", "chi g", i)
            row[3] += sampler.form("phi f", "fat g", i)
    return [tuple(row) for row in sums]


def bony_split(
    f: SpectralField,
    g: SpectralField,
    h: SpectralField,
    sigma: float,
) -> tuple:
    """Paraproduct split of trilinear_form into low-high, high-low, diagonal.

    The three sums partition the (k - l, l) weight over dyadic blocks, with
    the low-pass cut three octaves below each block and a +-3 fattened
    diagonal. Their total equals trilinear_form exactly whenever any input
    is mean-zero (only the all-mean pair falls outside the split). It is
    _split_forms at the one sigma: every factor is sampled once per product
    grid, H once for all blocks.
    """
    return _split_forms(f, g, h, (sigma,))[0][1:]


# ------------------------------------------------------------- commutators


def _bracket(op, f: SpectralField, g: SpectralField) -> SpectralField:
    """[op, g] f = op(g f) - g op(f), with exact products."""
    applied_product = op(multiply_fields(g, f))
    product_applied = multiply_fields(g, op(f))
    return _wrap_half(f.grid, applied_product.half - product_applied.half)


def commutator_block(f: SpectralField, g: SpectralField, j: int) -> SpectralField:
    """Bracket of the j-th dyadic projection with multiplication by g."""
    phi = _phi_lattice(_shared_grid(f, g), j)
    return _bracket(lambda x: _apply_multiplier(x, phi), f, g)


def commutator_singular(f: SpectralField, g: SpectralField, ell: int, beta: float) -> SpectralField:
    """Bracket of the order beta-1 directional operator with multiplication by g."""
    if not (1.0 < beta < 2.0):
        raise ValueError(f"structure exponent must lie in (1, 2), got {beta}")
    if ell not in (1, 2):
        raise ValueError("direction index must be 1 or 2")
    grid = _shared_grid(f, g)
    mult = 1j * _wavevectors(grid)[ell - 1] * _homog_weight(grid, beta - 2.0)
    return _bracket(lambda x: _apply_multiplier(x, mult), f, g)


def _require_annulus_support(h: SpectralField, j: int):
    kabs = _kabs(h.grid)
    lo, hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
    outside = (h.coeffs != 0) & ((kabs < lo) | (kabs > hi))
    if np.any(outside):
        raise ValueError(f"third slot must be supported on the annulus [2^{j-1}, 2^{j+1}]")


def commutator_gevrey(
    f: SpectralField,
    g: SpectralField,
    h: SpectralField,
    alpha: float,
    lam: float,
    sigma: float,
    rho: float,
    j: int,
    nu: float,
    zeta: float,
    deriv: str = "d1",
) -> TrilinearReport:
    """Gevrey-weighted block commutator against its two-term bound.

    Pairs [G Lambda^(sigma+rho) D Block_j, g]f with an annulus-supported h and
    reports the ratio against 2^(nu j) min{two norm orderings} ||h||_rho plus
    the radius-proportional term built from the averaged Gevrey smoothing of
    the low-pass of g. c_weight is the weight the first term alone would need.
    """
    grid = _shared_grid(f, g, h)
    if not (0.0 <= sigma < 1.0):
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    if not (0.0 <= zeta < 1.0):
        raise ValueError(f"zeta must lie in [0, 1), got {zeta}")
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if deriv not in ("d1", "d2", "lambda"):
        raise ValueError("deriv must be 'd1', 'd2', or 'lambda'")
    _require_annulus_support(h, j)

    if deriv == "lambda":
        d = _kabs(grid).astype(complex)
    else:
        d = 1j * _wavevectors(grid)[0 if deriv == "d1" else 1]
    phi = _phi_lattice(grid, j)
    base = phi * _homog_weight(grid, sigma + rho) * d

    def op(x: SpectralField) -> SpectralField:
        return gevrey_operator(_apply_multiplier(x, base), alpha, lam)

    value = inner_product(_bracket(op, f, g), h)

    h_rho = _hs(h, rho)
    pair = min(
        _ghs(f, alpha, lam, 1.0 - nu) * _ghs(g, alpha, lam, sigma + 1.0),
        _ghs(g, alpha, lam, 2.0 - nu) * _ghs(f, alpha, lam, sigma),
    )
    term1 = 2.0 ** (nu * j) * pair * h_rho

    low_g = _apply_multiplier(g, _chi_lattice(grid, j - 3))
    smoothed = gevrey_avg_operator(low_g, alpha, lam)
    block_f = gevrey_operator(_apply_multiplier(f, phi), alpha, lam)
    term2 = (
        lam
        * 2.0 ** ((sigma + 1.0 + alpha - zeta) * j)
        * _hs(smoothed, 1.0 + zeta)
        * _hs(block_f, 0.0)
        * h_rho
    )

    bound = term1 + term2
    return TrilinearReport(
        form="gevrey_commutator",
        value=complex(value),
        bound_terms=(term1, term2),
        ratio=abs(value) / bound if bound > 0 else math.inf,
        j=j,
        c_weight=abs(value) / term1 if term1 > 0 else None,
        n=grid.n,
    )


def commutator_log(
    f: SpectralField,
    g: SpectralField,
    h: SpectralField,
    mu: float,
    eps: float,
    de: float,
    rho: float,
    ell: int = 1,
) -> TrilinearReport:
    """Logarithmic-multiplier commutator against its interpolated bound."""
    grid = _shared_grid(f, g, h)
    if mu <= 0 or rho <= 0:
        raise ValueError("mu and rho must be positive")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not (0.0 < de < 2.0 * mu):
        raise ValueError(f"de must lie in (0, 2 mu), got {de}")
    if ell not in (1, 2):
        raise ValueError("direction index must be 1 or 2")

    mult = _log_weight(grid, mu) * 1j * _wavevectors(grid)[ell - 1]
    value = inner_product(_bracket(lambda x: _apply_multiplier(x, mult), f, g), h)

    g_factor = _hs(g, 2.0 - eps + rho) ** (1.0 / (1.0 + rho)) * _hs(g, 1.0 - eps) ** (
        rho / (1.0 + rho)
    )
    cross = _hs(f, eps + de) * _hs(h, 0.0) + _hs(f, 0.0) * _hs(h, eps + de)
    bound = g_factor * cross
    return TrilinearReport(
        form="log_commutator",
        value=complex(value),
        bound_terms=(bound,),
        ratio=abs(value) / bound if bound > 0 else math.inf,
        n=grid.n,
    )


# ------------------------------------------------------------- surveys


def _block_ratios(h_src: SpectralField, c: float, pair: float, lhs):
    """(max ratio, {j: ratio}) of lhs(j, h) / (2^(c j) pair ||h||) over the
    blocks h of h_src, skipping the blocks where that denominator is zero."""
    best, weights = 0.0, {}
    for j in build_partition(h_src.grid).block_range:
        h = dyadic_block(h_src, j)
        denom = 2.0 ** (c * j) * pair * _hs(h, 0.0)
        if denom == 0.0:
            continue
        ratio = lhs(j, h) / denom
        weights[j] = ratio
        best = max(best, ratio)
    return best, weights


def _member_ratios(form: str, params: dict, spec: EnsembleSpec, index: int):
    """Realized ratios for one ensemble member: (best ratio, {j: weight})."""
    f = random_test_field(spec, 3 * index)
    g = random_test_field(spec, 3 * index + 1)
    h_src = random_test_field(spec, 3 * index + 2)

    if form == "trilinear":
        sigma, eps = params["sigma"], params["eps"]
        if not (-1.0 < sigma < 1.0 and 0.0 < eps < 2.0 and sigma > eps - 1.0):
            raise ValueError("trilinear survey needs sigma in (-1,1), eps in (0,2), sigma > eps-1")
        pair = min(
            _hs(f, 1.0 - eps) * _hs(g, sigma),
            _hs(g, 1.0 - eps) * _hs(f, sigma),
        )
        sampler = _Sampler(spec.grid)   # f and g sampled once per product grid
        sampler.put("f", f.half)
        sampler.put("g", g.half)

        def lhs(j, h):
            sampler.put("h", _weighted_third(h, sigma))
            return abs(sampler.form("f", "g", "h"))

        return _block_ratios(h_src, eps, pair, lhs)

    if form == "block_commutator":
        rho1, rho2 = params["rho1"], params["rho2"]
        if not (0.0 < rho1 < 2.0 and -1.0 < rho2 < 1.0 and rho2 > rho1 - 1.0):
            raise ValueError("block survey needs rho1 in (0,2), rho2 in (-1,1), rho2 > rho1-1")
        pair = min(
            _hs(f, 1.0 - rho1) * _hs(g, 1.0 + rho2),
            _hs(f, rho2) * _hs(g, 2.0 - rho1),
        )
        return _block_ratios(h_src, rho1 - rho2 - 1.0, pair,
                             lambda j, h: abs(inner_product(commutator_block(f, g, j), h)))

    if form == "singular_commutator":
        beta, rho1, rho2 = params["beta"], params["rho1"], params["rho2"]
        if not (0.0 < rho1 < 2.0 and -1.0 < rho2 < 1.0 and rho2 > rho1 - 1.0):
            raise ValueError("singular survey needs rho1 in (0,2), rho2 in (-1,1), rho2 > rho1-1")
        out = commutator_singular(f, g, params.get("ell", 1), beta)
        denom = _hs(g, beta - rho1) * _hs(f, rho2)
        ratio = _hs(out, rho2 - rho1) / denom
        return ratio, {}

    if form == "gevrey_commutator":
        best, weights = 0.0, {}
        for j in build_partition(spec.grid).block_range:
            h = dyadic_block(h_src, j)
            if not np.any(h.coeffs):
                continue
            rep = commutator_gevrey(
                f, g, h,
                params["alpha"], params["lam"], params["sigma"], params["rho"],
                j, params["nu"], params["zeta"], params.get("deriv", "d1"),
            )
            if rep.c_weight is not None:
                weights[j] = rep.c_weight
            best = max(best, rep.ratio)
        return best, weights

    if form == "log_commutator":
        rep = commutator_log(
            f, g, h_src,
            params["mu"], params["eps"], params["de"], params["rho"],
            params.get("ell", 1),
        )
        return rep.ratio, {}

    raise ValueError(f"unknown form id {form!r}; expected one of {FORM_IDS}")


def estimate_best_constant(
    form: str,
    params: dict,
    ensemble: EnsembleSpec,
    refine: bool = False,
) -> ConstantSurvey:
    """Survey the realized constant of one inequality over an ensemble.

    Results are reduced in member index order. With refine=True the same
    draws are re-evaluated on the doubled grid and both maxima reported.
    """
    if form not in FORM_IDS:
        raise ValueError(f"unknown form id {form!r}; expected one of {FORM_IDS}")

    def run(spec: EnsembleSpec):
        results = [_member_ratios(form, params, spec, i) for i in range(spec.count)]
        ratios = [r for r, _ in results if r > 0.0]
        if not ratios:
            raise ValueError("every ensemble member degenerated to zero ratio")
        merged: dict = {}
        for _, weights in results:
            for j, w in weights.items():
                merged[j] = max(merged.get(j, 0.0), w)
        return ratios, merged

    ratios, merged = run(ensemble)
    refinement = None
    if refine:
        fine_grid = GridSpec(
            2 * ensemble.grid.n,
            period=ensemble.grid.period,
            dealias_fraction=ensemble.grid.dealias_fraction,
        )
        fine = EnsembleSpec(fine_grid, ensemble.decay, ensemble.count, ensemble.seed)
        fine_ratios, _ = run(fine)
        refinement = (max(ratios), max(fine_ratios))

    weights = tuple(sorted(merged.items()))
    return ConstantSurvey(
        form=form,
        params=tuple(sorted(params.items())),
        n=ensemble.grid.n,
        samples=len(ratios),
        max_ratio=max(ratios),
        median_ratio=statistics.median(ratios),
        block_weights=weights,
        weight_l2=math.sqrt(sum(w * w for _, w in weights)),
        refinement=refinement,
    )
