"""Mutants of the dealias-box fast paths, each paired with the oracle that
must catch it (mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).

Each row of MUTANTS names a module attribute, a broken stand-in for it, and
an oracle: a check that passes on the real code and must fail, by an
AssertionError, once the stand-in is patched in. A mutant whose oracle
still passes has survived, and the oracle is too weak.
"""

import math

import numpy as np
import pytest
import scipy.fft

from gsqglab import (
    GridSpec,
    ModelParams,
    SpectralField,
    advect,
    norms,
    spectral,
    velocity_from_scalar,
)
from gsqglab.harness import _direct_advect
from util import random_field

FRACTIONS = [2.0 / 3.0, 0.9, 1.0]


def _disc_field(grid, seed):
    keep = spectral._dealias_mask(grid)
    return SpectralField(grid, random_field(grid, seed=seed, decay=1.0).coeffs * keep)


# --- the mutants --------------------------------------------------------------


def _parseval_column_zero_doubled(terms):
    cols = terms.sum(axis=0)
    cols[: len(cols) - (len(terms) % 2 == 0)] *= 2.0
    return float(np.cumsum(cols)[-1])


def _put_rows_dirty_middle(dst, src):
    p = (src.shape[-2] + 1) // 2
    tail = dst.shape[-2] - (src.shape[-2] - p)
    dst[..., :p, :] = src[..., :p, :]
    dst[..., tail:, :] = src[..., p:, :]


def _box_without_row_minus_k(a, k, _box=spectral._box):
    out = _box(a, k)
    if out.shape[-2] > 1:
        out[..., k + 1, :] = 0.0
    return out


def _lattice_half_gather_off_by_one(phys, n, k_out=None):
    size = phys.shape[-1]
    k = n // 2 - 1 if k_out is None else min(k_out, n // 2 - 1)
    spec = np.fft.rfftn(phys, s=(size,), axes=(-1,))
    kept = spec[..., : k + 1]
    kept.view(np.float64)[...] *= 1.0 / (size * size)
    np.fft.fftn(kept, s=(size,), axes=(-2,), out=kept)
    return np.concatenate((kept[..., : k + 1, :], kept[..., size - k - 1 : size - 1, :]), axis=-2)


# --- the oracles ----------------------------------------------------------------


def parseval_oracle():
    """_l2 of a half spectrum against the full mirror's sum, every fraction."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        f = random_field(g, seed=91, decay=0.5)
        want = g.period * math.sqrt(float(np.sum(np.abs(f.coeffs) ** 2)))
        assert abs(norms._l2(f.half, g.period) - want) <= 1e-14 * want


def n_grid_samples_oracle():
    """Samples on the n-grid of box rows, call after call, against scipy's
    irfft2 of the zero-padded spectrum."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        k = spectral._box_bound(g)
        for seed in (92, 93):
            box = spectral._box(_disc_field(g, seed).half, k)
            want = scipy.fft.irfft2(spectral._unbox(box, g.n), s=(g.n, g.n), norm="forward")
            assert spectral._samples(box, g.n, k).tobytes() == want.tobytes()


def box_round_trip_oracle():
    """A disc field's half spectrum -> box rows -> half is exact."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        f = _disc_field(g, seed=94)
        back = spectral._unbox(spectral._box(f.half, spectral._box_bound(g)), g.n)
        assert np.array_equal(back, f.half)


def advect_oracle():
    """advect against the direct O(N^4) convolution of the verify battery."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        theta = _disc_field(g, seed=95)
        u = velocity_from_scalar(_disc_field(g, seed=96), ModelParams(beta=1.5, kappa=0.5))
        ref = _direct_advect(u, theta)
        assert np.max(np.abs(advect(u, theta).coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))


MUTANTS = {
    "parseval column 0 weighted 2": (
        norms, "_parseval", _parseval_column_zero_doubled, parseval_oracle,
    ),
    "scatter leaves the middle rows dirty": (
        spectral, "_put_rows", _put_rows_dirty_middle, n_grid_samples_oracle,
    ),
    "box drops row -K": (spectral, "_box", _box_without_row_minus_k, box_round_trip_oracle),
    "forward gather off by one row": (
        spectral, "_lattice_half", _lattice_half_gather_off_by_one, advect_oracle,
    ),
}


@pytest.fixture
def fresh_caches():
    """Cached box arrays made under a mutant must not outlive it."""
    spectral._boxed.cache_clear()
    spectral._ik_stack.cache_clear()
    yield
    spectral._boxed.cache_clear()
    spectral._ik_stack.cache_clear()


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught_by_its_oracle(name, monkeypatch, fresh_caches):
    module, attr, mutant, oracle = MUTANTS[name]
    oracle()
    with monkeypatch.context() as m:
        m.setattr(module, attr, mutant)
        with pytest.raises(AssertionError):
            oracle()
    oracle()
