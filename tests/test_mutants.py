"""Mutants of the dealias-box fast paths, each paired with the oracle that
must catch it (mutation analysis: DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).

Each row of MUTANTS names a module attribute, a broken stand-in for it, and
an oracle: a check that passes on the real code and must fail, by an
AssertionError, once the stand-in is patched in. A mutant whose oracle
still passes has survived, and the oracle is too weak.
"""

import math
import os
import struct
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from gsqglab import (
    CheckpointError,
    GridSpec,
    ModelParams,
    SpectralField,
    advect,
    flux_divergence,
    harness,
    inequalities,
    linear_heat_propagator,
    norms,
    read_checkpoint,
    simulate,
    solver,
    spectral,
    to_physical,
    velocity_from_scalar,
)
from gsqglab.harness import _direct_advect
from util import direct_flux, peak_speed, per_array, random_field, split_forms_oracle

FRACTIONS = [2.0 / 3.0, 0.9, 1.0]


def _disc_field(grid, seed):
    keep = spectral._dealias_mask(grid)
    return SpectralField(grid, random_field(grid, seed=seed, decay=1.0).coeffs * keep)


# --- the mutants --------------------------------------------------------------


def _parseval_column_zero_doubled(terms):
    cols = terms.sum(axis=0)
    cols[: len(cols) - (len(terms) % 2 == 0)] *= 2.0
    return float(np.cumsum(cols)[-1])


def _rows_between_left_dirty(dst, rows):
    pass


def _box_without_row_minus_k(a, k, _box=spectral._box):
    out = _box(a, k)
    if out.shape[-2] > 1:
        out[..., k + 1, :] = 0.0
    return out


def _forward(phys, n, k_out, out, fct, shift):
    """_lattice_half with the real pass scaled by fct and the rows m1 < 0
    gathered shift rows early."""
    size = phys.shape[-1]
    k = n // 2 - 1 if k_out is None else min(k_out, n // 2 - 1)
    if out is None:
        out = np.empty(phys.shape[:-1] + (size // 2 + 1,), dtype=np.complex128)
    kept = spectral._pass(spectral._pfu.rfft_n_even, phys, -1, out, fct)[..., : k + 1]
    spectral._pass(spectral._pfu.fft, kept, -2, kept)
    low = kept[..., size - k - shift : size - shift, :]
    return np.concatenate((kept[..., : k + 1, :], low), axis=-2)


def _lattice_half_gather_off_by_one(phys, n, k_out=None, out=None):
    return _forward(phys, n, k_out, out, 1.0 / phys.shape[-1] ** 2, 1)


def _lattice_half_scaled_by_one_over_m(phys, n, k_out=None, out=None):
    return _forward(phys, n, k_out, out, 1.0 / phys.shape[-1], 0)


def _product_box_tail_left_dirty(plan, samples, slots, k_out, width):
    buf = plan.workspace(samples.shape[:-2], samples.shape[-1], width)[0]
    return spectral._lattice_half(samples[slots], plan.grid.n, k_out, out=buf[slots])


def _flux_slots_paired_wrong(m, _flux_slots=spectral._flux_slots):
    # [b, d] [e, c] in place of [b, d] [c, e]: the one-term layout is unchanged
    y1, y2, x1, x2 = _flux_slots(m)
    return y1, y2, x1, slice(x2.stop - 1, x2.start - 1, -1)


def _speed_without_u2(u1, u2, out=None):
    return float(np.sqrt((u1 * u1).max()))


def _factors_off_by_half_a_step(plan, dt, _factors=solver._integrating_factors):
    _eh, eh2 = _factors(plan, dt)
    return eh2, eh2


def _grid_size_always_n(n, a, b, k_out, _grid_size=spectral._grid_size):
    return n, _grid_size(n, a, b, k_out)[1]


def _mirror_without_conjugate(half, n):
    full = np.empty((n, n), dtype=np.complex128)
    full[:, : n // 2 + 1] = half
    full[:, n // 2 + 1 :] = half[spectral._flip_index(n), n // 2 - 1 : 0 : -1]
    return full


def _support_bound_one_short(box, _support_bound=spectral._support_bound):
    return max(_support_bound(box) - 1, 0)


def _samples_pass_one_column_short(buf, samples, k, _samples=spectral._samples):
    return _samples(buf, samples, k - 1)


def _sampler_keeps_workspace_views(sampler, names, size):
    pieces = [sampler._pieces[x] for x in names]
    k = max(support for _, support, _ in pieces)
    s = spectral._term_samples(sampler._plan, [half for half, _, _ in pieces], size, k)
    for (_, _, held), row in zip(pieces, s):
        held[size] = row


_HEADER = len(harness.CHECKPOINT_MAGIC) + struct.calcsize("<IId5dBd")


def _flux_rows_without_second_term(plan, q, theta, speed=None, _flux_rows=spectral._flux_rows):
    # kappa = 2 puts beta below 1 + kappa; the first term does not read kappa
    if plan.params.two_term:
        plan = spectral._Plan(plan.grid, replace(plan.params, kappa=2.0))
    return _flux_rows(plan, q, theta, speed)


def _checkpoint_big_endian(field, params, t, path, _write=harness.write_checkpoint):
    _write(field, params, t, path)
    with open(path, "r+b") as fh:
        fh.seek(_HEADER)
        payload = np.frombuffer(fh.read(), "<c16")
        fh.seek(_HEADER)
        fh.write(payload.astype(">c16").tobytes())


# --- the oracles ----------------------------------------------------------------


def parseval_oracle():
    """_l2 of a half spectrum against the full mirror's sum, every fraction."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        f = random_field(g, seed=91, decay=0.5)
        want = g.period * math.sqrt(float(np.sum(np.abs(f.coeffs) ** 2)))
        assert abs(norms._l2(f.half, g.period) - want) <= 1e-14 * want


def n_grid_samples_oracle():
    """Samples on the n-grid of box rows, call after call in one plan,
    against scipy's irfft2 of the zero-padded spectrum."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        plan = spectral._Plan(g)
        k = plan.k
        for seed in (92, 93):
            box = spectral._box(_disc_field(g, seed).half, k)
            want = scipy.fft.irfft2(spectral._unbox(box, g.n), s=(g.n, g.n), norm="forward")
            got = spectral._term_samples(plan, (box,), g.n, k)[0]
            assert got.tobytes() == want.tobytes()


def full_mirror_oracle():
    """A field's full coefficient array against numpy's forward transform of
    its samples, which read the half spectrum alone."""
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        f = random_field(g, seed=107, decay=1.0)
        want = np.fft.fft2(to_physical(f), norm="forward")
        assert np.max(np.abs(f.coeffs - want)) <= 1e-14 * np.max(np.abs(want))


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


def flux_oracle():
    """flux_divergence, call after call on one grid: at q = theta against
    the direct O(N^4) advection oracle, and two-term against the per-array
    product site byte for byte."""
    params = ModelParams(beta=1.7, kappa=0.5)
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        for seed in (97, 99):
            theta, q = _disc_field(g, seed), _disc_field(g, seed + 1)
            ref = -_direct_advect(velocity_from_scalar(theta, params), theta)
            got = flux_divergence(theta, theta, params).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
            want = per_array("two_term", q, theta, params).half
            assert flux_divergence(q, theta, params).half.tobytes() == want.tobytes()


def core_flux_oracle():
    """The stepping core's two-term flux on dealias-box rows, call after
    call in one plan, against the per-array product site of their fields
    (util.per_array), byte for byte, at every fraction."""
    params = ModelParams(beta=1.7, kappa=0.5)
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        plan = spectral._Plan(g, params)
        for seed in (97, 99):
            theta, q = _disc_field(g, seed), _disc_field(g, seed + 1)
            qb, tb = (spectral._box(f.half, plan.k) for f in (q, theta))
            want = spectral._box(per_array("two_term", q, theta, params).half, plan.k)
            assert spectral._flux_rows(plan, qb, tb).tobytes() == want.tobytes()


def direct_flux_oracle():
    """Two-term flux_divergence with q != theta against the direct kernel's
    flux, term by term, at every fraction."""
    params = ModelParams(beta=1.7, kappa=0.5)
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        theta, q = _disc_field(g, 108), _disc_field(g, 109)
        ref = direct_flux(q, theta, params)
        got = flux_divergence(q, theta, params).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def courant_oracle():
    """The peak speed the Courant number reads, from the stepping core's
    product, from _peak_speed and in a run's first row, against the largest
    |u| of to_physical's samples of velocity_from_scalar."""
    params = ModelParams(beta=1.7, kappa=0.5)
    g = GridSpec(16)
    for seed in (101, 103):
        q, theta = _disc_field(g, seed), _disc_field(g, seed + 1)
        u = velocity_from_scalar(q, params)
        want = peak_speed(u)
        plan = spectral._Plan(g, params)
        speed = []
        spectral._flux_rows(plan, *(spectral._box(f.half, plan.k) for f in (q, theta)), speed)
        assert speed == [want]
        assert spectral._peak_speed(plan, (spectral._box(u.u1.half, plan.k),
                                           spectral._box(u.u2.half, plan.k))) == want
        row = simulate(q, params, 1e-3, 1e-3, c_cfl=math.inf).rows[0]
        assert row.max_u == want


def heat_flow_oracle():
    """One step without transport against the closed-form propagator of the
    admissible initial data, bit for bit, at every fraction."""
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.3, eps_visc=0.01)
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        run = simulate(random_field(g, seed=105), params, 2e-2, 2e-2, nonlinear=False)
        want = linear_heat_propagator(run.fields[0], 2e-2, params.gamma, params.kappa,
                                      params.eps_visc)
        assert np.array_equal(run.final.half, want.half)


def sampler_oracle():
    """The battery's split forms through one sampler against one stacked
    call per form, byte for byte, at every fraction."""
    sigmas = (-0.5, 0.0, 0.9)
    for fraction in FRACTIONS:
        g = GridSpec(16, dealias_fraction=fraction)
        f, q, h = (random_field(g, seed=s, decay=1.0) for s in (110, 111, 112))
        got = inequalities._split_forms(f, q, h, sigmas)
        want = [split_forms_oracle(f, q, h, sigma) for sigma in sigmas]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def checkpoint_oracle():
    """A checkpoint's header fields at their pinned offsets, its payload the
    little-endian half spectrum, and the round trip through read_checkpoint."""
    params = ModelParams(beta=2.0, kappa=0.5, gamma=0.3, mu=1.5, eps_visc=0.01,
                         velocity_law="log")
    field = _disc_field(GridSpec(16), seed=106)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.ck")
        harness.write_checkpoint(field, params, 0.125, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            ck = read_checkpoint(path)
        except CheckpointError as exc:
            raise AssertionError(f"round trip refused: {exc}") from exc
    assert raw[:6] == b"GSQG1\x00"
    assert struct.unpack_from("<II", raw, 6) == (1, 16)
    assert struct.unpack_from("<6dBd", raw, 14) == (
        field.grid.period, 2.0, 0.5, 0.3, 1.5, 0.01, 1, 0.125)
    assert np.array_equal(np.frombuffer(raw[71:], "<c16").reshape(16, 9), field.half)
    assert ck.field.half.tobytes() == field.half.tobytes() and ck.t == 0.125


MUTANTS = {
    "parseval column 0 weighted 2": (
        norms, "_parseval", _parseval_column_zero_doubled, parseval_oracle,
    ),
    "scatter leaves the middle rows dirty": (
        spectral, "_clear_between", _rows_between_left_dirty, n_grid_samples_oracle,
    ),
    "box drops row -K": (spectral, "_box", _box_without_row_minus_k, box_round_trip_oracle),
    "forward gather off by one row": (
        spectral, "_lattice_half", _lattice_half_gather_off_by_one, advect_oracle,
    ),
    "forward pass scaled by 1/M, not 1/M^2": (
        spectral, "_lattice_half", _lattice_half_scaled_by_one_over_m, flux_oracle,
    ),
    "forward pass leaves the tail columns dirty": (
        spectral, "_product_box", _product_box_tail_left_dirty, core_flux_oracle,
    ),
    "peak speed drops the u2 term": (spectral, "_speed", _speed_without_u2, courant_oracle),
    "integrating factor off by half a step": (
        solver, "_integrating_factors", _factors_off_by_half_a_step, heat_flow_oracle,
    ),
    "checkpoint payload written big-endian": (
        harness, "write_checkpoint", _checkpoint_big_endian, checkpoint_oracle,
    ),
    "product grid always n": (spectral, "_grid_size", _grid_size_always_n, advect_oracle),
    "full mirror drops the conjugate": (
        spectral, "_full_from_half", _mirror_without_conjugate, full_mirror_oracle,
    ),
    "support bound one too small": (
        spectral, "_support_bound", _support_bound_one_short, core_flux_oracle,
    ),
    "pruned column pass drops its last kept column": (
        spectral, "_samples", _samples_pass_one_column_short, n_grid_samples_oracle,
    ),
    "stacked products pair the wrong slots": (
        spectral, "_flux_slots", _flux_slots_paired_wrong, core_flux_oracle,
    ),
    "flux drops its second term": (
        spectral, "_flux_rows", _flux_rows_without_second_term, direct_flux_oracle,
    ),
    "sampler keeps workspace views, not copies": (
        inequalities._Sampler, "_sample", _sampler_keeps_workspace_views,
        sampler_oracle,
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_is_caught_by_its_oracle(name, monkeypatch):
    module, attr, mutant, oracle = MUTANTS[name]
    oracle()
    with monkeypatch.context() as m:
        m.setattr(module, attr, mutant)
        with pytest.raises(AssertionError):
            oracle()
    oracle()
