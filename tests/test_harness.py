"""Config parsing, the initial-data library, checkpoint and CSV persistence,
decay-study plot data, scenario execution with its exit-code map, and the
operator / inequality verification batteries."""

import ast
import dataclasses
import inspect
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gsqglab import (
    CheckpointError,
    ConfigError,
    EnsembleSpec,
    GevreyTrackSpec,
    GridSpec,
    InitialSpec,
    ModelParams,
    ReduceSink,
    SpectralField,
    Trajectory,
    VectorField,
    advect,
    amplitude_threshold_sweep,
    build_initial_data,
    decay_study,
    default_delta,
    field_from_modes,
    flux_divergence,
    multiply_fields,
    parse_config,
    random_test_field,
    read_checkpoint,
    run_scenario,
    simulate,
    sobolev_norm,
    velocity_from_scalar,
    verify_inequalities,
    verify_operators,
    write_checkpoint,
    write_csv,
)
import gsqglab
import gsqglab.harness as harness
from gsqglab.cli import main
from gsqglab.harness import (
    EXIT_BLOWUP,
    EXIT_CFL,
    EXIT_CHECKPOINT,
    EXIT_CODES,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_USAGE,
    EXIT_VERIFY,
    SCENARIO_KINDS,
    SCENARIOS,
    _KEYS,
    _Required,
    _snapshot_cells,
)
from gsqglab.solver import _loglog_fit, _slope
from gsqglab.spectral import _dealias_mask
from util import (
    block_tau,
    bracket_symbol,
    flux_second_symbol,
    gevrey_tau,
    l2_norm,
    lattice_k,
    log_tau,
    random_field,
    read_csv_columns,
    scalar_direct_bilinear,
    singular_tau,
    unit_symbol,
)

SIM_BODY = """
[scenario]
kind = simulate
T = 0.02
dt = 1e-3
seed = 3
[grid]
n = 16
[model]
beta = 1.5
kappa = 0.5
gamma = 0.3
[initial]
profile = ensemble
amplitude = 0.05
decay = 3.0
"""


def run_cfg(tmp_path, body, name="run"):
    path = tmp_path / f"{name}.cfg"
    path.write_text(body)
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_derives_critical_index():
    cfg = parse_config(SIM_BODY)
    assert cfg.params.sigma_c == 2.0
    assert cfg.params.velocity_law == "power"
    assert cfg.kind == "simulate"
    assert cfg.grid.n == 16
    assert cfg.seed == 3


def test_parse_beta_two_without_mu_rejected():
    body = SIM_BODY.replace("beta = 1.5", "beta = 2.0")
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert any("mu" in v for v in err.value.violations)


def test_parse_beta_two_with_mu_selects_log_law():
    body = SIM_BODY.replace("beta = 1.5", "beta = 2.0\nmu = 1.0")
    cfg = parse_config(body)
    assert cfg.params.velocity_law == "log"
    assert cfg.params.mu == 1.0


def test_parse_beta_two_explicit_power_law_needs_no_mu():
    body = SIM_BODY.replace("beta = 1.5", "beta = 2.0\nvelocity_law = power")
    cfg = parse_config(body)
    assert cfg.params.velocity_law == "power"


def test_parse_kappa_range_is_stricter_than_module():
    # the module accepts kappa up to 2; configs stay in the open unit range
    for bad in ("0", "1", "1.5", "-0.2"):
        with pytest.raises(ConfigError) as err:
            parse_config(SIM_BODY.replace("kappa = 0.5", f"kappa = {bad}"))
        assert any("(0, 1)" in v for v in err.value.violations)
    parse_config(SIM_BODY.replace("kappa = 0.5", "kappa = 0.999"))


def test_parse_collects_every_violation():
    body = """
[scenario]
kind = simulate
T = -1
dt = 0
bogus = 3
[grid]
n = 24
[model]
beta = 3.0
kappa = 0.5
[initial]
profile = nosuch
"""
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    text = "\n".join(err.value.violations)
    assert "line 6: unknown key 'bogus'" in text
    assert "grid.n" in text
    assert "model.beta" in text
    assert "initial.profile" in text
    assert "scenario.T" in text
    assert "scenario.dt" in text
    assert len(err.value.violations) >= 6


def test_parse_violations_cite_module_preconditions():
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY.replace("n = 16", "n = 24"))
    assert any("power of two >= 16" in v for v in err.value.violations)


def test_parse_rejects_unknown_section_and_stray_lines():
    with pytest.raises(ConfigError) as err:
        parse_config("[nope]\nx = 1\njunk line\n" + SIM_BODY)
    text = "\n".join(err.value.violations)
    assert "unknown section [nope]" in text
    assert "junk line" in text


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY + "\n[model]\nbeta = 1.2\n")
    assert any("duplicate key 'beta'" in v for v in err.value.violations)


def test_parse_dt_must_divide_horizon():
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY.replace("dt = 1e-3", "dt = 3e-3"))
    assert any("divide the horizon" in v for v in err.value.violations)


def test_parse_comments_and_blanks_ignored():
    cfg = parse_config("# leading comment\n" + SIM_BODY.replace(
        "gamma = 0.3", "gamma = 0.3  # trailing"
    ))
    assert cfg.params.gamma == 0.3


def test_parse_kind_subcommand_mismatch():
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY, default_kind="picard")
    assert any("subcommand" in v for v in err.value.violations)


def test_parse_kind_from_subcommand_when_omitted():
    body = SIM_BODY.replace("kind = simulate\n", "")
    cfg = parse_config(body, default_kind="simulate")
    assert cfg.kind == "simulate"
    with pytest.raises(ConfigError):
        parse_config(body)


def test_parse_unknown_kind():
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY.replace("kind = simulate", "kind = frobnicate"))
    assert any("frobnicate" in v for v in err.value.violations)


def test_parse_decay_k_list():
    body = SIM_BODY.replace("kind = simulate", "kind = decay-study")
    cfg = parse_config(body + "\n[decay]\nk_list = 0, 1, 2\ndelta = 0.1\n")
    assert cfg.decay_k_list == (0, 1, 2)
    assert cfg.decay_delta == 0.1
    with pytest.raises(ConfigError):
        parse_config(body + "\n[decay]\nk_list = 0, -1\n")


def test_parse_scaling_factor_floor():
    body = SIM_BODY.replace("kind = simulate", "kind = scaling-check")
    with pytest.raises(ConfigError) as err:
        parse_config(body + "\n[scaling]\nlam = 1\n")
    assert any("integer >= 2" in v for v in err.value.violations)


def test_parse_checkpoint_and_resume_only_for_simulate():
    keys = "checkpoint = a.ck\nresume = b.ck\n"
    only = [f"scenario.{key}: applies to the simulate kind only" for key in ("checkpoint", "resume")]
    for body in (
        "[scenario]\nkind = verify-operators\n" + keys,
        SIM_BODY.replace("kind = simulate\n", "kind = picard\n" + keys),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(body)
        assert err.value.violations == only
    cfg = parse_config(SIM_BODY.replace("kind = simulate\n", "kind = simulate\n" + keys))
    assert (cfg.checkpoint_path, cfg.resume_path) == ("a.ck", "b.ck")


def test_parse_verify_kinds_need_no_grid_or_model():
    cfg = parse_config("[scenario]\nkind = verify-operators\n")
    assert cfg.grid is None and cfg.params is None
    cfg = parse_config("[scenario]\nkind = verify-inequalities\n[verify]\ntriples = 5\n")
    assert cfg.verify_triples == 5


def test_parse_gevrey_alpha_must_stay_below_kappa():
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY + "\n[gevrey]\nalpha = 0.5\n")
    assert any("(0, kappa)" in v for v in err.value.violations)
    cfg = parse_config(SIM_BODY + "\n[gevrey]\nalpha = 0.4\neps_rate = 0.2\ndelta = 0.1\n")
    assert cfg.gevrey == GevreyTrackSpec(alpha=0.4, eps_rate=0.2, delta=0.1)


FLOAT_KEYS = [
    ("scenario", "T"), ("scenario", "dt"),
    ("grid", "period"), ("grid", "dealias_fraction"),
    ("model", "beta"), ("model", "kappa"), ("model", "gamma"), ("model", "mu"),
    ("model", "eps_visc"),
    ("initial", "amplitude"), ("initial", "amplitude2"), ("initial", "decay"),
    ("initial", "width"), ("initial", "separation"),
    ("gevrey", "alpha"), ("gevrey", "eps_rate"), ("gevrey", "delta"),
    ("scaling", "tol"), ("decay", "delta"), ("picard", "tol"),
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_parse_refuses_non_finite_floats(section, key, value):
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(SIM_BODY):   # every SIM_BODY key sits in its own section
        body = line.sub(f"{key} = {value}", SIM_BODY)
    else:
        body = SIM_BODY + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert f"{section}.{key}: must be finite" in err.value.violations


def test_parse_cfl_takes_inf_but_not_nan():
    assert parse_config(SIM_BODY + "[scenario]\ncfl = inf\n").c_cfl == math.inf
    with pytest.raises(ConfigError) as err:
        parse_config(SIM_BODY + "[scenario]\ncfl = nan\n")
    assert any(v.startswith("scenario.cfl:") for v in err.value.violations)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_and_grid_refuse_non_finite_values(value):
    for key in ("gamma", "eps_visc", "mu"):
        with pytest.raises(ValueError, match=key):
            ModelParams(beta=1.5, kappa=0.5, **{key: value})
    with pytest.raises(ValueError, match="period"):
        GridSpec(16, period=value)


def test_parse_reports_every_grid_violation():
    body = SIM_BODY.replace("n = 16", "n = 24\nperiod = -1\ndealias_fraction = 2")
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert [v for v in err.value.violations if v.startswith("grid.")] == [
        "grid.n: must be a power of two >= 16",
        "grid.period: must be positive",
        "grid.dealias_fraction: must lie in (0, 1]",
    ]


def with_key(body, section, key, value):
    """body with section.key set to value: its line replaced, or the section appended."""
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(body):   # every SIM_BODY key sits in its own section
        return line.sub(f"{key} = {value}", body)
    return body + f"\n[{section}]\n{key} = {value}\n"


# per config key: a value SIM_BODY must refuse with the one violation given,
# or, for a key no value of which is refused, one it must accept (None)
BAD_VALUES = {
    "scenario.kind": ("frobnicate", "scenario.kind: 'frobnicate' is not one of simulate, "
                      "picard, verify-operators, verify-inequalities, scaling-check, "
                      "decay-study, gevrey-track"),
    "scenario.T": ("0", "scenario.T: horizon must be positive"),
    "scenario.dt": ("-1e-3", "scenario.dt: step must be positive"),
    "scenario.snapshot_stride": ("0", "scenario.snapshot_stride: must be a positive integer"),
    "scenario.seed": ("-1", "scenario.seed: must be nonnegative"),
    "scenario.out": ("elsewhere", None),
    "scenario.checkpoint": ("a.ck", None),
    "scenario.resume": ("b.ck", None),
    "scenario.cfl": ("0", "scenario.cfl: Courant bound must be positive"),
    "grid.n": ("24", "grid.n: must be a power of two >= 16"),
    "grid.period": ("-1", "grid.period: must be positive"),
    "grid.dealias_fraction": ("2", "grid.dealias_fraction: must lie in (0, 1]"),
    "model.beta": ("3", "model.beta: constitutive exponent must lie in (0, 2]"),
    "model.kappa": ("1", "model.kappa: dissipation order must lie in (0, 1)"),
    "model.gamma": ("-1", "model.gamma: dissipation strength must be nonnegative"),
    "model.mu": ("0", "model.mu: must be positive"),
    "model.eps_visc": ("-1", "model.eps_visc: viscosity must be nonnegative"),
    "model.velocity_law": ("cubic", "model.velocity_law: must be 'power' or 'log'"),
    "initial.profile": ("nosuch", "initial.profile: 'nosuch' is not one of single_mode, "
                        "two_mode, ensemble, vortex_pair, checkpoint"),
    "initial.amplitude": ("x", "initial.amplitude: cannot parse 'x'"),
    "initial.m1": ("1.5", "initial.m1: cannot parse '1.5'"),
    "initial.m2": ("x", "initial.m2: cannot parse 'x'"),
    "initial.m1_2": ("x", "initial.m1_2: cannot parse 'x'"),
    "initial.m2_2": ("x", "initial.m2_2: cannot parse 'x'"),
    "initial.amplitude2": ("x", "initial.amplitude2: cannot parse 'x'"),
    "initial.decay": ("x", "initial.decay: cannot parse 'x'"),
    "initial.member": ("-1", "initial.member: must be nonnegative"),
    "initial.width": ("x", "initial.width: cannot parse 'x'"),
    "initial.separation": ("x", "initial.separation: cannot parse 'x'"),
    "initial.path": ("p.ck", None),
    "gevrey.alpha": ("x", "gevrey.alpha: cannot parse 'x'"),
    "gevrey.eps_rate": ("-1", "gevrey.eps_rate: must be nonnegative"),
    "gevrey.delta": ("-1", "gevrey.delta: must be nonnegative"),
    "scaling.lam": ("1", "scaling.lam: scaling factor must be an integer >= 2"),
    "scaling.tol": ("0", "scaling.tol: must be positive"),
    "decay.delta": ("-1", "decay.delta: must be nonnegative"),
    "decay.k_list": ("0, -1", "decay.k_list: comma-separated nonnegative integers"),
    "picard.tol": ("0", "picard.tol: must be positive"),
    "picard.max_iter": ("0", "picard.max_iter: must be a positive integer"),
    "verify.triples": ("0", "verify.triples/fields/draws: must be positive integers"),
    "verify.fields": ("0", "verify.triples/fields/draws: must be positive integers"),
    "verify.draws": ("0", "verify.triples/fields/draws: must be positive integers"),
}


@pytest.mark.parametrize("label", list(_KEYS))
def test_parse_refuses_a_bad_value_of_every_key_once(label):
    value, expected = BAD_VALUES[label]
    body = with_key(SIM_BODY, *label.split("."), value)
    if expected is None:
        assert repr(value) in repr(parse_config(body))
        return
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert err.value.violations == [expected]


def test_spec_defaults_are_the_key_table_defaults():
    # the specs keep defaults for direct construction; they must not drift
    table = {(row.section, row.field or row.key): row.default for row in _KEYS.values()}
    for m1, m2, name in (("m1", "m2", "mode"), ("m1_2", "m2_2", "mode2")):
        table["initial", name] = (table.pop(("initial", m1)), table.pop(("initial", m2)))
    for cls, section in ((InitialSpec, "initial"), (GevreyTrackSpec, "gevrey")):
        for f in dataclasses.fields(cls):
            default = table[section, f.name]
            if f.default is dataclasses.MISSING:
                assert isinstance(default, _Required), f.name
            else:
                assert f.default == default, f.name


def without(body, *lines):
    return "".join(line for line in body.splitlines(keepends=True) if line.strip() not in lines)


# bodies with one refused value, or one missing key or section, and their one violation
REFUSED_ONCE = {
    "T-inf": (SIM_BODY.replace("T = 0.02\ndt = 1e-3", "T = inf\ndt = 0.3"),
              "scenario.T: must be finite"),
    "beta-nan": (SIM_BODY.replace("beta = 1.5", "beta = nan"), "model.beta: must be finite"),
    "beta-x": (SIM_BODY.replace("beta = 1.5", "beta = x"), "model.beta: cannot parse 'x'"),
    "log-mu": (SIM_BODY.replace("beta = 1.5", "beta = 2\nmu = -1"), "model.mu: must be positive"),
    "log-beta": (SIM_BODY.replace("beta = 1.5", "beta = 1.5\nvelocity_law = log\nmu = 1"),
                 "model.velocity_law: 'log' requires beta = 2"),
    "no-path": (SIM_BODY.replace("profile = ensemble", "profile = checkpoint"),
                "initial.path: required for the checkpoint profile"),
    "decay-1": (SIM_BODY.replace("decay = 3.0", "decay = 1.0"),
                "initial.decay: ensemble spectra need decay > 1"),
    "mean-mode": (SIM_BODY.replace("profile = ensemble", "profile = single_mode\nm1 = 0"),
                  "initial.m1/m2: the mode must not be the mean"),
    "n-x": (SIM_BODY.replace("n = 16", "n = x"), "grid.n: cannot parse 'x'"),
    "seed-2^64": (SIM_BODY.replace("seed = 3", f"seed = {2**64}"),
                  "scenario.seed: must be below 2**64"),
    "k_list-x": (SIM_BODY + "[decay]\nk_list = 1, x\n",
                 "decay.k_list: comma-separated nonnegative integers"),
    "width-0": (with_key(SIM_BODY, "initial", "width", "0"), "initial.width: must be positive"),
    "width-negative": (with_key(SIM_BODY, "initial", "width", "-0.5"),
                       "initial.width: must be positive"),
    "separation-0": (with_key(SIM_BODY, "initial", "separation", "0"),
                     "initial.separation: must be positive"),
    "separation-negative": (with_key(SIM_BODY, "initial", "separation", "-1"),
                            "initial.separation: must be positive"),
    "no-kind": (without(SIM_BODY, "kind = simulate"),
                "scenario.kind: required (or select a subcommand)"),
    "no-n": (without(SIM_BODY, "n = 16"), "grid.n: required when a [grid] section is present"),
    "no-beta": (without(SIM_BODY, "beta = 1.5"), "model.beta: required"),
    "no-kappa": (without(SIM_BODY, "kappa = 0.5"), "model.kappa: required"),
    "no-profile": (without(SIM_BODY, "profile = ensemble"),
                   "initial.profile: required when [initial] is present"),
    "no-grid": (without(SIM_BODY, "[grid]", "n = 16"),
                "grid: section required for scenario kind 'simulate'"),
    "no-model": (without(SIM_BODY, "[model]", "beta = 1.5", "kappa = 0.5", "gamma = 0.3"),
                 "model: section required for scenario kind 'simulate'"),
    "no-initial": (without(SIM_BODY, "[initial]", "profile = ensemble", "amplitude = 0.05",
                           "decay = 3.0"),
                   "initial: section required for scenario kind 'simulate'"),
}


@pytest.mark.parametrize("body, expected", REFUSED_ONCE.values(), ids=list(REFUSED_ONCE))
def test_parse_reports_a_refused_value_once(body, expected):
    # a check across keys that reads a refused key is skipped, not run on a default
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert err.value.violations == [expected]


def test_parse_takes_hex_integers_and_the_largest_seed():
    cfg = parse_config(SIM_BODY.replace("n = 16", "n = 0x20").replace(
        "seed = 3", f"seed = {2**64 - 1}"))
    assert (cfg.grid.n, cfg.seed) == (32, 2**64 - 1)


def test_readme_ini_example_parses_as_simulate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    cfg = parse_config(example, default_kind="simulate")
    assert (cfg.kind, cfg.grid.n) == ("simulate", 64)


# ---------------------------------------------------------------------------
# initial-data library


GRID = GridSpec(16)
PARAMS = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)


def test_initial_single_mode_matches_mode_builder():
    spec = InitialSpec(profile="single_mode", amplitude=0.25, mode=(2, 1))
    f = build_initial_data(spec, GRID, PARAMS)
    ref = field_from_modes(GRID, {(2, 1): 0.25})
    assert np.array_equal(f.coeffs, ref.coeffs)


def test_initial_two_mode_sets_both_pairs():
    spec = InitialSpec(
        profile="two_mode", amplitude=0.3, mode=(1, 0), mode2=(1, 1), amplitude2=0.2
    )
    f = build_initial_data(spec, GRID, PARAMS)
    assert f.coeffs[1, 0] == 0.3
    assert f.coeffs[1, 1] == 0.2
    assert f.coeffs[-1, -1] == 0.2


def test_initial_ensemble_hits_requested_critical_norm():
    spec = InitialSpec(profile="ensemble", amplitude=0.7, decay=3.0, member=2)
    f = build_initial_data(spec, GRID, PARAMS, seed=11)
    assert sobolev_norm(f, PARAMS.sigma_c) == pytest.approx(0.7, rel=1e-12)
    assert f.mean_zero
    # fully dealiased: nothing survives beyond the retained disc
    m = np.fft.fftfreq(16, 1 / 16).astype(int)
    m1, m2 = m[:, None], m[None, :]
    outside = (m1 * m1 + m2 * m2) > GRID.dealias_radius**2
    assert np.all(f.coeffs[outside] == 0)


def test_initial_ensemble_members_differ():
    a = build_initial_data(InitialSpec(profile="ensemble", member=0), GRID, PARAMS)
    b = build_initial_data(InitialSpec(profile="ensemble", member=1), GRID, PARAMS)
    assert not np.array_equal(a.coeffs, b.coeffs)


def test_initial_vortex_pair_is_mean_zero_and_banded():
    spec = InitialSpec(profile="vortex_pair", amplitude=0.5)
    f = build_initial_data(spec, GRID, PARAMS)
    assert f.mean_zero
    assert l2_norm(f) > 0
    m = np.fft.fftfreq(16, 1 / 16).astype(int)
    m1, m2 = m[:, None], m[None, :]
    outside = (m1 * m1 + m2 * m2) > GRID.dealias_radius**2
    assert np.all(f.coeffs[outside] == 0)


@pytest.mark.parametrize(
    "key, value, problem",
    [
        ("width", 0.0, "initial.width: must be positive"),
        ("width", -0.5, "initial.width: must be positive"),
        ("separation", 0.0, "initial.separation: must be positive"),
        ("separation", -1.0, "initial.separation: must be positive"),
        ("width", math.inf, "initial.width: must be finite"),
    ],
)
def test_initial_vortex_pair_refuses_what_the_key_table_refuses(key, value, problem):
    spec = InitialSpec(profile="vortex_pair", amplitude=0.5, **{key: value})
    with pytest.raises(ValueError, match=problem):
        build_initial_data(spec, GRID, PARAMS)


def test_scenario_reads_checkpoint_profile_once(tmp_path, monkeypatch):
    ck = tmp_path / "a.ck"
    grid = GridSpec(32)
    write_checkpoint(random_field(grid, seed=1, band=5), PARAMS, 0.0, str(ck))
    body = SIM_BODY.replace("[grid]\nn = 16\n", "").replace(
        "profile = ensemble", f"profile = checkpoint\npath = {ck}"
    )
    calls = []

    def counting(path):
        calls.append(path)
        return read_checkpoint(path)

    monkeypatch.setattr(harness, "read_checkpoint", counting)
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path / "o"))
    assert cfg.grid is None
    assert run_scenario(cfg) == EXIT_OK
    assert calls == [str(ck)]


def test_initial_checkpoint_grid_mismatch_is_loud(tmp_path):
    f = random_field(GRID, seed=1, band=5)
    path = tmp_path / "a.ck"
    write_checkpoint(f, PARAMS, 0.0, str(path))
    spec = InitialSpec(profile="checkpoint", path=str(path))
    with pytest.raises(CheckpointError, match="no silent resampling"):
        build_initial_data(spec, GridSpec(32), PARAMS)
    # the loaded state takes the configured dealias fraction, and modes
    # outside that fraction's disc are refused, not dropped
    grid09 = GridSpec(16, dealias_fraction=0.9)
    assert build_initial_data(spec, grid09, PARAMS).grid == grid09
    write_checkpoint(random_field(GRID, seed=1, band=7), PARAMS, 0.0, str(path))
    assert build_initial_data(spec, grid09, PARAMS).grid == grid09
    with pytest.raises(CheckpointError, match="outside the dealias disc"):
        build_initial_data(spec, GRID, PARAMS)


# ---------------------------------------------------------------------------
# checkpoints


def make_state(n=16, t=0.25, params=PARAMS, seed=7):
    """write_checkpoint's (field, params, t)."""
    return random_field(GridSpec(n), seed=seed, band=5), params, t


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    field, params, t = make_state()
    p1, p2 = tmp_path / "a.ck", tmp_path / "b.ck"
    write_checkpoint(field, params, t, str(p1))
    ck = read_checkpoint(str(p1))
    assert np.array_equal(ck.field.coeffs, field.coeffs)
    assert ck.t == t
    assert ck.params == params
    assert ck.grid == field.grid
    write_checkpoint(ck.field, ck.params, ck.t, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_writer_refuses_a_mean_mode_and_a_bad_time(tmp_path):
    field, params, t = make_state()
    path = tmp_path / "a.ck"
    c = field.coeffs.copy()
    c[0, 0] = 1.0
    with pytest.raises(ValueError, match="mean-zero"):
        write_checkpoint(SpectralField(field.grid, c), params, t, str(path))
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            write_checkpoint(field, params, bad, str(path))
    assert not path.exists()


def test_checkpoint_writes_each_zero_as_plus_zero(tmp_path):
    base, params, t = make_state()
    half = base.half.copy()
    # negative zeros, as products can leave them: outside the band, in the
    # mean mode, in the Nyquist row and column and in one imaginary part
    half[4:13, 6:8] = complex(-0.0, -0.0)
    half[0, 0] = complex(-0.0, 0.0)
    half[8, :] = half[:, 8] = complex(-0.0, -0.0)
    half[2, 3] = complex(0.25, -0.0)
    assert np.signbit(half.view(np.float64)).any()
    field = harness._wrap_half(base.grid, half)
    path = tmp_path / "a.ck"
    write_checkpoint(field, params, t, str(path))
    payload = np.frombuffer(path.read_bytes()[71:], "<f8")
    assert payload.size == half.size * 2
    assert not np.any((payload == 0.0) & np.signbit(payload))
    assert payload.tobytes() == (half + 0.0).tobytes()
    ck = read_checkpoint(str(path))
    assert np.array_equal(ck.field.coeffs, field.coeffs)
    assert ck.field.half.tobytes() == (half + 0.0).tobytes()


def test_checkpoint_header_layout_is_pinned(tmp_path):
    params = ModelParams(beta=2.0, kappa=0.5, gamma=0.3, mu=1.5,
                         eps_visc=0.01, velocity_law="log")
    path = tmp_path / "a.ck"
    write_checkpoint(*make_state(params=params, t=0.125), str(path))
    raw = path.read_bytes()
    assert raw[:6] == b"GSQG1\x00"
    version, n = struct.unpack_from("<II", raw, 6)
    period, beta, kappa, gamma, mu, eps = struct.unpack_from("<6d", raw, 14)
    (law,) = struct.unpack_from("<B", raw, 62)
    (t,) = struct.unpack_from("<d", raw, 63)
    assert (version, n) == (1, 16)
    assert period == 2.0 * math.pi
    assert (beta, kappa, gamma, mu, eps) == (2.0, 0.5, 0.3, 1.5, 0.01)
    assert law == 1
    assert t == 0.125
    assert len(raw) == 71 + 16 * 9 * 16


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.ck"
    write_checkpoint(*make_state(), str(path))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(str(path))


def test_checkpoint_version_mismatch_rejected(tmp_path):
    path = tmp_path / "a.ck"
    write_checkpoint(*make_state(), str(path))
    raw = bytearray(path.read_bytes())
    raw[6:10] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 99"):
        read_checkpoint(str(path))


def test_checkpoint_truncation_rejected(tmp_path):
    path = tmp_path / "a.ck"
    write_checkpoint(*make_state(), str(path))
    raw = path.read_bytes()
    for cut in (3, 40, len(raw) - 8):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match="truncated|payload"):
            read_checkpoint(str(path))
    path.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="payload"):
        read_checkpoint(str(path))


def test_checkpoint_hermitian_defect_rejected(tmp_path):
    path = tmp_path / "a.ck"
    write_checkpoint(*make_state(), str(path))
    raw = bytearray(path.read_bytes())
    # corrupt the stored (3, 0) entry, which must conjugate-pair with (-3, 0)
    offset = 71 + (3 * 9 + 0) * 16
    raw[offset : offset + 8] = struct.pack("<d", 1234.5)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="[Hh]ermitian|rejected"):
        read_checkpoint(str(path))


def test_checkpoint_nonzero_nyquist_rejected(tmp_path):
    path = tmp_path / "a.ck"
    write_checkpoint(*make_state(), str(path))
    raw = bytearray(path.read_bytes())
    # column index 8 of a 16-grid is the Nyquist line, stored but must be zero
    offset = 71 + (0 * 9 + 8) * 16
    raw[offset : offset + 8] = struct.pack("<d", 1.0)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        read_checkpoint(str(path))


# ---------------------------------------------------------------------------
# CSV and plot data


def small_trajectory(gamma=0.3, n_steps=10):
    f = random_field(GRID, seed=4, band=5, decay=3.0)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=gamma)
    return simulate(f, params, n_steps * 1e-3, 1e-3, 2)


def test_csv_simulate_columns_and_exact_reparse(tmp_path):
    traj = small_trajectory()
    path = tmp_path / "d.csv"
    write_csv(traj, str(path), gevrey=GevreyTrackSpec(alpha=0.4, eps_rate=0.2, delta=0.1))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l2,hs_crit,hs_crit_delta,gevrey_tracked,energy_residual,max_u,courant"
    cols = read_csv_columns(str(path))
    assert cols["t"] == list(traj.times)
    assert cols["l2"] == [r.l2 for r in traj.rows]
    assert cols["hs_crit"] == [r.hs_crit for r in traj.rows]
    assert cols["max_u"] == [r.max_u for r in traj.rows]
    assert cols["courant"] == [r.courant for r in traj.rows]


def test_csv_empty_trajectory_is_header_only(tmp_path):
    empty = Trajectory(times=(), fields=(), rows=(), params=PARAMS, dt=1e-3,
                       max_l2_step_increase=0.0)
    path = tmp_path / "e.csv"
    write_csv(empty, str(path))
    assert path.read_text().splitlines() == [
        "t,l2,hs_crit,hs_crit_delta,gevrey_tracked,energy_residual,max_u,courant"
    ]


def test_csv_of_a_reduce_run_equals_the_trajectory_table(tmp_path):
    # the simulate handler writes the cells its ReduceSink kept as each
    # snapshot arrived; the table must equal the one written from every field
    f = random_field(GRID, seed=4, band=5, decay=3.0)
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)
    spec = GevreyTrackSpec(alpha=0.4, eps_rate=0.2, delta=0.1)
    traj = simulate(f, params, 0.01, 1e-3, 3)
    run = simulate(
        f, params, 0.01, 1e-3, 3, sink=lambda: ReduceSink(_snapshot_cells(params, spec))
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(traj, str(a), gevrey=spec, t0=0.25)
    write_csv(run, str(b), t0=0.25)
    assert a.read_bytes() == b.read_bytes()
    # a summary without those cells has no simulate table, and leaves no file
    c = tmp_path / "c.csv"
    with pytest.raises(ValueError):
        write_csv(simulate(f, params, 0.01, 1e-3, 3, sink=ReduceSink), str(c))
    assert not c.exists()


def test_csv_layout_follows_the_report_type(tmp_path):
    path = tmp_path / "x.csv"
    for obj in (GevreyTrackSpec(), [1, 2], object()):
        with pytest.raises(TypeError, match="no CSV layout"):
            write_csv(obj, str(path))
    # an empty sequence is an empty check table
    write_csv([], str(path))
    assert path.read_text() == "name,measured,limit,passed\n"


def test_slope_of_a_constant_series_is_zero():
    assert _slope([0.0, 0.7, 1.1], [5.0, 5.0, 5.0]) == 0.0


def test_csv_heat_flow_l2_slope_matches_closed_form(tmp_path):
    # a single mode's L2 norm decays as exp(-gamma |k|^kappa t) under the heat flow
    f = field_from_modes(GRID, {(2, 1): 1e-8})
    params = ModelParams(beta=1.5, kappa=0.5, gamma=0.4)
    traj = simulate(f, params, 1.0, 1e-2, 10)
    csv = tmp_path / "h.csv"
    write_csv(traj, str(csv))
    cols = read_csv_columns(str(csv))
    slope = _slope(cols["t"], [math.log(v) for v in cols["l2"]])
    assert slope == pytest.approx(-0.4 * 5.0**0.25, abs=1e-3)


def test_plot_data_x_min_filters(tmp_path):
    # decay-study's plot data: points left of the window and non-positive
    # values are dropped before the fit and the .dat file
    ts = (0.5, 1, 2, 4, 8)
    vs = [t**2 for t in ts[:-1]] + [0.0]
    xs, ys, slope = _loglog_fit(ts, vs, 1.0)
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert xs == [math.log(t) for t in (1, 2, 4)]
    dat = tmp_path / "o.dat"
    harness._write_plot_data(str(dat), "v", xs, ys, slope)
    lines = dat.read_text().splitlines()
    assert lines[0] == "# x=t y=v transform=loglog"
    data_rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data_rows) == 3
    assert all(float(ln.split()[0]) >= 0.0 for ln in data_rows)
    assert lines[-1].startswith("# slope=")
    assert float(lines[-1].removeprefix("# slope=")) == pytest.approx(2.0, rel=1e-12)


def test_plot_data_window_keeps_its_left_end_up_to_roundoff():
    # a time a hair under t_min stays in the window; one clearly under it does not
    ts = [0.3 * (1.0 - 1e-9), 0.3, 0.6, 1.2]
    xs, _, slope = _loglog_fit(ts, [9.0, 1.0, 0.5, 0.25], 0.3 * (1.0 + 1e-14))
    assert xs == [math.log(t) for t in ts[1:]]
    assert slope == pytest.approx(-1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# scenario execution and exit codes


def test_scenario_zero_data_writes_zero_rows(tmp_path):
    body = SIM_BODY.replace("profile = ensemble", "profile = single_mode").replace(
        "amplitude = 0.05", "amplitude = 0.0"
    )
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path / "z"))
    assert run_scenario(cfg) == EXIT_OK
    cols = read_csv_columns(str(tmp_path / "z" / "simulate.csv"))
    assert all(v == 0.0 for v in cols["l2"])
    assert all(v == 0.0 for v in cols["gevrey_tracked"])


def test_scenario_out_dir_collision_is_io_error(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the artifact directory should go")
    cfg = dataclasses.replace(parse_config(SIM_BODY), out_dir=str(blocker))
    assert run_scenario(cfg) == EXIT_IO


DECAY_BODY = """
[scenario]
kind = decay-study
T = 0.5
dt = 1e-2
snapshot_stride = 2
[grid]
n = 16
[model]
beta = 1.5
kappa = 0.5
gamma = 0.4
[initial]
profile = ensemble
amplitude = 0.01
decay = 3.5
[decay]
delta = 0.1
k_list = 0
"""

# one small passing config per scenario kind
KIND_BODIES = {
    "simulate": SIM_BODY,
    "picard": SIM_BODY.replace("kind = simulate", "kind = picard"),
    "verify-operators": "[scenario]\nkind = verify-operators\n",
    "verify-inequalities": (
        "[scenario]\nkind = verify-inequalities\n[verify]\ntriples = 1\nfields = 1\ndraws = 2\n"
    ),
    "scaling-check": SIM_BODY.replace("kind = simulate", "kind = scaling-check").replace(
        "T = 0.02", "T = 0.04"
    ),
    "decay-study": DECAY_BODY.replace("k_list = 0", "k_list = 0,2"),
    "gevrey-track": SIM_BODY.replace("kind = simulate", "kind = gevrey-track")
    + "[gevrey]\nalpha = 0.4\neps_rate = 0.2\ndelta = 0.1\n",
}


def test_scenario_determinism_identical_bytes(tmp_path):
    assert tuple(KIND_BODIES) == SCENARIO_KINDS
    for kind, body in KIND_BODIES.items():
        cfg = parse_config(body)
        a, b = tmp_path / kind / "a", tmp_path / kind / "b"
        assert run_scenario(dataclasses.replace(cfg, out_dir=str(a))) == EXIT_OK, kind
        assert run_scenario(dataclasses.replace(cfg, out_dir=str(b))) == EXIT_OK, kind
        names = sorted(p.name for p in a.iterdir())
        expected = {f"{kind}.csv", "summary.txt"}
        if kind == "decay-study":
            expected |= {"decay-k0.dat", "decay-k2.dat"}
        assert set(names) == expected, kind
        assert sorted(p.name for p in b.iterdir()) == names, kind
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (kind, name)
        assert (a / "summary.txt").read_text().startswith(f"scenario: {kind}\n"), kind


def test_scenario_seed_changes_ensemble_output(tmp_path):
    cfg = parse_config(SIM_BODY)
    a = dataclasses.replace(cfg, out_dir=str(tmp_path / "a"))
    b = dataclasses.replace(cfg, out_dir=str(tmp_path / "b"), seed=4)
    run_scenario(a)
    run_scenario(b)
    assert (tmp_path / "a" / "simulate.csv").read_bytes() != (
        tmp_path / "b" / "simulate.csv"
    ).read_bytes()


def test_scenario_blow_up_exit_code(tmp_path):
    body = """
[scenario]
kind = simulate
T = 0.2
dt = 1e-2
cfl = inf
[grid]
n = 16
[model]
beta = 1.5
kappa = 0.5
gamma = 0.0
[initial]
profile = two_mode
amplitude = 1e200
amplitude2 = 1e180
"""
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_BLOWUP


def test_scenario_cfl_exit_code(tmp_path, capsys):
    body = SIM_BODY.replace("amplitude = 0.05", "amplitude = 1e3")
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_CFL
    captured = capsys.readouterr()
    assert "CFL violation" in captured.err
    assert captured.out == ""


def test_scenario_overflow_exit_code(tmp_path):
    body = SIM_BODY.replace("kind = simulate", "kind = gevrey-track")
    body += "\n[gevrey]\nalpha = 0.4\neps_rate = 1e6\ndelta = 0.1\n"
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_OVERFLOW


def test_scenario_picard_exhaustion_exit_code(tmp_path):
    body = SIM_BODY.replace("kind = simulate", "kind = picard")
    body += "\n[picard]\ntol = 1e-30\nmax_iter = 1\n"
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_VERIFY
    # the partial iterate table is still written for diagnosis
    cols = read_csv_columns(str(tmp_path / "picard.csv"))
    assert len(cols["iterate"]) == 2
    assert cols["converged"] == [0.0, 0.0]
    # the seed iterate has no distance to a previous one
    assert math.isnan(cols["diff_sup_l2"][0]) and math.isnan(cols["contraction_ratio"][1])


def test_scenario_picard_converged(tmp_path):
    body = SIM_BODY.replace("kind = simulate", "kind = picard")
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_OK
    cols = read_csv_columns(str(tmp_path / "picard.csv"))
    assert cols["converged"][-1] == 1.0


def test_scenario_verify_operators_passes(tmp_path):
    cfg = dataclasses.replace(
        parse_config("[scenario]\nkind = verify-operators\n"),
        out_dir=str(tmp_path),
    )
    assert run_scenario(cfg) == EXIT_OK
    cols = read_csv_columns(str(tmp_path / "verify-operators.csv"))
    assert all(v == 1.0 for v in cols["passed"])


def test_scenario_scaling_check_passes(tmp_path):
    body = SIM_BODY.replace("kind = simulate", "kind = scaling-check")
    body = body.replace("T = 0.02", "T = 0.04")
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_OK
    cols = read_csv_columns(str(tmp_path / "scaling-check.csv"))
    assert cols["gap"][0] <= 1e-8


def test_scenario_decay_study_emits_slope_files(tmp_path):
    cfg = dataclasses.replace(parse_config(DECAY_BODY), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_OK
    assert (tmp_path / "decay-k0.dat").exists()
    assert "# slope=" in (tmp_path / "decay-k0.dat").read_text()
    summary = (tmp_path / "summary.txt").read_text()
    assert "k=0" in summary and "expected" in summary


def test_decay_plot_data_holds_the_fitted_window(tmp_path):
    # T/10 = 0.11000000000000001 lies just above the snapshot t = 0.11, which
    # the fit's window keeps up to roundoff; the .dat files must keep it too
    body = """
[scenario]
kind = decay-study
T = 1.1
dt = 0.01
[grid]
n = 16
[model]
beta = 1
kappa = 0.5
gamma = 0.5
[initial]
profile = ensemble
amplitude = 0.5
decay = 3
[decay]
k_list = 0,2
"""
    cfg = dataclasses.replace(parse_config(body), out_dir=str(tmp_path))
    assert run_scenario(cfg) == EXIT_OK
    theta0 = build_initial_data(cfg.initial, cfg.grid, cfg.params, cfg.seed)
    report = decay_study(
        theta0, cfg.params, default_delta(cfg.params), (0, 2), cfg.T, cfg.dt
    )
    assert report.n_points == 100
    summary = (tmp_path / "summary.txt").read_text()
    for k in (0, 2):
        text = (tmp_path / f"decay-k{k}.dat").read_text()
        points = [tuple(map(float, ln.split())) for ln in text.splitlines() if ln[0] != "#"]
        assert len(points) == report.n_points
        slope = float(re.search(rf"k={k}: fitted slope (\S+)", summary).group(1))
        xs, ys = zip(*points)
        assert slope == float(np.polyfit(xs, ys, 1)[0]) == report.slopes[k]


def test_scenario_resume_reproduces_uninterrupted_run(tmp_path):
    # the header does not store the dealias fraction: the resumed run must
    # take it from the config, not fall back to 2/3 and drop modes
    for label, body in (
        ("default", SIM_BODY),
        ("frac09", SIM_BODY.replace("n = 16", "n = 16\ndealias_fraction = 0.9")),
    ):
        ck = str(tmp_path / f"{label}-mid.ck")
        cfg = parse_config(body)
        first = dataclasses.replace(
            cfg, out_dir=str(tmp_path / label / "a"), checkpoint_path=ck
        )
        assert run_scenario(first) == EXIT_OK
        resumed = dataclasses.replace(
            parse_config(body.replace("T = 0.02", "T = 0.04")),
            out_dir=str(tmp_path / label / "b"),
            resume_path=ck,
        )
        assert run_scenario(resumed) == EXIT_OK
        full = dataclasses.replace(
            parse_config(body.replace("T = 0.02", "T = 0.04")),
            out_dir=str(tmp_path / label / "c"),
        )
        assert run_scenario(full) == EXIT_OK
        rb = read_csv_columns(str(tmp_path / label / "b" / "simulate.csv"))
        rc = read_csv_columns(str(tmp_path / label / "c" / "simulate.csv"))
        tail = len(rb["t"])
        # per-step 1-ulp agreement; column max spacing bounds the drift
        for col in ("t", "l2", "hs_crit", "max_u"):
            got = np.array(rb[col])
            want = np.array(rc[col][-tail:])
            assert np.max(np.abs(got - want)) <= np.max(np.spacing(np.abs(want) + 1e-300))


def test_cli_simulate_memory_does_not_grow_with_the_step_count(tmp_path):
    # a stride-1 simulate keeps a row and two cells per snapshot (about
    # 0.5 KiB) and the last field, not a field per step (8.5 KiB at n = 32)
    body = SIM_BODY.replace("n = 16", "n = 32")
    peaks = {}
    for steps in (2, 100, 400):
        cfg = dataclasses.replace(
            parse_config(body.replace("T = 0.02", f"T = {steps * 1e-3:g}")),
            out_dir=str(tmp_path / str(steps)),
            checkpoint_path=str(tmp_path / f"{steps}.ck"),
        )
        tracemalloc.start()
        try:
            assert run_scenario(cfg) == EXIT_OK
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the 2-step run fills the per-grid caches; margin: 1 KiB per extra snapshot
    assert peaks[400] - peaks[100] <= 300 * 1024


def test_scenario_resume_grid_mismatch_exit_code(tmp_path):
    ck = str(tmp_path / "mid.ck")
    run_scenario(
        dataclasses.replace(
            parse_config(SIM_BODY), out_dir=str(tmp_path / "a"), checkpoint_path=ck
        )
    )
    clash = dataclasses.replace(
        parse_config(SIM_BODY.replace("n = 16", "n = 32")),
        out_dir=str(tmp_path / "b"),
        resume_path=ck,
    )
    assert run_scenario(clash) == EXIT_CHECKPOINT
    # a fraction-0.9 state resumed on a 2/3 grid has modes outside its disc
    ck09 = str(tmp_path / "mid09.ck")
    body09 = SIM_BODY.replace("n = 16", "n = 16\ndealias_fraction = 0.9")
    assert run_scenario(
        dataclasses.replace(
            parse_config(body09), out_dir=str(tmp_path / "c"), checkpoint_path=ck09
        )
    ) == EXIT_OK
    # with no [grid] section the resumed grid takes the default fraction, 2/3
    no_grid = SIM_BODY.replace("[grid]\nn = 16\n", "")
    for body in (SIM_BODY, no_grid.replace("seed = 3", f"seed = 3\nresume = {ck09}")):
        clash = dataclasses.replace(
            parse_config(body.replace("T = 0.02", "T = 0.04")),
            out_dir=str(tmp_path / "d"),
            resume_path=ck09,
        )
        assert run_scenario(clash) == EXIT_CHECKPOINT


# ---------------------------------------------------------------------------
# command-line front end


def test_cli_simulate_round_trip(tmp_path):
    cfg = run_cfg(tmp_path, SIM_BODY)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert (tmp_path / "o" / "simulate.csv").exists()
    assert (tmp_path / "o" / "summary.txt").exists()


def test_cli_picard_table_does_not_depend_on_the_snapshot_stride(tmp_path):
    # the picard table has no per-snapshot column: every distance is taken
    # at every step, whatever the stride
    body = SIM_BODY.replace("kind = simulate", "kind = picard")
    outs = []
    for stride in (1, 7):
        cfg = run_cfg(tmp_path, body.replace("dt = 1e-3", f"dt = 1e-3\nsnapshot_stride = {stride}"))
        out = tmp_path / f"s{stride}"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for name in ("picard.csv", "summary.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_picard_iterates_hold_no_rows(tmp_path, monkeypatch):
    runs = []
    solve = harness.picard_solve

    def spy(*args, **kwargs):
        runs.append(solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(harness, "picard_solve", spy)
    cfg = run_cfg(tmp_path, SIM_BODY.replace("kind = simulate", "kind = picard"))
    assert main(["picard", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    (iterates,) = runs
    assert len(iterates) > 2
    assert all(it.trajectory.cells == () and len(it.trajectory.fields) == 1 for it in iterates)
    assert not any(hasattr(it.trajectory, "rows") for it in iterates)


PICARD_BLOW_UP = """
[scenario]
kind = picard
T = 0.2
dt = 1e-2
cfl = inf
[grid]
n = 16
[model]
beta = 1.5
kappa = 0.5
gamma = 0.0
[initial]
profile = two_mode
amplitude = 1e200
amplitude2 = 1e180
"""


@pytest.mark.parametrize(
    "body, code, line",
    [
        (PICARD_BLOW_UP, EXIT_BLOWUP,
         "blow-up detected at t=0.01 (step 1): l2=inf, max_u=inf, courant=inf"),
        (SIM_BODY.replace("kind = simulate", "kind = picard").replace(
            "amplitude = 0.05", "amplitude = 1e3"), EXIT_CFL,
         "CFL violation at t=0.004 (step 4): measured Courant number 0.50492 > limit 0.5"),
    ],
    ids=["blow-up", "courant"],
)
def test_cli_picard_failures_keep_their_exit_codes_and_lines(tmp_path, capsys, body, code, line):
    cfg = run_cfg(tmp_path, body)
    assert main(["picard", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and captured.out == ""


def test_cli_infinite_horizon_is_a_config_error(tmp_path, capsys):
    cfg = run_cfg(tmp_path, SIM_BODY.replace("T = 0.02", "T = inf"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "scenario.T: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_operators_refuses_grids_beyond_the_direct_oracle(tmp_path, capsys):
    body = "[scenario]\nkind = verify-operators\n[grid]\nn = {}\n"
    cfg = run_cfg(tmp_path, body.format(256))
    out = tmp_path / "o"
    assert main(["verify-operators", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "direct O(n^4) convolution oracle" in capsys.readouterr().err
    assert not out.exists()
    assert parse_config(body.format(128)).grid == GridSpec(128)


def test_cli_missing_config_is_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (None, "the following arguments are required: --config"),
    ],
    ids=["bad_seed", "no_config"],
)
def test_cli_argparse_errors_are_usage_errors(tmp_path, capsys, extra, message):
    # argparse's own exit code 2 is the table's code for bad config values
    argv = ["simulate"]
    if extra is not None:
        argv += ["--config", str(run_cfg(tmp_path, SIM_BODY)), "--out", str(tmp_path / "o"), *extra]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: gsqglab simulate ")
    assert captured.err.endswith(f"gsqglab simulate: error: {message}\n")
    assert not (tmp_path / "o").exists()


def test_cli_subcommand_config_kind_clash(tmp_path, capsys):
    cfg = run_cfg(tmp_path, SIM_BODY)
    assert main(["picard", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "subcommand" in capsys.readouterr().err


def test_cli_seed_override_changes_output(tmp_path):
    cfg = run_cfg(tmp_path, SIM_BODY)
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
    assert (tmp_path / "a" / "simulate.csv").read_bytes() != (
        tmp_path / "b" / "simulate.csv"
    ).read_bytes()


@pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
def test_cli_runs_seeds_up_to_the_u64_maximum(tmp_path, seed):
    for kind in ("simulate", "verify-inequalities"):
        cfg = run_cfg(tmp_path, KIND_BODIES[kind], kind)
        out = tmp_path / kind
        code = main([kind, "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        assert code == EXIT_OK
        assert (out / f"{kind}.csv").exists()


def test_cli_seed_override_is_checked_by_the_config_row(tmp_path, capsys):
    cfg = run_cfg(tmp_path, SIM_BODY)
    out = tmp_path / "o"
    for seed, message in ((2**64, "must be below 2**64"), (-1, "must be nonnegative")):
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"--seed {message}\n"
    assert not out.exists()


def test_cli_refused_resume_leaves_no_directory(tmp_path, capsys):
    cfg = run_cfg(tmp_path, SIM_BODY)
    ck = tmp_path / "mid.ck"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--checkpoint", str(ck)]) == EXIT_OK
    # a missing resume file, then a horizon that is not past the checkpoint
    for resume, code, message in (
        (tmp_path / "missing.ck", EXIT_IO, "I/O failure: "),
        (ck, EXIT_CONFIG, "not past checkpoint"),
    ):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--resume", str(resume)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_resume_only_for_simulate(tmp_path, capsys):
    body = SIM_BODY.replace("kind = simulate", "kind = picard")
    cfg = run_cfg(tmp_path, body)
    out = tmp_path / "o"
    for option in ("--resume", "--checkpoint"):
        code = main(["picard", "--config", str(cfg), "--out", str(out), option, str(tmp_path / "x.ck")])
        assert code == EXIT_USAGE
        assert f"{option} only applies to simulate" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "x.ck").exists()


def test_cli_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert [code for code, _, _ in EXIT_CODES] == list(range(9))
    for code, meaning, _ in EXIT_CODES:
        assert f"  {code}  {meaning}\n" in out, (code, meaning)
    assert all(kind in out for kind in SCENARIOS)
    # the README table lists the same codes with the same meanings, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\d+) \| (.+?) \|$", readme, flags=re.M)
    assert rows == [(str(code), meaning) for code, meaning, _ in EXIT_CODES]
    # and its command list gives every kind with its help, in table order
    commands = re.findall(r"^gsqglab (\S+) +(.+)$", readme, flags=re.M)
    assert commands == [(kind, s.help) for kind, s in SCENARIOS.items()]


def test_cli_builds_one_parser_per_process(tmp_path, capsys):
    from gsqglab.cli import build_parser

    build_parser.cache_clear()
    assert main([]) == EXIT_USAGE
    first = capsys.readouterr().out
    assert main([]) == EXIT_USAGE
    assert capsys.readouterr().out == first
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE
    assert build_parser.cache_info().misses == 1


def _fresh_python(*args, cwd=None):
    """Run a fresh interpreter on this checkout's package; return the process."""
    import gsqglab

    src = str(Path(gsqglab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy is a test dependency only, and its import (scipy.signal above
    # all) is most of a fresh process's start-up
    code = (
        "import sys, gsqglab.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_exports_resolve_and_retired_entry_points_stay_gone():
    names = gsqglab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gsqglab, name)] == []
    for name in ("emit_plot_data", "read_csv_columns"):
        assert name not in names and not hasattr(harness, name)
    assert "FinalSink" not in names and not hasattr(gsqglab.solver, "FinalSink")
    retired = {
        gsqglab.solver: ("step", "rhs", "SimState"),
        gsqglab.norms: ("NormReport", "norm_report", "check_l1_interpolation",
                        "weighted_l1_norm"),
        gsqglab.inequalities: ("log_smoothing_check", "trilinear_form_sym"),
    }
    for module, gone in retired.items():
        for name in gone:
            assert name not in names and not hasattr(module, name), name
    assert not hasattr(VectorField, "samples")
    assert "velocity_samples" not in inspect.signature(flux_divergence).parameters
    # the stepping core is box-only, and the benchmark's tracer binds path by name
    assert list(inspect.signature(gsqglab.solver._integrating_factors).parameters) == [
        "plan", "dt"]
    assert list(inspect.signature(write_checkpoint).parameters) == ["field", "params", "t", "path"]


# a module binding it imports but never reads, and why it is kept
UNREAD_IMPORTS = {
    # solver.py's comment: perfbench/test_perfbench.py reads solver.advect
    ("solver", "advect"),
}


def test_modules_read_every_name_they_import():
    unread = []
    sources = [*Path(gsqglab.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        if path.name == "__init__.py":   # the package's exports
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (path.stem, name) not in UNREAD_IMPORTS:
                        unread.append(f"{path.name}:{node.lineno}: {name}")
    assert unread == []


def test_cli_blow_up_reports_one_line_on_stderr(tmp_path):
    # the stepping core runs with numpy's overflow and invalid-value warnings
    # off: the BlowUpError message is the run's only output on stderr
    body = SIM_BODY.replace("T = 0.02\ndt = 1e-3", "T = 0.5\ndt = 0.05\ncfl = inf")
    body = body.replace("n = 16", "n = 32").replace("amplitude = 0.05", "amplitude = 1e3")
    cfg = run_cfg(tmp_path, body)
    proc = _fresh_python(
        "-m", "gsqglab.cli", "simulate", "--config", str(cfg), "--out", "o", "--seed", "5",
        cwd=tmp_path,
    )
    assert proc.returncode == EXIT_BLOWUP
    assert proc.stdout == ""
    assert proc.stderr.startswith("blow-up detected at t=0.15 (step 3): l2=")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


# ---------------------------------------------------------------------------
# verification batteries


def test_verify_operators_all_pass_quickly():
    import time

    t0 = time.time()
    rows = verify_operators(seed=0)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    assert len(rows) == 13
    assert all(r.passed for r in rows)
    names = {r.name.split()[0] for r in rows}
    assert "advect" in names


def _scalar_direct_advect(u, theta):
    """The scalar loop with the advection symbol, dealias-masked and mean
    zeroed: the bytes harness._direct_advect must give."""
    g = theta.grid
    out = scalar_direct_bilinear(
        (u.u1.coeffs, u.u2.coeffs), theta.coeffs, harness._advect_symbol(g.k_fundamental)
    )
    out *= _dealias_mask(g)
    out[0, 0] = 0.0
    return out


@pytest.mark.parametrize("fraction", [2 / 3, 0.9, 1.0])
def test_direct_advect_is_the_scalar_loop_bit_for_bit(fraction):
    g = GridSpec(16, dealias_fraction=fraction)
    theta = random_field(g, seed=51)
    u = velocity_from_scalar(random_field(g, seed=52), ModelParams(beta=1.3, kappa=0.5))
    got = harness._direct_advect(u, theta)
    assert got.tobytes() == _scalar_direct_advect(u, theta).tobytes()


def test_direct_advect_skips_zero_modes_as_the_scalar_loop_does():
    g = GridSpec(16)
    theta = field_from_modes(g, {(1, 2): 0.5 - 0.25j, (-3, 1): 1.0, (0, 4): 0.7})
    u = velocity_from_scalar(
        field_from_modes(g, {(2, 0): 1.0, (1, -1): 0.3j}), ModelParams(beta=1.3, kappa=0.5)
    )
    got = harness._direct_advect(u, theta)
    assert np.any(got)
    assert got.tobytes() == _scalar_direct_advect(u, theta).tobytes()


def _kernel_symbols(g):
    """Each symbol the direct kernel serves, with the number of f's it takes.
    The flux's first term is the advection symbol."""
    return {
        "advect": (2, harness._advect_symbol(g.k_fundamental)),
        "product": (1, unit_symbol),
        "flux_second": (2, flux_second_symbol(g, ModelParams(beta=1.7, kappa=0.5))),
        "flux_second_log": (
            2,
            flux_second_symbol(g, ModelParams(beta=2.0, kappa=0.5, velocity_law="log", mu=0.7)),
        ),
        "block": (1, bracket_symbol(block_tau(g, 2))),
        "singular": (1, bracket_symbol(singular_tau(g, 2, 1.3))),
        "gevrey": (1, bracket_symbol(gevrey_tau(g, 0.4, 0.05, 0.5, 3))),
        "log": (1, bracket_symbol(log_tau(g, 1.0, 2))),
    }


@pytest.mark.parametrize("fraction", [2 / 3, 0.9, 1.0])
@pytest.mark.parametrize("name", list(_kernel_symbols(GridSpec(16))))
def test_direct_bilinear_is_the_scalar_loop_bit_for_bit(name, fraction):
    g = GridSpec(16, dealias_fraction=fraction)
    count, symbol = _kernel_symbols(g)[name]
    keep = _dealias_mask(g)
    fs = tuple(random_field(g, seed=61 + i, decay=1.0).coeffs * keep for i in range(count))
    gc = random_field(g, seed=60, decay=1.0).coeffs * keep
    got = harness._direct_bilinear(fs, gc, symbol)
    assert np.any(got)
    assert got.tobytes() == scalar_direct_bilinear(fs, gc, symbol).tobytes()


def test_direct_bilinear_blocks_of_modes_are_the_scalar_loop_bit_for_bit():
    # n = 32: each row p1 of modes is two blocks of 16 columns p2
    g = GridSpec(32)
    fs = tuple(random_field(g, seed=71 + i, band=6).coeffs for i in range(2))
    gc = random_field(g, seed=70, band=6).coeffs
    symbol = harness._advect_symbol(g.k_fundamental)
    got = harness._direct_bilinear(fs, gc, symbol)
    assert np.any(got)
    assert got.tobytes() == scalar_direct_bilinear(fs, gc, symbol).tobytes()


def _without_u2_term(u, theta):
    n = theta.grid.n
    return advect(VectorField(u.u1, SpectralField(u.grid, np.zeros((n, n)))), theta)


def _without_dealias(u, theta):
    k1, k2 = lattice_k(theta.grid)
    d1 = SpectralField(theta.grid, 1j * k1 * theta.coeffs)
    d2 = SpectralField(theta.grid, 1j * k2 * theta.coeffs)
    return SpectralField(
        theta.grid,
        multiply_fields(u.u1, d1).coeffs + multiply_fields(u.u2, d2).coeffs,
    )


@pytest.mark.parametrize(
    "mutant",
    [_without_u2_term, lambda u, theta: -advect(u, theta), _without_dealias],
    ids=["drop-u2-term", "flip-sign", "skip-dealias"],
)
def test_advect_oracle_kills_mutants(monkeypatch, mutant):
    monkeypatch.setattr(harness, "advect", mutant)
    rows = {r.name: r.passed for r in verify_operators(seed=0)}
    assert rows.pop("advect vs direct convolution") is False
    assert all(rows.values())


def test_cli_verify_operators_off_the_default_grid(tmp_path):
    cfg = run_cfg(
        tmp_path,
        "[scenario]\nkind = verify-operators\n[grid]\nn = 32\ndealias_fraction = 0.9\n",
    )
    out = tmp_path / "o"
    assert main(["verify-operators", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    cols = read_csv_columns(str(out / "verify-operators.csv"))
    assert len(cols["passed"]) == 13
    assert all(v == 1.0 for v in cols["passed"])


def test_verify_inequalities_small_battery_clean():
    rows = verify_inequalities(n_triples=4, n_fields=3, n_draws=20, seed=5)
    assert all(r.passed for r in rows)
    kinds = {r.name.split()[0] for r in rows}
    assert kinds == {"bony", "shell", "gevrey-interp"}


# ---------------------------------------------------------------------------
# the amplitude sweep


@pytest.mark.parametrize(
    "start, factor",
    [(0.0, 2.0), (-1.0, 2.0), (1.0, 1.0), (1.0, 0.5), (math.inf, 2.0), (1.0, math.nan)],
)
def test_amplitude_sweep_refuses_a_doubling_that_never_ends(start, factor, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("picard_solve ran")

    monkeypatch.setattr(harness, "picard_solve", no_work)
    base = random_test_field(EnsembleSpec(GridSpec(16), 3.0, 1, seed=101), 0)
    with pytest.raises(ValueError, match="start"):
        amplitude_threshold_sweep(
            base, ModelParams(beta=1.7, kappa=0.5), T=0.01, dt=1e-3, start=start, factor=factor
        )


@pytest.mark.parametrize("amp_cap", [math.nan, 0.5, -1.0, math.inf])
def test_amplitude_sweep_refuses_a_cap_it_cannot_sweep_to(amp_cap, monkeypatch):
    # a cap below start, or NaN, would end the sweep with no attempt and no
    # word; an infinite one would stop the doubling only at a failure
    def no_work(*args, **kwargs):
        raise AssertionError("picard_solve ran")

    monkeypatch.setattr(harness, "picard_solve", no_work)
    base = random_test_field(EnsembleSpec(GridSpec(16), 3.0, 1, seed=101), 0)
    with pytest.raises(ValueError, match="amp_cap"):
        amplitude_threshold_sweep(
            base, ModelParams(beta=1.7, kappa=0.5), T=0.01, dt=1e-3, start=1.0, amp_cap=amp_cap
        )


def test_amplitude_sweep_brackets_the_contraction_edge():
    grid = GridSpec(16)
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    base = random_test_field(EnsembleSpec(grid, 3.0, 1, seed=101), 0)
    sweep = amplitude_threshold_sweep(
        base, params, T=0.01, dt=1e-3, start=200.0, factor=8.0, bisection_steps=1
    )
    assert sweep.largest_good is not None
    assert sweep.smallest_bad is not None
    assert sweep.largest_good < sweep.smallest_bad
    outcomes = {o for _, o, _ in sweep.rows}
    assert "contracting" in outcomes
