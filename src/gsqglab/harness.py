"""Scenario configuration, execution, persistence, and report emission.

Everything the command-line tool does lives here as plain functions so the
test suite can drive it without a subprocess: config parsing with exhaustive
violation reporting, the named initial-data library, bit-exact checkpoints,
full-precision CSV output, decay-study's plot data with fitted slopes, and
the operator / inequality verification batteries. Each report's CSV layout
hands write_csv a header and rows of plain values; write_csv alone formats
cells.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import struct
import sys
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .dyadic import bernstein_check, decompose
from .errors import (
    BlowUpError,
    CheckpointError,
    ConfigError,
    CourantError,
    GsqgError,
    OverflowGuardError,
    PicardConvergenceError,
)
from .inequalities import EnsembleSpec, _split_forms, random_test_field
from .norms import check_gevrey_interpolation, sobolev_norm
from .solver import (
    DEFAULT_CFL,
    DecayReport,
    GevreyTrackReport,
    PicardIterate,
    ReduceSink,
    RunSummary,
    ScalingReport,
    Trajectory,
    _admissible_initial,
    _loglog_fit,
    decay_study,
    default_delta,
    gevrey_report,
    gevrey_term,
    linear_heat_propagator,
    picard_solve,
    scaling_equivariance_check,
    simulate,
)
from .spectral import (
    GridSpec,
    ModelParams,
    SpectralField,
    VectorField,
    advect,
    field_from_modes,
    fractional_laplacian,
    from_physical,
    gevrey_avg_operator,
    gevrey_operator,
    log_multiplier,
    perp_gradient,
    velocity_from_scalar,
)
from .spectral import _dealias_mask, _flip_index, _full_from_half, _homog_weight, _wrap_half

INITIAL_PROFILES = ("single_mode", "two_mode", "ensemble", "vortex_pair", "checkpoint")

CHECKPOINT_MAGIC = b"GSQG1\x00"
CHECKPOINT_VERSION = 1
_LAW_CODES = {"power": 0, "log": 1}
_LAW_NAMES = {v: k for k, v in _LAW_CODES.items()}


def _fmt(x) -> str:
    """Full-precision decimal for CSV cells: 17 significant digits round-trip.
    A string passes through, and None, a value not measured, reads nan."""
    if isinstance(x, str):
        return x
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GevreyTrackSpec:
    """Analyticity-tracking knobs; None means derive from the model params."""

    alpha: float | None = None
    eps_rate: float = 0.0
    delta: float | None = None

    def resolved(self, params: ModelParams) -> tuple[float, float, float]:
        alpha = self.alpha if self.alpha is not None else 0.5 * params.kappa
        delta = self.delta if self.delta is not None else default_delta(params)
        return alpha, self.eps_rate, delta


@dataclass(frozen=True)
class InitialSpec:
    """Named initial-data profile, reproducible from config text alone."""

    profile: str
    amplitude: float = 1.0
    mode: tuple[int, int] = (1, 0)
    mode2: tuple[int, int] = (1, 1)
    amplitude2: float = 0.5
    decay: float = 3.0
    member: int = 0
    width: float | None = None
    separation: float | None = None
    path: str | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated description of one study run; parse_config fills
    every field, with the defaults of the key table _KEYS."""

    kind: str
    grid: GridSpec | None
    params: ModelParams | None
    initial: InitialSpec | None
    T: float
    dt: float
    snapshot_stride: int
    seed: int
    out_dir: str
    checkpoint_path: str | None
    resume_path: str | None
    c_cfl: float
    gevrey: GevreyTrackSpec
    scaling_lam: int
    scaling_tol: float
    decay_delta: float | None
    decay_k_list: tuple[int, ...]
    picard_tol: float
    picard_max_iter: int
    verify_triples: int
    verify_fields: int
    verify_draws: int


def _int(text: str) -> int:
    if text.strip().lower().startswith("0x"):
        return int(text, 16)
    return int(text)


def _k_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; () when a part is not one, which the row refuses."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        return ()


_positive = partial(operator.lt, 0)      # 0 < value
_nonnegative = partial(operator.le, 0)   # 0 <= value


class _Required(NamedTuple):
    """The default of a key that a present section must set: its refusal."""

    message: str


class _Key(NamedTuple):
    """One config key: its converter, default and check. A value that fails
    check is refused with message (a str, or a function of the value); a float
    must also be finite unless finite is False. The value fills the
    ScenarioConfig or spec field named field, or else the one named key."""

    section: str
    key: str
    conv: Callable = float
    default: object = None
    check: Callable | None = None
    message: str | Callable = ""
    field: str | None = None
    finite: bool = True


_KEYS = {f"{row.section}.{row.key}": row for row in (
    _Key("scenario", "kind", str, _Required("required (or select a subcommand)"),
         lambda v: v in SCENARIOS,
         lambda v: f"{v!r} is not one of {', '.join(SCENARIO_KINDS)}"),
    _Key("scenario", "T", float, 1.0, _positive, "horizon must be positive"),
    _Key("scenario", "dt", float, 1e-3, _positive, "step must be positive"),
    _Key("scenario", "snapshot_stride", _int, 1, _positive, "must be a positive integer"),
    _Key("scenario", "seed", _int, 0, lambda v: 0 <= v < 2**64,
         lambda v: "must be nonnegative" if v < 0 else "must be below 2**64"),
    _Key("scenario", "out", str, "gsqg-out", field="out_dir"),
    _Key("scenario", "checkpoint", str, field="checkpoint_path"),
    _Key("scenario", "resume", str, field="resume_path"),
    # cfl = inf switches the Courant guard off
    _Key("scenario", "cfl", float, DEFAULT_CFL, _positive, "Courant bound must be positive",
         "c_cfl", finite=False),
    _Key("grid", "n", _int, _Required("required when a [grid] section is present"),
         lambda v: v >= 16 and v & (v - 1) == 0, "must be a power of two >= 16"),
    _Key("grid", "period", float, 2.0 * math.pi, _positive, "must be positive"),
    _Key("grid", "dealias_fraction", float, 2.0 / 3.0, lambda v: 0 < v <= 1,
         "must lie in (0, 1]"),
    _Key("model", "beta", float, _Required("required"), lambda v: 0 < v <= 2,
         "constitutive exponent must lie in (0, 2]"),
    # the paper's supercritical range; ModelParams itself accepts kappa up to 2
    _Key("model", "kappa", float, _Required("required"), lambda v: 0 < v < 1,
         "dissipation order must lie in (0, 1)"),
    _Key("model", "gamma", float, 0.0, _nonnegative, "dissipation strength must be nonnegative"),
    _Key("model", "mu", float, 1.0, _positive, "must be positive"),
    _Key("model", "eps_visc", float, 0.0, _nonnegative, "viscosity must be nonnegative"),
    _Key("model", "velocity_law", str, None, lambda v: v in ("power", "log"),
         "must be 'power' or 'log'"),
    _Key("initial", "profile", str, _Required("required when [initial] is present"),
         lambda v: v in INITIAL_PROFILES,
         lambda v: f"{v!r} is not one of {', '.join(INITIAL_PROFILES)}"),
    _Key("initial", "amplitude", float, 1.0),
    _Key("initial", "m1", _int, 1),
    _Key("initial", "m2", _int, 0),
    _Key("initial", "m1_2", _int, 1),
    _Key("initial", "m2_2", _int, 1),
    _Key("initial", "amplitude2", float, 0.5),
    _Key("initial", "decay", float, 3.0),
    _Key("initial", "member", _int, 0, _nonnegative, "must be nonnegative"),
    _Key("initial", "width", float, None, _positive, "must be positive"),
    _Key("initial", "separation", float, None, _positive, "must be positive"),
    _Key("initial", "path", str),
    _Key("gevrey", "alpha"),
    _Key("gevrey", "eps_rate", float, 0.0, _nonnegative, "must be nonnegative"),
    _Key("gevrey", "delta", float, None, _nonnegative, "must be nonnegative"),
    _Key("scaling", "lam", _int, 2, lambda v: v >= 2,
         "scaling factor must be an integer >= 2", "scaling_lam"),
    _Key("scaling", "tol", float, 1e-8, _positive, "must be positive", "scaling_tol"),
    _Key("decay", "delta", float, None, _nonnegative, "must be nonnegative", "decay_delta"),
    _Key("decay", "k_list", _k_list, (0,), lambda v: v != () and min(v) >= 0,
         "comma-separated nonnegative integers", "decay_k_list"),
    _Key("picard", "tol", float, 1e-10, _positive, "must be positive", "picard_tol"),
    _Key("picard", "max_iter", _int, 20, _positive, "must be a positive integer",
         "picard_max_iter"),
    # checked together after the loop, with one message for the three counts
    _Key("verify", "triples", _int, 100, field="verify_triples"),
    _Key("verify", "fields", _int, 100, field="verify_fields"),
    _Key("verify", "draws", _int, 500, field="verify_draws"),
)}
_SECTIONS = {row.section for row in _KEYS.values()}


def _refusal(label: str, value) -> str | None:
    """Why the converted value of the key label ('section.key') is refused, or None."""
    row = _KEYS[label]
    if row.finite and isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if row.check is None or row.check(value):
        return None
    return row.message(value) if callable(row.message) else row.message


def _parse_sections(text: str, violations: list[str]) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in _SECTIONS:
                sections.setdefault(name, {})
            else:
                violations.append(f"line {lineno}: unknown section [{name}]")
                name = None
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            violations.append(f"line {lineno}: expected key=value, got {line!r}")
        elif name is None:
            violations.append(f"line {lineno}: key {key!r} outside any known section")
        elif f"{name}.{key}" not in _KEYS:
            violations.append(f"line {lineno}: unknown key {key!r} in section [{name}]")
        elif key in sections[name]:
            violations.append(f"line {lineno}: duplicate key {key!r}")
        else:
            sections[name][key] = value
    return sections


def parse_config(text: str, default_kind: str | None = None) -> ScenarioConfig:
    """Parse and validate the plain-text key=value scenario description.

    Every violation found is collected and reported at once, each refused
    value once: a check across keys is skipped when it reads a refused key.
    Nothing is computed from a config that failed validation.
    """
    violations: list[str] = []
    sections = _parse_sections(text, violations)
    scenario = sections.setdefault("scenario", {})
    if default_kind is not None:
        scenario.setdefault("kind", default_kind)

    # values[section][field]: the converted value, or the default when absent or unparsable
    values: dict[str, dict] = {section: {} for section in _SECTIONS}
    refused: set[str] = set()
    for label, row in _KEYS.items():
        section = sections.get(row.section)
        required = isinstance(row.default, _Required)
        value, problem = (None if required else row.default), None
        if section is not None and row.key in section:
            try:
                value = row.conv(section[row.key])
            except (TypeError, ValueError):
                problem = f"cannot parse {section[row.key]!r}"
            else:
                problem = _refusal(label, value)
        elif section is not None and required:
            problem = row.default.message
        if problem is not None:
            violations.append(f"{label}: {problem}")
            refused.add(label)
        values[row.section][row.field or row.key] = value

    def usable(*labels: str) -> bool:
        return refused.isdisjoint(labels)

    run, model, initial = values["scenario"], values["model"], values["initial"]
    T, dt = run["T"], run["dt"]
    if usable("scenario.T", "scenario.dt") and abs(round(T / dt) * dt - T) > 1e-8 * T:
        violations.append("scenario.dt: dt must divide the horizon T")

    if "model" in sections and usable("model.beta", "model.velocity_law"):
        beta = model["beta"]
        if model["velocity_law"] is None:
            model["velocity_law"] = "log" if beta == 2.0 else "power"
        if model["velocity_law"] == "log":
            if "mu" not in sections["model"]:
                violations.append(
                    "model.mu: the beta=2 endpoint uses the logarithmic "
                    "velocity law, which requires an explicit mu > 0"
                )
            if beta != 2.0:
                violations.append("model.velocity_law: 'log' requires beta = 2")

    profile = initial["profile"]
    mode = (initial.pop("m1"), initial.pop("m2"))
    mode2 = (initial.pop("m1_2"), initial.pop("m2_2"))
    if usable("initial.profile"):
        if profile == "checkpoint" and initial["path"] is None:
            violations.append("initial.path: required for the checkpoint profile")
        if profile == "ensemble" and usable("initial.decay") and initial["decay"] <= 1.0:
            violations.append("initial.decay: ensemble spectra need decay > 1")
        if (profile in ("single_mode", "two_mode") and usable("initial.m1", "initial.m2")
                and mode == (0, 0)):
            violations.append("initial.m1/m2: the mode must not be the mean")

    alpha, kappa = values["gevrey"]["alpha"], model["kappa"]
    if (alpha is not None and kappa is not None and usable("gevrey.alpha", "model.kappa")
            and not 0 < alpha < kappa):
        violations.append("gevrey.alpha: must lie in (0, kappa)")

    if min(values["verify"].values()) < 1:
        violations.append("verify.triples/fields/draws: must be positive integers")

    kind, resume = run["kind"], run["resume_path"]
    if usable("scenario.kind"):
        if default_kind is not None and kind != default_kind:
            violations.append(
                f"scenario.kind: config says {kind!r} but the subcommand is {default_kind!r}"
            )
        for key in ("checkpoint", "resume"):
            if kind != "simulate" and key in scenario:
                violations.append(f"scenario.{key}: applies to the simulate kind only")
        if kind == "verify-operators" and usable("grid.n") and (values["grid"]["n"] or 0) > 128:
            violations.append("grid.n: verify-operators' direct O(n^4) convolution oracle "
                              "allows n <= 128")
        if SCENARIOS[kind].needs_inputs:
            if ("grid" not in sections and resume is None and usable("initial.profile")
                    and profile != "checkpoint"):
                violations.append(f"grid: section required for scenario kind {kind!r}")
            if "model" not in sections:
                violations.append(f"model: section required for scenario kind {kind!r}")
            if "initial" not in sections and resume is None:
                violations.append(f"initial: section required for scenario kind {kind!r}")

    if violations:
        raise ConfigError(violations)

    return ScenarioConfig(
        grid=GridSpec(**values["grid"]) if "grid" in sections else None,
        params=ModelParams(**model) if "model" in sections else None,
        initial=InitialSpec(mode=mode, mode2=mode2, **initial) if "initial" in sections else None,
        gevrey=GevreyTrackSpec(**values["gevrey"]),
        **run, **values["scaling"], **values["decay"], **values["picard"], **values["verify"],
    )


# ---------------------------------------------------------------------------
# initial-data library


def _gaussian_pair(grid: GridSpec, amplitude: float, width: float, separation: float):
    """Opposite-signed smoothed vortex pair, periodized over adjacent images."""
    x1, x2 = grid.sample_points()
    L = grid.period
    c1 = (0.5 * L - 0.5 * separation, 0.5 * L)
    c2 = (0.5 * L + 0.5 * separation, 0.5 * L)
    total = np.zeros((grid.n, grid.n))
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            for center, sign in ((c1, 1.0), (c2, -1.0)):
                d1 = x1 - center[0] + sx * L
                d2 = x2 - center[1] + sy * L
                total += sign * np.exp(-(d1 * d1 + d2 * d2) / (2.0 * width * width))
    return amplitude * total


def _profile_norm(f: SpectralField, s: float) -> float:
    """The homogeneous H^s norm a profile is scaled by to reach its
    amplitude, summed over the mirrored full lattice in one np.sum.

    It is sobolev_norm's value up to rounding, but not its summation order:
    an initial state's bits, which checkpoints store and every run starts
    from, stay fixed however norms._parseval orders its sum.
    """
    if not f.mean_zero:
        raise ValueError("homogeneous Sobolev norm requires a mean-zero field")
    c = f.coeffs
    sq = c.real**2 + c.imag**2
    return f.grid.period * math.sqrt(float(np.sum(_homog_weight(f.grid, 2.0 * s) * sq)))


def build_initial_data(
    spec: InitialSpec, grid: GridSpec, params: ModelParams, seed: int = 0
) -> SpectralField:
    """Materialize a named profile on the grid.

    The ensemble profile is dealias-masked, de-meaned, and scaled so its
    critical Sobolev norm equals the requested amplitude, making configured
    amplitudes comparable across resolutions.
    """
    if spec.profile == "single_mode":
        return field_from_modes(grid, {spec.mode: spec.amplitude})
    if spec.profile == "two_mode":
        return field_from_modes(
            grid, {spec.mode: spec.amplitude, spec.mode2: spec.amplitude2}
        )
    if spec.profile == "ensemble":
        member = random_test_field(
            EnsembleSpec(grid, spec.decay, spec.member + 1, seed=seed), spec.member
        )
        f = _admissible_initial(member)
        norm = _profile_norm(f, params.sigma_c)
        if norm == 0.0:
            raise ValueError("ensemble member vanished after masking")
        return _wrap_half(grid, f.half * (spec.amplitude / norm))
    if spec.profile == "vortex_pair":
        width = spec.width if spec.width is not None else grid.period / 12.0
        sep = spec.separation if spec.separation is not None else grid.period / 4.0
        for label, value in (("initial.width", width), ("initial.separation", sep)):
            problem = _refusal(label, value)
            if problem is not None:
                raise ValueError(f"{label}: {problem}")
        samples = _gaussian_pair(grid, spec.amplitude, width, sep)
        return _admissible_initial(from_physical(samples, grid))
    if spec.profile == "checkpoint":
        if spec.path is None:
            raise ValueError("checkpoint profile needs a path")
        return _checkpoint_field(read_checkpoint(spec.path), grid)
    raise ValueError(f"unknown initial profile {spec.profile!r}")


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(frozen=True)
class Checkpoint:
    """Self-describing snapshot of a run: parameters, time, coefficients."""

    version: int
    grid: GridSpec
    params: ModelParams
    t: float
    field: SpectralField


def _checkpoint_field(ckpt: Checkpoint, grid: GridSpec) -> SpectralField:
    """The checkpoint's state placed on the configured grid.

    The header stores n and period but not the dealias fraction, so the
    state takes the fraction of grid. A state with modes outside grid's
    dealias disc would lose them to the solver's initial restriction;
    it is refused instead, like an n or period mismatch.
    """
    if ckpt.grid.n != grid.n or ckpt.grid.period != grid.period:
        raise CheckpointError(
            f"checkpoint grid {ckpt.grid.n} x period {ckpt.grid.period:g} does "
            f"not match configured grid {grid.n} x period {grid.period:g}; "
            "no silent resampling"
        )
    if np.any(ckpt.field.coeffs[~_dealias_mask(grid)]):
        raise CheckpointError(
            "checkpoint state has modes outside the dealias disc of the configured "
            f"grid (dealias_fraction {grid.dealias_fraction:g}); no silent resampling"
        )
    return _wrap_half(grid, ckpt.field.half.copy())


def write_checkpoint(field: SpectralField, params: ModelParams, t: float, path: str) -> None:
    """Serialize a state, the mean-zero field at time t >= 0: fixed
    little-endian header, half-spectrum payload with each zero written as
    +0.0, so the bytes depend on values alone."""
    if not field.mean_zero:
        raise ValueError("simulation states must be mean-zero")
    if t < 0 or not math.isfinite(t):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    grid = field.grid
    half = (field.half + 0.0).astype("<c16")
    header = CHECKPOINT_MAGIC + struct.pack(
        "<IId5dBd",
        CHECKPOINT_VERSION,
        grid.n,
        grid.period,
        params.beta,
        params.kappa,
        params.gamma,
        params.mu,
        params.eps_visc,
        _LAW_CODES[params.velocity_law],
        t,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(half.tobytes())


def read_checkpoint(path: str) -> Checkpoint:
    """Load and validate a checkpoint; the round trip is bit-exact, zeros as +0.0."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: truncated before the magic bytes")
    if buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint file")
    head = struct.Struct("<IId5dBd")
    offset = len(CHECKPOINT_MAGIC)
    if len(buf) < offset + head.size:
        raise CheckpointError(f"{path}: truncated header")
    version, n, period, beta, kappa, gamma, mu, eps_visc, law_code, t = head.unpack_from(
        buf, offset
    )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    if law_code not in _LAW_NAMES:
        raise CheckpointError(f"{path}: unknown velocity-law code {law_code}")
    payload = buf[offset + head.size :]
    expected = n * (n // 2 + 1) * 16
    if len(payload) != expected:
        raise CheckpointError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected}"
        )
    try:
        grid = GridSpec(n, period)
        params = ModelParams(
            beta=beta,
            kappa=kappa,
            gamma=gamma,
            mu=mu,
            eps_visc=eps_visc,
            velocity_law=_LAW_NAMES[law_code],
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid header values: {exc}") from exc
    half = np.frombuffer(payload, dtype="<c16").reshape(n, n // 2 + 1)
    # a plain mirror: the checks below, not the mirror, reject bad content
    full = _full_from_half(half, n)
    # the stored redundancy must already be consistent
    col0 = half[:, 0]
    if not np.array_equal(col0, np.conj(col0[_flip_index(n)])):
        raise CheckpointError(f"{path}: stored coefficients break Hermitian symmetry")
    try:
        field = SpectralField(grid, full)
    except ValueError as exc:
        raise CheckpointError(f"{path}: stored coefficients rejected: {exc}") from exc
    if not np.array_equal(field.coeffs, full):
        raise CheckpointError(f"{path}: stored coefficients are not in canonical form")
    if not (t >= 0 and math.isfinite(t)):
        raise CheckpointError(f"{path}: invalid time {t}")
    return Checkpoint(version=version, grid=grid, params=params, t=t, field=field)


# ---------------------------------------------------------------------------
# CSV and plot-data emission


@dataclass(frozen=True)
class CheckRow:
    """One verification measurement against its tolerance."""

    name: str
    measured: float
    limit: float
    passed: bool


def _snapshot_cells(params: ModelParams, gevrey: GevreyTrackSpec):
    """cells(t, field, row): a snapshot's simulate.csv cells, (row,
    hs_crit_delta, gevrey_tracked), its row and the two cells it does not
    hold, hs_crit_delta and the Gevrey term."""
    alpha, eps_rate, delta = gevrey.resolved(params)
    sigma_hi = params.sigma_c + delta

    def cells(t, f, row):
        return row, sobolev_norm(f, sigma_hi), gevrey_term(t, f, params, alpha, eps_rate, delta)

    return cells


def _snapshot_table(times, cells, t0: float):
    header = ("t", "l2", "hs_crit", "hs_crit_delta", "gevrey_tracked", "energy_residual",
              "max_u", "courant")
    return header, (
        (t0 + t, row.l2, row.hs_crit, hs_delta, g, row.energy_residual, row.max_u, row.courant)
        for t, (row, hs_delta, g) in zip(times, cells, strict=True)
    )


def _csv_rows_for_trajectory(traj: Trajectory, gevrey: GevreyTrackSpec, t0: float):
    cells = map(_snapshot_cells(traj.params, gevrey), traj.times, traj.fields, traj.rows)
    return _snapshot_table(traj.times, cells, t0)


def _csv_rows_for_summary(run: RunSummary, _gevrey, t0: float):
    """The table of a run whose ReduceSink kept _snapshot_cells: each cell
    holds its snapshot's row, so the summary keeps no rows of its own."""
    return _snapshot_table(run.times, run.cells, t0)


def _csv_rows_for_picard(iterates, *_):
    header = ("iterate", "diff_sup_l2", "diff_contraction", "contraction_ratio", "converged")
    return header, (
        (it.index, it.diff_sup_l2, it.diff_contraction, it.contraction_ratio, it.converged)
        for it in iterates
    )


def _csv_rows_for_decay(report, *_):
    ks = sorted(report.series)
    return ("t", *(f"d{k}" for k in ks)), zip(report.times, *(report.series[k] for k in ks))


def _csv_rows_for_gevrey(report, *_):
    return ("t", "gevrey_tracked"), zip(report.times, report.series)


def _csv_rows_for_fields(cls, report, *_):
    """A flat dataclass table: a column per field of cls, a row per record."""
    names = tuple(f.name for f in fields(cls))
    records = (report,) if isinstance(report, cls) else report
    return names, (tuple(getattr(r, name) for name in names) for r in records)


# CSV layout per report type; a list or tuple is keyed by its element type.
# Every layout takes (report, gevrey, t0) and returns (header, rows): the column
# names and rows of plain values, which write_csv alone formats, with _fmt.
# Only the trajectory reads gevrey, and only it and the run summary read t0.
_CSV_LAYOUTS = {
    Trajectory: _csv_rows_for_trajectory,
    RunSummary: _csv_rows_for_summary,
    DecayReport: _csv_rows_for_decay,
    GevreyTrackReport: _csv_rows_for_gevrey,
    ScalingReport: partial(_csv_rows_for_fields, ScalingReport),
    PicardIterate: _csv_rows_for_picard,
    CheckRow: partial(_csv_rows_for_fields, CheckRow),
}


def write_csv(obj, path: str, *, gevrey: GevreyTrackSpec | None = None, t0: float = 0.0):
    """Write a diagnostics table for any report the scenarios produce.

    Numbers are printed with 17 significant digits, so re-parsing recovers
    the in-memory doubles exactly. Row order is deterministic. An empty
    sequence gives the header of the check table; any other type raises
    TypeError. Every line is formed before the file is opened, so a table
    that cannot be formed leaves no file.
    """
    if isinstance(obj, (list, tuple)):
        key = type(obj[0]) if obj else CheckRow
    else:
        key = type(obj)
    if key not in _CSV_LAYOUTS:
        raise TypeError(f"no CSV layout for {type(obj).__name__}")
    header, rows = _CSV_LAYOUTS[key](obj, gevrey or GevreyTrackSpec(), t0)
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_plot_data(path: str, y: str, xs, ys, slope: float):
    """Write a fitted log-log series of column y against t: a header, one
    "x y" line per point and a '# slope=' comment."""
    lines = [f"# x=t y={y} transform=loglog"]
    lines += [f"{_fmt(a)} {_fmt(b)}" for a, b in zip(xs, ys)]
    lines.append(f"# slope={_fmt(slope)}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verification batteries


def _direct_multiplier(field: SpectralField, symbol) -> np.ndarray:
    """Apply a scalar symbol mode by mode with an explicit Python loop.

    symbol receives the integer mode pair; any wavevector scaling is its
    own job, so each check spells out the complete per-mode formula.
    """
    grid = field.grid
    n = grid.n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    coeffs = field.coeffs
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = symbol(int(m[i]), int(m[j])) * coeffs[i, j]
    return out


def _direct_bilinear(fs: tuple, g: np.ndarray, symbol) -> np.ndarray:
    """The direct O(N^4) bilinear sum behind every product check:
    out(k) = sum over p + q = k of (sum_j sigma_j(k, q) f_j(p)) g(q), over
    the open lattice |k_i| < n/2.

    fs is a tuple of full coefficient arrays and g one more. symbol(k1, k2,
    q1, q2) takes integer lattice modes, as arrays, and returns one sigma_j
    per f_j, each an array or a scalar; any wavevector scaling is its own
    job. No dealias mask is applied: callers do that. The plain product is
    sigma = 1, advection sigma_j = i k0 q_j, a commutator [T, g] f, paired
    with h by np.vdot, sigma = tau(k) - tau(q).

    The symbol is evaluated once per block of modes p (one row p1, 16
    columns p2, so a block's arrays hold at most 16 n^2 pairs; n is a
    power of two >= 16), on all the block's pairs
    (p, q) with some f_j(p) != 0, g(q) != 0 and p + q inside the lattice.
    Then for each such mode p, in row-major order, one array update adds
    the terms of its pairs into out[p + q]. q -> p + q is injective, so each
    output mode receives its terms in the order of a scalar loop over
    (p, q). Complex products are written in real arithmetic,
    (ar br - ai bi, ar bi + ai br), the rounding of a scalar complex
    multiply (numpy's array multiply rounds differently), so the result is
    bit for bit that of the scalar loop evaluating the same symbol. It
    makes no transform and shares no code with the product engine.
    """
    n = g.shape[0]
    half = n // 2
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    j1, j2 = np.nonzero(g)
    q1, q2, c = m[j1], m[j2], g[j1, j2]
    s1 = m[:, None] + q1                            # p1 + q1 for every p1, q
    s2 = m[:, None] + q2
    inside1, inside2 = np.abs(s1) < half, np.abs(s2) < half
    row, col = (s1 % n) * n, s2 % n
    live = np.any([f != 0 for f in fs], axis=0)     # the modes p of the f's
    out_re, out_im = np.zeros(n * n), np.zeros(n * n)
    for i1, lo in itertools.product(range(n), range(0, n, 16)):
        cols = slice(lo, lo + 16)
        pair = live[i1, cols, None] & inside1[i1] & inside2[cols]
        if not pair.any():
            continue
        # the block's pairs (p, q), ordered by p2, then by q
        k1, kq1, kq2, cr, ci = (
            np.broadcast_to(x, pair.shape)[pair] for x in (s1[i1], q1, q2, c.real, c.imag)
        )
        k2, dst = s2[cols][pair], (row[i1] + col[cols])[pair]
        sigma = [np.broadcast_to(x, k1.shape) for x in symbol(k1, k2, kq1, kq2)]
        ends = [0, *np.cumsum(pair.sum(axis=1)).tolist()]
        for i, p2 in enumerate(range(lo, lo + 16)):
            if not live[i1, p2]:
                continue
            e = slice(ends[i], ends[i + 1])
            tr = ti = None
            for f, x in zip(fs, sigma):
                ar, ai, sr, si = f[i1, p2].real, f[i1, p2].imag, x.real[e], x.imag[e]
                pr, pi = ar * sr - ai * si, ar * si + ai * sr
                tr, ti = (pr, pi) if tr is None else (tr + pr, ti + pi)
            d, gr, gi = dst[e], cr[e], ci[e]
            out_re[d] += tr * gr - ti * gi
            out_im[d] += tr * gi + ti * gr
    out = np.empty((n, n), dtype=complex)
    out.real = out_re.reshape(n, n)
    out.imag = out_im.reshape(n, n)
    return out


def _advect_symbol(k0: float):
    """sigma_j(k, q) = i k0 q_j: _direct_bilinear((u1, u2), theta, .) is
    u . grad(theta)."""
    return lambda k1, k2, q1, q2: ((1j * k0) * q1, (1j * k0) * q2)


def _direct_advect(u: VectorField, theta: SpectralField) -> np.ndarray:
    """The advection term u . grad(theta) by _direct_bilinear,
    dealias-masked and mean zeroed."""
    grid = theta.grid
    out = _direct_bilinear(
        (u.u1.coeffs, u.u2.coeffs), theta.coeffs, _advect_symbol(grid.k_fundamental)
    )
    out *= _dealias_mask(grid)
    out[0, 0] = 0.0
    return out


@lru_cache(maxsize=None)
def _oracle_gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    """64 Gauss-Legendre nodes and weights on [0, 1].

    The oracle's own copy, not spectral._gl_nodes, so that it stays
    independent of the operator it checks.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    return 0.5 * (x + 1.0), 0.5 * w


def _avg_symbol_scalar(c: float, alpha: float) -> float:
    """Scalar 64-node Gauss-Legendre value of integral_0^1 exp(c t^alpha) dt.

    Uses the same node set and the same endpoint-power branch choice as the
    vectorized operator, evaluated one mode at a time.
    """
    tau, wt = _oracle_gl_nodes()
    if 1.0 / alpha - 1.0 >= alpha:
        vals = (1.0 / alpha) * tau ** (1.0 / alpha - 1.0) * np.exp(c * tau)
    else:
        vals = np.exp(c * tau**alpha)
    return float(vals @ wt)


def verify_operators(seed: int = 0, grid: GridSpec | None = None) -> list[CheckRow]:
    """Check every Fourier-multiplier operation against a per-mode loop, and
    the advection product against a direct O(N^4) convolution.

    The convolution oracle (`_direct_advect`, the kernel `_direct_bilinear`
    with the advection symbol) shares no code with the product engine: it
    makes no transform, and adds each velocity mode's contribution to every
    output mode in one array update, bit for bit what a scalar loop over
    mode pairs gives. On a 2-CPU host, on this battery's dealias-disc field,
    it takes about 2-3 ms at n = 16 (5-6 ms on a field that fills the
    lattice), 11-20 ms at n = 32 and 0.12-0.15 s at n = 64; the scalar loop
    takes 20-33 ms at n = 16. The whole battery takes 6-12 ms at n = 16.
    """
    grid = grid or GridSpec(16)
    rng = np.random.default_rng(seed)
    n = grid.n
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    idx = (-np.arange(n)) % n
    c = 0.5 * (c + np.conj(c[np.ix_(idx, idx)]))
    c[0, 0] = 0.0
    f = SpectralField(grid, c * _dealias_mask(grid))
    k0 = grid.k_fundamental
    tol = 1e-12

    def r_of(m1: int, m2: int) -> float:
        return k0 * math.sqrt(m1 * m1 + m2 * m2)

    rows = []

    def add(name, got, ref):
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        err = float(np.max(np.abs(got - ref))) / scale
        rows.append(CheckRow(name, err, tol, err <= tol))

    add(
        "fractional_laplacian s=0.8",
        fractional_laplacian(f, 0.8).coeffs,
        _direct_multiplier(
            f, lambda m1, m2: r_of(m1, m2) ** 0.8 if (m1, m2) != (0, 0) else 0.0
        ),
    )
    add(
        "fractional_laplacian s=-0.6",
        fractional_laplacian(f, -0.6).coeffs,
        _direct_multiplier(
            f, lambda m1, m2: r_of(m1, m2) ** -0.6 if (m1, m2) != (0, 0) else 0.0
        ),
    )
    add(
        "gevrey_operator a=0.5 lam=0.3",
        gevrey_operator(f, 0.5, 0.3).coeffs,
        _direct_multiplier(f, lambda m1, m2: math.exp(0.3 * r_of(m1, m2) ** 0.5)),
    )
    add(
        "gevrey_avg_operator a=0.5 lam=0.3",
        gevrey_avg_operator(f, 0.5, 0.3).coeffs,
        _direct_multiplier(
            f, lambda m1, m2: _avg_symbol_scalar(0.3 * r_of(m1, m2) ** 0.5, 0.5)
        ),
    )
    add(
        "log_multiplier mu=1.3",
        log_multiplier(f, 1.3).coeffs,
        _direct_multiplier(
            f, lambda m1, m2: math.log1p(r_of(m1, m2) ** 2) ** 1.3
        ),
    )
    pg = perp_gradient(f)
    add(
        "perp_gradient u1",
        pg.u1.coeffs,
        _direct_multiplier(f, lambda m1, m2: -1j * (k0 * m2)),
    )
    add(
        "perp_gradient u2",
        pg.u2.coeffs,
        _direct_multiplier(f, lambda m1, m2: 1j * (k0 * m1)),
    )

    params_pow = ModelParams(beta=1.3, kappa=0.5)
    vel = velocity_from_scalar(f, params_pow)
    add(
        "velocity power beta=1.3 u1",
        vel.u1.coeffs,
        _direct_multiplier(
            f,
            lambda m1, m2: 1j * (k0 * m2) * r_of(m1, m2) ** -0.7
            if (m1, m2) != (0, 0)
            else 0.0,
        ),
    )
    add(
        "velocity power beta=1.3 u2",
        vel.u2.coeffs,
        _direct_multiplier(
            f,
            lambda m1, m2: -1j * (k0 * m1) * r_of(m1, m2) ** -0.7
            if (m1, m2) != (0, 0)
            else 0.0,
        ),
    )
    params_log = ModelParams(beta=2.0, kappa=0.5, mu=1.0, velocity_law="log")
    vel_log = velocity_from_scalar(f, params_log)
    add(
        "velocity log mu=1 u1",
        vel_log.u1.coeffs,
        _direct_multiplier(
            f, lambda m1, m2: 1j * (k0 * m2) * math.log1p(r_of(m1, m2) ** 2)
        ),
    )
    add(
        "velocity log mu=1 u2",
        vel_log.u2.coeffs,
        _direct_multiplier(
            f, lambda m1, m2: -1j * (k0 * m1) * math.log1p(r_of(m1, m2) ** 2)
        ),
    )
    add(
        "heat multiplier t=0.37",
        linear_heat_propagator(f, 0.37, 0.8, 0.6, 0.05).coeffs,
        _direct_multiplier(
            f,
            lambda m1, m2: math.exp(
                -0.37 * (0.8 * r_of(m1, m2) ** 0.6 + 0.05 * r_of(m1, m2) ** 2)
            ),
        ),
    )

    theta = f
    u = velocity_from_scalar(theta, params_pow)
    got = advect(u, theta).coeffs
    ref = _direct_advect(u, theta)
    err = float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-300)
    rows.append(CheckRow("advect vs direct convolution", err, tol, err <= tol))
    return rows


def verify_inequalities(
    n_triples: int = 100,
    n_fields: int = 100,
    n_draws: int = 500,
    seed: int = 2026,
) -> list[CheckRow]:
    """Run the three random-ensemble inequality batteries.

    Trilinear three-way splits must reassemble to the full form; every
    dyadic block must obey the two-sided shell bound; the Gevrey
    interpolation bound must hold on every draw.
    """
    grid = GridSpec(32)
    sigmas_split = (-0.5, 0.0, 0.3, 0.9)
    sigmas_shell = (-1.5, 0.0, 1.0, 1.5)
    ens = EnsembleSpec(grid, 2.5, 3 * n_triples + n_fields, seed=seed)

    rows: list[CheckRow] = []
    for t in range(n_triples):
        f = random_test_field(ens, 3 * t)
        g = random_test_field(ens, 3 * t + 1)
        h = random_test_field(ens, 3 * t + 2)
        forms = _split_forms(f, g, h, sigmas_split)
        for sigma, (full, low, high, diag) in zip(sigmas_split, forms):
            gap = abs(full - (low + high + diag)) / abs(full)
            rows.append(
                CheckRow(f"bony triple={t} sigma={sigma:g}", gap, 1e-10, gap <= 1e-10)
            )

    for i in range(n_fields):
        f = random_test_field(ens, 3 * n_triples + i)
        for j, block in decompose(f).items():
            if float(np.max(np.abs(block.coeffs))) == 0.0:
                continue
            for sigma in sigmas_shell:
                rep = bernstein_check(f, j, sigma)
                margin = max(rep.lower - rep.ratio, rep.ratio - rep.upper)
                rows.append(
                    CheckRow(
                        f"shell field={i} j={j} sigma={sigma:g}",
                        margin,
                        0.0,
                        rep.within,
                    )
                )

    rng = np.random.default_rng(seed + 1)
    gev_ens = EnsembleSpec(grid, 2.5, n_draws, seed=seed + 2)
    for d in range(n_draws):
        f = random_test_field(gev_ens, d)
        alpha = float(rng.uniform(0.3, 0.9))
        lam = float(rng.uniform(0.05, 0.5))
        rho = float(rng.uniform(0.05, 1.0))
        s1 = float(rng.uniform(-1.0, 1.5))
        s2 = s1 + float(rng.uniform(0.1, 1.2))
        rep = check_gevrey_interpolation(f, alpha, lam, rho, s1, s2)
        rows.append(
            CheckRow(
                f"gevrey-interp draw={d}",
                rep.ratio,
                1.0,
                rep.holds,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# the amplitude sweep used to place fixed-point runs below threshold


@dataclass(frozen=True)
class ThresholdSweep:
    """Outcome of the contraction amplitude search."""

    rows: tuple
    largest_good: float | None
    smallest_bad: float | None


def amplitude_threshold_sweep(
    base: SpectralField,
    params: ModelParams,
    T: float,
    dt: float,
    *,
    start: float = 1.0,
    factor: float = 2.0,
    bisection_steps: int = 5,
    amp_cap: float = 1e4,
    max_iter: int = 25,
    c_cfl: float = DEFAULT_CFL,
) -> ThresholdSweep:
    """Locate the largest initial amplitude at which the fixed-point
    iteration still contracts, by doubling then bisection.

    Amplitude means the critical Sobolev norm the (normalized) base field is
    scaled to. Failure is any of: non-contraction, exhaustion of max_iter,
    CFL violation at the fixed dt, or blow-up. start must be positive and
    factor above 1, both finite: otherwise the doubling never reaches
    amp_cap. amp_cap must be finite and at least start: otherwise the
    doubling stops only at a failure, or makes no attempt at all.
    """
    if not (0.0 < start < math.inf and 1.0 < factor < math.inf):
        raise ValueError(f"need 0 < start and 1 < factor, both finite; got {start}, {factor}")
    if not (start <= amp_cap < math.inf):
        raise ValueError(f"need start <= amp_cap < inf; got {start}, {amp_cap}")
    norm = _profile_norm(base, params.sigma_c)
    if norm == 0.0:
        raise ValueError("base field must be nonzero")

    rows = []

    def attempt(amp: float) -> bool:
        theta0 = _wrap_half(base.grid, base.half * (amp / norm))
        try:
            its = picard_solve(
                theta0, params, T, dt, tol=1e-12, max_iter=max_iter, c_cfl=c_cfl,
                sink=ReduceSink,
            )
        except (BlowUpError, CourantError, PicardConvergenceError) as exc:
            rows.append((amp, type(exc).__name__, math.nan))
            return False
        ratios = [it.contraction_ratio for it in its if it.contraction_ratio is not None]
        worst = max(ratios) if ratios else 0.0
        ok = worst <= 0.999
        rows.append((amp, "contracting" if ok else "non-contracting", worst))
        return ok

    amp = start
    last_good: float | None = None
    first_bad: float | None = None
    while amp <= amp_cap:
        if attempt(amp):
            last_good = amp
            amp *= factor
        else:
            first_bad = amp
            break
    if last_good is not None and first_bad is not None:
        lo, hi = last_good, first_bad
        for _ in range(bisection_steps):
            mid = math.sqrt(lo * hi)
            if attempt(mid):
                lo = mid
            else:
                hi = mid
        last_good, first_bad = lo, hi
    return ThresholdSweep(
        rows=tuple(rows), largest_good=last_good, smallest_bad=first_bad
    )


# ---------------------------------------------------------------------------
# scenario execution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_BLOWUP = 4
EXIT_CFL = 5
EXIT_OVERFLOW = 6
EXIT_VERIFY = 7
EXIT_CHECKPOINT = 8

# Exit codes: code, meaning (printed by --help and in the README), and the
# exceptions run_scenario reports under that code. An exception takes the
# code of the first class in its MRO listed here.
EXIT_CODES = (
    (EXIT_OK, "success", ()),
    (EXIT_USAGE, "usage error (bad arguments, unreadable config file)", ()),
    (EXIT_CONFIG, "invalid configuration values", (ConfigError, ValueError)),
    (EXIT_IO, "I/O failure while writing artifacts", (OSError,)),
    (EXIT_BLOWUP, "blow-up detected (solution left the resolvable range)", (BlowUpError,)),
    (EXIT_CFL, "CFL violation at the configured fixed step", (CourantError,)),
    (EXIT_OVERFLOW, "Gevrey weight overflow guard tripped", (OverflowGuardError,)),
    (EXIT_VERIFY, "verification or convergence failure", (GsqgError,)),
    (EXIT_CHECKPOINT, "checkpoint format error", (CheckpointError,)),
)
_EXIT_BY_EXCEPTION = {exc: code for code, _, excs in EXIT_CODES for exc in excs}
_MESSAGE_PREFIX = {ValueError: "invalid scenario parameters: ", OSError: "I/O failure: "}


class _Start(NamedTuple):
    """Initial state, model and time of a scenario that integrates in time."""

    theta0: SpectralField
    params: ModelParams
    t0: float


def _initial_for(config: ScenarioConfig) -> _Start:
    """The configured initial data, or the state config.resume_path holds."""
    if config.resume_path is not None:
        ckpt = read_checkpoint(config.resume_path)
        theta0 = _checkpoint_field(ckpt, config.grid or ckpt.grid)
        if config.T - ckpt.t <= 0:
            raise ConfigError(
                [f"scenario.T: horizon {config.T:g} not past checkpoint t={ckpt.t:g}"]
            )
        return _Start(theta0, ckpt.params, ckpt.t)
    if config.initial is None:
        raise ConfigError(["initial: section required for this scenario"])
    if config.initial.profile == "checkpoint" and config.initial.path is not None:
        # read once: the file gives the grid when the config has none
        ckpt = read_checkpoint(config.initial.path)
        theta0 = _checkpoint_field(ckpt, config.grid or ckpt.grid)
        return _Start(theta0, config.params, 0.0)
    if config.grid is None:
        raise ConfigError(["grid: section required for this scenario"])
    theta0 = build_initial_data(config.initial, config.grid, config.params, config.seed)
    return _Start(theta0, config.params, 0.0)


# Scenario handlers: each writes its kind's table to csv and returns the
# summary lines after "scenario: <kind>" and whether the run passed.


def _reduced_run(config: ScenarioConfig, start: _Start, cells) -> RunSummary:
    """The run from start to the absolute horizon config.T, keeping
    cells(t, field, row) of each snapshot and the final field."""
    return simulate(
        start.theta0,
        start.params,
        config.T - start.t0,
        config.dt,
        config.snapshot_stride,
        c_cfl=config.c_cfl,
        sink=lambda: ReduceSink(cells),
    )


def _run_simulate(config: ScenarioConfig, start: _Start, csv: str):
    run = _reduced_run(config, start, _snapshot_cells(start.params, config.gevrey))
    write_csv(run, csv, t0=start.t0)
    t_final = start.t0 + run.times[-1]
    if config.checkpoint_path is not None:
        n_final = int(round(t_final / config.dt))
        write_checkpoint(run.final, start.params, n_final * config.dt, config.checkpoint_path)
    rows = [row for row, _hs_delta, _g in run.cells]
    last = rows[-1]
    return [
        f"steps: {int(round((config.T - start.t0) / config.dt))}  dt: {_fmt(config.dt)}",
        f"final t: {_fmt(t_final)}",
        f"final l2: {_fmt(last.l2)}",
        f"final critical norm: {_fmt(last.hs_crit)}",
        f"max l2 step increase: {_fmt(run.max_l2_step_increase)}",
        f"max energy residual: {_fmt(max(r.energy_residual for r in rows))}",
        f"max courant: {_fmt(max(r.courant for r in rows))}",
    ], True


def _run_picard(config: ScenarioConfig, start: _Start, csv: str):
    failed = None
    try:
        iterates = picard_solve(
            start.theta0,
            start.params,
            config.T,
            config.dt,
            tol=config.picard_tol,
            max_iter=config.picard_max_iter,
            snapshot_stride=config.snapshot_stride,
            c_cfl=config.c_cfl,
            sink=ReduceSink,
        )
    except PicardConvergenceError as exc:
        iterates, failed = exc.iterates, exc
    write_csv(iterates, csv)
    ratios = [it.contraction_ratio for it in iterates if it.contraction_ratio is not None]
    lines = [
        f"iterates: {len(iterates) - 1}",
        f"converged: {_fmt(failed is None)}",
        f"final residual: {_fmt(iterates[-1].diff_sup_l2 or 0.0)}",
    ]
    if ratios:
        lines.append(f"worst contraction ratio: {_fmt(max(ratios))}")
    if failed is not None:
        lines.append(f"failure: {failed}")
    return lines, failed is None


def _checks_summary(checks: list[CheckRow], csv: str, fail_line):
    """Write a battery's check table; the summary lists up to 50 failures."""
    write_csv(checks, csv)
    bad = [c for c in checks if not c.passed]
    lines = [f"checks: {len(checks)}", f"failures: {len(bad)}"]
    return lines + [fail_line(c) for c in bad[:50]], not bad


def _run_verify_operators(config: ScenarioConfig, start: None, csv: str):
    return _checks_summary(
        verify_operators(config.seed, config.grid),
        csv,
        lambda c: f"FAIL {c.name}: {_fmt(c.measured)} > {_fmt(c.limit)}",
    )


def _run_verify_inequalities(config: ScenarioConfig, start: None, csv: str):
    checks = verify_inequalities(
        config.verify_triples, config.verify_fields, config.verify_draws, seed=config.seed
    )
    return _checks_summary(checks, csv, lambda c: f"FAIL {c.name}")


def _run_scaling_check(config: ScenarioConfig, start: _Start, csv: str):
    report = scaling_equivariance_check(
        start.theta0, start.params, config.scaling_lam, config.T, config.dt, c_cfl=config.c_cfl
    )
    write_csv(report, csv)
    ok = report.gap <= config.scaling_tol
    return [
        f"lam: {report.lam}",
        f"gap: {_fmt(report.gap)}",
        f"tolerance: {_fmt(config.scaling_tol)}",
        f"passed: {_fmt(ok)}",
    ], ok


def _run_decay_study(config: ScenarioConfig, start: _Start, csv: str):
    delta = config.decay_delta
    if delta is None:
        delta = default_delta(start.params)
    report = decay_study(
        start.theta0,
        start.params,
        delta,
        config.decay_k_list,
        config.T,
        config.dt,
        snapshot_stride=config.snapshot_stride,
        c_cfl=config.c_cfl,
    )
    write_csv(report, csv)
    lines = [f"delta: {_fmt(delta)}"]
    for k in sorted(report.slopes):
        # the points and slope decay_study fitted, by the same helper
        xs, ys, slope = _loglog_fit(report.times, report.series[k], report.window[0])
        dat = os.path.join(config.out_dir, f"decay-k{k}.dat")
        _write_plot_data(dat, f"d{k}", xs, ys, slope)
        lines.append(
            f"k={k}: fitted slope {_fmt(slope)} expected {_fmt(report.expected[k])}"
        )
    return lines, True


def _run_gevrey_track(config: ScenarioConfig, start: _Start, csv: str):
    params = start.params
    alpha, eps_rate, delta = config.gevrey.resolved(params)
    run = _reduced_run(
        config, start, lambda t, f, _row: gevrey_term(t, f, params, alpha, eps_rate, delta)
    )
    report = gevrey_report(params, run.times, run.cells, alpha, eps_rate, delta)
    write_csv(report, csv)
    return [
        f"alpha: {_fmt(report.alpha)}  eps_rate: {_fmt(report.eps_rate)}  "
        f"delta: {_fmt(report.delta)}",
        f"sup: {_fmt(report.sup)}",
    ], True


class Scenario(NamedTuple):
    """One scenario kind.

    help is its command-line help. needs_inputs marks a kind that integrates
    from initial data: its config needs [grid], [model] and [initial], and
    its handler gets a _Start instead of None. run is the handler.
    """

    help: str
    needs_inputs: bool
    run: Callable[[ScenarioConfig, _Start | None, str], tuple[list[str], bool]]


# The only definition of the scenario kinds: parse_config, run_scenario and
# the command line take the kinds, their needs and their help from here.
SCENARIOS = {
    "simulate": Scenario(
        "integrate the full equation and write diagnostics", True, _run_simulate
    ),
    "picard": Scenario(
        "run the fixed-point iteration and report contraction", True, _run_picard
    ),
    "verify-operators": Scenario(
        "check operators against per-mode loops and a direct convolution",
        False,
        _run_verify_operators,
    ),
    "verify-inequalities": Scenario(
        "run the random-ensemble inequality batteries", False, _run_verify_inequalities
    ),
    "scaling-check": Scenario(
        "compare rescale-then-solve against solve-then-rescale", True, _run_scaling_check
    ),
    "decay-study": Scenario(
        "fit long-time decay slopes of derivative norms", True, _run_decay_study
    ),
    "gevrey-track": Scenario(
        "track the weighted analyticity-radius norm", True, _run_gevrey_track
    ),
}
SCENARIO_KINDS = tuple(SCENARIOS)


def run_scenario(config: ScenarioConfig) -> int:
    """Execute one scenario, writing <kind>.csv and summary.txt into
    config.out_dir, plus a checkpoint if a simulate config asks for one.

    Returns the process exit code; every scientific failure mode keeps its
    own code (see EXIT_CODES) so batch scripts can triage without parsing
    logs. Failure messages go to stderr.
    """
    scenario = SCENARIOS.get(config.kind)
    if scenario is None:
        print(f"unknown scenario kind {config.kind!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        start = _initial_for(config) if scenario.needs_inputs else None
        # created only now, so a refused run leaves no empty directory
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            print(f"cannot create output directory: {exc}", file=sys.stderr)
            return EXIT_IO
        csv = os.path.join(config.out_dir, f"{config.kind}.csv")
        lines, passed = scenario.run(config, start, csv)
        with open(os.path.join(config.out_dir, "summary.txt"), "w", newline="") as fh:
            fh.write("\n".join([f"scenario: {config.kind}", *lines]) + "\n")
    except (GsqgError, ValueError, OSError) as exc:
        cls = next(c for c in type(exc).__mro__ if c in _EXIT_BY_EXCEPTION)
        print(_MESSAGE_PREFIX.get(cls, "") + str(exc), file=sys.stderr)
        return _EXIT_BY_EXCEPTION[cls]
    return EXIT_OK if passed else EXIT_VERIFY
