"""The benchmark's workloads: CLI scenarios, their warm-up, and output checks.

Each workload is one or more `gsqglab` subcommands run in-process through
`gsqglab.cli.main`. One operation runs every command of the workload once.
Inputs come from the benchmark seed through the CLI's `--seed` only: the
program seed is `seed % POOL`, the range over which `reference.json` holds
outputs recorded from the seed commit, so every operation's result can be
checked against a recorded value.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass

POOL = 8

# relative tolerance for the recorded final norms. Roundoff moves them by
# about 1e-15. Advection conserves l2 and the run is short, so only the
# critical norm sees the nonlinear term, and it moves by about 1e-12 per
# 1e-6 relative error in advect: this tolerance catches errors above ~1e-6.
REL_TOL = 1e-12
# |<N(theta), theta>| relative to its scale; exact skew symmetry leaves roundoff
ENERGY_RESIDUAL_MAX = 1e-12
CONTRACTION_MAX = 0.5

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Command:
    """One CLI scenario: subcommand, config text, and whether it checkpoints."""

    kind: str
    config: str
    checkpoint: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    warmup: tuple
    unit: str            # one unit of work: a solver step, a Picard iterate, a check row
    rate_name: str       # the workload's own name for the work rate
    rate_inverse: bool   # report the rate as seconds per unit instead


def _sim_config(T: str, stride: int) -> str:
    return f"""
[scenario]
kind = simulate
T = {T}
dt = 0.001
snapshot_stride = {stride}
[grid]
n = 256
[model]
beta = 1
kappa = 0.5
gamma = 0.1
[initial]
profile = ensemble
decay = 3
amplitude = 0.5
"""


def _picard_config(T: str) -> str:
    return f"""
[scenario]
kind = picard
T = {T}
dt = 0.001
[grid]
n = 64
[model]
beta = 1.7
kappa = 0.5
gamma = 0.3
[initial]
profile = ensemble
decay = 3.7
amplitude = 2.27
[picard]
tol = 1e-12
"""


def _verify_configs(triples: int, fields: int, draws: int) -> tuple:
    return (
        Command("verify-operators", "[scenario]\nkind = verify-operators\n"),
        Command(
            "verify-inequalities",
            "[scenario]\nkind = verify-inequalities\n"
            f"[verify]\ntriples = {triples}\nfields = {fields}\ndraws = {draws}\n",
        ),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # time sits in the padded products behind advect, then the RK4 step
            name="sim-n256",
            commands=(Command("simulate", _sim_config("0.01", 10), True),),
            warmup=(Command("simulate", _sim_config("0.001", 1), True),),
            unit="step",
            rate_name="steps_per_s",
            rate_inverse=False,
        ),
        Workload(
            # two-term flux_divergence on a small grid: per-call overhead and the
            # stage fields kept per iterate matter more than FFT flops
            name="picard-n64",
            commands=(Command("picard", _picard_config("0.1")),),
            warmup=(Command("picard", _picard_config("0.002")),),
            unit="iterate",
            rate_name="picard_iterate_s",
            rate_inverse=True,
        ),
        Workload(
            # direct O(N^4) convolve2d and dyadic partitions; no solver, almost no FFT
            name="verify",
            commands=_verify_configs(triples=2, fields=4, draws=20),
            warmup=_verify_configs(1, 1, 1),
            unit="check",
            rate_name="checks_per_s",
            rate_inverse=False,
        ),
    )
}


def program_seed(seed: int) -> int:
    return seed % POOL


def prepare(commands, workdir: str, cli_seed: int) -> list:
    """Write config files and return the argv of every command."""
    os.makedirs(workdir, exist_ok=True)
    argvs = []
    for cmd in commands:
        cfg = os.path.join(workdir, f"{cmd.kind}.cfg")
        with open(cfg, "w") as fh:
            fh.write(cmd.config)
        argv = [cmd.kind, "--config", cfg, "--out", os.path.join(workdir, cmd.kind),
                "--seed", str(cli_seed)]
        if cmd.checkpoint:
            argv += ["--checkpoint", os.path.join(workdir, f"{cmd.kind}.ckpt")]
        argvs.append(argv)
    return argvs


def run_commands(cli, argvs) -> tuple[list, float, float]:
    """Run every argv through cli.main in turn; return exit codes, wall and CPU time.

    cli.main is looked up on each call so that a traced run sees its wrapper.
    """
    codes = []
    cpu, start = time.process_time(), time.perf_counter()
    for argv in argvs:
        codes.append(cli.main(list(argv)))
    return codes, time.perf_counter() - start, time.process_time() - cpu


# ---------------------------------------------------------------------------
# output parsing and checks


def read_summary(path: str) -> dict:
    """Parse a summary.txt into {key: text}; 'a: 1  b: 2' lines give two keys."""
    out = {}
    with open(path) as fh:
        for line in fh:
            for part in line.rstrip("\n").split("  "):
                key, sep, value = part.partition(": ")
                if sep:
                    out[key.strip()] = value.strip()
    return out


def read_check_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def observe(workload: Workload, workdir: str) -> dict:
    """The values the checks compare, read from one operation's artifacts."""
    if workload.name == "sim-n256":
        s = read_summary(os.path.join(workdir, "simulate", "summary.txt"))
        ckpt = os.path.join(workdir, "simulate.ckpt")
        return {
            "steps": int(s["steps"]),
            "final_l2": float(s["final l2"]),
            "final_hs_crit": float(s["final critical norm"]),
            "max_l2_step_increase": float(s["max l2 step increase"]),
            "max_energy_residual": float(s["max energy residual"]),
            "checkpoint_bytes": os.path.getsize(ckpt) if os.path.exists(ckpt) else 0,
        }
    if workload.name == "picard-n64":
        s = read_summary(os.path.join(workdir, "picard", "summary.txt"))
        return {
            "iterates": int(s["iterates"]),
            "converged": s["converged"] == "true",
            "worst_contraction_ratio": float(s.get("worst contraction ratio", "nan")),
        }
    obs = {}
    for kind in ("verify-operators", "verify-inequalities"):
        rows = read_check_rows(os.path.join(workdir, kind, f"{kind}.csv"))
        obs[f"{kind}.rows"] = len(rows)
        obs[f"{kind}.failures"] = sum(r["passed"] != "true" for r in rows)
    return obs


def check(workload: Workload, codes: list, obs: dict, ref: dict) -> list:
    """Problems with one operation's outputs; an empty list means it passed."""
    problems = [f"exit code {c} from {cmd.kind}" for c, cmd in zip(codes, workload.commands) if c]
    if problems:
        return problems
    if workload.name == "sim-n256":
        if obs["max_l2_step_increase"] != 0.0:
            problems.append(f"l2 grew within a step: {obs['max_l2_step_increase']!r}")
        if not obs["max_energy_residual"] <= ENERGY_RESIDUAL_MAX:
            problems.append(f"energy residual {obs['max_energy_residual']!r}")
        for key in ("final_l2", "final_hs_crit"):
            if not _close(obs[key], ref[key]):
                problems.append(f"{key} {obs[key]!r} != recorded {ref[key]!r}")
        if obs["steps"] != ref["steps"]:
            problems.append(f"steps {obs['steps']} != recorded {ref['steps']}")
        if obs["checkpoint_bytes"] <= 0:
            problems.append("no checkpoint written")
    elif workload.name == "picard-n64":
        if not obs["converged"]:
            problems.append("picard did not converge")
        if not obs["worst_contraction_ratio"] <= CONTRACTION_MAX:
            problems.append(f"worst contraction ratio {obs['worst_contraction_ratio']!r}")
        if obs["iterates"] != ref["iterates"]:
            problems.append(f"iterates {obs['iterates']} != recorded {ref['iterates']}")
    else:
        for kind in ("verify-operators", "verify-inequalities"):
            if obs[f"{kind}.failures"]:
                problems.append(f"{obs[f'{kind}.failures']} failed rows in {kind}")
            if obs[f"{kind}.rows"] != ref[f"{kind}.rows"]:
                problems.append(
                    f"{kind} rows {obs[f'{kind}.rows']} != recorded {ref[f'{kind}.rows']}"
                )
    return problems


def work_units(workload: Workload, obs: dict) -> int:
    if workload.name == "sim-n256":
        return obs["steps"]
    if workload.name == "picard-n64":
        return obs["iterates"]
    return obs["verify-operators.rows"] + obs["verify-inequalities.rows"]


# what reference.json keeps per workload and program seed
RECORDED_KEYS = {
    "sim-n256": ("steps", "final_l2", "final_hs_crit"),
    "picard-n64": ("iterates",),
    "verify": ("verify-operators.rows", "verify-inequalities.rows"),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
