"""gsqglab benchmark: end-to-end scenario metrics, or a traced per-layer breakdown.

    python3 perfbench/run.py --workload sim-n256 --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout with the package sources under src/. The
operations run in this one process with one compute thread: the thread
variables below are set before numpy is imported. Operations run back to
back (a closed loop with one client) until --seconds have passed; each one
calls `gsqglab.cli.main` in-process for every command of the workload and
its outputs are checked against reference.json. `--workload all` runs every
workload in turn, each in its own process.

--trace 0 reports the end-to-end metrics of untraced operations. --trace 1
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones, averaged per operation, plus the tracing overhead.
Set-up (importing gsqglab and an untimed warm-up scenario that fills the
lru_cache grids and partitions) is timed in this process and in
SETUP_PROBES - 1 fresh ones (probe.py), and reported as its median.

The last line of standard output is one JSON object; a result file with a
manifest, and for --trace 1 the spans, go to .bench_build/perfbench/. The
exit code is nonzero when set-up fails or any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_ENV = {
    "GSQG_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, SRC)

import workloads as wl  # noqa: E402  (needs the thread variables set first)

SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "scenario_cal": "cal",
    "work_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}

# per-span metrics: the span name, and whether it also reports calls
_SPAN_METRICS = (
    ("cli.main", False),
    ("harness.run_scenario", False),
    ("harness.parse_config", False),
    ("harness.build_initial_data", False),
    ("harness.write_csv", False),
    ("harness.write_checkpoint", False),
    ("harness.verify_operators", False),
    ("harness.verify_inequalities", False),
    ("solver.simulate", False),
    ("solver.picard_solve", False),
    ("spectral.advect", True),
    ("spectral.flux_divergence", True),
    ("spectral.velocity_from_scalar", True),
    ("spectral.to_physical", True),
    ("spectral.fft", True),
    ("dyadic.decompose", True),
    ("dyadic.rho", True),
    ("dyadic.bernstein_check", True),
    ("norms.sobolev_norm", True),
    ("norms.gevrey_norm", True),
    ("norms.check_gevrey_interpolation", False),
    ("inequalities.trilinear_form", True),
    ("inequalities.bony_split", True),
    ("inequalities.convolve2d", True),
    ("inequalities.random_test_field", True),
)
LAYERS = ("cli", "harness", "solver", "spectral", "dyadic", "norms", "inequalities")
_COUNT_METRICS = {
    "harness.write_csv.bytes": "B",
    "harness.write_checkpoint.bytes": "B",
    "solver.steps": "count",
    "solver.picard.iterates": "count",
    "solver.retained_fields": "count",
    "spectral.fft.points": "count",
    "spectral.fft.bytes": "B",
    "dyadic.rho.points": "count",
    "inequalities.convolve2d.macs": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, with_calls in _SPAN_METRICS:
        if with_calls:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(_COUNT_METRICS)
    units["solver.rhs_per_step"] = "count/step"
    units["solver.velocity_per_step"] = "count/step"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.op_wall_s"] = "s"
    units["trace.remainder_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def timed_setup(workload, workdir: str, cli_seed: int):
    """Import gsqglab and run the warm-up; return (import_s, warmup_s, cli)."""
    start = time.perf_counter()
    import gsqglab.cli as cli

    imported = time.perf_counter()
    argvs = wl.prepare(workload.warmup, workdir, cli_seed)
    codes, warm, _cpu = wl.run_commands(cli, argvs)
    if any(codes):
        raise SetupError(f"warm-up exited with {codes}")
    return imported - start, warm, cli


def probe_setup(workload, workdir: str, cli_seed: int) -> float:
    """Set-up time of a fresh process (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload.name, str(cli_seed), workdir],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    return rec["import_s"] + rec["warmup_s"]


# ---------------------------------------------------------------------------
# host-speed calibration


class Calibration:
    """A fixed numpy/scipy kernel, timed between operations.

    The shared host's speed swings by tens of percent over seconds to
    minutes, and raw wall times swing with it. The kernel mixes the work the
    workloads do (a 512^2 inverse FFT, a 32^2 direct convolution, an
    interpreter loop); an operation's wall time divided by the mean kernel
    time just before and after it is its cost in calibration units (`cal`),
    in which most of those swings cancel. Nothing in it depends on gsqglab.
    """

    def __init__(self):
        import numpy as np
        from scipy.signal import convolve2d

        rng = np.random.default_rng(2026)
        self._fft_in = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        self._conv_in = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._ifft2, self._convolve2d = np.fft.ifft2, convolve2d

    def time(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self._ifft2(self._fft_in)
            self._convolve2d(self._conv_in, self._conv_in)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# operations


def run_op(cli, workload, workdir: str, cli_seed: int, ref: dict) -> dict:
    argvs = wl.prepare(workload.commands, workdir, cli_seed)
    gc.collect()
    codes, wall, cpu = wl.run_commands(cli, argvs)
    obs, units = {}, 0
    try:
        if not any(codes):
            obs = wl.observe(workload, workdir)
            units = wl.work_units(workload, obs)
        problems = wl.check(workload, codes, obs, ref)
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    shutil.rmtree(workdir, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "units": units, "problems": problems, "observed": obs}


def high_percentile(samples):
    """Highest of p99.9/p99/p90 with at least ten samples above it, else None."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(samples)[min(n - 1, int(p / 100.0 * n))]
    return None


def git_commit(root: str):
    """Commit of a git checkout, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload, cli_seed: int, samples: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload": workload.name,
        "seed": args.seed,
        "program_seed": cli_seed,
        "configs": {cmd.kind: cmd.config for cmd in workload.commands},
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<40} {value:<14.6g} {unit:<12} {note}".rstrip()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(workload, setup: list, ops: list) -> tuple[dict, list]:
    """End-to-end metrics (the gated ones, then the raw times) and report lines."""
    good = [op for op in ops if not op["problems"]]
    rate = _median(op["units"] / op["wall_s"] for op in good)
    values = {
        "setup_s": (statistics.median(setup), len(setup), "s"),
        "scenario_cal": (_median(op["wall_s"] / op["cal_s"] for op in ops), len(ops), "cal"),
        "work_per_cal": (_median(op["units"] * op["cal_s"] / op["wall_s"] for op in good),
                         len(good), "1/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "MB"),
        "scenario_s": (_median(op["wall_s"] for op in ops), len(ops), "s"),
        "work_per_s": (rate, len(good), "1/s"),
        "cal_s": (_median(op["cal_s"] for op in ops), len(ops), "s"),
    }
    failed = len(ops) - len(good)
    own = 1.0 / rate if workload.rate_inverse and rate > 0 else rate
    own_unit = f"s/{workload.unit}" if workload.rate_inverse else f"{workload.unit}s/s"
    lines = [_line(name, v, unit, f"median of {n}" if n > 1 else "")
             for name, (v, n, unit) in values.items()]
    lines.append(_line(workload.rate_name, own, own_unit, "work_per_s on this workload"))
    walls = [op["wall_s"] for op in ops]
    hp = high_percentile(walls)
    if hp is not None:
        lines.append(_line(f"scenario_s.p{hp[0]:g}", hp[1], "s", f"of {len(walls)}"))
    lines.append(_line("error_rate", failed / len(ops), "ratio", f"{failed} of {len(ops)} failed"))
    return {k: v for k, (v, _n, _u) in values.items()}, lines


def per_layer(tracer, traced: list, untraced: list) -> tuple[dict, dict]:
    import tracing

    op_walls = {op["id"]: op["wall_s"] for op in traced}
    s = tracing.summarize(tracer.spans, op_walls)
    n = len(traced)
    c = tracer.counts
    values = {}
    for name, with_calls in _SPAN_METRICS:
        if with_calls:
            values[f"{name}.calls"] = c[f"{name}.calls"] / n
        values[f"{name}.self_s"] = s["by_name"][name] / n
    for name in _COUNT_METRICS:
        values[name] = c[name] / n
    steps = c["solver.steps"]
    rhs = c["spectral.advect.calls"] + c["spectral.flux_divergence.calls"]
    values["solver.rhs_per_step"] = rhs / steps if steps else 0.0
    values["solver.velocity_per_step"] = (
        c["spectral.velocity_from_scalar.calls"] / steps if steps else 0.0
    )
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = s["by_layer"][layer] / n
    values["trace.op_wall_s"] = sum(op_walls.values()) / n
    values["trace.remainder_s"] = sum(s["remainder"].values()) / n
    values["trace.overhead_ratio"] = statistics.median(op["wall_s"] for op in traced) / (
        statistics.median(op["wall_s"] for op in untraced)
    )
    # the layers' self times and the remainder must account for the wall time
    total = sum(s["by_layer"].values()) + sum(s["remainder"].values())
    if abs(total - sum(op_walls.values())) > 1e-9 * sum(op_walls.values()):
        raise RuntimeError("self times and remainder do not add up to the wall time")
    if set(s["by_layer"]) - set(LAYERS):
        raise RuntimeError(f"spans outside the known layers: {set(s['by_layer']) - set(LAYERS)}")
    return values, {k: v for k, v in s["remainder"].items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gsqglab", "__init__.py")):
        print(f"gsqglab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        return max(
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT,
            ).returncode
            for name in wl.WORKLOADS
        )
    workload = wl.WORKLOADS[args.workload]
    cli_seed = wl.program_seed(args.seed)
    ref = wl.load_reference()[workload.name][str(cli_seed)]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    base = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)

    try:
        setup = [probe_setup(workload, os.path.join(base, f"probe{i}"), cli_seed)
                 for i in range(SETUP_PROBES - 1)]
        import_s, warm_s, cli = timed_setup(workload, os.path.join(base, "warmup"), cli_seed)
    except (SetupError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        shutil.rmtree(base, ignore_errors=True)
        return 2
    setup.append(import_s + warm_s)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    calibration = Calibration()
    calibration.time()
    cal_before = calibration.time()
    ops = []
    deadline = time.perf_counter() + args.seconds
    # with tracing, even-numbered operations run untraced and odd ones traced
    while len(ops) < (2 if args.trace else 1) or time.perf_counter() < deadline:
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.op = k
            tracer.install()
        try:
            op = run_op(cli, workload, os.path.join(base, f"op{k}"), cli_seed, ref)
        finally:
            if traced:
                tracer.uninstall()
        cal_after = calibration.time()
        op.update(id=k, traced=traced, cal_s=0.5 * (cal_before + cal_after))
        cal_before = cal_after
        ops.append(op)
    shutil.rmtree(base, ignore_errors=True)

    untraced = [op for op in ops if not op["traced"]]
    failed = sum(1 for op in ops if op["problems"])
    e2e, lines = end_to_end(workload, setup, untraced)
    samples = {"setup": len(setup), "operations": len(ops), "untraced": len(untraced),
               "traced": len(ops) - len(untraced)}
    result = {
        "manifest": manifest(args, workload, cli_seed, samples),
        "setup_samples_s": setup,
        "operations": ops,
        "end_to_end": e2e,
    }
    if args.trace:
        traced_ops = [op for op in ops if op["traced"]]
        layer, remainder = per_layer(tracer, traced_ops, untraced)
        spans_path = os.path.join(OUT, "results", f"{tag}-spans.jsonl")
        tracer.write(spans_path)
        result.update(per_layer=layer, remainder_s=remainder, spans=os.path.relpath(spans_path, ROOT))
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        lines += [_line(k, v, units[k], "per traced operation") for k, v in layer.items()]
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  program seed {cli_seed}  "
          f"operations {len(ops)}  failed {failed}")
    for line in lines:
        print("  " + line)
    for op in ops:
        for problem in op["problems"]:
            print(f"  operation {op['id']}: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
