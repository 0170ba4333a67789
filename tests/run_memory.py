"""Memory that runs leave held once their results are dropped.

Prints, in MiB of tracemalloc's current size, what is still held after
- one `simulate` at n = 512, dealias fraction 1, with `ReduceSink`;
- four `simulate` runs at (n, fraction) = (512, 1), (256, 1), (512, 2/3)
  and (128, 0.9), each with a `ReduceSink` keeping the command line's
  snapshot cells (`harness._snapshot_cells`).
The initial data is built before tracing starts, so what is counted is
the runs' own: the lattice tables the snapshot cells read, and whatever a
run keeps past its return.

The `battery` case prints what stays held and tracemalloc's peak above
the start for `verify_inequalities(2, 4, 20)` and for one four-sigma
`inequalities._split_forms` at n = 128. Each runs once untraced first, so
the module's lattice caches are filled and the figures are the sampler's:
nothing should stay held, and the peak is the samples it holds (f, g, the
four H and one block's five pieces, on up to two product grids) plus its
plan's workspace for each stack depth and grid.

The `picard` case prints the same two figures for one `picard_solve` at
n = 64 with the picard benchmark workload's setup (beta 1.7, kappa 0.5,
gamma 0.3, ensemble decay 3.7 and critical norm 2.27, T = 0.1, dt = 1e-3,
tol 1e-12, `ReduceSink`, as the command line runs it), after one untraced
run. Nothing should stay held; the peak is one iterate's stage records
and the one before's, with the plan's tables, workspace and flux kernels.
Each case comes from a fresh process:

    PYTHONPATH=src python tests/run_memory.py one
    PYTHONPATH=src python tests/run_memory.py four
    PYTHONPATH=src python tests/run_memory.py battery
    PYTHONPATH=src python tests/run_memory.py picard
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from gsqglab import (
    GridSpec,
    ModelParams,
    ReduceSink,
    harness,
    inequalities,
    picard_solve,
    simulate,
)

PARAMS = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)
CASES = {"one": [(512, 1.0)], "four": [(512, 1.0), (256, 1.0), (512, 2.0 / 3.0), (128, 0.9)]}


def traced_mib(run) -> tuple[float, float]:
    """(held, peak) MiB of tracemalloc above its start over run()."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
        return (held - before) / 2**20, (peak - before) / 2**20
    finally:
        tracemalloc.stop()


def held_mib(case: str) -> float:
    spec = harness.InitialSpec(profile="ensemble", amplitude=0.05)
    data = [
        harness.build_initial_data(spec, GridSpec(n, dealias_fraction=fr), PARAMS, seed=3)
        for n, fr in CASES[case]
    ]
    if case == "one":
        sink = ReduceSink
    else:
        cells = harness._snapshot_cells(PARAMS, harness.GevreyTrackSpec())
        sink = lambda: ReduceSink(cells)   # noqa: E731

    def run():
        for f in data:
            simulate(f, PARAMS, 2e-3, 1e-3, sink=sink)

    return traced_mib(run)[0]


def battery() -> dict:
    """{label: (held, peak) MiB} of the two inequality runs."""
    spec = inequalities.EnsembleSpec(GridSpec(128), 2.5, 3, seed=2026)
    f, g, h = (inequalities.random_test_field(spec, i) for i in range(3))
    runs = {
        "verify_inequalities(2, 4, 20)": lambda: harness.verify_inequalities(2, 4, 20),
        "_split_forms at n = 128, four sigma": lambda: inequalities._split_forms(
            f, g, h, (-0.5, 0.0, 0.3, 0.9)
        ),
    }
    for run in runs.values():
        run()
    return {label: traced_mib(run) for label, run in runs.items()}


def picard() -> tuple[float, float]:
    """(held, peak) MiB of one picard_solve at n = 64."""
    params = ModelParams(beta=1.7, kappa=0.5, gamma=0.3)
    spec = harness.InitialSpec(profile="ensemble", decay=3.7, amplitude=2.27)
    theta0 = harness.build_initial_data(spec, GridSpec(64), params, seed=3)

    def run():
        picard_solve(theta0, params, 0.1, 1e-3, tol=1e-12, sink=ReduceSink)

    run()
    return traced_mib(run)


if __name__ == "__main__":
    case = sys.argv[1] if len(sys.argv) > 1 else "one"
    if case == "battery":
        for label, (held, peak) in battery().items():
            print(f"{label}: {held:.2f} MiB held, {peak:.2f} MiB peak")
    elif case == "picard":
        held, peak = picard()
        print(f"picard_solve at n = 64: {held:.2f} MiB held, {peak:.2f} MiB peak")
    else:
        print(f"{case}: {held_mib(case):.2f} MiB held")
