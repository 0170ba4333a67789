"""Memory that runs leave held once their results are dropped.

Prints, in MiB of tracemalloc's current size, what is still held after
- one `simulate` at n = 512, dealias fraction 1, with `ReduceSink`;
- four `simulate` runs at (n, fraction) = (512, 1), (256, 1), (512, 2/3)
  and (128, 0.9), each with a `ReduceSink` keeping the command line's
  snapshot cells (`harness._snapshot_cells`).
The initial data is built before tracing starts, so what is counted is
the runs' own: the lattice tables the snapshot cells read, and whatever a
run keeps past its return. Each figure comes from a fresh process:

    PYTHONPATH=src python tests/run_memory.py one
    PYTHONPATH=src python tests/run_memory.py four
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from gsqglab import GridSpec, ModelParams, ReduceSink, harness, simulate

PARAMS = ModelParams(beta=1.5, kappa=0.5, gamma=0.3)
CASES = {"one": [(512, 1.0)], "four": [(512, 1.0), (256, 1.0), (512, 2.0 / 3.0), (128, 0.9)]}


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
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for f in data:
            result = simulate(f, PARAMS, 2e-3, 1e-3, sink=sink)
            del result
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    case = sys.argv[1] if len(sys.argv) > 1 else "one"
    print(f"{case}: {held_mib(case):.2f} MiB held")
