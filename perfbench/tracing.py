"""Spans and counters around calls into gsqglab's layers, installed from outside.

Nothing under src/ knows about tracing. `Tracer.install` rebinds module
attributes (every gsqglab module that holds the same function object, so
`from .spectral import advect` call sites are covered too), the
`Partition.rho` static method, the 2-D/n-D entry points of `numpy.fft` and
`scipy.fft`, and `scipy.signal.convolve2d`. `uninstall` restores every
original. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module holding the function, attribute)
FUNCTION_SPANS = (
    ("cli.main", "gsqglab.cli", "main"),
    ("harness.run_scenario", "gsqglab.harness", "run_scenario"),
    ("harness.parse_config", "gsqglab.harness", "parse_config"),
    ("harness.build_initial_data", "gsqglab.harness", "build_initial_data"),
    ("harness.write_csv", "gsqglab.harness", "write_csv"),
    ("harness.write_checkpoint", "gsqglab.harness", "write_checkpoint"),
    ("harness.verify_operators", "gsqglab.harness", "verify_operators"),
    ("harness.verify_inequalities", "gsqglab.harness", "verify_inequalities"),
    ("solver.simulate", "gsqglab.solver", "simulate"),
    ("solver.picard_solve", "gsqglab.solver", "picard_solve"),
    ("spectral.advect", "gsqglab.spectral", "advect"),
    ("spectral.flux_divergence", "gsqglab.spectral", "flux_divergence"),
    ("spectral.velocity_from_scalar", "gsqglab.spectral", "velocity_from_scalar"),
    ("spectral.to_physical", "gsqglab.spectral", "to_physical"),
    ("dyadic.decompose", "gsqglab.dyadic", "decompose"),
    ("dyadic.bernstein_check", "gsqglab.dyadic", "bernstein_check"),
    ("norms.sobolev_norm", "gsqglab.norms", "sobolev_norm"),
    ("norms.gevrey_norm", "gsqglab.norms", "gevrey_norm"),
    ("norms.check_gevrey_interpolation", "gsqglab.norms", "check_gevrey_interpolation"),
    ("inequalities.trilinear_form", "gsqglab.inequalities", "trilinear_form"),
    ("inequalities.bony_split", "gsqglab.inequalities", "bony_split"),
    ("inequalities.random_test_field", "gsqglab.inequalities", "random_test_field"),
    ("inequalities.convolve2d", "scipy.signal", "convolve2d"),
)

# 2-D and n-D transforms; both libraries so counts survive a switch between them
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def fft_counts(inp, out) -> tuple[int, int]:
    """(points, bytes) of one transform, computed from array sizes.

    Points is the logical transform size: the larger of input and output, so
    a real-to-half-spectrum transform and its inverse both count the full
    real grid, and zero padding through `s=` counts the padded grid. Bytes is
    one read of the input plus one write of the output.
    """
    inp = np.asarray(inp)
    return max(inp.size, out.size), inp.nbytes + out.nbytes


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _steps(T: float, dt: float) -> int:
    return int(round(T / dt))


def _count_simulate(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["solver.steps"] += _steps(a["T"], a["dt"])
    counts["solver.retained_fields"] += len(result.fields)


def _count_picard(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    iterates = len(result) - 1          # iterate 0 is the closed-form heat flow
    counts["solver.picard.iterates"] += iterates
    counts["solver.steps"] += iterates * _steps(a["T"], a["dt"])
    counts["solver.retained_fields"] += sum(len(it.trajectory.fields) for it in result)


def _count_file_bytes(name):
    def count(counts, fn, args, kwargs, result):
        counts[f"{name}.bytes"] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    return count


def _count_convolve(counts, fn, args, kwargs, result):
    counts["inequalities.convolve2d.macs"] += np.size(args[0]) * np.size(args[1])


def _count_rho(counts, fn, args, kwargs, result):
    counts["dyadic.rho.points"] += np.size(result)


def _count_fft(counts, fn, args, kwargs, result):
    points, nbytes = fft_counts(args[0], result)
    counts["spectral.fft.points"] += points
    counts["spectral.fft.bytes"] += nbytes


COUNTERS = {
    "solver.simulate": _count_simulate,
    "solver.picard_solve": _count_picard,
    "harness.write_csv": _count_file_bytes("harness.write_csv"),
    "harness.write_checkpoint": _count_file_bytes("harness.write_checkpoint"),
    "inequalities.convolve2d": _count_convolve,
    "dyadic.rho": _count_rho,
    "spectral.fft": _count_fft,
}


class Tracer:
    """Records (name, start, end, parent index, operation id) per call.

    Calls from one thread nest, so the open spans form a stack; the parent of
    a new span is the top of that stack.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        calls = f"{name}.calls"
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            counts[calls] += 1
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, home, attr: str, wrapper) -> None:
        original = getattr(home, attr)
        owners = [home] + [
            m for name, m in sorted(sys.modules.items())
            if (name == "gsqglab" or name.startswith("gsqglab.")) and m is not home
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._rebind(owner, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr in FUNCTION_SPANS:
            home = importlib.import_module(module)
            self._rebind_everywhere(home, attr, self.wrap(name, getattr(home, attr)))
        from gsqglab.dyadic import Partition

        rho = Partition.__dict__["rho"].__func__
        self._rebind(Partition, "rho", staticmethod(self.wrap("dyadic.rho", rho)))
        for module in FFT_MODULES:
            home = importlib.import_module(module)
            for attr in FFT_NAMES:
                self._rebind_everywhere(home, attr, self.wrap("spectral.fft", getattr(home, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _op) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        lo = start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, lo), min(ce, end)
            if ce > cs:
                covered += ce - cs
                lo = ce
        out.append((end - start) - covered)
    return out


def summarize(spans, op_walls: dict) -> dict:
    """Self time per span name and per layer, plus each operation's remainder.

    op_walls maps operation id to its wall time; the remainder of an
    operation is its wall time minus the self time of every span in it, so
    per-layer self times plus remainders add up to the operation wall times.
    """
    selfs = self_times(spans)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    by_op: Counter = Counter()
    for (name, _s, _e, _p, op), st in zip(spans, selfs):
        by_name[name] += st
        by_layer[name.split(".", 1)[0]] += st
        by_op[op] += st
    remainder = {op: wall - by_op[op] for op, wall in op_walls.items()}
    return {"by_name": by_name, "by_layer": by_layer, "remainder": remainder}
