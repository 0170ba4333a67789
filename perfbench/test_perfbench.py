"""Self-tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import os

import numpy as np
import pytest
import scipy.fft

import run
import tracing
import workloads as wl


def test_self_time_of_a_span_nest():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]; E[20,21] is a second root
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("harness.run_scenario", 1.0, 4.0, 0, 0),
        ("spectral.fft", 2.0, 3.0, 1, 0),
        ("solver.simulate", 5.0, 9.0, 0, 0),
        ("spectral.fft", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    s = tracing.summarize(spans, {0: 12.0, 1: 1.5})
    assert s["by_name"]["spectral.fft"] == 2.0
    assert s["by_layer"] == {"cli": 3.0, "harness": 2.0, "spectral": 2.0, "solver": 4.0}
    assert s["remainder"] == {0: 2.0, 1: 0.5}
    assert sum(s["by_layer"].values()) + sum(s["remainder"].values()) == 13.5


def test_self_time_counts_overlapping_children_once():
    spans = [("a.x", 0.0, 10.0, -1, 0), ("a.y", 1.0, 5.0, 0, 0), ("a.z", 3.0, 7.0, 0, 0)]
    assert tracing.self_times(spans)[0] == 4.0


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("spectral.advect", lambda x: x + 1)
    outer = tracer.wrap("harness.run_scenario", lambda x: inner(x) * 2)
    tracer.op = 7
    assert outer(1) == 4
    assert tracer.spans == [
        ("harness.run_scenario", 0.0, 3.0, -1, 7),
        ("spectral.advect", 1.0, 2.0, 0, 7),
    ]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]
    assert tracer.counts["spectral.advect.calls"] == 1


@pytest.mark.parametrize(
    "fn, inp, kwargs, points, nbytes",
    [
        (np.fft.rfft2, np.zeros((8, 8)), {}, 64, 64 * 8 + 8 * 5 * 16),
        (np.fft.irfft2, np.zeros((8, 5), complex), {}, 64, 8 * 5 * 16 + 64 * 8),
        (np.fft.ifft2, np.zeros((8, 8), complex), {"s": (16, 16)}, 256, 64 * 16 + 256 * 16),
        (scipy.fft.fftn, np.zeros((2, 4, 4), complex), {}, 32, 32 * 16 * 2),
    ],
)
def test_transform_points_on_known_shapes(fn, inp, kwargs, points, nbytes):
    assert tracing.fft_counts(inp, fn(inp, **kwargs)) == (points, nbytes)


def test_install_wraps_every_call_site_and_uninstall_restores():
    import gsqglab.dyadic
    import gsqglab.solver
    import gsqglab.spectral

    originals = (gsqglab.spectral.advect, gsqglab.solver.advect, np.fft.rfft2,
                 scipy.fft.irfft2, gsqglab.dyadic.Partition.rho)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gsqglab.solver.advect is gsqglab.spectral.advect is not originals[0]
        a = np.fft.rfft2(np.ones((4, 8)))
        scipy.fft.irfft2(a)
        gsqglab.dyadic.Partition.rho(np.array([0.1, 0.7, 2.0]))
    finally:
        tracer.uninstall()
    assert (gsqglab.spectral.advect, gsqglab.solver.advect, np.fft.rfft2,
            scipy.fft.irfft2, gsqglab.dyadic.Partition.rho) == originals
    assert tracer.counts["spectral.fft.calls"] == 2
    assert tracer.counts["spectral.fft.points"] == 64
    assert tracer.counts["dyadic.rho.points"] == 3


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


SIM_SUMMARY = """scenario: simulate
steps: {steps}  dt: 0.001
final l2: {l2!r}
final critical norm: {hs!r}
max l2 step increase: {inc!r}
max energy residual: 1.2e-18
max courant: 0.01
"""


def test_sim_checks_reject_a_perturbed_summary(tmp_path):
    work = wl.WORKLOADS["sim-n256"]
    ref = wl.load_reference()["sim-n256"]["0"]
    _write(str(tmp_path / "simulate.ckpt"), "x")

    def problems(l2, hs, inc):
        _write(str(tmp_path / "simulate" / "summary.txt"), SIM_SUMMARY.format(steps=ref["steps"], l2=l2, hs=hs, inc=inc))
        return wl.check(work, [0], wl.observe(work, str(tmp_path)), ref)

    l2, hs = ref["final_l2"], ref["final_hs_crit"]
    assert problems(l2, hs, 0.0) == []
    assert problems(l2 * (1 + 1e-9), hs, 0.0)
    assert problems(l2, hs * (1 - 1e-9), 0.0)
    assert problems(l2, hs, 1e-15)
    assert wl.check(work, [4], {}, ref) == ["exit code 4 from simulate"]


def test_picard_and_verify_checks_reject_perturbed_outputs(tmp_path):
    work = wl.WORKLOADS["picard-n64"]
    ref = wl.load_reference()["picard-n64"]["0"]
    summary = "scenario: picard\niterates: {n}\nconverged: {c}\nworst contraction ratio: {r}\n"
    path = str(tmp_path / "picard" / "summary.txt")
    n = ref["iterates"]
    for text, ok in (
        (summary.format(n=n, c="true", r=0.001), True),
        (summary.format(n=n + 1, c="true", r=0.001), False),
        (summary.format(n=n, c="false", r=0.001), False),
        (summary.format(n=n, c="true", r=0.7), False),
    ):
        _write(path, text)
        assert (wl.check(work, [0], wl.observe(work, str(tmp_path)), ref) == []) is ok

    work = wl.WORKLOADS["verify"]
    ref = wl.load_reference()["verify"]["0"]
    for kind in ("verify-operators", "verify-inequalities"):
        rows = "".join(f"c{i},0,1,true\n" for i in range(ref[f"{kind}.rows"]))
        _write(str(tmp_path / kind / f"{kind}.csv"), "name,measured,limit,passed\n" + rows)
    assert wl.check(work, [0, 0], wl.observe(work, str(tmp_path)), ref) == []
    csv_path = str(tmp_path / "verify-inequalities" / "verify-inequalities.csv")
    with open(csv_path) as fh:
        text = fh.read()
    _write(csv_path, text.replace("true\n", "false\n", 1))
    assert wl.check(work, [0, 0], wl.observe(work, str(tmp_path)), ref) == [
        "1 failed rows in verify-inequalities"
    ]


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert sorted(wl.load_reference()) == sorted(wl.WORKLOADS)
    assert all(len(v) == wl.POOL for v in wl.load_reference().values())
