"""Digest of the command line's outputs over a fixed list of small runs.

Each case runs in-process through `gsqglab.cli.main`, into its own
directory under one temporary root, and prints one block: the exit code,
the SHA-256 of stdout and of stderr, and the SHA-256 of every file the run
wrote. A checkpoint (a `.ck` file) also gets the digest of the same bytes
with each payload zero written as +0.0, so checkpoints that differ only in
the signs of zeros can be told apart from ones whose values differ. The
temporary root is written as `<tmp>` in stdout and stderr before they are
digested, and every warning is shown each time it is raised.

The cases: every scenario kind at dealias fractions 2/3, 0.9 and 1; simulate
and picard with the one-term, two-term and log-law fluxes; a `--checkpoint`
/ `--resume` pair; and each failure exit (1 usage, 2 config, 3 I/O,
4 blow-up, 5 CFL, 6 overflow, 7 picard exhaustion, 8 checkpoint clash).

Compare two commits by running the script from each checkout's root and
diffing the outputs:

    PYTHONPATH=src python tests/cli_digest.py > change.txt
    (in the other checkout) PYTHONPATH=src python /path/to/cli_digest.py > parent.txt
    diff parent.txt change.txt

`--show` prints stdout and stderr in full after their digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import sys
import tempfile
import warnings

import numpy as np

from gsqglab.cli import main
from gsqglab.harness import CHECKPOINT_MAGIC

# the checkpoint header after the magic bytes, as harness.write_checkpoint packs it
_HEADER = len(CHECKPOINT_MAGIC) + struct.calcsize("<IId5dBd")

SIM = """
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

DECAY = """
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
k_list = 0,2
"""

BLOW_UP = """
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

LAWS = {
    "one-term": "beta = 1.2\nkappa = 0.5\ngamma = 0.3",
    "two-term": "beta = 1.7\nkappa = 0.5\ngamma = 0.3",
    "log-law": "beta = 2\nkappa = 0.5\ngamma = 0.3\nvelocity_law = log\nmu = 0.7",
}

FRACTIONS = {"2/3": None, "0.9": "0.9", "1": "1"}


def _kind(body: str, kind: str) -> str:
    return body.replace("kind = simulate", f"kind = {kind}")


def _fraction(body: str, fraction: str | None) -> str:
    if fraction is None:
        return body
    return body.replace("[grid]\n", f"[grid]\ndealias_fraction = {fraction}\n")


def _law(body: str, law: str, n: int = 16) -> str:
    body = body.replace("beta = 1.5\nkappa = 0.5\ngamma = 0.3", LAWS[law])
    return body.replace("n = 16\n", f"n = {n}\n")


def _kind_bodies() -> dict:
    """One small passing config per scenario kind."""
    return {
        "simulate": SIM,
        "picard": _kind(SIM, "picard"),
        "verify-operators": _kind(SIM, "verify-operators"),
        "verify-inequalities": "[scenario]\nkind = verify-inequalities\n"
        "[verify]\ntriples = 2\nfields = 4\ndraws = 20\n",
        "scaling-check": _kind(SIM, "scaling-check").replace("T = 0.02", "T = 0.04"),
        "decay-study": DECAY,
        "gevrey-track": _kind(SIM, "gevrey-track")
        + "[gevrey]\nalpha = 0.4\neps_rate = 0.2\ndelta = 0.1\n",
    }


def cases() -> list:
    """(name, config text or None, extra arguments, kind) per case. Each
    case runs in the directory `_slug(name)` under the temporary root; the
    strings "{dir}" and "{root}" in the arguments are that directory and
    the root."""
    out = []
    for kind, body in _kind_bodies().items():
        for label, fraction in FRACTIONS.items():
            out.append((f"{kind} fraction {label}", _fraction(body, fraction), [], kind))
    for law in LAWS:
        for label, fraction in FRACTIONS.items():
            body = _fraction(_law(SIM, law, 32), fraction)
            out.append((f"simulate {law} n32 fraction {label}", body, [], "simulate"))
        for n in (16, 32):
            body = _law(_kind(SIM, "picard"), law, n)
            out.append((f"picard {law} n{n}", body, [], "picard"))
    out.append((
        "simulate n64 two-term stride 5",
        _law(SIM, "two-term", 64).replace("seed = 3", "seed = 3\nsnapshot_stride = 5"),
        [], "simulate",
    ))
    # the benchmark's simulate and picard configs, shortened, on smaller grids
    bench_sim = (
        SIM.replace("n = 16", "n = 128")
        .replace("beta = 1.5\nkappa = 0.5\ngamma = 0.3", "beta = 1\nkappa = 0.5\ngamma = 0.1")
        .replace("amplitude = 0.05", "amplitude = 0.5")
        .replace("T = 0.02", "T = 0.01\nsnapshot_stride = 10")
    )
    out.append(("simulate n128 ensemble", bench_sim, ["--checkpoint", "{dir}/end.ck"],
                "simulate"))
    bench_picard = (
        _law(_kind(SIM, "picard"), "two-term", 64)
        .replace("amplitude = 0.05\ndecay = 3.0", "amplitude = 2.27\ndecay = 3.7")
        .replace("T = 0.02", "T = 0.01")
        + "[picard]\ntol = 1e-12\n"
    )
    out.append(("picard n64 ensemble", bench_picard, [], "picard"))
    # a checkpoint, and a run resumed from it to twice the horizon
    for label, fraction in FRACTIONS.items():
        body = _fraction(SIM, fraction)
        saved = f"{{root}}/{_slug(f'checkpoint {label}')}/state.ck"
        out.append((f"checkpoint {label}", body, ["--checkpoint", "{dir}/state.ck"],
                    "simulate"))
        out.append((f"resume {label}", body.replace("T = 0.02", "T = 0.04"),
                    ["--resume", saved, "--checkpoint", "{dir}/end.ck"], "simulate"))
    # failure exits
    out.append(("usage: no --config", None, [], "simulate"))
    out.append(("usage: --checkpoint for picard", _kind(SIM, "picard"),
                ["--checkpoint", "{dir}/x.ck"], "picard"))
    out.append(("config: n = 15", SIM.replace("n = 16", "n = 15"), [], "simulate"))
    out.append(("io: out is a file", SIM, ["--out", "{root}/blocker"], "simulate"))
    out.append(("blow-up simulate", BLOW_UP, [], "simulate"))
    out.append(("blow-up picard", _kind(BLOW_UP, "picard"), [], "picard"))
    out.append(("cfl simulate", SIM.replace("amplitude = 0.05", "amplitude = 1e3"), [],
                "simulate"))
    for label, fraction in FRACTIONS.items():
        body = _fraction(_kind(SIM, "picard").replace("amplitude = 0.05", "amplitude = 1e3"),
                         fraction)
        out.append((f"cfl picard {label}", body, [], "picard"))
    out.append(("overflow gevrey-track", _kind(SIM, "gevrey-track")
                + "[gevrey]\nalpha = 0.4\neps_rate = 1e6\ndelta = 0.1\n", [], "gevrey-track"))
    out.append(("picard exhaustion", _kind(SIM, "picard")
                + "[picard]\ntol = 1e-30\nmax_iter = 1\n", [], "picard"))
    out.append(("checkpoint clash", SIM.replace("n = 16", "n = 32").replace(
        "T = 0.02", "T = 0.04"), ["--resume", "{root}/checkpoint-2-3/state.ck"], "simulate"))
    return out


def _slug(name: str) -> str:
    return "-".join("".join(c if c.isalnum() else " " for c in name).split())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _zeros_as_plus(data: bytes) -> bytes:
    """A checkpoint's bytes with each zero of its payload written as +0.0."""
    if len(data) < _HEADER or (len(data) - _HEADER) % 8:
        return data
    payload = np.frombuffer(data, "<f8", offset=_HEADER) + 0.0
    return data[:_HEADER] + payload.astype("<f8").tobytes()


def run_case(root: str, index: int, case, show: bool) -> list:
    name, body, extra, kind = case
    case_dir = os.path.join(root, _slug(name))
    os.makedirs(case_dir)
    argv = [kind]
    if body is not None:
        path = case_dir + ".cfg"
        with open(path, "w") as fh:
            fh.write(body)
        argv += ["--config", path]
    fill = {"{dir}": case_dir, "{root}": root}
    args = []
    for a in extra:
        for key, value in fill.items():
            a = a.replace(key, value)
        args.append(a)
    if "--out" not in args:
        args += ["--out", os.path.join(case_dir, "out")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv + args)
        except SystemExit as exc:
            code = exc.code
    texts = [s.getvalue().replace(root, "<tmp>") for s in (out, err)]
    lines = [f"case {index:02d} {name}", f"  exit {code}"]
    for label, text in zip(("stdout", "stderr"), texts):
        lines.append(f"  {label} {_sha(text.encode())}")
        if show and text:
            lines += [f"    | {ln}" for ln in text.splitlines()]
    for dirpath, _dirs, files in sorted(os.walk(case_dir)):
        for fname in sorted(files):
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, case_dir)
            line = f"  {rel} {_sha(data)}"
            if fname.endswith(".ck"):
                line += f" zeros+0 {_sha(_zeros_as_plus(data))}"
            lines.append(line)
    return lines


def main_digest(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    show = "--show" in argv
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as root:
        with open(os.path.join(root, "blocker"), "w") as fh:
            fh.write("a file where the artifact directory should go\n")
        for i, case in enumerate(cases()):
            print("\n".join(run_case(root, i, case, show)))
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
