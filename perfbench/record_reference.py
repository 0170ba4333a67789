"""Record reference.json: the checked outputs of every workload for each program seed.

    python3 perfbench/record_reference.py [workload ...]

Run it once at a commit whose outputs are trusted; run.py then checks every
operation of later commits against these values.
"""

import json
import os
import shutil
import sys

import run  # sets the thread variables and the import path before numpy loads
import workloads as wl


def main(names) -> int:
    import gsqglab.cli as cli

    data = wl.load_reference() if os.path.exists(wl.REFERENCE_PATH) else {}
    for name in names or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        data[name] = {}
        for cli_seed in range(wl.POOL):
            workdir = os.path.join(run.OUT, "record", name, str(cli_seed))
            codes, _wall, _cpu = wl.run_commands(cli, wl.prepare(workload.commands, workdir, cli_seed))
            if any(codes):
                print(f"{name} seed {cli_seed}: exit codes {codes}", file=sys.stderr)
                return 1
            obs = wl.observe(workload, workdir)
            ref = {k: obs[k] for k in wl.RECORDED_KEYS[name]}
            problems = wl.check(workload, codes, obs, ref)
            if problems:
                print(f"{name} seed {cli_seed}: {problems}", file=sys.stderr)
                return 1
            data[name][str(cli_seed)] = ref
            shutil.rmtree(workdir, ignore_errors=True)
            print(name, cli_seed, obs, flush=True)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
