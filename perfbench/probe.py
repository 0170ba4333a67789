"""Time one set-up in a fresh process: import gsqglab, then the workload's warm-up.

    python3 perfbench/probe.py <workload> <program seed> <work dir>

Prints {"import_s": ..., "warmup_s": ...} as its last line. run.py starts
it to take set-up samples that a long-lived process cannot give.
"""

import json
import shutil
import sys

import run  # sets the thread variables and the import path before numpy loads
import workloads as wl


def main(argv) -> int:
    name, cli_seed, workdir = argv
    import_s, warmup_s, _cli = run.timed_setup(wl.WORKLOADS[name], workdir, int(cli_seed))
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
