"""Command-line front end: one subcommand per scenario kind.

The exit codes, listed in --help, come from gsqglab.harness.EXIT_CODES.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError
from .harness import (
    EXIT_CODES,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_USAGE,
    SCENARIO_KINDS,
    parse_config,
    run_scenario,
)

_EXIT_CODE_DOC = (
    "exit codes:\n"
    + "".join(f"  {code}  {meaning}\n" for code, meaning, _ in EXIT_CODES)
    + "\nenvironment:\n"
    "  GSQG_THREADS  caps the worker threads used by the verification batteries\n"
)

_KIND_HELP = {
    "simulate": "integrate the full equation and write diagnostics",
    "picard": "run the fixed-point iteration and report contraction",
    "verify-operators": "check all spectral operators against direct per-mode loops",
    "verify-inequalities": "run the random-ensemble inequality batteries",
    "scaling-check": "compare rescale-then-solve against solve-then-rescale",
    "decay-study": "fit long-time decay slopes of derivative norms",
    "gevrey-track": "track the weighted analyticity-radius norm",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsqglab",
        description="pseudo-spectral laboratory for dissipative active scalars",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="kind", metavar="COMMAND")
    for kind in SCENARIO_KINDS:
        p = sub.add_parser(
            kind,
            help=_KIND_HELP[kind],
            epilog=_EXIT_CODE_DOC,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, metavar="PATH",
                       help="scenario description (key=value sections)")
        p.add_argument("--out", metavar="DIR", help="artifact directory")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--checkpoint", metavar="PATH",
                       help="write a final-state checkpoint here")
        p.add_argument("--resume", metavar="PATH",
                       help="continue a simulate run from this checkpoint")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.kind is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_config(text, default_kind=args.kind)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        if args.seed < 0:
            print("--seed must be nonnegative", file=sys.stderr)
            return EXIT_USAGE
        overrides["seed"] = args.seed
    if args.checkpoint is not None:
        overrides["checkpoint_path"] = args.checkpoint
    if args.resume is not None:
        if config.kind != "simulate":
            print("--resume only applies to simulate", file=sys.stderr)
            return EXIT_USAGE
        overrides["resume_path"] = args.resume
    if overrides:
        config = dataclasses.replace(config, **overrides)
    try:
        return run_scenario(config)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
