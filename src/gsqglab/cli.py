"""Command-line front end: one subcommand per scenario kind.

The subcommands and their help come from gsqglab.harness.SCENARIOS, the
exit codes listed in --help from gsqglab.harness.EXIT_CODES. A command line
argparse refuses exits with the usage code, not argparse's own 2, which the
table gives to invalid configuration values.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError
from .harness import (
    EXIT_CODES,
    EXIT_CONFIG,
    EXIT_USAGE,
    SCENARIOS,
    _refusal,
    parse_config,
    run_scenario,
)

_EXIT_CODE_DOC = "exit codes:\n" + "".join(
    f"  {code}  {meaning}\n" for code, meaning, _ in EXIT_CODES
)


class _Parser(argparse.ArgumentParser):
    """argparse, with its usage errors under EXIT_USAGE; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsqglab",
        description="pseudo-spectral laboratory for dissipative active scalars",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="kind", metavar="COMMAND")
    for kind, scenario in SCENARIOS.items():
        p = sub.add_parser(
            kind,
            help=scenario.help,
            epilog=_EXIT_CODE_DOC,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, metavar="PATH",
                       help="scenario description (key=value sections)")
        p.add_argument("--out", metavar="DIR", help="artifact directory")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--checkpoint", metavar="PATH",
                       help="write a simulate run's final state here")
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
        refusal = _refusal("scenario.seed", args.seed)
        if refusal is not None:
            print(f"--seed {refusal}", file=sys.stderr)
            return EXIT_USAGE
        overrides["seed"] = args.seed
    for option, key in (("checkpoint", "checkpoint_path"), ("resume", "resume_path")):
        path = getattr(args, option)
        if path is None:
            continue
        if config.kind != "simulate":
            print(f"--{option} only applies to simulate", file=sys.stderr)
            return EXIT_USAGE
        overrides[key] = path
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
