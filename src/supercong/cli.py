"""Command-line front end.

Two subcommands: `verify` runs congruence statements over prime ranges and
argument grids (configured by file and/or flags), `identities` runs the
exact identity battery.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 configuration or usage error, 3 at least one check hit a
fault of the program (an `internal error:` record).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional, Sequence

from .identities import identity_suite
from .suite import (
    ORACLE_MODES,
    ParseError,
    STATEMENT_ALIASES,
    STATEMENTS,
    SuiteConfig,
    emit_report,
    parse_config,
    parse_x,
    run_suite,
)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# argparse only waves through option values that look like plain negative
# numbers; teach it the rational form too so `--x -1/3` parses.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact verification of quadratic congruences for "
                    "binomial double sums.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser(
        "verify",
        help="check congruence statements over primes and arguments")
    v._negative_number_matcher = _NEGATIVE_RATIONAL
    v.add_argument("--suite", metavar="FILE",
                   help="suite config file (flat key = value schema)")
    v.add_argument("--statement", action="append", metavar="ID",
                   help="statement id or alias; repeatable "
                        f"(ids: {', '.join(STATEMENTS)}; "
                        f"aliases: {', '.join(STATEMENT_ALIASES)})")
    v.add_argument("--pmin", type=int, metavar="P")
    v.add_argument("--pmax", type=int, metavar="P")
    v.add_argument("--x", action="append", metavar="A/B",
                   help="argument x (sign, integer or a/b); repeatable; "
                        "default is the built-in per-prime grid")
    v.add_argument("--oracle", choices=ORACLE_MODES,
                   help="cross-check fast tables against exact rationals")
    v.add_argument("--out", metavar="FILE",
                   help="append one JSONL record per check to FILE "
                        "(relative paths resolve under $SUPERCONG_OUT_DIR)")
    v.add_argument("--format", choices=("human", "jsonl", "tap"),
                   default="human")
    v.add_argument("--jobs", type=int, metavar="N",
                   help="worker processes (default 1)")
    v.add_argument("--inject-error", action="store_true",
                   help="negative control: add p to every expected residue")

    i = sub.add_parser("identities", help="run the exact identity battery")
    i.add_argument("--nmax", type=int, default=40,
                   help="upper index for the closed-form double sums")
    return parser


def _verify_config(args: argparse.Namespace) -> SuiteConfig:
    if args.suite is not None:
        with open(args.suite, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = SuiteConfig()
    if args.statement:
        cfg.statements = tuple(args.statement)
    if args.pmin is not None:
        cfg.prime_min = args.pmin
    if args.pmax is not None:
        cfg.prime_max = args.pmax
    if args.x:
        cfg.x_values = tuple(parse_x(s) for s in args.x)
    if args.oracle is not None:
        cfg.oracle_mode = args.oracle
    if args.out is not None:
        cfg.output_path = args.out
    if args.jobs is not None:
        cfg.parallelism = args.jobs
    if args.inject_error:
        cfg.inject_error = True
    cfg.validate()
    return cfg


def _print_to_reader(text: str) -> None:
    """Print text; if the reader left early (`| head`), point stdout at
    devnull so the flush at exit cannot raise, and keep the caller's status."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = _verify_config(args)
    except (ParseError, OSError) as e:
        print(f"supercong: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        summary = run_suite(cfg)
    except OSError as e:
        print(f"supercong: cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE
    _print_to_reader(emit_report(summary, args.format))
    if summary.internal_errors:
        return EXIT_INTERNAL
    return EXIT_FAILURES if summary.failed else EXIT_OK


def _cmd_identities(args: argparse.Namespace) -> int:
    if args.nmax < 0:
        print("supercong: --nmax must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    results = identity_suite(args.nmax)
    failed = sum(not ok for _, ok in results)
    lines = [f"{'ok' if ok else 'FAIL'} - {name}" for name, ok in results]
    lines.append(
        f"identities: {len(results) - failed}/{len(results)} families hold")
    _print_to_reader("\n".join(lines))
    return EXIT_FAILURES if failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "identities":
        return _cmd_identities(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return EXIT_USAGE  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
