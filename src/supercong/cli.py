"""Command-line front end.

Two subcommands: `verify` runs congruence statements over prime ranges and
argument grids (configured by file and/or flags), `identities` runs the
exact identity battery.  Exit codes: 0 no check failed, 1 a check failed,
2 a bad configuration, usage or --out file, 3 a fault of the program: a
check hit one (an `internal error:` record) or the run crashed outside any
check (a pool that cannot start or lost a worker), traceback on stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from typing import Callable, Optional, Sequence

from .suite import (
    ORACLE_MODES,
    OutputError,
    ParseError,
    ReportWriter,
    SETTINGS,
    STATEMENT_ALIASES,
    STATEMENTS,
    SuiteConfig,
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
                   dest="statements",
                   help="statement id or alias; repeatable "
                        f"(ids: {', '.join(STATEMENTS)}; "
                        f"aliases: {', '.join(STATEMENT_ALIASES)})")
    v.add_argument("--pmin", type=int, metavar="P", dest="prime_min")
    v.add_argument("--pmax", type=int, metavar="P", dest="prime_max")
    v.add_argument("--x", action="append", metavar="A/B", dest="x_values",
                   help="argument x (sign, integer or a/b); repeatable; "
                        "default is the built-in per-prime grid")
    v.add_argument("--oracle", choices=ORACLE_MODES, dest="oracle_mode",
                   help="cross-check fast tables against exact rationals")
    v.add_argument("--out", metavar="FILE", dest="output_path",
                   help="append one JSONL record per check to FILE "
                        "(relative paths resolve under $SUPERCONG_OUT_DIR)")
    v.add_argument("--format", choices=("human", "jsonl", "tap"),
                   default="human")
    v.add_argument("--jobs", type=int, metavar="N", dest="parallelism",
                   help="worker processes (default 1); each takes every "
                        "check at one prime at a time")
    v.add_argument("--inject-error", action="store_true", default=None,
                   help="negative control: add p to every expected residue")

    i = sub.add_parser("identities", help="run the exact identity battery")
    i.add_argument("--nmax", type=int, default=40,
                   help="upper index for the closed-form double sums")
    return parser


def _verify_config(args: argparse.Namespace) -> SuiteConfig:
    text = ""  # no suite file: every setting at its default
    if args.suite is not None:
        with open(args.suite, encoding="utf-8") as fh:
            text = fh.read()
    if args.x_values is not None:
        args.x_values = tuple(map(parse_x, args.x_values))
    # each flag's dest is its setting; the file is validated with them
    return parse_config(text, **{key: getattr(args, key) for key in SETTINGS
                                 if getattr(args, key) is not None})


def _to_reader(write: Callable[..., object], *args: str) -> None:
    """Call write(*args), a print or stdout's flush; if the reader left early
    (`| head`), point stdout at devnull, so that no later write can raise."""
    try:
        write(*args)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = _verify_config(args)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"supercong: {e}", file=sys.stderr)
        return EXIT_USAGE
    writer = ReportWriter(args.format, partial(_to_reader, print))
    try:
        summary = run_suite(cfg, writer.record, writer.plan)
    except OutputError as e:
        print(f"supercong: cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE
    writer.finish(summary)
    if summary.internal_errors:
        return EXIT_INTERNAL
    return EXIT_FAILURES if summary.failed else EXIT_OK


def _cmd_identities(args: argparse.Namespace) -> int:
    if args.nmax < 0:
        print("supercong: --nmax must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    from .identities import identity_suite  # verify never loads the battery
    results = identity_suite(args.nmax)
    failed = sum(not ok for _, ok in results)
    lines = [f"{'ok' if ok else 'FAIL'} - {name}" for name, ok in results]
    lines.append(
        f"identities: {len(results) - failed}/{len(results)} families hold")
    _to_reader(print, "\n".join(lines))
    return EXIT_FAILURES if failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _cmd_verify if args.command == "verify" else _cmd_identities
    try:
        status = command(args)
    except Exception:  # a crash of the program, not a result about the maths
        import traceback  # only a crash needs it; verify starts without it
        traceback.print_exc(file=sys.stderr)
        status = EXIT_INTERNAL
    _to_reader(sys.stdout.flush)  # lines are printed unflushed, as they come
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
