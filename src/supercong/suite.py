"""Suite orchestration: which statements, which primes, which arguments.

A suite is a list of (statement, p, x) tasks, recorded in a deterministic
scan order (statement, then prime ascending, then x in configured order)
but computed by prime: one group runs every task at one prime, in scan
order, so the statements that share a table or a block entry at p meet it
within the group.  Every memo keeps the entries of one prime only
(sequences._per_prime), so each entry is built once per run; only the
step lists of the residue tables (sequences._steps), which do not depend
on p, outlive a group: each process keeps them for its run and only grows
them.  A finished report waits until its turn in scan order.
Engine-level hypothesis failures become skip records rather than errors,
so a run over a blanket grid is meaningful; genuine disagreements —
including fast-path/oracle mismatches — become failing records, and so do
faults of the program, whose reason starts with `internal error:`.
Output happens only at a record's turn, to a JSON Lines file and a
caller's hook (a ReportWriter prints `jsonl` or `tap` with it), so an
interrupted run's output is a prefix of the completed run's; RunSummary
keeps counts and failures only.

The registry STATEMENTS is the only place a statement is defined (as
SETTINGS is for a run setting): a StatementSpec gives the id, whether it
takes an argument x, its least prime, its default prime cap, its check and
whether x is reflected to -1-x for the check and its record; a regime that
even the reflection misses is the check's own RegimeError.  To add a
statement, write its engine function in `congruences` and add one
StatementSpec; dispatch, the "all" alias and the scanner follow from it.
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import ExitStack
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TextIO

from . import congruences as cg
from .core import (
    HypothesisViolatedError,
    NonPIntegralError,
    OracleMismatchError,
    PRIME_TEST_BOUND,
    RegimeError,
    Residue,
    SupercongError,
    odd_primes,
)
from .congruences import CongruenceReport


class ParseError(SupercongError):
    """Malformed suite configuration; message carries line/field context."""


class OutputError(SupercongError):
    """The output file cannot be opened or written; carries the OSError."""


class StatementSpec(NamedTuple):
    """The one definition of a statement.

    `check(p, x, oracle)` returns a CongruenceReport, or a bool for the
    structural statements; x is None unless needs_x, else a rational, which
    the check splits itself.  The check looks its engine function up in
    `congruences` at call time, so the module attribute stays the single
    binding (and can be wrapped, e.g. by a tracer).
    """

    id: str
    needs_x: bool
    min_p: int
    default_pmax: int
    check: Callable[[int, Optional[Fraction], str], "CongruenceReport | bool"]
    reflects: bool = False  # apply x -> -1-x when m > (p-1)/2


# Registry order is the canonical scan order for the "all" suite.
STATEMENTS: dict[str, StatementSpec] = {
    s.id: s
    for s in (
        StatementSpec("theorem1", True, 3, 500,
                      lambda p, x, o: cg.theorem1_check(p, x, o)),
        StatementSpec("theorem2", True, 3, 500,
                      lambda p, x, o: cg.theorem2_check(p, x, o)),
        *(StatementSpec(sid, False, case[4], 500,
                        lambda p, x, o, sid=sid: cg.conjecture_check(sid, p, o))
          for sid, case in cg.CONJECTURE_CASES.items()),
        StatementSpec("kw", False, 3, 100, lambda p, x, o: cg.kw_check(p, o)),
        StatementSpec("sun_s", True, 5, 500,
                      lambda p, x, o: cg.sun_s_check(p, x, o)),
        StatementSpec("lemma21", True, 3, 50,
                      lambda p, x, o: cg.lemma21_all(p, x, o), reflects=True),
        *(StatementSpec(sid, True, 3, 50,
                        lambda p, x, o, sid=sid: cg.block_lemma_check(sid, p, x, o),
                        reflects=True)
          for sid in cg.BLOCK_LEMMAS),
        StatementSpec("blocks", True, 3, 50,
                      lambda p, x, o: cg.block_vanishing_check(p, x, False, o),
                      reflects=True),
        StatementSpec("blocks_weighted", True, 3, 50,
                      lambda p, x, o: cg.block_vanishing_check(p, x, True, o),
                      reflects=True),
        StatementSpec("residue_table", False, 5, 500,
                      lambda p, x, o: cg.residue_table_check(p)),
    )
}

STATEMENT_ALIASES: dict[str, tuple[str, ...]] = {
    "conjecture": tuple(cg.CONJECTURE_CASES),
    "all": tuple(STATEMENTS),
}

OUT_DIR_ENV = "SUPERCONG_OUT_DIR"
INTERNAL_ERROR = "internal error:"  # reason prefix of a program-fault record
ORACLE_MODES = ("off", "spot", "full")
_X_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")  # a or a/b, b > 0


def parse_x(text: str) -> Fraction:
    """Parse the CLI/config rational syntax: optional sign, a or a/b."""
    text = text.strip()
    if not _X_RE.match(text):
        raise ParseError(f"bad rational {text!r}: expected a or a/b, b > 0")
    return Fraction(text)


def expand_statements(names: Sequence[str]) -> tuple[str, ...]:
    out: list[str] = []
    for name in names:
        ids = STATEMENT_ALIASES.get(name, (name,))
        for sid in ids:
            if sid not in STATEMENTS:
                known = ", ".join(list(STATEMENTS) + list(STATEMENT_ALIASES))
                raise ParseError(f"unknown statement {name!r} (known: {known})")
            if sid not in out:
                out.append(sid)
    if not out:
        raise ParseError("no statements selected")
    return tuple(out)


def _names(value: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _bool(value: str) -> bool:
    if value not in ("true", "false"):
        raise ParseError("inject_error must be true or false")
    return value == "true"


# The one list of run settings: name -> (default, parser of its suite-file
# value).  SuiteConfig, parse_config and the CLI overrides all read it, so a
# new setting is one row here plus a verify flag whose dest is its name.
SETTINGS: dict[str, tuple[object, Callable[[str], object]]] = {
    "statements": (STATEMENT_ALIASES["all"], _names),
    "prime_min": (3, int),
    "prime_max": (None, int),  # None: per-statement default cap
    "x_values": (None, lambda v: tuple(map(parse_x, _names(v)))),  # None: grid
    "oracle_mode": ("off", str),
    "parallelism": (1, int),
    "output_path": (None, str),
    "inject_error": (False, _bool),
}


class SuiteConfig:
    """Declarative description of one verification run, one attribute per
    SETTINGS row; fields may be set after construction, and validate()
    normalizes and checks them."""

    __slots__ = tuple(SETTINGS)

    def __init__(self, **settings: object) -> None:
        for key, (default, _) in SETTINGS.items():
            setattr(self, key, settings.pop(key, default))
        if settings:  # what is left names no setting
            raise TypeError(f"unknown settings: {', '.join(settings)}")

    def validate(self) -> None:
        """Expand aliases, drop repeated statements and x values (keeping
        the first occurrence) and reject out-of-range settings."""
        self.statements = expand_statements(self.statements)
        if self.x_values is not None:
            self.x_values = tuple(dict.fromkeys(self.x_values))
        if self.prime_min < 3:
            raise ParseError(f"prime_min = {self.prime_min} < 3")
        if self.prime_max is not None and self.prime_max < self.prime_min:
            raise ParseError(
                f"prime_max = {self.prime_max} < prime_min = {self.prime_min}")
        top = self.prime_min if self.prime_max is None else self.prime_max
        if top >= PRIME_TEST_BOUND:
            raise ParseError(f"primes must be below {PRIME_TEST_BOUND}, "
                             "where the primality test is proven")
        if self.oracle_mode not in ORACLE_MODES:
            raise ParseError(f"oracle_mode must be one of {ORACLE_MODES}")
        if self.parallelism < 1:
            raise ParseError(f"parallelism = {self.parallelism} < 1")
        if self.x_values == ():
            raise ParseError("no x values given")
        if self.prime_max is None and next(_task_args(self), None) is None:
            caps = ", ".join(f"{sid} {STATEMENTS[sid].default_pmax}"
                             for sid in self.statements)
            raise ParseError(
                f"prime_min = {self.prime_min} selects no check under the "
                f"default prime caps ({caps}); give --pmax or prime_max")


def parse_config(text: str, **overrides: object) -> SuiteConfig:
    """Parse the flat key-value suite format (one `key = value` per line,
    '#' lines are comments; lists are comma-separated).  Settings given as
    overrides (the command line's) replace the file's before the one
    validation, so a file may be valid only with them."""
    cfg = SuiteConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SETTINGS and key != "schema_version":
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key != "schema_version":
                setattr(cfg, key, SETTINGS[key][1](value))
            elif value != "1":
                raise ParseError(f"unsupported schema_version {value!r}")
        except (ValueError, ParseError) as e:
            raise ParseError(f"line {lineno}: {e}") from None
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


class RunSummary:
    """Counts of a run and its failing reports, in scan order."""

    __slots__ = ("total", "passed", "failed", "skipped", "failures")

    def __init__(self) -> None:
        self.total = self.passed = self.failed = self.skipped = 0
        self.failures: list[CongruenceReport] = []

    @property
    def internal_errors(self) -> list[CongruenceReport]:
        return [r for r in self.failures
                if (r.skipped_reason or "").startswith(INTERNAL_ERROR)]

    def add(self, report: CongruenceReport) -> None:
        self.total += 1
        if report.passed is None:
            self.skipped += 1
        elif report.passed:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(report)


def run_check(sid: str, p: int, x: Optional[Fraction] = None,
              oracle: str = "off", inject_error: bool = False) -> CongruenceReport:
    """One task: reflect, dispatch, convert hypothesis failures to skips,
    and apply the optional off-by-p fault injection to the expected residue.
    A reflecting statement whose x has least residue m > (p-1)/2 is checked
    at -1-x, and every record of the task carries that x.

    Any other exception is a fault of the program, not a result about the
    maths: it becomes a failing record whose reason starts with
    INTERNAL_ERROR, and its traceback goes to stderr, so a run goes on and
    its log stays complete.  micros is the wall time of the whole task,
    measured here for every kind of record."""
    t0 = perf_counter_ns()
    reason = None
    try:
        spec = STATEMENTS[sid]
        if p < spec.min_p:
            raise HypothesisViolatedError(f"{sid} requires p >= {spec.min_p}")
        if spec.reflects and cg._split(p, x)[2] > (p - 1) // 2:
            x = -1 - Fraction(x)
        result = spec.check(p, x, oracle)
    except (HypothesisViolatedError, NonPIntegralError, RegimeError) as e:
        result, reason = None, str(e)
    except OracleMismatchError as e:
        result, reason = False, f"oracle mismatch: {e}"
    except Exception as e:
        import traceback  # only a fault needs it; verify starts without it
        traceback.print_exc(file=sys.stderr)
        result, reason = False, f"{INTERNAL_ERROR} {type(e).__name__}: {e}"
    if not isinstance(result, CongruenceReport):  # a verdict, a skip, a fault
        result = CongruenceReport(sid, p, x, None, None, result, reason, 0)
    elif inject_error and result.rhs is not None:
        bumped = Residue(result.rhs.value + p, result.rhs.modulus)
        result = CongruenceReport(result.statement, result.p, result.x,
                                  result.lhs, bumped, result.lhs == bumped,
                                  result.skipped_reason, 0)
    result.micros = (perf_counter_ns() - t0) // 1000
    return result


Task = tuple[str, int, Optional[Fraction]]  # (statement, p, x)


def _task_args(cfg: SuiteConfig) -> Iterator[Task]:
    """Every task of the config, in scan order."""
    grids: dict[int, tuple[Fraction, ...]] = {}  # default grid, once per p
    ranges: dict[tuple[int, int], tuple[int, ...]] = {}  # primes, once each
    for sid in cfg.statements:
        spec = STATEMENTS[sid]
        pmax = cfg.prime_max if cfg.prime_max is not None else spec.default_pmax
        lo = max(cfg.prime_min, spec.min_p)
        if (lo, pmax) not in ranges:
            ranges[lo, pmax] = tuple(odd_primes(lo, pmax))
        for p in ranges[lo, pmax]:
            if not spec.needs_x:
                yield sid, p, None
                continue
            if cfg.x_values is not None:
                xs: tuple[Fraction, ...] = cfg.x_values
            else:
                if p not in grids:
                    grids[p] = cg.default_x_grid(p)
                xs = grids[p]
                if sid == "theorem2":
                    # probe the t-independence of the 2x = -1 (mod p) branch
                    xs = xs + (Fraction(-1, 2) + p,)
            for x in xs:
                yield sid, p, x


def _prime_groups(cfg: SuiteConfig) -> list[tuple[list[int], list[Task]]]:
    """The tasks of each prime, primes ascending: their scan positions and
    the tasks themselves, both in scan order."""
    groups: dict[int, tuple[list[int], list[Task]]] = {}
    for i, task in enumerate(_task_args(cfg)):
        slots, tasks = groups.setdefault(task[1], ([], []))
        slots.append(i)
        tasks.append(task)
    return [groups[p] for p in sorted(groups)]


def _run_group(oracle: str, inject_error: bool,
               tasks: list[Task]) -> list[CongruenceReport]:
    return [run_check(*task, oracle, inject_error) for task in tasks]


def report_record(report: CongruenceReport) -> dict:
    """The fixed JSONL field set; residues as decimal strings."""
    modulus = report.lhs.modulus if report.lhs is not None else (
        report.rhs.modulus if report.rhs is not None else None)
    return {
        "statement": report.statement,
        "p": report.p,
        "x": None if report.x is None else str(report.x),
        "lhs": None if report.lhs is None else str(report.lhs.value),
        "rhs": None if report.rhs is None else str(report.rhs.value),
        "modulus": None if modulus is None else str(modulus),
        "pass": report.passed,
        "skipped_reason": report.skipped_reason,
        "micros": report.micros,
    }


def resolve_output_path(path: "str | os.PathLike[str]") -> Path:
    """Relative paths land in $SUPERCONG_OUT_DIR (default: cwd); absolute
    paths stay as they are."""
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / path


def _describe(r: CongruenceReport) -> str:
    return f"{r.statement} p={r.p}" + ("" if r.x is None else f" x={r.x}")


class ReportWriter:
    """Writes a run in one format through emit, deterministic apart from
    the micros field: `tap` its plan (`plan`, run_suite's on_plan), `jsonl`
    and `tap` a line per record at its turn (`record`, the on_record hook),
    `human` the counts and failures when the run is over (`finish`)."""

    __slots__ = ("format", "emit", "numbered")

    def __init__(self, format: str, emit: Callable[[str], object]) -> None:
        if format not in ("human", "jsonl", "tap"):
            raise ValueError(f"unknown report format {format!r}")
        self.format, self.emit, self.numbered = format, emit, 0

    def plan(self, total: int) -> None:
        if self.format == "tap":
            self.emit(f"1..{total}")

    def record(self, r: CongruenceReport) -> None:
        if self.format == "jsonl":
            self.emit(json.dumps(report_record(r)))
        elif self.format == "tap":
            self.numbered += 1
            skip = "" if r.passed is not None else f" # SKIP {r.skipped_reason}"
            self.emit(f"{'not ok' if r.passed is False else 'ok'} "
                      f"{self.numbered} - {_describe(r)}{skip}")

    def finish(self, summary: RunSummary) -> None:
        if self.format != "human":
            return
        lines = [f"checks: {summary.total}  passed: {summary.passed}  "
                 f"failed: {summary.failed}  skipped: {summary.skipped}"]
        for r in summary.failures:
            detail = (f"lhs={r.lhs.value} rhs={r.rhs.value} "
                      f"mod {r.lhs.modulus}" if r.lhs is not None
                      and r.rhs is not None else (r.skipped_reason or
                                                  "structural check false"))
            lines.append(f"FAIL {_describe(r)}: {detail}")
        if summary.passed and not summary.failed:
            lines.append("all checks passed")
        self.emit("\n".join(lines))


def _append(sink: TextIO, line: str) -> None:
    try:
        print(line, file=sink, flush=True)
    except OSError as e:
        raise OutputError(e) from e


def run_suite(cfg: SuiteConfig,
              on_record: Optional[Callable[[CongruenceReport], None]] = None,
              on_plan: Optional[Callable[[int], None]] = None) -> RunSummary:
    """Execute every task of the config one prime group at a time, whole
    groups on a process pool when cfg.parallelism > 1, and record the
    reports in scan order, so logs from equal configs are identical apart
    from the timing field.  on_plan gets the number of tasks first; at a
    report's turn its line goes to cfg.output_path (else OutputError) and
    it to on_record.  A run of several statements holds the later ones'
    reports to its end."""
    cfg.validate()
    groups = _prime_groups(cfg)
    summary = RunSummary()
    with ExitStack() as stack:
        hooks = [] if on_record is None else [on_record]
        if cfg.output_path is not None:
            out = resolve_output_path(cfg.output_path)
            try:
                out.parent.mkdir(parents=True, exist_ok=True)
                sink = stack.enter_context(open(out, "a", encoding="utf-8"))
            except OSError as e:
                raise OutputError(e) from e
            hooks.insert(0, ReportWriter("jsonl", partial(_append, sink)).record)
        if on_plan is not None:
            on_plan(sum(len(slots) for slots, _ in groups))
        work = [tasks for _, tasks in groups]
        run = partial(_run_group, cfg.oracle_mode, cfg.inject_error)
        if cfg.parallelism > 1 and len(work) > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(cfg.parallelism, len(work))))
            results = pool.map(run, work)
        else:
            results = map(run, work)
        waiting: dict[int, CongruenceReport] = {}  # scan position -> report
        for (slots, _), reports in zip(groups, results):
            waiting.update(zip(slots, reports))
            while summary.total in waiting:
                report = waiting.pop(summary.total)
                summary.add(report)
                for hook in hooks:  # the --out file first
                    hook(report)
    return summary
