"""Suite orchestration: which statements, which primes, which arguments.

A suite is a list of (statement, p, x) tasks executed in a deterministic
scan order (statement, then prime ascending, then x in configured order).
Engine-level hypothesis failures become skip records rather than errors, so
a run over a blanket grid is meaningful; genuine disagreements — including
fast-path/oracle mismatches — become failing records, and so do faults of
the program, whose reason starts with `internal error:`.  Records can be
streamed to a JSON Lines file as they complete, which makes an interrupted
run's log a prefix of the completed run's log.

The registry STATEMENTS is the only place a statement is defined: its
StatementSpec gives the id, whether it takes an argument x, its least
prime, its default prime cap, its regime handling and its check.  To add a
statement, write its engine function in `congruences` and add one
StatementSpec; dispatch, the "all" alias and the scanner follow from it.
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, Optional, Sequence

from . import congruences as cg
from .core import (
    HypothesisViolatedError,
    NonPIntegralError,
    OracleMismatchError,
    RegimeError,
    Residue,
    SupercongError,
    odd_primes,
)
from .congruences import CongruenceReport


class ParseError(SupercongError):
    """Malformed suite configuration; message carries line/field context."""


@dataclass(frozen=True)
class StatementSpec:
    """The one definition of a statement.

    `check(p, x, oracle)` returns a CongruenceReport, or a bool for the
    structural statements; x is None unless needs_x.  The suite applies
    min_p and the reflection before calling it.  Adding a statement takes
    its engine function plus one entry in STATEMENTS; the check looks the
    function up in `congruences` at call time, so the module attribute stays
    the single binding (and can be wrapped, e.g. by a tracer).
    """

    id: str
    needs_x: bool
    min_p: int
    default_pmax: int
    check: Callable[[int, Optional[Fraction], str], "CongruenceReport | bool"]
    reflects: bool = False       # apply x -> -1-x when m > (p-1)/2
    strict_regime: bool = False  # skip when even reflection leaves m = (p-1)/2


_LOW_REGIME = dict(reflects=True, strict_regime=True)

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
                        lambda p, x, o, sid=sid: cg.block_lemma_check(sid, p, x),
                        **_LOW_REGIME)
          for sid in cg.BLOCK_LEMMAS),
        StatementSpec("blocks", True, 3, 50,
                      lambda p, x, o: cg.block_vanishing_check(p, x, weighted=False),
                      **_LOW_REGIME),
        StatementSpec("blocks_weighted", True, 3, 50,
                      lambda p, x, o: cg.block_vanishing_check(p, x, weighted=True),
                      **_LOW_REGIME),
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
_X_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_x(text: str) -> Fraction:
    """Parse the CLI/config rational syntax: optional sign, a or a/b."""
    text = text.strip()
    if not _X_RE.match(text):
        raise ParseError(f"bad rational {text!r}: expected a or a/b")
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


@dataclass
class SuiteConfig:
    """Declarative description of one verification run."""

    statements: tuple[str, ...] = STATEMENT_ALIASES["all"]
    prime_min: int = 3
    prime_max: Optional[int] = None  # None: per-statement default cap
    x_values: Optional[tuple[Fraction, ...]] = None  # None: default grid
    oracle_mode: str = "off"
    parallelism: int = 1
    output_path: Optional[str] = None
    inject_error: bool = False

    def validate(self) -> None:
        self.statements = expand_statements(self.statements)
        if self.prime_min < 3:
            raise ParseError(f"prime_min = {self.prime_min} < 3")
        if self.prime_max is not None and self.prime_max < self.prime_min:
            raise ParseError(
                f"prime_max = {self.prime_max} < prime_min = {self.prime_min}")
        if self.oracle_mode not in ORACLE_MODES:
            raise ParseError(f"oracle_mode must be one of {ORACLE_MODES}")
        if self.parallelism < 1:
            raise ParseError(f"parallelism = {self.parallelism} < 1")


_CONFIG_KEYS = ("schema_version", "statements", "prime_min", "prime_max",
                "x_values", "oracle_mode", "parallelism", "output_path",
                "inject_error")


def parse_config(text: str) -> SuiteConfig:
    """Parse the flat key-value suite format (one `key = value` per line,
    '#' lines are comments; lists are comma-separated)."""
    cfg = SuiteConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key == "schema_version":
                if value != "1":
                    raise ParseError(f"unsupported schema_version {value!r}")
            elif key == "statements":
                cfg.statements = tuple(
                    s.strip() for s in value.split(",") if s.strip())
            elif key in ("prime_min", "prime_max", "parallelism"):
                setattr(cfg, key, int(value))
            elif key == "x_values":
                cfg.x_values = tuple(
                    parse_x(s) for s in value.split(",") if s.strip())
            elif key == "oracle_mode":
                cfg.oracle_mode = value
            elif key == "output_path":
                cfg.output_path = value
            elif key == "inject_error":
                if value not in ("true", "false"):
                    raise ParseError("inject_error must be true or false")
                cfg.inject_error = value == "true"
        except ValueError as e:
            raise ParseError(f"line {lineno}: {e}") from None
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    cfg.validate()
    return cfg


@dataclass
class RunSummary:
    total: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    reports: list[CongruenceReport] = field(default_factory=list)

    @property
    def failures(self) -> list[CongruenceReport]:
        return [r for r in self.reports if r.passed is False]

    @property
    def internal_errors(self) -> list[CongruenceReport]:
        return [r for r in self.failures
                if (r.skipped_reason or "").startswith(INTERNAL_ERROR)]

    def add(self, report: CongruenceReport) -> None:
        self.reports.append(report)
        self.total += 1
        if report.passed is None:
            self.skipped += 1
        elif report.passed:
            self.passed += 1
        else:
            self.failed += 1


def _dispatch(sid: str, p: int, x: Optional[Fraction],
              oracle: str) -> CongruenceReport:
    spec = STATEMENTS[sid]
    if p < spec.min_p:
        raise HypothesisViolatedError(f"{sid} requires p >= {spec.min_p}")
    if spec.reflects:
        px = cg.padic_split(x, p)
        if px.m > (p - 1) // 2:
            px = px.reflect()
        if spec.strict_regime and px.m == (p - 1) // 2:
            raise RegimeError(
                "m = (p-1)/2 for both x and -1-x; outside the stated regime")
        x = px.x
    t0 = perf_counter_ns()
    result = spec.check(p, x, oracle)
    if isinstance(result, CongruenceReport):
        return result
    micros = (perf_counter_ns() - t0) // 1000
    return CongruenceReport(sid, p, x, None, None, result, None, micros)


def run_check(sid: str, p: int, x: Optional[Fraction] = None,
              oracle: str = "off", inject_error: bool = False) -> CongruenceReport:
    """One task: dispatch, convert hypothesis failures to skips, and apply
    the optional off-by-p fault injection to the expected residue.

    Any other exception is a fault of the program, not a result about the
    maths: it becomes a failing record whose reason starts with
    INTERNAL_ERROR, and its traceback goes to stderr, so a run goes on and
    its log stays complete.
    """
    t0 = perf_counter_ns()
    try:
        report = _dispatch(sid, p, x, oracle)
    except (HypothesisViolatedError, NonPIntegralError, RegimeError) as e:
        micros = (perf_counter_ns() - t0) // 1000
        return CongruenceReport(sid, p, x, None, None, None, str(e), micros)
    except OracleMismatchError as e:
        micros = (perf_counter_ns() - t0) // 1000
        return CongruenceReport(sid, p, x, None, None, False,
                                f"oracle mismatch: {e}", micros)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        micros = (perf_counter_ns() - t0) // 1000
        return CongruenceReport(sid, p, x, None, None, False,
                                f"{INTERNAL_ERROR} {type(e).__name__}: {e}",
                                micros)
    if inject_error and report.rhs is not None:
        bumped = Residue(report.rhs.value + p, report.rhs.modulus)
        report = CongruenceReport(report.statement, report.p, report.x,
                                  report.lhs, bumped, report.lhs == bumped,
                                  report.skipped_reason, report.micros)
    return report


def _task_args(cfg: SuiteConfig) -> Iterator[tuple[str, int, Optional[Fraction], str, bool]]:
    for sid in cfg.statements:
        spec = STATEMENTS[sid]
        pmax = cfg.prime_max if cfg.prime_max is not None else spec.default_pmax
        for p in odd_primes(max(cfg.prime_min, spec.min_p), pmax):
            if not spec.needs_x:
                yield sid, p, None, cfg.oracle_mode, cfg.inject_error
                continue
            if cfg.x_values is not None:
                xs: tuple[Fraction, ...] = cfg.x_values
            else:
                xs = cg.default_x_grid(p)
                if sid == "theorem2":
                    # probe the t-independence of the 2x = -1 (mod p) branch
                    xs = xs + (Fraction(-1, 2) + p,)
            for x in xs:
                yield sid, p, x, cfg.oracle_mode, cfg.inject_error


def _run_task(args: tuple[str, int, Optional[Fraction], str, bool]) -> CongruenceReport:
    sid, p, x, oracle, inject = args
    return run_check(sid, p, x, oracle, inject)


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
    """Relative output paths land in $SUPERCONG_OUT_DIR (default: cwd)."""
    p = Path(path)
    if p.is_absolute():
        return p
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / p


def run_suite(cfg: SuiteConfig) -> RunSummary:
    """Execute every task of the config in deterministic scan order.

    Tasks run on a process pool when cfg.parallelism > 1; results are
    consumed and persisted in task order regardless, so logs from equal
    configs are identical apart from the timing field.
    """
    cfg.validate()
    tasks = list(_task_args(cfg))
    summary = RunSummary()
    sink = None
    if cfg.output_path is not None:
        out = resolve_output_path(cfg.output_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        sink = open(out, "a", encoding="utf-8")
    try:
        if cfg.parallelism > 1 and len(tasks) > 1:
            chunk = max(1, min(32, len(tasks) // (cfg.parallelism * 4) or 1))
            with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
                results = pool.map(_run_task, tasks, chunksize=chunk)
                for report in results:
                    summary.add(report)
                    if sink is not None:
                        sink.write(json.dumps(report_record(report)) + "\n")
                        sink.flush()
        else:
            for args in tasks:
                report = _run_task(args)
                summary.add(report)
                if sink is not None:
                    sink.write(json.dumps(report_record(report)) + "\n")
                    sink.flush()
    finally:
        if sink is not None:
            sink.close()
    return summary


def _describe(report: CongruenceReport) -> str:
    parts = [report.statement, f"p={report.p}"]
    if report.x is not None:
        parts.append(f"x={report.x}")
    return " ".join(parts)


def emit_report(summary: RunSummary, format: str = "human") -> str:
    """Serialize a summary; 'jsonl' and 'tap' are deterministic apart from
    the micros timing field."""
    if format == "jsonl":
        return "\n".join(json.dumps(report_record(r)) for r in summary.reports)
    if format == "tap":
        lines = [f"1..{summary.total}"]
        for i, r in enumerate(summary.reports, start=1):
            if r.passed is None:
                lines.append(f"ok {i} - {_describe(r)} # SKIP {r.skipped_reason}")
            elif r.passed:
                lines.append(f"ok {i} - {_describe(r)}")
            else:
                lines.append(f"not ok {i} - {_describe(r)}")
        return "\n".join(lines)
    if format == "human":
        lines = [
            f"checks: {summary.total}  passed: {summary.passed}  "
            f"failed: {summary.failed}  skipped: {summary.skipped}"
        ]
        for r in summary.failures:
            detail = (f"lhs={r.lhs.value} rhs={r.rhs.value} "
                      f"mod {r.lhs.modulus}" if r.lhs is not None
                      and r.rhs is not None else (r.skipped_reason or
                                                  "structural check false"))
            lines.append(f"FAIL {_describe(r)}: {detail}")
        if summary.failed == 0 and summary.total:
            lines.append("all checks passed")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")
