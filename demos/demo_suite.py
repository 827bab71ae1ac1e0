"""Walkthrough of the suite runner: config documents, deterministic runs,
report formats written record by record, and the negative control.

Run:  python3 demos/demo_suite.py
"""

from fractions import Fraction

from supercong.suite import (
    ReportWriter,
    SuiteConfig,
    parse_config,
    run_suite,
)

CONFIG_DOC = """\
# a small verification suite
schema_version = 1
statements = theorem1, conjecture
prime_max = 31
x_values = -1/3, 0, 4
oracle_mode = spot
"""


def main() -> None:
    print("== a config document parses into a validated SuiteConfig ==")
    cfg = parse_config(CONFIG_DOC)
    print(f"  statements: {cfg.statements}")
    print(f"  primes up to {cfg.prime_max}, oracle mode {cfg.oracle_mode!r}")

    print("\n== running it (scan order: statement, prime, argument) ==")
    # a writer prints each record at its turn; here the lines are collected
    lines: list[str] = []
    jsonl = ReportWriter("jsonl", lines.append)
    summary = run_suite(cfg, jsonl.record)
    print(f"  {summary.total} checks: {summary.passed} passed, "
          f"{summary.failed} failed, {summary.skipped} skipped")
    print(f"  first JSON Lines record: {lines[0]}")

    print("\n== hypothesis failures become skip records, not errors (TAP) ==")
    skip_cfg = SuiteConfig(statements=("sun_s",), prime_min=5, prime_max=7,
                           x_values=(Fraction(-1, 2),))
    tap = ReportWriter("tap", lambda line: print(f"  {line}"))
    skip_summary = run_suite(skip_cfg, tap.record, tap.plan)
    print(f"  excluded argument -1/2: {skip_summary.skipped} of "
          f"{skip_summary.total} checks skipped")

    print("\n== negative control: an off-by-p fault must be caught ==")
    bad_cfg = SuiteConfig(statements=("theorem1",), prime_max=7,
                          x_values=(Fraction(0),), inject_error=True)
    bad = run_suite(bad_cfg)
    print(f"  injected error: {bad.failed}/{bad.total} checks fail")
    ReportWriter("human", lambda text: print(
        "\n".join(f"  {line}" for line in text.splitlines()))).finish(bad)


if __name__ == "__main__":
    main()
