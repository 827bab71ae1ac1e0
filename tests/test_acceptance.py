"""Acceptance gate: one test per top-level criterion, each printing a
single pass/fail line (bypassing capture) before asserting.  Criteria are
deliberately end-to-end: they drive the public suite runner and CLI, not
module internals, and re-derive expected values independently where cheap.
"""

from fractions import Fraction
from time import monotonic

from supercong.cli import main
from supercong.congruences import conjecture_check, default_x_grid
from supercong.core import OracleMismatchError, Residue, mod_reduce, odd_primes
from supercong.identities import (
    identity_suite,
    lemma22_double_sum,
    lemma32_double_sum,
)
from supercong.sequences import t_seq, t_table_mod
from supercong.suite import (
    SuiteConfig,
    report_record,
    run_suite,
)


def _criterion(num: int, desc: str, problems: list, cap) -> None:
    ok = not problems
    with cap.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}",
              flush=True)
    assert ok, f"criterion {num} failed: {problems[:5]}"


def test_criterion_1_closed_form_double_sums(capfd):
    t0 = monotonic()
    problems = []
    for n in range(41):
        if lemma22_double_sum(n) != Fraction((-1) ** n, 2 * n + 1):
            problems.append(f"plain double sum off at n={n}")
        want = Fraction(1, 4) - Fraction(
            (-1) ** n * (2 * n * n + 2 * n - 1), 8 * n + 4)
        if lemma32_double_sum(n) != want:
            problems.append(f"weighted double sum off at n={n}")
    elapsed = monotonic() - t0
    if elapsed >= 30:
        problems.append(f"runtime {elapsed:.1f}s, budget 30s")
    _criterion(1, "closed-form double sums exact for n <= 40", problems, capfd)


def test_criterion_2_support_identities(capfd):
    t0 = monotonic()
    problems = [name for name, ok in identity_suite(nmax=40) if not ok]
    elapsed = monotonic() - t0
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.1f}s, budget 60s")
    _criterion(2, "support identity battery on stated grids", problems, capfd)


def test_criterion_3_plain_square_sums(capfd):
    t0 = monotonic()
    summary = run_suite(SuiteConfig(statements=("theorem1",), prime_max=200))
    elapsed = monotonic() - t0
    problems = []
    if summary.total == 0 or summary.failed or summary.skipped:
        problems.append(
            f"total={summary.total} failed={summary.failed} "
            f"skipped={summary.skipped}")
    problems += [f"{r.statement} p={r.p} x={r.x}" for r in summary.failures]
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s, budget 300s")
    _criterion(3, "sum t_n(x)^2 mod p^2 over p <= 200 and the full grid",
               problems, capfd)


def test_criterion_4_shifted_square_sums(capfd):
    t0 = monotonic()
    summary = run_suite(SuiteConfig(statements=("theorem2",), prime_max=200))
    elapsed = monotonic() - t0
    problems = []
    if summary.total == 0 or summary.failed or summary.skipped:
        problems.append(
            f"total={summary.total} failed={summary.failed} "
            f"skipped={summary.skipped}")
    for p in odd_primes(3, 200):
        probe = Fraction(-1, 2) + p
        if not any(r.x == probe and r.passed for r in summary.reports
                   if r.p == p):
            problems.append(f"missing boundary probe at p={p}")
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.1f}s, budget 300s")
    _criterion(4, "sum (n+1) t_n(x)^2 mod p^2 with boundary probes",
               problems, capfd)


def test_criterion_5_fixed_argument_weighted_sums(capfd):
    summary = run_suite(SuiteConfig(statements=("conjecture",),
                                    prime_max=200))
    problems = []
    if summary.total == 0 or summary.failed or summary.skipped:
        problems.append(
            f"total={summary.total} failed={summary.failed} "
            f"skipped={summary.skipped}")
    spot = conjecture_check("weighted_8n5", 5)
    if spot.lhs != Residue(10, 25) or report_record(spot)["lhs"] != "10":
        problems.append(f"frozen spot value off: {spot.lhs}")
    _criterion(5, "four weighted congruences for applicable p <= 200",
               problems, capfd)


def test_criterion_6_regime_and_block_lemmas(capfd):
    t0 = monotonic()
    statements = ("lemma21", "lemma23", "lemma24", "lemma33", "lemma34",
                  "blocks", "blocks_weighted")
    summary = run_suite(SuiteConfig(statements=statements, prime_max=50))
    elapsed = monotonic() - t0
    problems = [f"{r.statement} p={r.p} x={r.x}" for r in summary.failures]
    if summary.total == 0 or summary.passed == 0:
        problems.append("suite ran nothing")
    for r in summary.reports:
        if r.passed is None and "regime" not in r.skipped_reason:
            problems.append(f"unexpected skip: {r.skipped_reason}")
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.1f}s, budget 120s")
    _criterion(6, "pair-weight regimes and nine-block structure, p <= 50",
               problems, capfd)


def test_criterion_7_deeper_congruences(capfd):
    kw = run_suite(SuiteConfig(statements=("kw",)))  # default cap 100
    sun = run_suite(SuiteConfig(statements=("sun_s",), prime_max=100))
    problems = []
    if kw.failed or kw.skipped or kw.total == 0:
        problems.append(f"mod-p^3 run: failed={kw.failed} "
                        f"skipped={kw.skipped} total={kw.total}")
    if max(r.p for r in kw.reports) != 97:
        problems.append("mod-p^3 run did not reach its default prime cap")
    if sun.failed or sun.total == 0:
        problems.append(f"companion run: failed={sun.failed}")
    for r in sun.reports:
        if r.passed is None and "excluded" not in r.skipped_reason:
            problems.append(f"unexpected skip: {r.skipped_reason}")
    _criterion(7, "mod-p^3 sum at -1/2 (p <= 100) and companion mod-p^2 grid",
               problems, capfd)


def test_criterion_8_fast_path_equals_oracle(capfd):
    problems = []
    for p in odd_primes(3, 50):
        mod = p * p
        for x in default_x_grid(p):
            try:
                table = t_table_mod(p, 2, x, oracle="full")
            except OracleMismatchError as e:
                problems.append(f"p={p} x={x}: {e}")
                continue
            exact = [t_seq(n, x) for n in range(p)]
            plain = sum(v * v for v in exact)
            shifted = sum((n + 1) * v * v for n, v in enumerate(exact))
            fast_plain = sum(v * v for v in table.values) % mod
            fast_shifted = sum((n + 1) * v * v
                               for n, v in enumerate(table.values)) % mod
            if mod_reduce(plain, p, 2).value != fast_plain:
                problems.append(f"plain sum drift at p={p} x={x}")
            if mod_reduce(shifted, p, 2).value != fast_shifted:
                problems.append(f"shifted sum drift at p={p} x={x}")
    for p in odd_primes(53, 200):
        for x in default_x_grid(p):
            try:
                t_table_mod(p, 2, x, oracle="spot")
            except OracleMismatchError as e:
                problems.append(f"p={p} x={x}: {e}")
    _criterion(8, "modular fast path reproduces the exact-rational oracle",
               problems, capfd)


def test_criterion_9_negative_control(capfd):
    cfg = SuiteConfig(statements=("theorem1", "kw"), prime_max=13,
                      x_values=(Fraction(0),), inject_error=True)
    summary = run_suite(cfg)
    problems = []
    if summary.total == 0 or summary.failed != summary.total:
        problems.append(f"expected every check to fail, got "
                        f"{summary.failed}/{summary.total}")
    for r in summary.failures[:1]:
        rec = report_record(r)
        off = (int(rec["rhs"]) - int(rec["lhs"])) % int(rec["modulus"])
        if off != rec["p"] or rec["pass"] is not False:
            problems.append(f"failure record does not pinpoint: {rec}")
        if not (rec["statement"] and rec["p"]):
            problems.append("failure record missing identifying fields")
    code = main(["verify", "--statement", "kw", "--pmax", "7",
                 "--inject-error"])
    capfd.readouterr()
    if code != 1:
        problems.append(f"CLI exit code {code}, want 1")
    _criterion(9, "off-by-p injection fails with exit 1 and pinpointing "
                  "record", problems, capfd)
