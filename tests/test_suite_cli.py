import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supercong import congruences as cg
from supercong.cli import main
from supercong.core import DegenerateError
from supercong.identities import identity_suite
from supercong.suite import (
    ParseError,
    STATEMENTS,
    SuiteConfig,
    emit_report,
    expand_statements,
    parse_config,
    parse_x,
    report_record,
    resolve_output_path,
    run_check,
    run_suite,
)

PRIMES_TO_50 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class TestParseX:
    def test_accepted_forms(self):
        assert parse_x("0") == 0
        assert parse_x("-1/3") == Fraction(-1, 3)
        assert parse_x("+7/2") == Fraction(7, 2)
        assert parse_x(" 12 ") == 12

    def test_rejected_forms(self):
        for bad in ("1.5", "1/-3", "a/b", "", "1 / 3", "--2"):
            with pytest.raises(ParseError):
                parse_x(bad)


class TestExpandStatements:
    def test_aliases(self):
        assert expand_statements(["conjecture"]) == (
            "weighted_8n5", "weighted_32n21", "weighted_18n7",
            "weighted_72n49")
        assert expand_statements(["all"]) == tuple(STATEMENTS)

    def test_dedupe_preserves_order(self):
        assert expand_statements(["kw", "theorem1", "kw"]) == (
            "kw", "theorem1")

    def test_unknown_and_empty(self):
        with pytest.raises(ParseError):
            expand_statements(["nope"])
        with pytest.raises(ParseError):
            expand_statements([])


class TestReadmeStatementsTable:
    def test_table_matches_registry(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "### Statements", 1)[1]
        rows: dict[str, tuple[bool, int]] = {}
        seen: list[str] = []
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            ids = re.findall(r"`(\w+)`", cells[0])
            seen += ids
            for sid in ids:
                rows[sid] = (cells[2] == "yes", int(cells[3]))
        assert sorted(seen) == sorted(STATEMENTS)
        for sid, spec in STATEMENTS.items():
            assert rows[sid] == (spec.needs_x, spec.default_pmax), sid


class TestParseConfig:
    def test_empty_doc_gives_defaults(self):
        cfg = parse_config("# just a comment\n\n")
        assert cfg.statements == tuple(STATEMENTS)
        assert cfg.prime_min == 3 and cfg.prime_max is None
        assert cfg.x_values is None and cfg.oracle_mode == "off"
        assert cfg.parallelism == 1 and cfg.output_path is None
        assert cfg.inject_error is False

    def test_full_doc(self):
        cfg = parse_config(
            "schema_version = 1\n"
            "statements = theorem1, kw\n"
            "prime_min = 5\n"
            "prime_max = 97\n"
            "x_values = -1/2, -1/3, 0, 4\n"
            "oracle_mode = spot\n"
            "parallelism = 2\n"
            "output_path = out.jsonl\n"
            "inject_error = false\n")
        assert cfg.statements == ("theorem1", "kw")
        assert (cfg.prime_min, cfg.prime_max) == (5, 97)
        assert cfg.x_values == (Fraction(-1, 2), Fraction(-1, 3),
                                Fraction(0), Fraction(4))
        assert cfg.oracle_mode == "spot" and cfg.parallelism == 2
        assert cfg.output_path == "out.jsonl"

    def test_rejections(self):
        bad_docs = [
            "prime_min = 7\nprime_max = 5\n",
            "prime_min = 2\n",
            "nonsense_key = 1\n",
            "prime_min = 5\nprime_min = 7\n",
            "oracle_mode = sometimes\n",
            "x_values = 1.5\n",
            "schema_version = 2\n",
            "this line has no equals sign\n",
            "prime_max = abc\n",
            "inject_error = yes\n",
            "parallelism = 0\n",
            "statements = theorem1, nope\n",
        ]
        for doc in bad_docs:
            with pytest.raises(ParseError):
                parse_config(doc)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_config("# a\nprime_min = 5\nbogus = 1\n")


def _corrupt_row_zero(real):
    def transform(p, e, w):
        rows = real(p, e, w)
        return ((rows[0] + 1) % p**e,) + rows[1:]
    return transform


def _skew_the_8n5_sum(real):
    def square_sum(table, a, b):
        return real(table, a, b) + (1 if (a, b) == (8, 5) else 0)
    return square_sum


def _raise(exc):
    def fault(real):
        def raiser(*args):
            raise exc
        return raiser
    return fault


class TestRunCheck:
    def test_residue_statement_record(self):
        r = run_check("theorem1", 5, Fraction(0))
        assert r.passed is True and r.skipped_reason is None
        assert (r.lhs.value, r.rhs.value) == (5, 5)

    def test_bool_statement_record(self):
        r = run_check("blocks", 7, Fraction(-1, 3))
        assert r.passed is True and r.lhs is None and r.rhs is None

    def test_hypothesis_skip(self):
        r = run_check("sun_s", 7, Fraction(-1, 2))
        assert r.passed is None and "excluded" in r.skipped_reason

    def test_min_p_skip(self):
        r = run_check("sun_s", 3, Fraction(0))
        assert r.passed is None and "p >= 5" in r.skipped_reason

    def test_non_p_integral_skip(self):
        r = run_check("theorem1", 5, Fraction(1, 5))
        assert r.passed is None and "integral" in r.skipped_reason

    def test_reflection_applied_and_recorded(self):
        r = run_check("lemma21", 11, Fraction(-1, 3))
        assert r.passed is True
        assert r.x == Fraction(-2, 3)

    def test_strict_regime_skip(self):
        r = run_check("lemma23", 7, Fraction(-1, 2))
        assert r.passed is None and "regime" in r.skipped_reason

    def test_injection_flips_residue_statements(self):
        r = run_check("theorem1", 5, Fraction(0), inject_error=True)
        assert r.passed is False
        assert r.lhs.value == 5 and r.rhs.value == 10

    def test_injection_ignores_structural_statements(self):
        r = run_check("blocks", 7, Fraction(-1, 3), inject_error=True)
        assert r.passed is True

    @pytest.mark.parametrize("sid, name, fault", [
        # the transform invariant: A_lo + A_mid + A_hi must be the t table
        ("blocks", "_binomial_transform", _corrupt_row_zero),
        # weighted_sum_check's recombination of the two square sums
        ("weighted_8n5", "_weighted_square_sum", _skew_the_8n5_sum),
        ("lemma21", "_pair_weights_mod", _raise(DegenerateError("planted"))),
        ("blocks_weighted", "_block_sums_mod", _raise(ZeroDivisionError())),
    ])
    def test_program_fault_is_an_internal_error_record(self, sid, name, fault,
                                                       monkeypatch, capsys):
        # block results cached by earlier tests would bypass the fault
        cg._block_transforms.cache_clear()
        cg._block_sums_mod.cache_clear()
        monkeypatch.setattr(cg, name, fault(getattr(cg, name)))
        x = None if sid == "weighted_8n5" else Fraction(2, 5)
        r = run_check(sid, 11, x)
        assert r.statement == sid and r.passed is False
        assert r.lhs is None and r.rhs is None
        assert r.skipped_reason.startswith("internal error: ")
        assert "Traceback" in capsys.readouterr().err

    def test_every_statement_dispatches(self):
        for sid, spec in STATEMENTS.items():
            p = max(5, spec.min_p)
            r = run_check(sid, p, Fraction(1) if spec.needs_x else None)
            assert r.statement == sid and r.passed is True


class TestReportRecord:
    def test_field_set_and_types(self):
        rec = report_record(run_check("theorem1", 5, Fraction(0)))
        assert list(rec) == ["statement", "p", "x", "lhs", "rhs", "modulus",
                             "pass", "skipped_reason", "micros"]
        assert rec["statement"] == "theorem1" and rec["p"] == 5
        assert rec["x"] == "0" and rec["lhs"] == "5" and rec["rhs"] == "5"
        assert rec["modulus"] == "25" and rec["pass"] is True
        assert rec["skipped_reason"] is None
        assert isinstance(rec["micros"], int)

    def test_fraction_argument_rendering(self):
        rec = report_record(run_check("theorem1", 7, Fraction(-1, 3)))
        assert rec["x"] == "-1/3"

    def test_skip_record(self):
        rec = report_record(run_check("sun_s", 7, Fraction(-1, 2)))
        assert rec["lhs"] is None and rec["rhs"] is None
        assert rec["modulus"] is None and rec["pass"] is None
        assert isinstance(rec["skipped_reason"], str)


class TestResolveOutputPath:
    def test_relative_under_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERCONG_OUT_DIR", str(tmp_path))
        assert resolve_output_path("a/b.jsonl") == tmp_path / "a" / "b.jsonl"

    def test_relative_without_env(self, monkeypatch):
        monkeypatch.delenv("SUPERCONG_OUT_DIR", raising=False)
        assert str(resolve_output_path("b.jsonl")) == "b.jsonl"

    def test_absolute_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERCONG_OUT_DIR", str(tmp_path))
        assert resolve_output_path("/etc/x") == resolve_output_path("/etc/x")
        assert str(resolve_output_path("/etc/x")) == "/etc/x"


class TestRunSuite:
    def test_small_clean_run(self):
        cfg = SuiteConfig(statements=("theorem1",), prime_max=50,
                          x_values=(Fraction(0),))
        summary = run_suite(cfg)
        assert summary.total == len(PRIMES_TO_50)
        assert summary.passed == summary.total
        assert summary.failed == 0 and summary.skipped == 0
        assert [r.p for r in summary.reports] == list(PRIMES_TO_50)

    def test_skips_counted(self):
        cfg = SuiteConfig(statements=("sun_s",), prime_min=5, prime_max=13,
                          x_values=(Fraction(-1, 2),))
        summary = run_suite(cfg)
        assert summary.total == 4 and summary.skipped == 4

    def test_injection_fails_every_residue_statement(self):
        cfg = SuiteConfig(statements=("theorem1", "kw"), prime_max=13,
                          x_values=(Fraction(0),), inject_error=True)
        summary = run_suite(cfg)
        assert summary.failed == summary.total
        assert all(r.passed is False for r in summary.reports)

    def test_failure_records_pinpoint(self):
        cfg = SuiteConfig(statements=("theorem1",), prime_max=5,
                          x_values=(Fraction(1),), inject_error=True)
        summary = run_suite(cfg)
        bad = summary.failures[0]
        assert (bad.statement, bad.p, bad.x) == ("theorem1", 3, Fraction(1))
        assert bad.lhs is not None and bad.rhs is not None

    def test_statement_then_prime_then_x_order(self, tmp_path):
        out = tmp_path / "log.jsonl"
        cfg = SuiteConfig(statements=("kw", "theorem1"), prime_max=13,
                          x_values=(Fraction(1), Fraction(0)),
                          output_path=str(out))
        summary = run_suite(cfg)
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert len(lines) == summary.total
        keys = [(d["statement"], d["p"], d["x"]) for d in lines]
        expected = [("kw", p, "-1/2") for p in (3, 5, 7, 11, 13)]
        expected += [("theorem1", p, x)
                     for p in (3, 5, 7, 11, 13) for x in ("1", "0")]
        assert keys == expected

    def test_output_appends(self, tmp_path):
        out = tmp_path / "log.jsonl"
        cfg = SuiteConfig(statements=("kw",), prime_max=5,
                          output_path=str(out))
        run_suite(cfg)
        run_suite(cfg)
        assert len(out.read_text().splitlines()) == 4

    def test_parallel_matches_serial(self):
        serial = SuiteConfig(statements=("theorem1",), prime_max=30,
                             x_values=(Fraction(0), Fraction(1)))
        parallel = SuiteConfig(statements=("theorem1",), prime_max=30,
                               x_values=(Fraction(0), Fraction(1)),
                               parallelism=2)
        a, b = run_suite(serial), run_suite(parallel)
        strip = lambda r: (r.statement, r.p, r.x, r.lhs, r.rhs, r.passed,
                           r.skipped_reason)
        assert [strip(r) for r in a.reports] == [strip(r) for r in b.reports]

    def test_alias_config(self):
        cfg = SuiteConfig(statements=("conjecture",), prime_max=11)
        summary = run_suite(cfg)
        assert summary.failed == 0
        assert {r.statement for r in summary.reports} == {
            "weighted_8n5", "weighted_32n21", "weighted_18n7",
            "weighted_72n49"}


class TestEmitReport:
    def _summary(self, **kwargs):
        cfg = SuiteConfig(statements=("theorem1",), prime_max=7,
                          x_values=(Fraction(0),), **kwargs)
        return run_suite(cfg)

    def test_jsonl(self):
        text = emit_report(self._summary(), "jsonl")
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 3 and all(r["pass"] for r in rows)

    def test_tap(self):
        text = emit_report(self._summary(), "tap")
        lines = text.splitlines()
        assert lines[0] == "1..3"
        assert lines[1] == "ok 1 - theorem1 p=3 x=0"

    def test_tap_skip_suffix(self):
        cfg = SuiteConfig(statements=("sun_s",), prime_min=5, prime_max=5,
                          x_values=(Fraction(-1, 2),))
        text = emit_report(run_suite(cfg), "tap")
        assert "# SKIP" in text.splitlines()[1]

    def test_human_pass(self):
        text = emit_report(self._summary(), "human")
        assert "all checks passed" in text
        assert text.startswith("checks: 3  passed: 3  failed: 0  skipped: 0")

    def test_human_failure_detail(self):
        text = emit_report(self._summary(inject_error=True), "human")
        assert "FAIL theorem1 p=3 x=0: lhs=" in text
        assert "all checks passed" not in text

    def test_empty_summary(self):
        from supercong.suite import RunSummary
        assert emit_report(RunSummary(), "tap") == "1..0"
        assert "all checks passed" not in emit_report(RunSummary(), "human")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self._summary(), "xml")


class TestIdentitySuiteRunner:
    def test_all_families_hold(self):
        results = identity_suite(nmax=12)
        assert len(results) == 6
        assert all(ok for _, ok in results)


class TestCli:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--statement", "kw", "--pmax", "7"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_failure_exit(self, capsys):
        code = main(["verify", "--statement", "theorem1", "--pmax", "5",
                     "--x", "0", "--inject-error"])
        assert code == 1
        assert "FAIL theorem1" in capsys.readouterr().out

    def test_verify_internal_error_exit(self, tmp_path, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("planted fault")

        monkeypatch.setattr(cg, "_block_sums_mod", broken)
        out = tmp_path / "run.jsonl"
        # a failed congruence (exit 1) alongside a fault still exits 3
        code = main(["verify", "--statement", "theorem1", "--statement",
                     "blocks", "--pmax", "7", "--x", "0", "--inject-error",
                     "--out", str(out)])
        assert code == 3
        assert "FAIL blocks p=3 x=0: internal error: RuntimeError: " \
            "planted fault" in capsys.readouterr().out
        rows = [json.loads(s) for s in out.read_text().splitlines()]
        assert len(rows) == 6
        faults = [r for r in rows if r["statement"] == "blocks"]
        assert [r["p"] for r in faults] == [3, 5, 7]
        for r in faults:
            assert list(r) == ["statement", "p", "x", "lhs", "rhs", "modulus",
                               "pass", "skipped_reason", "micros"]
            assert r["pass"] is False and r["lhs"] is None
            assert r["skipped_reason"].startswith("internal error:")

    def test_verify_tap_format(self, capsys):
        assert main(["verify", "--statement", "kw", "--pmax", "5",
                     "--format", "tap"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1..2")

    def test_verify_jsonl_format(self, capsys):
        assert main(["verify", "--statement", "kw", "--pmax", "5",
                     "--format", "jsonl"]) == 0
        rows = [json.loads(s)
                for s in capsys.readouterr().out.strip().splitlines()]
        assert [r["p"] for r in rows] == [3, 5]

    def test_verify_out_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SUPERCONG_OUT_DIR", str(tmp_path))
        assert main(["verify", "--statement", "kw", "--pmax", "5",
                     "--out", "run.jsonl"]) == 0
        capsys.readouterr()
        assert len((tmp_path / "run.jsonl").read_text().splitlines()) == 2

    def test_usage_errors(self, capsys):
        assert main(["verify", "--statement", "nope"]) == 2
        assert "unknown statement" in capsys.readouterr().err
        assert main(["verify", "--suite", "/no/such/file.cfg"]) == 2
        capsys.readouterr()
        assert main(["verify", "--statement", "kw", "--x", "1.5"]) == 2
        capsys.readouterr()
        assert main(["verify", "--statement", "kw", "--pmax", "5",
                     "--jobs", "0"]) == 2
        capsys.readouterr()
        assert main(["identities", "--nmax", "-1"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_is_usage(self):
        with pytest.raises(SystemExit):
            main([])

    def test_suite_file_round_trip(self, tmp_path, capsys):
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text(
            "schema_version = 1\n"
            "statements = kw\n"
            "prime_max = 7\n")
        assert main(["verify", "--suite", str(cfg_file)]) == 0
        assert "checks: 3" in capsys.readouterr().out

    def test_flags_override_suite_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text("statements = kw\nprime_max = 97\n")
        assert main(["verify", "--suite", str(cfg_file),
                     "--pmax", "5"]) == 0
        assert "checks: 2" in capsys.readouterr().out

    def test_negative_rational_after_x_flag(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main(["verify", "--statement", "theorem1", "--pmin", "3",
                     "--pmax", "13", "--x", "-1/3", "--oracle", "spot",
                     "--out", str(out), "--format", "jsonl"])
        assert code == 0
        capsys.readouterr()
        rows = [json.loads(s) for s in out.read_text().splitlines()]
        assert [r["p"] for r in rows] == [3, 5, 7, 11, 13]
        assert all(r["x"] == "-1/3" for r in rows)

    def test_identities_command(self, capsys):
        assert main(["identities", "--nmax", "6"]) == 0
        out = capsys.readouterr().out
        assert "6/6 families hold" in out
        assert out.count("ok - ") == 6

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "supercong", "verify", "--statement",
             "kw", "--pmax", "7"],
            capture_output=True, text=True)
        assert "No module named" not in proc.stderr
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    @pytest.mark.parametrize("flags, status", [([], 0),
                                               (["--inject-error"], 1)])
    def test_reader_closing_stdout_early(self, flags, status):
        assert _run_with_stdout_closed(
            "verify", "--statement", "theorem1", "--pmax", "13",
            "--format", "jsonl", *flags) == status

    def test_identities_reader_closing_stdout_early(self):
        assert _run_with_stdout_closed("identities", "--nmax", "6") == 0


def _run_with_stdout_closed(*args: str) -> int:
    """Exit status of `python -m supercong ARGS` whose reader left at once.

    The reader's end is closed before the command writes, as `| head -c 10`
    does once it has its bytes; a traceback on stderr fails the test.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "supercong", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    status = proc.wait(timeout=60)
    assert "No module named" not in err
    assert "Traceback" not in err and "BrokenPipeError" not in err
    return status
