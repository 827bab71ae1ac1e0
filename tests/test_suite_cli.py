import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import supercong
from supercong import congruences as cg, sequences, suite
from supercong.cli import _build_parser, main
from supercong.core import mod_reduce, odd_primes
from supercong.identities import identity_suite
from supercong.sequences import S_MULT, T_MULT
from supercong.suite import (
    ParseError,
    ReportWriter,
    SETTINGS,
    STATEMENTS,
    SuiteConfig,
    expand_statements,
    parse_config,
    parse_x,
    report_record,
    resolve_output_path,
    run_check,
    run_suite,
)

PRIMES_TO_50 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def u_mod(p: int, e: int, x: Fraction) -> int:
    """u = x(x+1) mod p^e, the key of a residue table."""
    return mod_reduce(x * (x + 1), p, e).value


def _record_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Wrap module.name for one test; the list gains the positional
    arguments of each call, and keyword arguments pass through."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture
def fresh_exact_rows():
    """An empty exact-row memo before and after the test, so a test that
    replaces sequences._row_exact meets no row kept from an earlier test,
    and leaves none of its replacement's rows behind."""
    memo = sequences._exact_row  # the test may wrap the name
    memo.cache_clear()
    yield
    memo.cache_clear()


def _inline_pool(monkeypatch, fault: "Exception | None" = None) -> list[int]:
    """Replace ProcessPoolExecutor for one test by a pool that runs every
    group in this process, or raises fault; the list gains the max_workers
    of each pool built."""
    import concurrent.futures
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, work):
            if fault is not None:
                raise fault
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


def _without_micros(jsonl: str) -> list[dict]:
    return [{k: v for k, v in json.loads(line).items() if k != "micros"}
            for line in jsonl.splitlines()]


class TestParseX:
    def test_accepted_forms(self):
        assert parse_x("0") == 0
        assert parse_x("-1/3") == Fraction(-1, 3)
        assert parse_x("+7/2") == Fraction(7, 2)
        assert parse_x(" 12 ") == 12
        assert parse_x("0/5") == 0 and parse_x("4/010") == Fraction(2, 5)

    def test_rejected_forms(self):
        for bad in ("1.5", "1/-3", "a/b", "", "1 / 3", "--2", "1/0",
                    "-3/000"):
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


def _memos() -> dict:
    """The package's per-prime memos by module.name, each counted once, in
    its own module."""
    memos = {}
    for info in pkgutil.iter_modules(supercong.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"supercong.{info.name}")
        for name, fn in vars(mod).items():
            if (isinstance(fn, sequences._per_prime)
                    and fn.__module__ == mod.__name__):
                memos[f"{info.name}.{name}"] = fn
    return memos


class TestReadmeCaches:
    def test_paragraph_counts_and_names_every_memo(self):
        # the Design notes' Caches paragraph: each "<number> memos" is the
        # number of memos, and the memos it names are exactly the package's
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8").split(
            "\n- Caches: ", 1)[1].split("\n- ", 1)[0]
        memos = _memos()
        numbers = ("zero", "one", "two", "three", "four", "five", "six",
                   "seven", "eight", "nine", "ten")
        counts = re.findall(r"\b(\w+)\s+memos\b", text)
        assert counts and all(numbers.index(word) == len(memos)
                              for word in counts), counts
        named = set()
        for module, name in re.findall(r"`(\w+)\.(\w+)`", text):
            fn = getattr(importlib.import_module(f"supercong.{module}"), name)
            if isinstance(fn, sequences._per_prime):
                named.add(f"{module}.{name}")
        assert named == set(memos)


class TestReadmeNames:
    def test_every_module_name_resolves(self):
        # each `module.name` (or `supercong.module.name`) of a package module
        # is an attribute of it, so a deleted name cannot stay documented
        readme = Path(__file__).resolve().parent.parent / "README.md"
        modules = {info.name for info in pkgutil.iter_modules(
            supercong.__path__)} - {"__main__"}
        named = [(module, name) for module, name in re.findall(
                     r"`(?:supercong\.)?(\w+)\.(\w+)`",
                     readme.read_text(encoding="utf-8"))
                 if module in modules]
        assert named
        assert [f"{module}.{name}" for module, name in named
                if not hasattr(importlib.import_module(
                    f"supercong.{module}"), name)] == []


class TestReadmeLibraryBlock:
    def test_block_runs_and_its_comments_hold(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = re.search(r"## Library\n\n```python\n(.*?)```",
                          readme.read_text(encoding="utf-8"), re.S).group(1)
        # run the block statement by statement, keeping each bare
        # expression's value: these are the lines the comments describe
        ns: dict = {}
        values = []
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README", "eval")
                values.append(eval(code, ns))
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), ns)
        comments = [line.split("#", 1)[1].strip()
                    for line in block.splitlines() if "#" in line]
        assert comments == ["Fraction(13, 32), exact",
                            "x = m + p*t: m=2, t=-1/3", "True"]
        seq, split, passed = values
        assert seq == Fraction(13, 32)
        assert (split.m, split.t) == (2, Fraction(-1, 3))
        assert passed is True


class TestReadmeSuiteConfig:
    def test_example_parses_to_its_values(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = re.search(r"### Suite config files\n.*?```ini\n(.*?)```",
                          readme.read_text(encoding="utf-8"), re.S).group(1)
        cfg = parse_config(block)
        named = {line.partition("=")[0].strip()
                 for line in block.splitlines() if "=" in line}
        assert named == {"schema_version", *SETTINGS}
        assert cfg.statements == expand_statements(("theorem1", "conjecture"))
        assert (cfg.prime_min, cfg.prime_max) == (3, 200)
        assert cfg.x_values == tuple(map(Fraction, ("-1/2", "-1/3", "0", "4")))
        assert cfg.oracle_mode == "spot" and cfg.parallelism == 4
        assert cfg.output_path == "run.jsonl" and cfg.inject_error is False


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

    # one suite-file value per setting, and what it parses to
    SAMPLE = {"statements": ("kw, theorem1", ("kw", "theorem1")),
              "prime_min": ("5", 5),
              "prime_max": ("13", 13),
              "x_values": ("-1/2, 3", (Fraction(-1, 2), Fraction(3))),
              "oracle_mode": ("full", "full"),
              "parallelism": ("2", 2),
              "output_path": ("a b.jsonl", "a b.jsonl"),
              "inject_error": ("true", True)}

    def test_every_setting_parses_from_a_suite_file(self):
        assert set(self.SAMPLE) == set(SETTINGS)
        for key, (text, value) in self.SAMPLE.items():
            cfg = parse_config(f"{key} = {text}\n")
            assert getattr(cfg, key) == value != SETTINGS[key][0], key

    def test_every_setting_is_a_verify_flag(self):
        # each flag's dest is its setting, None when the flag is absent, so
        # the CLI overrides exactly the settings it was given
        absent = vars(_build_parser().parse_args(["verify"]))
        given = vars(_build_parser().parse_args([
            "verify", "--statement", "kw", "--pmin", "5", "--pmax", "7",
            "--x", "1", "--oracle", "spot", "--jobs", "2", "--out", "o.jsonl",
            "--inject-error"]))
        for key in SETTINGS:
            assert absent[key] is None and given[key] is not None, key

    def test_suite_file_injection_stands_without_the_flag(self, tmp_path,
                                                          capsys):
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text("statements = kw\nprime_max = 5\n"
                            "inject_error = true\n")
        assert main(["verify", "--suite", str(cfg_file)]) == 1
        assert "failed: 2" in capsys.readouterr().out

    def test_unknown_setting_refused(self):
        with pytest.raises(TypeError, match="unknown settings: pmax"):
            SuiteConfig(pmax=7)

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
            # the least strong pseudoprime to the first 13 prime bases,
            # past which the primality test is not proven
            "prime_max = 3317044064679887385961981\n",
        ]
        for doc in bad_docs:
            with pytest.raises(ParseError):
                parse_config(doc)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_config("# a\nprime_min = 5\nbogus = 1\n")

    def test_empty_x_values_rejected(self):
        with pytest.raises(ParseError, match="no x values"):
            parse_config("statements = theorem1\nx_values = \n")
        with pytest.raises(ParseError, match="no x values"):
            SuiteConfig(x_values=()).validate()
        # an empty prime range still runs, with zero checks
        assert run_suite(SuiteConfig(prime_min=4, prime_max=4)).total == 0

    def test_repeated_x_values_keep_first_order(self):
        cfg = SuiteConfig(x_values=tuple(map(Fraction, ("1/3", "0", "2/6"))))
        cfg.validate()
        assert cfg.x_values == (Fraction(1, 3), Fraction(0))


def _corrupt_last_prefix_row(real):
    def prefix(p, e, u, mult, cut=None):
        rows = real(p, e, u, mult, cut)
        if cut is None:
            return rows
        return rows[:-1] + ((rows[-1] + 1) % p**e,)
    return prefix


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
        # core.reduce_ratio words the one refusal the records carry, for a
        # reflecting statement too, which splits x before it could reflect
        r = run_check("theorem1", 5, Fraction(1, 5))
        assert r.passed is None and r.skipped_reason == "1/5 is not 5-integral"
        for sid in ("theorem1", "blocks"):
            r = run_check(sid, 13, Fraction(1, 13))
            assert r.passed is None, sid
            assert r.skipped_reason == "1/13 is not 13-integral", sid

    def test_reflection_applied_and_recorded(self):
        for x in (Fraction(-1, 3), "-1/3"):  # any rational the checks take
            r = run_check("lemma21", 11, x)
            assert r.passed is True
            assert r.x == Fraction(-2, 3)

    def test_failing_reflected_task_records_the_evaluated_x(self,
                                                            monkeypatch,
                                                            capsys):
        # -1/3 has m = 7 > 5 at p = 11, so each check runs at -1-x = -2/3
        real = cg._lemma21_sides

        def skewed(*args):
            lhs, rhs = real(*args)
            return lhs, (rhs[0] + 1,) + rhs[1:]

        monkeypatch.setattr(cg, "_lemma21_sides", skewed)
        r = run_check("lemma21", 11, Fraction(-1, 3), "spot")
        assert r.passed is False and r.x == Fraction(-2, 3)
        assert r.skipped_reason.startswith("oracle mismatch: lemma21 k=0 "
                                           "(p=11, x=-2/3)")

        def broken(*args):
            raise RuntimeError("planted fault")

        monkeypatch.setattr(cg, "_block_sums_mod", broken)
        r = run_check("blocks", 11, Fraction(-1, 3))
        assert r.passed is False and r.x == Fraction(-2, 3)
        assert r.skipped_reason.startswith("internal error:")
        assert "planted fault" in capsys.readouterr().err

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
        # the prefix check: row p-1 of each prefix against its direct sum
        ("blocks", "_table_values", _corrupt_last_prefix_row),
        # conjecture_check's direct sum against the table's a S1 + (b-a) S0
        ("weighted_8n5", "_weighted_square_sum", _skew_the_8n5_sum),
        ("lemma21", "_pair_weights_mod", _raise(ArithmeticError("planted"))),
        ("blocks_weighted", "_block_sums_mod", _raise(ZeroDivisionError())),
    ])
    def test_program_fault_is_an_internal_error_record(self, sid, name, fault,
                                                       monkeypatch, capsys):
        # block sums cached by earlier tests would bypass the fault
        cg._block_sums_mod.cache_clear()
        monkeypatch.setattr(cg, name, fault(getattr(cg, name)))
        x = None if sid == "weighted_8n5" else Fraction(2, 5)
        r = run_check(sid, 11, x)
        assert r.statement == sid and r.passed is False
        assert r.lhs is None and r.rhs is None
        assert r.skipped_reason.startswith("internal error: ")
        if name == "_table_values":  # caught by the check, not a crash
            assert r.skipped_reason.startswith(
                "internal error: SupercongError: block prefix P_3(n=10) at "
                "p=11, x=-7/5: recurrence ")
        assert "Traceback" in capsys.readouterr().err

    def test_micros_times_the_whole_task(self, monkeypatch, capsys):
        # one timing site around the dispatch, for every kind of record:
        # each check here first sleeps 2 ms, and its record covers that
        direct = cg.theorem1_check(7, Fraction(1))

        def slowed(name, real):
            def check(*args, **kwargs):
                time.sleep(0.002)
                return real(*args, **kwargs)
            monkeypatch.setattr(cg, name, check)

        slowed("theorem1_check", cg.theorem1_check)
        slowed("block_vanishing_check", cg.block_vanishing_check)
        slowed("sun_s_check", cg.sun_s_check)
        slowed("kw_check", _raise(RuntimeError("planted"))(None))
        reports = [run_check("theorem1", 7, Fraction(1)),  # residue
                   run_check("blocks", 7, Fraction(-1, 3)),  # structural
                   run_check("sun_s", 7, Fraction(-1, 2)),  # skip
                   run_check("kw", 7)]  # fault
        assert [r.passed for r in reports] == [True, True, None, False]
        assert reports[3].skipped_reason.startswith("internal error:")
        for r in reports:
            assert type(r.micros) is int and r.micros >= 2000
        # a report from a direct library call is not timed
        assert direct.passed is True and direct.micros == 0
        assert "planted" in capsys.readouterr().err

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
        reports = []
        summary = run_suite(cfg, reports.append)
        assert summary.total == len(PRIMES_TO_50)
        assert summary.passed == summary.total
        assert summary.failed == 0 and summary.skipped == 0
        assert [r.p for r in reports] == list(PRIMES_TO_50)

    def test_skips_counted(self):
        cfg = SuiteConfig(statements=("sun_s",), prime_min=5, prime_max=13,
                          x_values=(Fraction(-1, 2),))
        summary = run_suite(cfg)
        assert summary.total == 4 and summary.skipped == 4

    def test_injection_fails_every_residue_statement(self):
        cfg = SuiteConfig(statements=("theorem1", "kw"), prime_max=13,
                          x_values=(Fraction(0),), inject_error=True)
        reports = []
        summary = run_suite(cfg, reports.append)
        assert summary.failed == summary.total
        assert all(r.passed is False for r in reports)
        assert summary.failures == reports

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
        a, b = [], []
        run_suite(serial, a.append)
        run_suite(parallel, b.append)
        strip = lambda r: (r.statement, r.p, r.x, r.lhs, r.rhs, r.passed,
                           r.skipped_reason)
        assert [strip(r) for r in a] == [strip(r) for r in b]

    @pytest.mark.parametrize("jobs, pmax, workers", [(4, 5, 2), (3, 11, 3)])
    def test_pool_has_no_more_workers_than_prime_groups(self, monkeypatch,
                                                        jobs, pmax, workers):
        # a pool forks all its workers at once, however few groups there are
        sizes = _inline_pool(monkeypatch)
        summary = run_suite(SuiteConfig(
            statements=("theorem1",), prime_max=pmax,
            x_values=(Fraction(1),), parallelism=jobs))
        assert summary.passed == summary.total > 1
        assert sizes == [workers]

    def test_pool_matches_serial_on_many_statements(self, tmp_path):
        # tables, skips (x = -1/2 for sun_s and the block regime; 2/5 at
        # p = 5), reflections and structural verdicts, from workers that
        # each take whole prime groups
        args = ["verify", "--pmax", "40"]
        for sid in ("theorem1", "theorem2", "sun_s", "blocks", "lemma21"):
            args += ["--statement", sid]
        for x in ("-1/2", "2/5", "3", "-7/4"):
            args.append(f"--x={x}")
        logs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs-{jobs}.jsonl"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            logs.append(_without_micros(out.read_text()))
        assert len(logs[0]) == 216
        assert any(r["pass"] is None for r in logs[0])
        assert logs[1] == logs[0]

    def test_pool_matches_serial_with_run_wide_step_lists(self, tmp_path):
        # the step lists outlive a prime group: each worker grows its own
        # over the groups it happens to take, while the serial run grows
        # one; tables mod p^2 and, for kw, p^3, and the blocks' cut loop
        # give the same records either way
        args = ["verify", "--statement", "theorem1", "--statement", "kw",
                "--statement", "blocks", "--pmin", "3", "--pmax", "200"]
        logs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs-{jobs}.jsonl"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            logs.append(_without_micros(out.read_text()))
        assert {r["statement"] for r in logs[0]} == {"theorem1", "kw",
                                                     "blocks"}
        assert max(r["p"] for r in logs[0]) == 199
        assert any(r["modulus"] == str(199**3) for r in logs[0])
        assert logs[1] == logs[0]

    def test_alias_config(self):
        cfg = SuiteConfig(statements=("conjecture",), prime_max=11)
        reports = []
        summary = run_suite(cfg, reports.append)
        assert summary.failed == 0
        assert {r.statement for r in reports} == {
            "weighted_8n5", "weighted_32n21", "weighted_18n7",
            "weighted_72n49"}

    def test_records_of_a_fixed_run_are_pinned(self):
        # every statement at every prime up to 31, with x covering -1/2
        # (the m = (p-1)/2 regime), integers and arguments that are not
        # p-integral at some p; the digest is of the JSONL lines without
        # micros, so any change to a residue, a verdict or a skip reason
        # of any record shows here
        reports = []
        summary = run_suite(SuiteConfig(
            statements=("all",), prime_max=31,
            x_values=tuple(map(Fraction, ("-1/2", "-1/3", "2/5", "3",
                                          "-7/4")))), reports.append)
        lines = [json.dumps({k: v for k, v in report_record(r).items()
                             if k != "micros"}) for r in reports]
        assert (summary.total, summary.failed, summary.skipped) == (
            552, 0, 108)
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode())
        assert digest.hexdigest() == (
            "7a25e73656cf41702d3c7514adc9a668"
            "544a1497d1306a0f190fb9bcce48d01f")

    def test_each_prime_range_is_enumerated_once(self, monkeypatch):
        # sweep's shape, eight statements over one range, tests each odd
        # number there for primality once; statements with other default
        # caps or minimum primes add their own ranges, each once
        ranges = _record_calls(monkeypatch, suite, "odd_primes")
        statements = ("theorem1", "theorem2", "sun_s", "kw", "weighted_8n5",
                      "weighted_32n21", "weighted_18n7", "weighted_72n49")
        summary = run_suite(SuiteConfig(statements=statements,
                                        prime_min=400, prime_max=499))
        assert summary.failed == 0
        assert ranges == [(400, 499)]
        ranges.clear()
        cfg = SuiteConfig(statements=statements + ("lemma21", "blocks"))
        scans = {sid: (max(cfg.prime_min, STATEMENTS[sid].min_p),
                       STATEMENTS[sid].default_pmax) for sid in cfg.statements}
        tasks = list(suite._task_args(cfg))
        assert len(ranges) == len(set(ranges)) == len(set(scans.values())) > 1
        assert set(ranges) == set(scans.values())
        assert {(sid, p) for sid, p, _ in tasks} == {
            (sid, p) for sid, scan in scans.items() for p in odd_primes(*scan)}

    def test_every_cache_is_hit(self, monkeypatch):
        memos = _memos()
        assert set(memos) == {"sequences._factorials",
                              "sequences._inv_squares",
                              "sequences._table",
                              "sequences._exact_row",
                              "congruences._block_sums_mod"}
        # and no other cache: nothing in the package sizes one
        for path in Path(supercong.__file__).parent.glob("*.py"):
            assert "lru_cache" not in path.read_text(encoding="utf-8"), path
        for fn in memos.values():
            fn.cache_clear()
        monkeypatch.setattr(sequences, "_STEPS", {})
        # every table at one (p, e) reads one list of 1/N^2, the pair
        # weights, the block prefixes and lemma21 one basis of n! and 1/n!,
        # theorem2 reuses theorem1's t table, lemma23 and lemma33 the block
        # entry; under the spot oracle sun_s's audit reads theorem1's exact
        # rows; the step lists of each family, kept for the run, reach to
        # the largest prime, N = p - 1
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "theorem2", "blocks", "blocks_weighted",
                        "lemma23", "lemma33", "lemma21"),
            prime_max=13, x_values=(Fraction(1), Fraction(2))))
        assert summary.failed == 0
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "sun_s"), prime_max=13,
            x_values=(Fraction(1), Fraction(2)), oracle_mode="spot"))
        assert summary.failed == 0
        for name, fn in memos.items():
            assert fn.hits > 0, name
        assert {mult: [len(steps) for steps in lists]
                for mult, lists in sequences._STEPS.items()} == {
            T_MULT: [12] * 3, S_MULT: [12] * 3}

    def test_spot_oracle_audits_each_table_once(self, monkeypatch,
                                                fresh_exact_rows):
        # theorem2 and weighted_8n5 read theorem1's t tables, and every x
        # of one u = x(x+1) mod p^2 reads one table; each distinct table
        # re-derives the spot rows of the first x in scan order that reads
        # it, exactly once (theorem2's -1/2 + p probe reads -1/2's table)
        sequences._table.cache_clear()
        rows = _record_calls(monkeypatch, sequences, "_row_exact")
        reports = []
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "theorem2", "weighted_8n5"),
            prime_min=53, prime_max=71, oracle_mode="spot"), reports.append)
        assert summary.failed == 0
        first = {}  # (p, u) -> the first x in scan order
        for r in reports:
            first.setdefault((r.p, u_mod(r.p, 2, r.x)), r.x)
        assert len(first) == 169 < len({(r.p, r.x) for r in reports}) == 176
        expected = [(n, x) for (p, _), x in first.items()
                    for n in sequences._oracle_rows(p, x, "spot")]
        assert len(rows) == 5 * len(first)
        assert sorted(rows) == sorted(expected)

    def test_both_families_audit_one_exact_pass_per_row(self, monkeypatch,
                                                        fresh_exact_rows):
        # rows are seeded by (p, x) only and one pass gives a row of both
        # families: the t and s tables of one (p, x), and kw's s table mod
        # p^3 at -1/2 beside theorem1's t table there, read the same rows,
        # and each distinct (p, x, n) takes one exact pass
        sequences._table.cache_clear()
        memo = sequences._exact_row
        passes = _record_calls(monkeypatch, sequences, "_row_exact")
        reads = _record_calls(monkeypatch, sequences, "_exact_row")
        audits = {}  # (p, e, x, family) -> the (p, n, x) its audit read
        real = sequences._audit_table

        def audit(p, e, x, mult, values, mode):
            start = len(reads)
            real(p, e, x, mult, values, mode)
            audits[p, e, x, mult] = reads[start:]

        monkeypatch.setattr(sequences, "_audit_table", audit)
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "sun_s", "kw"), prime_min=53,
            prime_max=71, oracle_mode="spot"))
        assert summary.failed == 0
        distinct = set(reads)
        assert sorted(passes) == sorted((n, x) for _, n, x in distinct)
        assert memo.hits == len(reads) - len(distinct) > 0
        tables = {}  # (p, x) -> {(e, family): the rows its audit read}
        for (p, e, x, mult), read in audits.items():
            assert len(read) == 5
            tables.setdefault((p, x), {})[e, mult] = read
        both = [kinds for kinds in tables.values() if len(kinds) > 1]
        assert len(both) > len(tables) / 2
        for kinds in tables.values():
            assert len({tuple(read) for read in kinds.values()}) == 1
        for p in odd_primes(53, 71):
            assert {(2, T_MULT), (3, S_MULT)} <= set(
                tables[p, Fraction(-1, 2)])

    @pytest.mark.parametrize("family", ["s", "t"])
    def test_a_bad_exact_family_fails_only_its_readers(self, monkeypatch,
                                                       fresh_exact_rows,
                                                       family):
        # the two families share each exact pass but not its numerator:
        # an oracle wrong in one family's numerator fails every audited
        # record of that family's statement and none of the other's
        sequences._table.cache_clear()
        real = sequences._row_exact

        def bad(n, x):
            s, t, den = real(n, x)
            return (s + den, t, den) if family == "s" else (s, t + den, den)

        monkeypatch.setattr(sequences, "_row_exact", bad)
        reports = []
        run_suite(SuiteConfig(statements=("theorem1", "sun_s"),
                              prime_min=53, prime_max=71,
                              oracle_mode="spot"), reports.append)
        failing = {"s": "sun_s", "t": "theorem1"}[family]
        mine = [r for r in reports if r.statement == failing]
        assert all("is excluded" in r.skipped_reason
                   for r in mine if r.passed is None)  # sun_s at 2x = -1
        audited = [r for r in mine if r.passed is not None]
        assert audited and all(
            r.passed is False
            and r.skipped_reason.startswith("oracle mismatch: ")
            for r in audited)
        others = [r.passed for r in reports if r.statement != failing]
        assert True in others and False not in others

    @pytest.mark.parametrize("oracle", ["off", "spot"])
    def test_block_route_reads_the_runs_t_tables(self, monkeypatch, oracle):
        # the block statements read theorem1's t table of the same oracle
        # mode, so spot builds no unaudited second copy of it; a table is
        # keyed on u = x(x+1) mod p^2, so the -1-x at which blocks checks an
        # x with m > (p-1)/2 reads the table of x: 174 distinct u, where
        # tables keyed on x were 257
        sequences._table.cache_clear()
        cg._block_sums_mod.cache_clear()
        builds = _record_calls(monkeypatch, sequences._table, "__wrapped__")
        assert main(["verify", "--statement", "theorem1", "--statement",
                     "blocks", "--pmin", "13", "--pmax", "31", "--oracle",
                     oracle, "--format", "jsonl"]) == 0
        t_builds = [args for args in builds if args[3] == T_MULT]
        assert len(t_builds) == len(set(t_builds)) == 174

    @pytest.mark.parametrize("statements, cache, read, built", [
        (("lemma23", "lemma24", "lemma33", "lemma34", "blocks",
          "blocks_weighted"), cg._block_sums_mod,
         lambda p, x: (p, x), lambda p, x, *_: (p, x)),
        (("theorem1", "theorem2", "weighted_8n5"), sequences._table,
         lambda p, x: (p, u_mod(p, 2, x)), lambda p, e, u, *_: (p, u)),
    ], ids=["blocks", "tables"])
    def test_cache_spans_one_prime_group(self, monkeypatch, statements,
                                         cache, read, built):
        # tasks run by prime, so each entry is built once, in its prime
        # group, although later groups drop it; the builds cover every
        # key that a check read: (p, x) of a block entry, (p, u) of a table
        cache.cache_clear()
        builds = _record_calls(monkeypatch, cache, "__wrapped__")
        reports = []
        summary = run_suite(SuiteConfig(statements=statements, prime_max=17),
                            reports.append)
        assert summary.failed == 0
        keys = {read(r.p, r.x) for r in reports if r.passed is not None}
        assert len({p for p, _ in keys}) > 1
        assert len(set(builds)) == len(builds)
        assert {built(*args) for args in builds} == keys

    def test_each_factorial_basis_is_built_once(self, monkeypatch):
        # a sweep's shape: tables mod p^2 and, for kw, p^3, at many primes;
        # no later group reads a list of 1/N^2, and none is built twice
        sequences._inv_squares.cache_clear()
        builds = _record_calls(monkeypatch, sequences._inv_squares,
                               "__wrapped__")
        reports = []
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "sun_s", "kw"), prime_min=400,
            prime_max=450, x_values=(Fraction(-1, 3), Fraction(2, 7))),
            reports.append)
        assert summary.failed == 0
        keys = {(r.p, r.lhs.modulus) for r in reports}
        assert len(keys) == 18
        assert len(set(builds)) == len(builds) == len(keys)
        assert {(p, p**e) for p, e in builds} == keys

    def test_only_weights_and_lemma21_build_n_factorials(self, monkeypatch):
        # the plain table loops read 1/N^2 alone: the table statements build
        # no basis of n! and 1/n!, which the pair weights, the block
        # prefixes and lemma21 read, one per (p, 2) of their groups
        sequences._factorials.cache_clear()
        builds = _record_calls(monkeypatch, sequences._factorials,
                               "__wrapped__")
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "theorem2", "sun_s", "kw", "weighted_8n5",
                        "weighted_32n21", "weighted_18n7", "weighted_72n49"),
            prime_max=61, oracle_mode="spot"))
        assert summary.failed == 0 and summary.passed > 0
        assert builds == []
        reports = []
        summary = run_suite(SuiteConfig(
            statements=("lemma21", "blocks", "blocks_weighted", "lemma23",
                        "lemma24", "lemma33", "lemma34"), prime_max=31),
            reports.append)
        assert summary.failed == 0 and summary.passed > 0
        assert builds == [(p, 2) for p in sorted({r.p for r in reports})]

    def test_each_square_sum_is_taken_once(self, monkeypatch):
        # a sweep's eight statements: theorem1, sun_s and kw read the (0,1)
        # sum of their tables, theorem2 the (1,1) sum of theorem1's, and a
        # weighted_* statement its (a, b), the table's a S1 + (b-a) S0,
        # against its own direct sum; each table sums S0 and S1 at most
        # once, only when a read weighs it, so a table read at (0,1) alone
        # never sums S1; a table is named by the key (p, e, u, family) it
        # was built under, and a sum of its squares by that name: S0 is the
        # module's sum of the list, S1 its _plus_one_weighted
        sequences._table.cache_clear()
        names = {}  # id of a table's squares -> its key; tables kept alive
        build = sequences._table.__wrapped__

        def named(p, e, u, mult, oracle, **kw):
            table = build(p, e, u, mult, oracle, **kw)
            names[id(table.squares)] = (p, e, u, mult), table
            return table

        monkeypatch.setattr(sequences._table, "__wrapped__", named)
        summed = []

        def count(name, real, i):
            def counted(v):
                if id(v) in names:
                    summed.append((names[id(v)][0], i))
                return real(v)
            monkeypatch.setattr(sequences, name, counted, raising=False)

        count("sum", sum, 0)
        count("_plus_one_weighted", sequences._plus_one_weighted, 1)
        direct = _record_calls(monkeypatch, cg, "_weighted_square_sum")
        reports = []
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "theorem2", "sun_s", "weighted_8n5",
                        "weighted_32n21", "weighted_18n7", "weighted_72n49",
                        "kw"), prime_min=53, prime_max=71), reports.append)
        assert summary.failed == 0
        reads = {"theorem1": (2, T_MULT, 0, 1), "theorem2": (2, T_MULT, 1, 1),
                 "sun_s": (2, S_MULT, 0, 1), "kw": (3, S_MULT, 0, 1),
                 **{name: (2, T_MULT, a, b) for name, (a, b, *_)
                    in cg.CONJECTURE_CASES.items()}}
        weights = {}  # table key -> the weights read from it
        for r in reports:
            if r.passed is not None:
                e, mult, a, b = reads[r.statement]
                weights.setdefault((r.p, e, u_mod(r.p, e, r.x), mult),
                                   set()).add((a, b))
        assert len(set(summed)) == len(summed)
        assert set(summed) == {(key, i) for key, ab in weights.items()
                             for i in (0, 1)
                             if any(a if i else b - a for a, b in ab)}
        alone = [key for key, ab in weights.items() if ab == {(0, 1)}]
        assert alone and not {(key, 1) for key in alone} & set(summed)
        assert sorted((t.p, a, b) for t, a, b in direct) == sorted(
            (r.p, *reads[r.statement][2:]) for r in reports
            if r.statement.startswith("weighted_") and r.passed is not None)

    def test_one_prime_builds_each_block_entry_once(self, monkeypatch):
        # 40 x at one prime, more than a group of the default grid reads:
        # each block entry computes its pair weights once, at u = x(x+1),
        # and reads its t table at the same u, built once; neither the
        # table nor lemma21 reduces x, both read _split's x mod p^2
        builds = _record_calls(monkeypatch, cg, "_pair_weights_mod")
        tables = _record_calls(monkeypatch, sequences._table, "__wrapped__")
        reductions = _record_calls(monkeypatch, sequences, "mod_reduce")
        cg._block_sums_mod.cache_clear()
        sequences._table.cache_clear()
        xs = tuple(map(Fraction, range(40)))
        summary = run_suite(SuiteConfig(
            statements=("lemma23", "lemma24", "lemma33", "lemma34", "blocks",
                        "blocks_weighted"),
            prime_min=101, prime_max=101, x_values=xs))
        assert (summary.total, summary.passed) == (240, 240)
        assert len(builds) == 40
        assert set(builds) == {(101, 2, i * (i + 1), T_MULT)
                               for i in range(40)}
        assert len(tables) == 40
        assert set(tables) == {(101, 2, i * (i + 1), T_MULT, "off")
                               for i in range(40)}
        assert reductions == []
        summary = run_suite(SuiteConfig(
            statements=("lemma21",), prime_min=101, prime_max=101,
            x_values=xs))
        assert (summary.total, summary.passed) == (40, 40)
        assert reductions == []

    def test_one_prime_builds_each_t_table_once(self, monkeypatch):
        # 80 x at one prime: each t table is built once, at its u, and
        # each check reduces its x once, in its split, not again for the
        # table
        builds = _record_calls(monkeypatch, sequences._table, "__wrapped__")
        splits = _record_calls(monkeypatch, cg, "reduce_ratio")
        reductions = _record_calls(monkeypatch, sequences, "mod_reduce")
        sequences._table.cache_clear()
        xs = tuple(map(Fraction, range(80)))
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "theorem2"), prime_min=499,
            prime_max=499, x_values=xs))
        assert (summary.total, summary.passed) == (160, 160)
        assert len(builds) == 80
        assert set(builds) == {(499, 2, u_mod(499, 2, x), T_MULT, "off")
                               for x in xs}
        assert len(splits) == 160 and reductions == []

    def test_memos_keep_only_the_last_prime(self, monkeypatch):
        # a run over several primes builds each entry once, in its prime
        # group, and leaves each memo with the entries of its last group
        # only, here the lists of 1/N^2 mod 13^2 and, for kw, 13^3, and
        # the one basis of n! and 1/n! mod 13^2; both x are p-integral at
        # every p, since a build that raises stores nothing, and the spot
        # oracle builds the exact rows.  The step lists alone outlive a
        # group: each family's reaches the largest prime, N = 12
        memos = _memos()
        for fn in memos.values():
            fn.cache_clear()
        monkeypatch.setattr(sequences, "_STEPS", {})
        builds = {name: _record_calls(monkeypatch, fn, "__wrapped__")
                  for name, fn in memos.items()}
        summary = run_suite(SuiteConfig(
            statements=("theorem1", "theorem2", "kw", "sun_s", "blocks",
                        "blocks_weighted", "lemma23", "lemma21"),
            prime_max=13, x_values=(Fraction(-1, 4), Fraction(1)),
            oracle_mode="spot"))
        assert summary.failed == 0
        for name, fn in memos.items():
            assert builds[name] and len(set(builds[name])) == len(
                builds[name]), name
            assert fn.entries, name
            assert {key[0] for key in fn.entries} == {13}, name
        assert set(sequences._inv_squares.entries) == {(13, 2), (13, 3)}
        assert set(sequences._factorials.entries) == {(13, 2)}
        assert {mult: [len(steps) for steps in lists]
                for mult, lists in sequences._STEPS.items()} == {
            T_MULT: [12] * 3, S_MULT: [12] * 3}


class TestEmitReport:
    @staticmethod
    def _emit(format, **kwargs):
        # a run's output in one format: what the CLI prints, line by line
        cfg = SuiteConfig(statements=("theorem1",), prime_max=7,
                          x_values=(Fraction(0),))
        for key, value in kwargs.items():
            setattr(cfg, key, value)
        lines = []
        writer = ReportWriter(format, lines.append)
        writer.finish(run_suite(cfg, writer.record, writer.plan))
        return "\n".join(lines)

    def test_jsonl(self):
        text = self._emit("jsonl")
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 3 and all(r["pass"] for r in rows)

    def test_tap(self):
        text = self._emit("tap")
        lines = text.splitlines()
        assert lines[0] == "1..3"
        assert lines[1] == "ok 1 - theorem1 p=3 x=0"

    def test_tap_skip_suffix(self):
        text = self._emit("tap", statements=("sun_s",), prime_min=5,
                          prime_max=5, x_values=(Fraction(-1, 2),))
        assert "# SKIP" in text.splitlines()[1]

    def test_human_pass(self):
        text = self._emit("human")
        assert "all checks passed" in text
        assert text.startswith("checks: 3  passed: 3  failed: 0  skipped: 0")

    def test_human_failure_detail(self):
        text = self._emit("human", inject_error=True)
        assert "FAIL theorem1 p=3 x=0: lhs=" in text
        assert "all checks passed" not in text

    def test_empty_summary(self):
        # a run whose prime range holds no prime
        assert self._emit("tap", prime_min=4, prime_max=4) == "1..0"
        assert self._emit("jsonl", prime_min=4, prime_max=4) == ""
        assert "all checks passed" not in self._emit(
            "human", prime_min=4, prime_max=4)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            ReportWriter("xml", print)

    def test_summary_keeps_only_failures(self):
        cfg = SuiteConfig(statements=("theorem1", "sun_s"), prime_min=5,
                          prime_max=7, x_values=(Fraction(-1, 2),
                                                 Fraction(0)))
        reports = []
        summary = run_suite(cfg, reports.append)
        assert summary.skipped and summary.passed and not summary.failed
        assert summary.failures == [] and len(reports) == summary.total
        assert not hasattr(summary, "reports")


class TestIdentitySuiteRunner:
    def test_all_families_hold(self):
        results = identity_suite(nmax=12)
        assert len(results) == 6
        assert all(ok for _, ok in results)


class TestCli:
    def test_verify_ok(self, capsys):
        assert main(["verify", "--statement", "kw", "--pmax", "7"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("module, name, argv", [
        ("supercong.cli", "run_suite",
         ["verify", "--statement", "kw", "--pmax", "5"]),
        ("supercong.identities", "identity_suite",
         ["identities", "--nmax", "2"]),
    ])
    def test_crash_outside_a_check_exits_3(self, monkeypatch, capsys, module,
                                           name, argv):
        # a fault of the program must not read as a failed congruence (1)
        def crash(*args):
            raise RuntimeError("planted crash")

        monkeypatch.setattr(importlib.import_module(module), name, crash)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: planted crash\n")

    def test_lost_pool_worker_exits_3(self, monkeypatch, capsys):
        from concurrent.futures.process import BrokenProcessPool
        _inline_pool(monkeypatch, BrokenProcessPool("a worker died"))
        assert main(["verify", "--statement", "theorem1", "--pmax", "5",
                     "--x", "1", "--jobs", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("BrokenProcessPool: a worker died\n")

    def test_pool_that_cannot_start_exits_3(self, monkeypatch, capsys):
        # not 2: no output file is involved, the program could not run
        _inline_pool(monkeypatch, BlockingIOError(
            11, "Resource temporarily unavailable"))
        assert main(["verify", "--statement", "theorem1", "--pmax", "7",
                     "--x", "1", "--jobs", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "cannot write output" not in err
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith(
            "BlockingIOError: [Errno 11] Resource temporarily unavailable\n")

    def test_unwritable_out_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--statement", "kw", "--pmax", "5",
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("supercong: cannot write output: ")
        assert str(tmp_path) in err

    def test_all_skip_run_does_not_claim_a_pass(self, capsys):
        assert main(["verify", "--statement", "sun_s", "--pmin", "5",
                     "--pmax", "13", "--x", "-1/2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("checks: 4  passed: 0  failed: 0  skipped: 4")
        assert "all checks passed" not in out

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

    def test_oracle_mismatch_fails_every_reader(self, tmp_path, monkeypatch,
                                                fresh_exact_rows):
        # a table that fails its audit is not kept, so each statement that
        # reads it records the mismatch for itself
        sequences._table.cache_clear()
        real = sequences._row_exact

        def off_by_one(n, x):
            s, t, den = real(n, x)
            return s, t + den, den

        monkeypatch.setattr(sequences, "_row_exact", off_by_one)
        out = tmp_path / "run.jsonl"
        code = main(["verify", "--statement", "theorem1", "--statement",
                     "theorem2", "--statement", "weighted_8n5", "--pmin",
                     "53", "--pmax", "71", "--oracle", "spot", "--format",
                     "jsonl", "--out", str(out)])
        assert code == 1
        rows = [json.loads(s) for s in out.read_text().splitlines()]
        assert {r["statement"] for r in rows} == {"theorem1", "theorem2",
                                                  "weighted_8n5"}
        for r in rows:
            assert r["pass"] is False and r["lhs"] is None
            assert r["skipped_reason"].startswith("oracle mismatch: ")

    def test_planted_row_fails_every_x_of_one_u(self, monkeypatch):
        # x = 2 and x = -3 share u = 6 and so one table; with one t row
        # planted wrong, the audit at 2 stores nothing, so -3 rebuilds the
        # table, audits it at its own x and records its own mismatch
        sequences._table.cache_clear()
        real = sequences._table_values

        def planted(p, e, u, mult, cut=None):
            values = real(p, e, u, mult, cut)
            if cut is None and mult == T_MULT:
                values = values[:3] + ((values[3] + 1) % p**e,) + values[4:]
            return values

        monkeypatch.setattr(sequences, "_table_values", planted)
        reports = []
        summary = run_suite(SuiteConfig(
            statements=("theorem1",), prime_min=13, prime_max=13,
            x_values=(Fraction(2), Fraction(-3)), oracle_mode="full"),
            reports.append)
        assert (summary.total, summary.failed) == (2, 2)
        assert [r.x for r in reports] == [2, -3]
        for r in reports:
            assert r.passed is False and r.lhs is None
            assert r.skipped_reason.startswith(
                f"oracle mismatch: table row n=3 (p=13, e=2, x={r.x},")
        assert sequences._table.entries == {}

    def test_spot_oracle_catches_a_shifted_mid_mask(self, tmp_path):
        # a copy of the package whose mid mask runs one k late, [m+2, p-m]:
        # its prefix check reads the same cut points, so it passes, and so
        # do its far blocks; only the exact audit of the transforms sees it
        pkg = tmp_path / "supercong"
        shutil.copytree(Path(supercong.__file__).parent, pkg,
                        ignore=shutil.ignore_patterns("__pycache__"))
        source = pkg / "congruences.py"
        text = source.read_text(encoding="utf-8")
        assert text.count("cuts = (m, p - m - 1)") == 1
        source.write_text(text.replace("cuts = (m, p - m - 1)",
                                       "cuts = (m + 1, p - m)"),
                          encoding="utf-8")
        runs = {}
        for oracle in ("off", "spot"):
            proc = subprocess.run(
                [sys.executable, "-m", "supercong", "verify", "--statement",
                 "blocks", "--pmin", "11", "--pmax", "13", "--x", "2/5",
                 "--oracle", oracle, "--format", "jsonl"],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(tmp_path)})
            runs[oracle] = (proc.returncode, [
                (r["p"], r["x"], r["pass"], r["skipped_reason"])
                for r in map(json.loads, proc.stdout.splitlines())])
        assert runs["off"] == (0, [(11, "-7/5", True, None),
                                   (13, "2/5", True, None)])
        code, rows = runs["spot"]
        assert code == 1 and [row[:3] for row in rows] == [
            (11, "-7/5", False), (13, "2/5", False)]
        assert rows[1][3].startswith(
            "oracle mismatch: block transform A_lo row n=4 (p=13, x=2/5)")

    def test_interrupted_run_leaves_a_prefix(self, tmp_path, monkeypatch,
                                             capsys):
        # in the --out file and on stdout alike
        args = ["verify", "--statement", "theorem1", "--statement",
                "theorem2", "--statement", "kw", "--pmax", "13",
                "--x", "0", "--x", "1/3", "--format", "jsonl"]
        full = tmp_path / "full.jsonl"
        assert main(args + ["--out", str(full)]) == 0
        printed = capsys.readouterr().out
        check = cg.theorem2_check

        def interrupted(p, x, oracle="off"):
            if p == 11:
                raise KeyboardInterrupt
            return check(p, x, oracle)

        monkeypatch.setattr(cg, "theorem2_check", interrupted)
        cut = tmp_path / "cut.jsonl"
        with pytest.raises(KeyboardInterrupt):
            main(args + ["--out", str(cut)])
        text = cut.read_text()
        assert text.endswith("\n")  # every line is whole JSON, see below
        head, whole = _without_micros(text), _without_micros(full.read_text())
        assert 0 < len(head) < len(whole)
        assert head == whole[:len(head)]
        assert capsys.readouterr().out == text  # the same lines, micros too
        assert _without_micros(printed) == whole

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
        psi13 = "3317044064679887385961981"
        assert main(["verify", "--statement", "residue_table", "--pmin",
                     psi13, "--pmax", psi13]) == 2
        assert "primality test" in capsys.readouterr().err

    def test_pmin_above_every_default_cap_is_a_usage_error(self, tmp_path,
                                                           capsys):
        # without a cap of its own the run would verify nothing and pass
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text("statements = kw, blocks\nprime_min = 101\n")
        for args in (["--pmin", "1000"], ["--suite", str(cfg_file)]):
            assert main(["verify", *args]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            [line] = err.splitlines()
            assert "default prime caps" in line
        assert "(kw 100, blocks 50)" in line
        # a statement whose default cap is above --pmin still runs
        assert main(["verify", "--statement", "blocks", "--statement",
                     "residue_table", "--pmin", "497"]) == 0
        assert "checks: 1 " in capsys.readouterr().out

    def test_explicit_empty_prime_range_runs_no_check(self, capsys):
        assert main(["verify", "--pmin", "4", "--pmax", "4"]) == 0
        out = capsys.readouterr().out
        assert "checks: 0 " in out and "all checks passed" not in out
        args = ["verify", "--pmin", "4", "--pmax", "4", "--format"]
        assert main(args + ["tap"]) == 0
        assert capsys.readouterr().out == "1..0\n"
        # jsonl prints no line at all, so every line read back parses
        assert main(args + ["jsonl"]) == 0
        assert capsys.readouterr().out == ""

    def test_zero_denominator_is_a_usage_error(self, tmp_path):
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text("statements = theorem1\nx_values = 1/0\n")
        for args in (["--statement", "theorem1", "--x", "1/0"],
                     ["--suite", str(cfg_file)]):
            proc = subprocess.run(
                [sys.executable, "-m", "supercong", "verify", *args],
                capture_output=True, text=True)
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "bad rational '1/0'" in proc.stderr

    def test_suite_file_not_utf8_is_a_usage_error(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_bytes(b"\xff\xfe")
        proc = subprocess.run(
            [sys.executable, "-m", "supercong", "verify", "--suite",
             str(cfg_file)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("supercong: ")

    def test_serial_run_leaves_the_process_pool_unimported(self):
        # nor what only a fault, the identity battery or dataclasses need;
        # a module the bare interpreter already loads (a site hook) is not
        # verify's doing, so it does not count
        unused = {"concurrent.futures.process", "dataclasses", "inspect",
                  "traceback", "supercong.identities"}
        bare = subprocess.run(
            [sys.executable, "-c", "import sys; print(*sys.modules)"],
            capture_output=True, text=True, check=True).stdout.split()
        code = (
            "import sys\n"
            "from supercong import cli\n"
            "status = cli.main(['verify', '--statement', 'theorem1',\n"
            "                   '--pmax', '7', '--x', '0', '--jobs', '1'])\n"
            "assert status == 0, status\n"
            f"loaded = sorted(sys.modules.keys() & {unused - set(bare)!r})\n"
            "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout

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

    def test_repeated_x_runs_each_check_once(self, tmp_path, capsys):
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text(
            "statements = theorem1\nprime_max = 11\nx_values = 1/3, 1/3\n")
        for args in (["--suite", str(cfg_file)],
                     ["--statement", "theorem1", "--pmax", "11",
                      "--x", "1/3", "--x", "1/3"]):
            assert main(["verify", *args, "--format", "jsonl"]) == 0
            rows = [json.loads(line)
                    for line in capsys.readouterr().out.splitlines()]
            assert [(r["p"], r["x"]) for r in rows] == [
                (3, "1/3"), (5, "1/3"), (7, "1/3"), (11, "1/3")]

    def test_flags_override_suite_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text("statements = kw\nprime_max = 97\n")
        assert main(["verify", "--suite", str(cfg_file),
                     "--pmax", "5"]) == 0
        assert "checks: 2" in capsys.readouterr().out

    def test_suite_file_is_validated_after_the_flags(self, tmp_path, capsys):
        # the file alone selects no check; with --pmax it runs what the
        # same settings given as flags run
        cfg_file = tmp_path / "suite.cfg"
        cfg_file.write_text("statements = kw\nprime_min = 1000\n")
        for args in (["--suite", str(cfg_file), "--pmax", "1010"],
                     ["--statement", "kw", "--pmin", "1000", "--pmax",
                      "1010"]):
            assert main(["verify", *args]) == 0
            assert "checks: 1 " in capsys.readouterr().out
        # still invalid after the flags: refused as before
        assert main(["verify", "--suite", str(cfg_file), "--jobs", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "supercong: prime_min = 1000 selects no check under the default "
            "prime caps (kw 100); give --pmax or prime_max\n")

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

    @pytest.mark.parametrize("flags, status", [
        (["--format", "jsonl"], 0),
        (["--format", "jsonl", "--inject-error"], 1),
        (["--format", "tap"], 0)])
    def test_reader_closing_stdout_early(self, flags, status):
        # lines are printed during the run, and at p <= 41 either format
        # fills the stdout buffer, so the pipe breaks in the run's middle
        assert _run_with_stdout_closed(
            "verify", "--statement", "theorem1", "--pmax", "41",
            *flags) == status

    def test_identities_reader_closing_stdout_early(self):
        assert _run_with_stdout_closed("identities", "--nmax", "6") == 0


def test_sources_parse_at_the_python_floor():
    # pyproject.toml claims requires-python = ">=3.X"; every module must
    # parse with that grammar, though the tests run on a newer Python
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (root / "pyproject.toml").read_text())
    sources = sorted((root / "src" / "supercong").glob("*.py"))
    assert floor and sources
    for path in sources:
        ast.parse(path.read_text(), str(path),
                  feature_version=(3, int(floor[1])))


def test_sources_use_only_the_standard_library_and_no_floats():
    # the verifier is exact and has no runtime dependency: every import is
    # the standard library's or the package's own, no float literal or name
    # `float` appears, and pyproject.toml declares no dependency
    root = Path(__file__).resolve().parent.parent
    assert re.search(r"^dependencies = \[\]$",
                     (root / "pyproject.toml").read_text(), re.M)
    sources = sorted((root / "src" / "supercong").glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"supercong"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            for module in modules:
                assert module.split(".")[0] in allowed, (where, module)
            assert not (isinstance(node, ast.Constant)
                        and isinstance(node.value, (float, complex))), where
            assert not (isinstance(node, ast.Name)
                        and node.id == "float"), where


def test_only_reduce_ratio_refuses_a_non_p_integral_argument():
    # p-integrality is tested in one place, core.reduce_ratio, which words
    # the skip text of the records: no other function, nor module code,
    # raises NonPIntegralError
    root = Path(__file__).resolve().parent.parent
    raisers = []
    for path in sorted((root / "src" / "supercong").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner = {}  # node -> name of the innermost function holding it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name  # inner defs are walked later
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) \
                        == "NonPIntegralError":
                    raisers.append((path.name, owner.get(node)))
    assert raisers == [("core.py", "reduce_ratio")]


def test_exact_oracle_names_nothing_of_the_fast_route():
    # the audit means something only while the exact route shares no code
    # with the route it audits: the bodies of the two exact routines, and
    # of every function of the module they call, name no helper of the
    # fast route, no reduction mod p^e and no modular pow
    fast = {"_factorials", "_inv_squares", "_steps", "_STEPS",
            "_table_values", "_pair_weights_mod", "_u_mod", "mod_reduce",
            "reduce_ratio", "pow"}
    tree = ast.parse(Path(sequences.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    todo, seen = ["_row_exact", "_pair_weights_exact"], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        named = {getattr(node, "id", None) or getattr(node, "attr", None)
                 for node in ast.walk(defs[name])}
        assert not named & fast, (name, named & fast)
        todo += sorted((named & set(defs)) - seen - {name})
    assert seen == {"_row_exact", "_pair_weights_exact", "_factorial_part"}


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
