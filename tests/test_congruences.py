import inspect
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from supercong import congruences as cg, core
from supercong.congruences import (
    BLOCK_LEMMAS,
    CONJECTURE_CASES,
    CongruenceReport,
    PadicRational,
    block_lemma_check,
    block_sums,
    block_vanishing_check,
    conjecture_check,
    default_x_grid,
    kw_check,
    lemma21_all,
    padic_split,
    residue_table_check,
    sun_s_check,
    theorem1_check,
    theorem1_rhs,
    theorem2_check,
    theorem2_rhs,
)
from supercong.core import (
    HypothesisViolatedError,
    NonPIntegralError,
    OracleMismatchError,
    RegimeError,
    Residue,
    binom_gen,
    binom_int,
    is_prime,
    legendre,
    mod_reduce,
    odd_primes,
)
from supercong.identities import binom_conv_sum, weighted_binom_conv_sum
from supercong.sequences import S_MULT, T_MULT, s_seq, t_seq, t_table_mod

primes_to_43 = st.sampled_from([p for p in range(3, 44) if is_prime(p)])


def p_integral_x(p: int):
    """Rationals of height <= 10^4 with denominator prime to p."""
    return st.builds(Fraction, st.integers(-10**4, 10**4),
                     st.integers(1, 60).filter(lambda d: d % p))


def half_regime(p: int, x: Fraction) -> Fraction:
    """x or its reflection -1-x, whichever has m <= (p-1)/2."""
    return x if padic_split(x, p).m <= (p - 1) // 2 else -1 - x


class TestPadicSplit:
    def test_least_residues(self):
        cases = [
            (Fraction(-1, 2), 5, 2),
            (Fraction(-1, 3), 7, 2),
            (Fraction(-1, 6), 11, 9),
            (Fraction(-1, 4), 13, 3),
            (Fraction(-1, 4), 7, 5),
            (Fraction(-1, 3), 5, 3),
        ]
        for x, p, m in cases:
            px = padic_split(x, p)
            assert px.m == m
            assert px.x == x and px.p == p

    def test_split_reassembles(self):
        for p in (3, 5, 7, 11, 13):
            for x in (Fraction(0), Fraction(17), Fraction(-9, 8),
                      Fraction(5, 4), Fraction(-1, 2)):
                if x.denominator % p == 0:
                    continue
                px = padic_split(x, p)
                assert 0 <= px.m < p
                assert px.m + p * px.t == x
                assert px.t.denominator % p != 0

    def test_t_mod(self):
        # the checks read t mod p from the split as (x mod p^2 - m) / p
        px = padic_split(Fraction(-1, 2), 5)
        assert px.t == Fraction(-1, 2)
        assert mod_reduce(px.t, 5, 1) == Residue(2, 5)
        assert mod_reduce(px.t, 5, 2) == Residue(12, 25)
        x, xr, m = cg._split(5, Fraction(-1, 2))
        assert (x, m, (xr - m) // 5) == (px.x, px.m, 2)

    def test_reflect(self):
        # x -> -1-x maps m to p-1-m and keeps x p-integral
        for p in (3, 5, 7, 11, 13):
            for x in (Fraction(-1, 3), Fraction(-1, 2), Fraction(0),
                      Fraction(5, 4), Fraction(-9, 8)):
                if x.denominator % p:
                    px = padic_split(x, p)
                    assert padic_split(-1 - x, p).m == p - 1 - px.m

    def test_mod_reduce_agrees_with_split(self):
        for p in (3, 5, 7, 11):
            for x in (Fraction(-1, 2), Fraction(3, 4), Fraction(-7, 5)):
                if x.denominator % p == 0:
                    continue
                px = padic_split(x, p)
                assert mod_reduce(x, p, 1).value == px.m
                assert mod_reduce(x, p, 2).value == (
                    px.m + p * mod_reduce(px.t, p, 1).value) % (p * p)

    def test_errors(self):
        with pytest.raises(NonPIntegralError):
            padic_split(Fraction(1, 5), 5)
        with pytest.raises(ValueError):
            padic_split(1, 4)


# every public check and split, called as f(p, x); True when it takes an x
PUBLIC_ENTRIES = {
    "padic_split": (lambda p, x: padic_split(x, p), True),
    "default_x_grid": (lambda p, x: default_x_grid(p), False),
    "residue_table_check": (lambda p, x: residue_table_check(p), False),
    "lemma21_all": (lemma21_all, True),
    "block_vanishing_check": (block_vanishing_check, True),
    "block_sums": (block_sums, True),
    "block_lemma_check": (
        lambda p, x: block_lemma_check("lemma23", p, x), True),
    "theorem1_rhs": (theorem1_rhs, True),
    "theorem1_check": (theorem1_check, True),
    "theorem2_rhs": (theorem2_rhs, True),
    "theorem2_check": (theorem2_check, True),
    "conjecture_check": (
        lambda p, x: conjecture_check("weighted_8n5", p), False),
    "kw_check": (lambda p, x: kw_check(p), False),
    "sun_s_check": (sun_s_check, True),
}


@pytest.mark.parametrize("name", PUBLIC_ENTRIES)
def test_public_entry_validates_its_input(name):
    # each entry refuses a composite p and a non-p-integral x by itself
    call, takes_x = PUBLIC_ENTRIES[name]
    with pytest.raises(ValueError, match=r"^p = 9 is not an odd prime$"):
        call(9, Fraction(2, 5))
    if takes_x:
        with pytest.raises(NonPIntegralError,
                           match=r"^1/13 is not 13-integral$"):
            call(13, Fraction(1, 13))


def test_every_public_entry_has_a_row():
    # a function that congruences defines, with no leading underscore and a
    # parameter p, is a public entry, so the test above reaches each one
    defined = {name for name, fn in vars(cg).items()
               if inspect.isfunction(fn) and fn.__module__ == cg.__name__
               and not name.startswith("_")
               and "p" in inspect.signature(fn).parameters}
    assert defined == set(PUBLIC_ENTRIES)


class TestResidueCaseTable:
    def test_holds_below_100(self):
        for p in odd_primes(5, 97):
            assert residue_table_check(p)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            residue_table_check(3)


class TestPairWeightRegimes:
    def test_all_k_at_integer_argument(self):
        assert lemma21_all(7, 0)
        assert lemma21_all(7, 1)
        assert lemma21_all(11, Fraction(-3, 4))

    def test_boundary_m_equals_half(self):
        # m = (p-1)/2: the middle range is empty, the rest still holds
        assert lemma21_all(7, Fraction(-1, 2))

    def test_high_residue_raises_until_reflected(self):
        with pytest.raises(RegimeError):
            lemma21_all(11, Fraction(-1, 3))
        assert lemma21_all(11, Fraction(-2, 3))

    def test_top_range_is_exactly_zero(self):
        # k >= p - m kills C(x,k)C(x+k,k) mod p^2, not just mod p
        p, x = 7, Fraction(8)  # m = 1, so k = 6 lies in the top range
        v = binom_gen(x, 6) * binom_gen(x + 6, 6)
        assert mod_reduce(v, p, 2).value == 0
        assert cg._lemma21_exact(p, x, 1, [6]) == [(0, 0)]

    @pytest.mark.parametrize("p, x", ((11, Fraction(-3, 4)),
                                      (61, Fraction(2, 7))))
    def test_oracle_catches_a_wrong_fast_left_side(self, p, x, monkeypatch):
        k0 = 4
        assert lemma21_all(p, x, oracle="full")
        real = cg._pair_weights_mod

        def wrong_at_k0(p_, e, x_, mult):
            w = real(p_, e, x_, mult)
            if mult != S_MULT:
                return w
            return w[:k0] + ((w[k0] + p_) % p_**e,) + w[k0 + 1:]

        monkeypatch.setattr(cg, "_pair_weights_mod", wrong_at_k0)
        assert not lemma21_all(p, x)  # unaudited: reads as a failed lemma
        with pytest.raises(OracleMismatchError, match=f"lemma21 k={k0} "):
            lemma21_all(p, x, oracle="full")
        if p <= 50:  # spot audits every k this small
            with pytest.raises(OracleMismatchError):
                lemma21_all(p, x, oracle="spot")

    def test_full_oracle_builds_the_exact_weights_once(self, monkeypatch):
        calls = []
        real = cg._pair_weights_exact

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cg, "_pair_weights_exact", counted)
        assert lemma21_all(43, Fraction(-7, 9), oracle="full")
        assert calls == [(Fraction(-7, 9), 42, S_MULT)]


@given(primes_to_43, st.data())
@settings(deadline=None, max_examples=30)
def test_lemma21_fast_sides_match_the_exact_route(p, data):
    x = half_regime(p, data.draw(p_integral_x(p)))
    x, xr, m = cg._split(p, x)
    lhs, rhs = cg._lemma21_sides(p, xr, m)
    assert list(zip(lhs, rhs)) == cg._lemma21_exact(p, x, m, range(p))
    assert lemma21_all(p, x, oracle="full")


def _brute_cells(p: int, x: Fraction, weighted: bool) -> list[Fraction]:
    """Literal block sums over Q, row-major: weights via binom_gen, inner
    sums via the raw sum over n < p of C(n,k) C(n,l) (times n+1 when
    weighted), nothing reduced."""
    m = padic_split(x, p).m
    w = [binom_gen(x, k) * binom_gen(x + k, k) * 2**k for k in range(p)]

    def inner(k: int, l: int) -> int:
        total = 0
        for n in range(p):
            c = binom_int(n, k) * binom_int(n, l)
            if c:
                total += (n + 1) * c if weighted else c
        return total

    ranges = (range(0, m + 1), range(m + 1, p - m), range(p - m, p))
    return [sum((w[k] * w[l] * inner(k, l) for k in kr for l in lr),
                Fraction(0))
            for kr in ranges for lr in ranges]


def _brute_blocks(p: int, x: Fraction, weighted: bool) -> tuple[Residue, ...]:
    return tuple(mod_reduce(cell, p, 2)
                 for cell in _brute_cells(p, x, weighted))


def _inner_weights(p: int) -> tuple[list[int], list[int]]:
    """d_n, n < p, of the literal inner sums: C(p,n+1) for the plain split,
    then (n+1) C(p+1,n+2) for the weighted one."""
    return ([comb(p, n + 1) for n in range(p)],
            [(n + 1) * comb(p + 1, n + 2) for n in range(p)])


def _inner_exact(plain: list[int], weighted: list[int], k: int,
                 l: int) -> tuple[int, int]:
    """The literal P(k,l) = sum_n C(n,l) C(l,n-k) d_n over n < p =
    len(plain), for d = plain and d = weighted.  With the d of
    _inner_weights these equal sum_{n<p} C(n,k) C(n,l), times n+1 in the
    weighted one."""
    a = b = 0
    for n in range(max(k, l), min(k + l, len(plain) - 1) + 1):
        c = comb(n, l) * comb(l, n - k)
        a += c * plain[n]
        b += c * weighted[n]
    return a, b


class TestBlockDecomposition:
    def test_matches_literal_sums(self):
        for p, x in ((5, Fraction(1)), (7, Fraction(-1, 3))):
            for weighted in (False, True):
                assert block_sums(p, x, weighted) == _brute_blocks(p, x, weighted)

    def test_vanishing_and_cross_equality(self):
        for p in (5, 7, 11, 13):
            for x in (Fraction(0), Fraction(1), Fraction(-1, 3),
                      Fraction(-1, 4), Fraction(-1, 6)):
                if x.denominator % p == 0:
                    continue
                if padic_split(x, p).m >= (p - 1) // 2:
                    continue
                assert block_vanishing_check(p, x, weighted=False)
                assert block_vanishing_check(p, x, weighted=True)

    def test_blocks_reassemble_the_square_sum(self):
        for p, x in ((7, Fraction(-1, 3)), (11, Fraction(-3, 4))):
            table = t_table_mod(p, 2, x)
            for weighted in (False, True):
                sums = block_sums(p, x, weighted)
                total = 0
                for n, v in enumerate(table.values):
                    total += ((n + 1) if weighted else 1) * v * v
                assert sum(r.value for r in sums) % (p * p) == total % (p * p)
                # far blocks vanish, cross blocks agree: near + 2*cross is all
                assert (sums[0].value + 2 * sums[1].value) % (p * p) == (
                    total % (p * p))

    def test_both_splits_share_one_block_entry(self):
        cg._block_sums_mod.cache_clear()
        block_lemma_check("lemma23", 13, Fraction(2, 5))
        block_lemma_check("lemma33", 13, Fraction(2, 5))
        assert list(cg._block_sums_mod.entries) == [  # 2/5 = 68 mod 13^2
            (13, Fraction(2, 5), 68, 3, "off")]
        assert cg._block_sums_mod.hits == 1

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            block_vanishing_check(7, Fraction(-2, 3))
        with pytest.raises(RegimeError):
            block_sums(7, Fraction(-1, 2))

    def test_integer_inner_table_is_the_convolution_identity(self):
        for p in odd_primes(3, 13):
            plain, weighted = _inner_weights(p)
            for k in range(p):
                for l in range(p):
                    assert _inner_exact(plain, weighted, k, l) == (
                        binom_conv_sum(p, k, l)[1],
                        weighted_binom_conv_sum(p, k, l)[1])

    def test_oracle_audits_the_transforms_only_when_on(self, monkeypatch):
        # the exact weights are read by the audit alone: never with the
        # oracle off, once per entry under spot or full
        calls = []
        real = cg._pair_weights_exact

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cg, "_pair_weights_exact", counted)
        for oracle in ("off", "spot", "full"):
            cg._block_sums_mod.cache_clear()
            assert block_vanishing_check(13, Fraction(2, 5), oracle=oracle)
            assert block_vanishing_check(13, Fraction(2, 5), True, oracle)
        assert calls == [(Fraction(2, 5), 12, T_MULT)] * 2

    @pytest.mark.parametrize("oracle", ["spot", "full"])
    def test_oracle_catches_a_row_the_prefix_check_skips(self, monkeypatch,
                                                         oracle):
        # row 2 of P_m at p = 13, m = 3 is not among the prefix check's
        # rows 1, 4, 6, 10 and 12, so only the exact audit sees it
        p, x = 13, Fraction(2, 5)
        real = cg._table_values

        def skewed(p_, e, u, mult, cut=None):
            rows = real(p_, e, u, mult, cut)
            if cut is None or cut[0] != 3:
                return rows
            return rows[:2] + ((rows[2] + p) % p**e,) + rows[3:]

        monkeypatch.setattr(cg, "_table_values", skewed)
        cg._block_sums_mod.cache_clear()
        assert block_vanishing_check(p, x)  # unaudited, the skew is unseen
        cg._block_sums_mod.cache_clear()
        with pytest.raises(OracleMismatchError,
                           match=r"block transform A_lo row n=2 \(p=13, "):
            block_vanishing_check(p, x, oracle=oracle)
        cg._block_sums_mod.cache_clear()


@given(primes_to_43, st.booleans(), st.data())
@settings(deadline=None, max_examples=30)
def test_block_transforms_match_the_literal_table(p, weighted, data):
    x = half_regime(p, data.draw(p_integral_x(p)))
    m = padic_split(x, p).m
    assume(m < (p - 1) // 2)
    sums = block_sums(p, x, weighted)
    # the literal integer inner table, weights mod p^2
    d = _inner_weights(p)
    inner = [[_inner_exact(*d, k, l)[weighted] for l in range(p)]
             for k in range(p)]
    w = cg._pair_weights_mod(p, 2, mod_reduce(x * (x + 1), p, 2).value, T_MULT)
    ranges = cg._block_ranges(p, m)
    literal = tuple(
        Residue(sum(w[k] * w[l] * inner[k][l] for k in kr for l in lr), p * p)
        for kr in ranges for lr in ranges)
    assert sums == literal == _brute_blocks(p, x, weighted)
    # the nine blocks add up to the square sum of theorem1 / theorem2
    lhs = (theorem2_check if weighted else theorem1_check)(p, x).lhs
    assert sum(r.value for r in sums) % (p * p) == lhs.value


class TestBlockLemmas:
    def test_frozen_values_at_7(self):
        # x = 1 has t = 0, so both cross blocks are 0
        frozen = {"lemma23": 14, "lemma24": 0, "lemma33": 28, "lemma34": 0}
        for name, value in frozen.items():
            r = block_lemma_check(name, 7, 1)
            assert r.statement == name
            assert (r.lhs.value, r.rhs.value, r.passed) == (value, value, True)

    def test_frozen_values_with_nonzero_t(self):
        # x = 2/5 = 3 + 13 t at p = 13 with t = -1/5: every block nonzero
        frozen = {"lemma23": 143, "lemma24": 39, "lemma33": 26,
                  "lemma34": 156}
        for name, value in frozen.items():
            r = block_lemma_check(name, 13, Fraction(2, 5))
            assert (r.lhs.value, r.rhs.value, r.passed) == (value, value, True)
            assert r.lhs.modulus == 169

    def test_nonzero_fractional_offset(self):
        for name in BLOCK_LEMMAS:
            r = block_lemma_check(name, 11, Fraction(-3, 4))
            assert r.passed and r.skipped_reason is None
            assert r.lhs.modulus == 121

    def test_regime_error(self):
        for name in BLOCK_LEMMAS:
            with pytest.raises(RegimeError):
                block_lemma_check(name, 7, Fraction(-1, 2))


class TestTheorem1:
    def test_rhs_frozen_values(self):
        assert theorem1_rhs(5, Fraction(-1, 2)) == Residue(1, 25)
        assert theorem1_rhs(7, 0) == Residue(7, 49)
        assert theorem1_rhs(7, 2) == Residue(21, 49)

    def test_rhs_boundary_is_legendre(self):
        for p in odd_primes(3, 50):
            assert theorem1_rhs(p, Fraction(-1, 2)).value % p == (
                legendre(-1, p) % p)
            assert theorem1_rhs(p, Fraction(-1, 2)) == Residue(
                legendre(-1, p), p * p)

    def test_rhs_reflection_invariance(self):
        for p in (5, 7, 11, 13):
            for x in (Fraction(0), Fraction(1), Fraction(-1, 3),
                      Fraction(2, 5)):
                if x.denominator % p == 0:
                    continue
                assert theorem1_rhs(p, x) == theorem1_rhs(p, -1 - x)

    def test_check_against_exact_row_sums(self):
        for p in (3, 5, 7, 11, 13):
            for x in (Fraction(0), Fraction(2), Fraction(-1, 3),
                      Fraction(-1, 2), Fraction(5, 4)):
                if x.denominator % p == 0:
                    continue
                r = theorem1_check(p, x)
                assert r.passed, (p, x)
                exact = sum(t_seq(n, x) ** 2 for n in range(p))
                assert r.lhs == mod_reduce(exact, p, 2)

    def test_frozen_check(self):
        r = theorem1_check(5, 0)
        assert (r.lhs.value, r.rhs.value, r.passed) == (5, 5, True)
        assert r.statement == "theorem1" and r.x == Fraction(0)


class TestTheorem2:
    def test_rhs_frozen_value(self):
        assert theorem2_rhs(5, 0) == Residue(15, 25)

    def test_check_against_exact_row_sums(self):
        for p in (3, 5, 7, 11, 13):
            for x in (Fraction(0), Fraction(2), Fraction(-1, 3),
                      Fraction(-1, 2), Fraction(5, 4)):
                if x.denominator % p == 0:
                    continue
                r = theorem2_check(p, x)
                assert r.passed, (p, x)
                exact = sum((n + 1) * t_seq(n, x) ** 2 for n in range(p))
                assert r.lhs == mod_reduce(exact, p, 2)

    def test_frozen_check(self):
        r = theorem2_check(5, 0)
        assert (r.lhs.value, r.passed) == (15, True)

    def test_branch_probe(self):
        # x = -1/2 + p has the same least residue (p-1)/2 but t != 0:
        # the boundary branch must not depend on t
        for p in (5, 7, 11, 13):
            base = Fraction(-1, 2)
            probe = base + p
            assert padic_split(probe, p).m == (p - 1) // 2
            assert theorem2_rhs(p, base) == theorem2_rhs(p, probe)
            assert theorem2_check(p, probe).passed


@pytest.mark.parametrize("check", (theorem1_check, theorem2_check, kw_check))
def test_a_headline_check_validates_p_once(check, monkeypatch):
    # one split of x (for kw, one table build), whose validation the table
    # read and the right side share, off the class 2x = -1 (mod 13) at x = 2
    # and on it at x = -1/2, where the right side reads (-1/13)
    calls = []
    real = core.require_odd_prime

    def counted(p):
        calls.append(p)
        real(p)

    for module in (core, cg):
        monkeypatch.setattr(module, "require_odd_prime", counted)
    for args in [()] if check is kw_check else [(2,), (Fraction(-1, 2),)]:
        calls.clear()
        assert check(13, *args).passed
        assert calls == [13], args


class TestWeightedConjectures:
    def test_frozen_values(self):
        assert conjecture_check("weighted_8n5", 5).lhs == Residue(10, 25)
        assert conjecture_check("weighted_18n7", 7).lhs == Residue(0, 49)
        assert conjecture_check("weighted_72n49", 11).lhs == Residue(77, 121)
        assert conjecture_check("weighted_32n21", 3).lhs == Residue(6, 9)

    def test_all_cases_small_primes(self):
        for name, (_, _, _, coeff, min_p) in CONJECTURE_CASES.items():
            for p in odd_primes(min_p, 31):
                r = conjecture_check(name, p)
                assert r.passed, (name, p)
                assert r.rhs == Residue(coeff * p, p * p)

    @pytest.mark.parametrize("name", CONJECTURE_CASES)
    def test_coefficient_follows_from_the_theorems(self, name):
        # sum (a n + b) t_n^2 = a sum (n+1) t_n^2 + (b - a) sum t_n^2, so the
        # stated c p is what theorem2's and theorem1's right sides give;
        # the statement keeps its own c, independent of both theorems
        a, b, x, c, min_p = CONJECTURE_CASES[name]
        for p in odd_primes(min_p, 500):
            combined = a * theorem2_rhs(p, x) + (b - a) * theorem1_rhs(p, x)
            assert combined == Residue(c * p, p * p), (name, p)

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolatedError):
            conjecture_check("weighted_18n7", 3)
        with pytest.raises(HypothesisViolatedError):
            conjecture_check("weighted_72n49", 3)

    def test_weighted_sum_check_statement_id(self):
        # sum (8n+5) t_n(-1/2)^2 = 10 mod 25 at p = 5, reported under its id
        r = conjecture_check("weighted_8n5", 5)
        assert r.statement == "weighted_8n5" and r.passed
        assert (r.x, r.rhs) == (Fraction(-1, 2), Residue(10, 25))


class TestDeeperCongruences:
    def test_kw_frozen(self):
        r = kw_check(3)
        assert (r.lhs.value, r.rhs.value, r.lhs.modulus) == (26, 26, 27)
        r = kw_check(5)
        assert (r.lhs.value, r.rhs.value, r.lhs.modulus) == (1, 1, 125)

    def test_kw_small_primes(self):
        for p in odd_primes(3, 30):
            r = kw_check(p)
            assert r.passed and r.rhs == Residue(legendre(-1, p), p**3)

    def test_kw_against_exact_sum(self):
        for p in (3, 5, 7):
            exact = sum(s_seq(n, Fraction(-1, 2)) ** 2 for n in range(p))
            assert kw_check(p).lhs == mod_reduce(exact, p, 3)

    def test_sun_passes(self):
        for p in (5, 7, 11, 13):
            for x in (Fraction(0), Fraction(1), Fraction(1, 2),
                      Fraction(-2, 3)):
                if x.denominator % p == 0:
                    continue
                if 2 * padic_split(x, p).m + 1 == p:
                    continue
                assert sun_s_check(p, x).passed, (p, x)

    def test_sun_against_exact_sum(self):
        p, x = 7, Fraction(1, 2)
        exact = sum(s_seq(n, x) ** 2 for n in range(p))
        assert sun_s_check(p, x).lhs == mod_reduce(exact, p, 2)

    def test_sun_hypotheses(self):
        with pytest.raises(HypothesisViolatedError):
            sun_s_check(3, 0)
        with pytest.raises(HypothesisViolatedError):
            sun_s_check(7, Fraction(-1, 2))
        with pytest.raises(HypothesisViolatedError):
            sun_s_check(7, Fraction(-1, 2) + 7)

    def test_sun_refusals(self):
        with pytest.raises(ValueError, match=r"^p = 9 is not an odd prime$"):
            sun_s_check(9, 1)
        with pytest.raises(NonPIntegralError,
                           match=r"^1/13 is not 13-integral$"):
            sun_s_check(13, Fraction(1, 13))
        with pytest.raises(ValueError, match=r"^unknown oracle mode 'x'$"):
            sun_s_check(13, 1, oracle="x")


class TestDefaultGrid:
    def test_structure_at_7(self):
        grid = default_x_grid(7)
        assert len(grid) == 21
        assert grid[:4] == (Fraction(-1, 2), Fraction(-1, 3),
                            Fraction(-1, 4), Fraction(-1, 6))
        assert all(x.denominator % 7 for x in grid)
        assert len(set(grid)) == len(grid)
        for i in range(7):
            assert Fraction(i) in grid

    def test_random_entries_bounded(self):
        grid = default_x_grid(23)
        randoms = grid[4:14]
        assert len(randoms) == 10
        for q in randoms:
            assert abs(q.numerator) <= 20 and 1 <= q.denominator <= 20

    def test_integer_cap(self):
        grid = default_x_grid(101)
        ints = [x for x in grid if x.denominator == 1 and x >= 0]
        assert Fraction(20) in grid and Fraction(21) not in grid
        assert len(ints) >= 21

    def test_deterministic(self):
        assert default_x_grid(13) == default_x_grid(13)


class TestCongruenceReport:
    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CongruenceReport("t", 5, None, Residue(1, 25), Residue(1, 5),
                             True, None, 0)

    def test_passed_must_match_sides(self):
        with pytest.raises(ValueError):
            CongruenceReport("t", 5, None, Residue(1, 25), Residue(2, 25),
                             True, None, 0)

    def test_padic_rational_fields(self):
        px = PadicRational(Fraction(8), 7, 1, Fraction(1))
        assert (px.x, px.p, px.m, px.t) == (8, 7, 1, 1)
        assert px == padic_split(8, 7)
