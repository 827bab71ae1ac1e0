"""Sharpness and mutation tests on the default grid, for every prime p <= 47.

A passing run only means something if the grid tells the paper's closed
forms from plausible wrong ones, and if each congruence is no stronger than
it claims.  So mutants of theorem1's right side, of each weighted_*
coefficient, of Lemma 2.1's range boundaries and of each block lemma's
closed form must be refuted at every prime, and each residue statement must
fail one power deeper at some x of each prime (the fixed-x statements: at
some prime).  Two do not, findings pinned below: sun_s holds mod p^3 for
every x at each prime 5 <= p <= 61 (it fails mod p^4, and at p = 3), and
Lemma 2.1 still holds with its top range starting at p-m+1.  A third
finding: sum (2n+1) s_n(x)^2 = 0 mod p^2 for every x at each prime 3 <= p
<= 101, so the (n+1)-weighted s sum is R(x)/2 there.  Left sides
come from the public residue tables; the closed forms are written out here,
tied to the library's right sides mod p^2.

A check at x = m + pt for t in {0, ..., e-1} and every m decides a
statement mod p^e for every x in Z_p, when both sides are polynomials of
degree < e in t mod p^e (e distinct t make a unit Vandermonde).  The
reductions are tested by brute force: every integer x < p^e matches the
polynomial through those e points, for e = 2 (every table and block
quantity) and e = 3 (sun_s).
"""

from fractions import Fraction
from math import comb

import pytest

from supercong import congruences as cg
from supercong.congruences import (
    BLOCK_LEMMAS,
    CONJECTURE_CASES,
    block_sums,
    lemma22_closed,
    lemma32_closed,
    padic_split,
    theorem1_rhs,
    theorem2_rhs,
)
from supercong.core import legendre, mod_reduce, odd_primes
from supercong.sequences import (
    S_MULT,
    _pair_weights_mod,
    s_seq,
    s_table_mod,
    t_table_mod,
)
from supercong.suite import SuiteConfig, _task_args, run_check

PMAX = 47


def _grid(sid: str) -> dict[int, list[Fraction]]:
    """The x a default run checks for sid at each prime up to PMAX."""
    cfg = SuiteConfig(statements=(sid,), prime_max=PMAX)
    cfg.validate()
    grid: dict[int, list[Fraction]] = {}
    for _, p, x in _task_args(cfg):
        grid.setdefault(p, []).append(x)
    return grid


def _square_sum(values, modulus: int, a: int = 0, b: int = 1) -> int:
    """sum_n (a n + b) values[n]^2 mod modulus."""
    return sum((a * n + b) * v * v for n, v in enumerate(values)) % modulus


def theorem1_closed(p: int, x: Fraction, sign: int = 1, p_coeff: int = 1,
                    shift: bool = True, boundary_sign: int = 1) -> Fraction:
    """(-1/p) when 2x = -1 (mod p), else (-1)^m (p + 2(x-m)) / (2x+1); the
    keywords make the mutants."""
    m = padic_split(x, p).m
    if 2 * m + 1 == p:
        return Fraction(boundary_sign * legendre(-1, p))
    return sign * (-1) ** m * (p_coeff * p + 2 * (x - m if shift else x)) / (
        2 * x + 1)


def theorem2_closed(p: int, x: Fraction) -> Fraction:
    m = padic_split(x, p).m
    if 2 * m + 1 == p:
        return Fraction(p, 4) + Fraction(3, 8) * legendre(-1, p)
    return Fraction(p, 4) - (2 * x * x + 2 * x - 1) / 4 * theorem1_closed(p, x)


def sun_s_closed(p: int, x: Fraction) -> Fraction:
    # R(x): theorem1's right side, sun_s's off the boundary and kw's at -1/2
    return theorem1_closed(p, x)


MUTANTS = {
    "drop the p": dict(p_coeff=0),
    "flip (-1)^m": dict(sign=-1),
    "p -> 2p": dict(p_coeff=2),
    "x-m -> x": dict(shift=False),
    # only the -1/2 (and -1/2 + p) probes reach the boundary branch
    "flip the Legendre branch": dict(boundary_sign=-1),
}


def test_closed_forms_are_the_library_right_sides_and_hold():
    for sid, a, closed, rhs in (
            ("theorem1", 0, theorem1_closed, theorem1_rhs),
            ("theorem2", 1, theorem2_closed, theorem2_rhs)):
        for p, xs in _grid(sid).items():
            for x in xs:
                expected = mod_reduce(closed(p, x), p, 2)
                assert expected == rhs(p, x), (sid, p, x)
                lhs = _square_sum(t_table_mod(p, 2, x).values, p * p, a, 1)
                assert lhs == expected.value, (sid, p, x)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_every_theorem1_mutant_is_refuted_at_every_prime(mutant):
    grid = _grid("theorem1")
    assert list(grid) == list(odd_primes(3, PMAX))
    for p, xs in grid.items():
        mod = p * p
        refuted = [x for x in xs
                   if _square_sum(t_table_mod(p, 2, x).values, mod)
                   != mod_reduce(theorem1_closed(p, x, **MUTANTS[mutant]),
                                 p, 2).value]
        assert refuted, (mutant, p)


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("sid", CONJECTURE_CASES)
def test_every_weighted_coefficient_mutant_is_refuted_at_every_prime(sid,
                                                                     delta):
    # sum (a n + b) t_n(x)^2 = c p (mod p^2); (c + delta) p is refuted
    a, b, x, c, min_p = CONJECTURE_CASES[sid]
    for p in odd_primes(min_p, PMAX):
        mod = p * p
        lhs = _square_sum(t_table_mod(p, 2, x).values, mod, a, b)
        assert lhs == c * p % mod, (sid, p)
        assert lhs != (c + delta) * p % mod, (sid, delta, p)


@pytest.mark.parametrize("sid, a, closed", [
    ("theorem1", 0, theorem1_closed), ("theorem2", 1, theorem2_closed)])
def test_headline_closed_forms_fail_mod_p3_at_every_prime(sid, a, closed):
    for p, xs in _grid(sid).items():
        mod = p**3
        deeper = [_square_sum(t_table_mod(p, 3, x).values, mod, a, 1)
                  == mod_reduce(closed(p, x), p, 3).value for x in xs]
        assert not all(deeper), (sid, p)


# the primes <= 47 at which a fixed-x statement holds one power deeper
HOLDS_DEEPER = {"weighted_8n5": {7, 41, 43}, "weighted_32n21": set(),
                "weighted_18n7": {7}, "weighted_72n49": set(), "kw": {7}}


@pytest.mark.parametrize("sid", HOLDS_DEEPER)
def test_fixed_x_statements_fail_one_power_deeper(sid):
    if sid == "kw":  # sum s_n(-1/2)^2 = (-1/p) mod p^3, so try p^4
        def deeper(p):
            values = s_table_mod(p, 4, Fraction(-1, 2)).values
            return _square_sum(values, p**4) == legendre(-1, p) % p**4
        min_p = 3
    else:  # sum (a n + b) t_n(x)^2 = c p mod p^2, so try p^3
        a, b, x, c, min_p = CONJECTURE_CASES[sid]

        def deeper(p):
            values = t_table_mod(p, 3, x).values
            return _square_sum(values, p**3, a, b) == c * p % p**3
    primes = set(odd_primes(min_p, PMAX))
    assert {p for p in primes if deeper(p)} == HOLDS_DEEPER[sid]
    assert HOLDS_DEEPER[sid] < primes


def _s_square_sum(p: int, e: int, x: Fraction) -> int:
    return _square_sum(s_table_mod(p, e, x).values, p**e)


def _sun_s_sides(p: int, e: int, x: Fraction) -> tuple[int, int]:
    """sum_{n<p} s_n(x)^2 and R(x), both mod p^e."""
    return _s_square_sum(p, e, x), mod_reduce(sun_s_closed(p, x), p, e).value


def _is_polynomial_in_t(rows, degree: int, mod: int) -> bool:
    """Each column of rows[t], t = 0, 1, ..., equals mod `mod` the
    polynomial of the given degree through its first degree + 1 entries
    (Newton's forward differences)."""
    for column in zip(*rows):
        diffs, d = [], list(column[:degree + 1])
        while d:
            diffs.append(d[0])
            d = [b - a for a, b in zip(d, d[1:])]
        if any((sum(comb(t, j) * c for j, c in enumerate(diffs)) - v) % mod
               for t, v in enumerate(column)):
            return False
    return True


def test_sun_s_holds_mod_p3_on_the_grid_and_fails_mod_p4():
    # a finding, not a claim of the paper: the statement says mod p^2, and
    # kw (its x = -1/2 case) mod p^3.  sum s_n(x)^2 = R(x) mod p^3 at
    # x = m + pt for t in {0, 1, 2} and every m, so for every x in Z_p
    # (test_three_points_decide_sun_s_mod_p3), at each prime 5 <= p <= 61
    for p in odd_primes(5, 61):
        for m in range(p):
            for t in range(3):
                s3, r3 = _sun_s_sides(p, 3, Fraction(m + p * t))
                assert s3 == r3, (p, m, t)
    # p = 3, which sun_s's hypothesis p > 3 leaves out, fails mod 27
    assert [x for x in range(27)
            if len(set(_sun_s_sides(3, 3, Fraction(x)))) > 1] == [
        1, 7, 10, 16, 19, 25]
    for p, xs in _grid("sun_s").items():
        xs = [x for x in xs if 2 * padic_split(x, p).m + 1 != p]  # excluded
        fails_p4 = []
        for x in xs:
            s3 = _s_square_sum(p, 3, x)
            s4 = _s_square_sum(p, 4, x)
            assert s3 == mod_reduce(sun_s_closed(p, x), p, 3).value, (p, x)
            fails_p4.append(s4 != mod_reduce(sun_s_closed(p, x), p, 4).value)
            if p <= 13:  # the exact rationals agree with the tables
                exact = sum(s_seq(n, x) ** 2 for n in range(p))
                assert mod_reduce(exact, p, 4).value == s4
        assert any(fails_p4), p


def test_odd_weighted_s_sum_vanishes_mod_p2_and_not_mod_p3():
    # a finding, not a claim of the paper: sum_{n<p} (2n+1) s_n(x)^2 = 0
    # mod p^2 at x = m + pt for t in {0, 1} and every m, so for every x in
    # Z_p (test_two_points_decide_mod_p2), at each prime 3 <= p <= 101.
    # As (n+1) = ((2n+1) + 1)/2, sum (n+1) s_n(x)^2 = R(x)/2 then, half of
    # sun_s's sum, 2x = -1 included.  Mod p^3 it fails at some m of each
    # of those primes.
    for p in odd_primes(3, 101):
        fails_p3 = []
        for m in range(p):
            for t in range(2):
                x = Fraction(m + p * t)
                table = s_table_mod(p, 2, x)
                assert table.square_sum(2, 1).value == 0, (p, m, t)
                assert table.square_sum(1, 1) == mod_reduce(
                    sun_s_closed(p, x) / 2, p, 2), (p, m, t)
            odd = s_table_mod(p, 3, Fraction(m)).square_sum(2, 1)
            fails_p3.append(odd.value != 0)
            if p <= 7 and m < 3:  # the exact rationals agree with the tables
                exact = sum((2 * n + 1) * s_seq(n, m) ** 2 for n in range(p))
                assert mod_reduce(exact, p, 3) == odd, (p, m)
        assert any(fails_p3), p


@pytest.mark.parametrize("p", (5, 7))
def test_three_points_decide_sun_s_mod_p3(p):
    # both sides of sun_s at x = m + pt are quadratics in t mod p^3: every
    # integer x < p^3 matches the quadratic through t = 0, 1, 2, and some
    # m needs the square term, so two points would not do
    affine = []
    for m in range(p):
        rows = [_sun_s_sides(p, 3, Fraction(m + p * t)) for t in range(p * p)]
        assert _is_polynomial_in_t(rows, 2, p**3), (p, m)
        affine.append(_is_polynomial_in_t(rows, 1, p**3))
    assert not all(affine), p


def _mod_p2_quantities(p: int, x: Fraction) -> tuple[int, ...]:
    """Every table and block quantity a check reads mod p^2 at x: the
    square sums of theorem1, theorem2 and sun_s, the (n+1)-weighted s sum
    of the finding above, lemma21's pair weights,
    theorem1's and theorem2's right sides and, off m = (p-1)/2, the nine
    block sums of both splits (at -1-x when m > (p-1)/2)."""
    t, s = t_table_mod(p, 2, x), s_table_mod(p, 2, x)
    out = [t.square_sum(0, 1).value, t.square_sum(1, 1).value,
           s.square_sum(0, 1).value, s.square_sum(1, 1).value,
           *_pair_weights_mod(p, 2, mod_reduce(x * (x + 1), p, 2).value,
                              S_MULT),
           theorem1_rhs(p, x).value, theorem2_rhs(p, x).value]
    m = padic_split(x, p).m
    if m != (p - 1) // 2:
        y = -1 - x if m > (p - 1) // 2 else x
        out += [r.value for w in (False, True) for r in block_sums(p, y, w)]
    return tuple(out)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_two_points_decide_mod_p2(p):
    # each quantity at x = m + pt is affine in t mod p^2: every integer
    # x < p^2 matches the line through x = m and x = m + p
    for m in range(p):
        rows = [_mod_p2_quantities(p, Fraction(m + p * t)) for t in range(p)]
        assert _is_polynomial_in_t(rows, 1, p * p), (p, m)


def _refuted(sid: str, p: int, xs: list[Fraction]) -> bool:
    """Some default-grid task of sid at p, oracle off, fails as a congruence
    (a program fault does not count)."""
    return any(r.passed is False and r.skipped_reason is None
               for r in (run_check(sid, p, x) for x in xs))


def _moved_ranges(low: int, top: int):
    """Lemma 2.1's ranges with the boundaries m+1 and p-m moved by low, top."""
    def ranges(p: int, m: int) -> tuple[range, range, range]:
        b1, b2 = m + 1 + low, p - m + top
        return range(0, b1), range(b1, b2), range(b2, p)
    return ranges


@pytest.mark.parametrize("low, top", ((1, 0), (-1, 0), (0, -1)))
def test_every_lemma21_boundary_mutant_is_refuted_at_every_prime(
        low, top, monkeypatch):
    monkeypatch.setattr(cg, "_block_ranges", _moved_ranges(low, top))
    grid = _grid("lemma21")
    assert list(grid) == list(odd_primes(3, PMAX))
    for p, xs in grid.items():
        assert _refuted("lemma21", p, xs), (low, top, p)


def test_lemma21_top_boundary_raised_by_one_still_holds(monkeypatch):
    # a finding: at k = p-m the middle formula is (-1)^{m+k+1} pt C(p,k) /
    # ((p-2m) C(k,m)), and p | C(p,k), so it is 0 mod p^2 like the top
    # range.  The mod p^2 route cannot evaluate it (it needs p!, no unit),
    # so the exact route shows it, at every grid x of every prime
    monkeypatch.setattr(cg, "_block_ranges", _moved_ranges(0, 1))
    for p, xs in _grid("lemma21").items():
        for x in xs:
            x, _, m = cg._split(p, x)
            if m > (p - 1) // 2:
                x, _, m = cg._split(p, -1 - x)
            sides = cg._lemma21_exact(p, x, m, range(p))
            assert all(lhs == rhs for lhs, rhs in sides), (p, x)


# each block lemma with the other lemma's closed form c(m)
SWAPPED_CLOSED = {
    "lemma23": lemma32_closed,
    "lemma24": lemma32_closed,
    "lemma33": lemma22_closed,
    "lemma34": lambda m: lemma22_closed(m) - Fraction(1, 4),
}


@pytest.mark.parametrize("sid", SWAPPED_CLOSED)
def test_every_block_lemma_closed_form_swap_is_refuted_at_every_prime(
        sid, monkeypatch):
    weighted, block, _ = BLOCK_LEMMAS[sid]
    monkeypatch.setitem(BLOCK_LEMMAS, sid,
                        (weighted, block, SWAPPED_CLOSED[sid]))
    grid = _grid(sid)
    assert list(grid) == list(odd_primes(3, PMAX))
    for p, xs in grid.items():
        assert _refuted(sid, p, xs), (sid, p)
