import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from supercong.congruences import (
    BLOCK_LEMMAS, _weighted_square_sum, block_lemma_check,
    padic_split, sun_s_check, theorem1_rhs, theorem2_rhs)
from supercong.core import (
    HypothesisViolatedError, NonPIntegralError, Residue, binom_gen, binom_int,
    is_prime, legendre, mod_reduce)
from supercong.identities import pfaff_derivative_check
from supercong.sequences import (
    S_MULT, S_poly, SequenceTable, T_MULT, _pair_weights_exact,
    _pair_weights_mod, _row_exact, _table_values, pfaff_check, s_seq,
    s_table_mod, t_seq, t_symmetry_check, t_table_mod)
from supercong.suite import parse_x

small_primes = st.sampled_from((3, 5, 7, 11))
primes_to_200 = st.sampled_from([p for p in range(3, 200) if is_prime(p)])
primes_to_500 = st.sampled_from([p for p in range(3, 500) if is_prime(p)])
exponents = st.sampled_from((1, 2, 3))


def p_integral(p: int, num_bound: int = 1000, den_bound: int = 60):
    return st.builds(
        Fraction,
        st.integers(-num_bound, num_bound),
        st.integers(1, den_bound).filter(lambda d: d % p != 0),
    ).filter(lambda q: q.denominator % p != 0)


@given(small_primes, exponents, st.data())
@settings(deadline=None)
def test_mod_reduce_is_a_ring_morphism(p, e, data):
    a = data.draw(p_integral(p))
    b = data.draw(p_integral(p))
    ra, rb = mod_reduce(a, p, e), mod_reduce(b, p, e)
    assert mod_reduce(a + b, p, e) == ra + rb
    assert mod_reduce(a - b, p, e) == ra - rb
    assert mod_reduce(a * b, p, e) == ra * rb


@given(small_primes, st.data())
@settings(deadline=None)
def test_padic_split_round_trip(p, data):
    m = data.draw(st.integers(0, p - 1))
    t = data.draw(p_integral(p))
    px = padic_split(m + p * t, p)
    assert (px.m, px.t) == (m, t)


@given(st.integers(1, 80), st.integers(0, 80))
def test_pascal_identity(n, k):
    assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)


@given(st.integers(0, 60), st.integers(0, 65))
def test_binom_gen_matches_integer_binomials(x, k):
    assert binom_gen(Fraction(x), k) == binom_int(x, k)


# integers, -1/2, and fractions whose numerator takes either sign, with
# denominators that share primes with k! (so the exact steps of the
# oracles rest on their M) as well as ones that do not
pair_weight_args = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.just(Fraction(-1, 2)),
    st.builds(Fraction, st.integers(-300, 300),
              st.integers(2, 40) | st.sampled_from((49, 11 * 13))))


def literal_weights(x, mult, kmax):
    return [binom_gen(x, k) * binom_gen(x + k, k) * mult**k
            for k in range(kmax + 1)]


@given(st.sampled_from((3, 5, 7, 13, 29)), exponents,
       st.sampled_from((T_MULT, S_MULT)), pair_weight_args, st.data())
@settings(deadline=None)
def test_pair_weights_match_the_literal_product(p, e, mult, x, data):
    assume(x.denominator % p)
    u = mod_reduce(x * (x + 1), p, e).value
    assert _pair_weights_mod(p, e, u, mult) == tuple(
        mod_reduce(w, p, e).value for w in literal_weights(x, mult, p - 1))
    kmax = data.draw(st.integers(0, 60))
    c = data.draw(st.integers(-3, 5))
    num, den = _pair_weights_exact(x, kmax, c)
    assert [Fraction(v, den) for v in num] == literal_weights(x, c, kmax)


@given(st.integers(0, 60), pair_weight_args, st.integers(-3, 5))
@settings(deadline=None)
def test_exact_rows_match_the_literal_sums(n, x, mult):
    # S_poly at y = -mult is the pair-weight sum of any multiplier
    assert S_poly(n, x, -mult) == sum(
        binom_int(n, k) * w
        for k, w in enumerate(literal_weights(x, mult, n)))


@given(st.integers(0, 60), pair_weight_args)
@settings(deadline=None)
def test_one_exact_pass_gives_both_families(n, x):
    # the oracle's two numerators over its one denominator are s_n(x) and
    # t_n(x), the literal sums at y = -1 and y = -2
    s, t, den = _row_exact(n, x)
    assert (Fraction(s, den), Fraction(t, den)) == (S_poly(n, x, -1),
                                                    S_poly(n, x, -2))


@given(st.integers(0, 12),
       st.fractions(min_value=-30, max_value=30, max_denominator=12))
@settings(deadline=None)
def test_pfaff_reflection_everywhere(n, z):
    assert pfaff_check(n, z)
    assert n == 0 or pfaff_derivative_check(n, z)


@given(st.integers(0, 14),
       st.fractions(min_value=-30, max_value=30, max_denominator=12))
@settings(deadline=None)
def test_t_reflection_everywhere(n, x):
    assert t_symmetry_check(n, x)



@given(st.data(), st.integers(0, 60))
@settings(deadline=None)
def test_sequences_match_the_literal_definition(data, n):
    # integers in [0, n] make the higher terms vanish; -1/2 is the fixed
    # point of x -> -1-x; the rest mix sign, numerator and denominator height
    x = data.draw(st.one_of(
        st.integers(0, n).map(Fraction),
        st.just(Fraction(-1, 2)),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
        st.builds(Fraction, st.integers(-10**6, 10**6),
                  st.integers(1, 10**4)),
    ))
    assert t_seq(n, x) == S_poly(n, x, -2)
    assert s_seq(n, x) == S_poly(n, x, -1)

@given(small_primes, exponents, st.integers(-500, 500), st.integers(-500, 500))
def test_residue_arithmetic_matches_integers(p, e, a, b):
    mod = p**e
    ra, rb = Residue(a % mod, mod), Residue(b % mod, mod)
    assert (ra + rb).value == (a + b) % mod
    assert (ra - rb).value == (a - b) % mod
    assert (ra * rb).value == (a * b) % mod
    assert (ra**3).value == pow(a, 3, mod)


@given(st.fractions(min_value=-100, max_value=100, max_denominator=40))
def test_parse_x_round_trips_fraction_strings(q):
    assert parse_x(str(q)) == q


def table_argument(p: int):
    """p-integral x, weighted towards the edges of the table's arguments."""
    offset = p_integral(p, 40, 12).map(lambda t: p * t)
    return st.one_of(
        offset.map(lambda d: (p - 1) // 2 + d),  # m = (p-1)/2
        st.integers(-2 * p, 2 * p).map(Fraction),  # integers
        offset.map(lambda d: Fraction(-1, 2) + d),  # x = -1/2 mod p
        p_integral(p, 200, 30),
    )


@given(primes_to_200, exponents,
       st.sampled_from(((t_table_mod, t_seq), (s_table_mod, s_seq))),
       st.data())
@settings(deadline=None, max_examples=25)
def test_tables_match_the_exact_sequences(p, e, family, data):
    build, exact = family
    x = data.draw(table_argument(p))
    table = build(p, e, x, oracle="full")  # raises on any row off the oracle
    assert len(table) == p and table.modulus == p**e
    n = data.draw(st.integers(0, p - 1))
    for row in {0, 1, n, p - 1}:
        assert table[row] == mod_reduce(exact(row, x), p, e).value


@given(primes_to_200, exponents, st.sampled_from((T_MULT, S_MULT)),
       st.data())
@settings(deadline=None, max_examples=60)
def test_recurrence_table_is_the_binomial_transform(p, e, mult, data):
    # the recurrence in n against the literal binomial transform sum_k
    # C(n,k) w_k of the pair weights mod p^e; with a boundary term the same
    # loop gives the prefix sums over k <= K
    x = data.draw(table_argument(p))
    u = mod_reduce(x * (x + 1), p, e).value
    w = _pair_weights_mod(p, e, u, mult)
    K = data.draw(st.integers(0, p - 1))
    terms = [[comb(n, k) * w[k] for k in range(n + 1)] for n in range(p)]
    assert _table_values(p, e, u, mult) == tuple(
        sum(row) % p**e for row in terms)
    assert _table_values(p, e, u, mult, (K, w)) == tuple(
        sum(row[:K + 1]) % p**e for row in terms)


@pytest.mark.parametrize("sign", (1, 0, -1))
@given(st.sampled_from((3, 5, 7, 13, 29)), exponents, st.integers(1, 100),
       st.integers(-100, 100), st.data())
@settings(deadline=None)
def test_weighted_square_sum_is_the_literal_loop(sign, p, e, size, b, data):
    a = sign * size
    mod = p**e
    values = tuple(data.draw(st.lists(st.integers(0, mod - 1),
                                      min_size=p, max_size=p)))
    table = SequenceTable(p, e, T_MULT, values)
    acc = 0
    for n in range(p):
        acc += (a * n + b) * values[n] ** 2
    assert _weighted_square_sum(table, a, b) == Residue(acc % mod, mod)
    for _ in range(2):  # the moments summed now, then read back
        assert table.square_sum(a, b) == Residue(acc % mod, mod)
    # only the moments with a non-zero coefficient in a S1 + (b-a) S0
    squares = [v * v for v in values]
    assert table.moments == [
        sum(squares) % mod if b != a else None,
        sum((n + 1) * sq for n, sq in enumerate(squares)) % mod if a else None]


def _closed_forms_reference(p, x):
    """theorem1's, theorem2's and sun_s's right sides as rationals, reduced
    by mod_reduce; sun_s's is None where 2x = -1 (mod p) excludes it."""
    m = padic_split(x, p).m
    if 2 * m + 1 == p:
        leg = legendre(-1, p)
        return (mod_reduce(leg, p, 2),
                mod_reduce(Fraction(p, 4) + Fraction(3, 8) * leg, p, 2), None)
    ratio = (-1) ** m * (p + 2 * (x - m)) / (2 * x + 1)
    return (mod_reduce(ratio, p, 2),
            mod_reduce(Fraction(p, 4) - (2 * x * x + 2 * x - 1) / 4 * ratio,
                       p, 2),
            mod_reduce(ratio, p, 2))


@given(primes_to_500, st.data())
@settings(deadline=None)
def test_closed_forms_mod_p2_are_the_rational_ones(p, data):
    # the right sides are evaluated in Z/p^2; reducing the rational closed
    # forms is a ring homomorphism, so both give the same residues,
    # 2x = -1 (m = (p-1)/2) included
    m = data.draw(st.sampled_from((0, (p - 1) // 2, p - 1))
                  | st.integers(0, p - 1))
    t = data.draw(p_integral(p))
    x = m + p * t
    if p < 200 and 2 * m + 1 < p:  # the block lemmas' regime; sums cost p^2
        for sid, (_, block, closed) in BLOCK_LEMMAS.items():
            assert block_lemma_check(sid, p, x).rhs == mod_reduce(
                p * closed(m) * (t if block else 1), p, 2), sid
    t1, t2, sun = _closed_forms_reference(p, x)
    assert theorem1_rhs(p, x) == t1
    assert theorem2_rhs(p, x) == t2
    if p > 3 and sun is not None:
        assert sun_s_check(p, x).rhs == sun
    elif p > 3:
        with pytest.raises(HypothesisViolatedError, match="is excluded"):
            sun_s_check(p, x)


@given(primes_to_500, st.integers(-1000, 1000), st.integers(1, 20))
@settings(deadline=None)
def test_closed_forms_refuse_a_non_p_integral_x(p, a, d):
    assume(a % p)
    x = Fraction(a, p * d)
    with pytest.raises(NonPIntegralError) as split:
        padic_split(x, p)  # the split the rational closed forms start from
    for rhs in (theorem1_rhs, theorem2_rhs, sun_s_check):
        if rhs is sun_s_check and p == 3:
            continue  # refused for p > 3 first
        with pytest.raises(NonPIntegralError) as refused:
            rhs(p, x)
        assert str(refused.value) == str(split.value)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(n):
    assert n < 5
"""


def test_a_failing_property_is_reported_as_one_failure(tmp_path):
    # hypothesis's failure report imports libcst, and so mypy_extensions,
    # whose DeprecationWarning the "error" filter would turn into an
    # INTERNALERROR (exit 3) that stops the whole run
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-q",
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout and "INTERNALERROR" not in run.stdout
