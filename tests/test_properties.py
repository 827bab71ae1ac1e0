from fractions import Fraction

from hypothesis import given, settings, strategies as st

from supercong.congruences import padic_split
from supercong.core import (
    Residue, binom_gen, binom_int, is_prime, mod_reduce)
from supercong.sequences import (
    S_poly, pfaff_check, s_seq, s_table_mod, t_seq, t_symmetry_check,
    t_table_mod)
from supercong.suite import parse_x

small_primes = st.sampled_from((3, 5, 7, 11))
primes_to_200 = st.sampled_from([p for p in range(3, 200) if is_prime(p)])
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


@given(st.integers(0, 12),
       st.fractions(min_value=-30, max_value=30, max_denominator=12))
@settings(deadline=None)
def test_pfaff_reflection_everywhere(n, z):
    assert pfaff_check(n, z)


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
