from fractions import Fraction

import pytest

from supercong.core import (
    NonPIntegralError,
    NotInvertibleError,
    Residue,
    binom_gen,
    binom_int,
    harmonic,
    is_odd_prime,
    is_prime,
    legendre,
    mod_inv,
    mod_reduce,
    odd_primes,
    pochhammer,
    to_fraction,
)
from supercong.congruences import padic_split
from supercong.sequences import t_table_mod


def pascal_row(n):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class TestBinomInt:
    def test_small_values(self):
        assert binom_int(5, 2) == 10
        assert binom_int(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binom_int(4, 7) == 0
        assert binom_int(5, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binom_int(-1, 0)

    def test_central_value_against_pascal_recurrence(self):
        assert pascal_row(40)[20] == 137846528820
        assert binom_int(40, 20) == 137846528820

    def test_pascal_identity_up_to_60(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert binom_int(n, k) == binom_int(n - 1, k - 1) + binom_int(n - 1, k)


class TestBinomGen:
    def test_linear_and_quadratic(self):
        assert binom_gen(Fraction(-1, 2), 1) == Fraction(-1, 2)
        assert binom_gen(Fraction(-1, 2), 2) == Fraction(3, 8)
        assert binom_gen("7/3", 0) == 1

    def test_matches_integer_binomial(self):
        for x in range(0, 41, 4):
            for k in range(0, 45):
                assert binom_gen(Fraction(x), k) == binom_int(x, k)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binom_gen(Fraction(1, 2), -1)


class TestPochhammer:
    def test_values(self):
        assert pochhammer(3, 2) == 12
        assert pochhammer(-2, 3) == 0
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
        assert pochhammer(Fraction(9, 7), 0) == 1


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(3) == Fraction(11, 6)

    def test_wolstenholme(self):
        # numerator of H_{p-1} is divisible by p^2 for primes p > 3 ...
        for p in odd_primes(5, 50):
            assert mod_reduce(harmonic(p - 1), p, 2).value == 0
        # ... but not at p = 3
        assert mod_reduce(harmonic(2), 3, 2).value != 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)


class TestLegendre:
    def test_known_values(self):
        assert legendre(-1, 5) == 1
        assert legendre(-1, 7) == -1
        assert legendre(0, 11) == 0

    def test_against_square_table(self):
        for p in odd_primes(3, 97):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                want = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre(a, p) == want

    def test_rejects_bad_modulus(self):
        for bad in (1, 2, 4, 9, 15, 561):
            with pytest.raises(ValueError):
                legendre(3, bad)


class TestPrimality:
    def test_odd_primes_window(self):
        assert list(odd_primes(3, 31)) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        assert list(odd_primes(24, 28)) == []

    def test_two_is_not_odd(self):
        assert is_prime(2) and not is_odd_prime(2)

    def test_carmichael_composite(self):
        assert not is_prime(561)
        assert is_prime(2_147_483_647)  # 2^31 - 1

    def test_agrees_with_a_sieve(self):
        n = 100_000
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for i in range(2, int(n**0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, n, i)))
        assert [i for i in range(n) if is_prime(i)] == [
            i for i in range(n) if sieve[i]]

    def test_least_strong_pseudoprime_of_each_witness_set(self):
        # the least composite passing the strong test to the first 1, 2,
        # ..., 8, then 9 to 11, then 12 prime bases: each is the bound
        # below which that set is proven, so the next set must catch it
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not is_prime(n), n

    def test_refuses_past_the_last_proven_bound(self):
        # the least strong pseudoprime to the first 13 prime bases
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)


class TestModReduce:
    def test_examples(self):
        assert mod_reduce(Fraction(1, 2), 5, 2).value == 13
        assert mod_reduce(Fraction(10), 5, 2).value == 10
        assert mod_reduce(7, 3, 3) == Residue(7, 27)

    def test_non_p_integral(self):
        with pytest.raises(NonPIntegralError):
            mod_reduce(Fraction(1, 5), 5, 2)
        # one wording, core.reduce_ratio's, whichever entry refuses x
        for refuse in (lambda x: mod_reduce(x, 13, 2),
                       lambda x: t_table_mod(13, 2, x),
                       lambda x: padic_split(x, 13)):
            with pytest.raises(NonPIntegralError,
                               match=r"^1/13 is not 13-integral$"):
                refuse(Fraction(1, 13))

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            mod_reduce(Fraction(1, 2), 5, 0)


class TestModInv:
    def test_examples(self):
        assert mod_inv(Residue(2, 25)).value == 13
        assert mod_inv(Residue(1, 343)).value == 1
        assert mod_inv(Residue(3, 49)).value == 33

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inv(Residue(7, 49))


class TestResidue:
    def test_normalization(self):
        assert Residue(-1, 25).value == 24
        assert Residue(30, 25).value == 5
        assert hash(Residue(3, 7)) == hash(Residue(10, 7))
        assert len({Residue(3, 7), Residue(10, 7), Residue(3, 11)}) == 2

    def test_arithmetic(self):
        a = Residue(17, 25)
        b = Residue(13, 25)
        assert (a + b).value == 5
        assert (a - b).value == 4
        assert (a * b).value == 221 % 25
        assert (-a).value == 8
        assert (a ** 2).value == 17 * 17 % 25
        assert (a ** -1) * a == Residue(1, 25)
        assert (3 * a).value == 51 % 25
        assert (a + 8).value == 0

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            Residue(1, 25) + Residue(1, 49)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            Residue(0, 1)


class TestToFraction:
    def test_coercions(self):
        assert to_fraction("-1/2") == Fraction(-1, 2)
        assert to_fraction(3) == 3
        assert to_fraction(Fraction(2, 4)) == Fraction(1, 2)

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            to_fraction(True)
        with pytest.raises(TypeError):
            to_fraction(0.5)
