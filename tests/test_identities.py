from fractions import Fraction
from math import comb

import pytest

from supercong.core import PoleError
from supercong.identities import (
    binom_conv_sum,
    lemma22_closed,
    lemma22_double_sum,
    lemma31_closed,
    lemma31_sum,
    lemma32_closed,
    lemma32_double_sum,
    liu22_closed,
    liu22_sum,
    pfaff_derivative_check,
    pfd_check,
    pfd_sides,
    weighted_binom_conv_sum,
)


class TestClosedFormDoubleSums:
    @staticmethod
    def _literal(n, kernel_den):
        # the lemma's left side as stated: (-2)^{k+l} / kernel_den(k, l)
        c = [comb(n, k) * comb(n + k, k) for k in range(n + 1)]
        return sum(c[k] * c[l] * Fraction((-2) ** (k + l), kernel_den(k, l))
                   for k in range(n + 1) for l in range(n + 1))

    def test_first_values(self):
        assert lemma22_double_sum(0) == 1
        assert lemma22_double_sum(1) == Fraction(-1, 3)
        assert lemma32_double_sum(0) == Fraction(1, 2)
        assert lemma32_double_sum(1) == Fraction(1, 2)
        for n in range(9):
            assert lemma22_double_sum(n) == self._literal(
                n, lambda k, l: (k + l + 1) * comb(k + l, k))
            assert lemma32_double_sum(n) == self._literal(
                n, lambda k, l: comb(k + l + 2, k + 1))

    def test_closed_forms_moderate_range(self):
        for n in range(21):
            assert lemma22_double_sum(n) == lemma22_closed(n)
            assert lemma32_double_sum(n) == lemma32_closed(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lemma22_double_sum(-1)
        with pytest.raises(ValueError):
            lemma32_double_sum(-2)


class TestPartialFractions:
    def test_point_example(self):
        lhs, rhs = pfd_sides(1, 3)
        assert lhs == rhs == Fraction(-1, 6)

    def test_poles_raise(self):
        for x in (0, -1, -3):
            with pytest.raises(PoleError):
                pfd_check(3, x)

    def test_integer_outside_pole_set(self):
        assert pfd_check(3, -4)
        assert pfd_check(3, 4)

    def test_zero_at_small_positive_integers(self):
        for n in range(1, 9):
            for k in range(n):
                lhs, rhs = pfd_sides(n, k + 1)
                assert lhs == 0 and rhs == 0

    def test_value_just_past_the_zeros(self):
        for n in range(9):
            lhs, rhs = pfd_sides(n, n + 1)
            assert lhs == rhs == Fraction((-1) ** n, (2 * n + 1) * comb(2 * n, n))

    def test_random_style_rationals(self):
        for n in range(11):
            for x in (Fraction(2, 7), Fraction(-8, 3), Fraction(19, 4)):
                assert pfd_check(n, x)


class TestPfaffDerivative:
    def test_single_term(self):
        # n = 1: both sides are the constant 2
        for z in (Fraction(0), Fraction(3, 7), Fraction(-2)):
            assert pfaff_derivative_check(1, z)

    def test_stated_points(self):
        for n in range(1, 26):
            assert pfaff_derivative_check(n, Fraction(3, 7))
            assert pfaff_derivative_check(n, Fraction(-2))

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            pfaff_derivative_check(0, Fraction(1, 2))


class TestInnerSums:
    def test_examples(self):
        assert liu22_sum(0, 0) == 1 == liu22_closed(0, 0)
        assert liu22_sum(1, 1) == Fraction(1, 6) == liu22_closed(1, 1)
        assert lemma31_sum(0, 0) == Fraction(1, 2) == lemma31_closed(0, 0)
        assert lemma31_sum(1, 1) == Fraction(1, 6) == lemma31_closed(1, 1)

    def test_grid(self):
        for k in range(11):
            for l in range(11):
                assert liu22_sum(k, l) == liu22_closed(k, l)
                assert lemma31_sum(k, l) == lemma31_closed(k, l)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            liu22_sum(-1, 0)
        with pytest.raises(ValueError):
            lemma31_sum(0, -1)


class TestConvolutions:
    def test_examples(self):
        assert binom_conv_sum(3, 1, 1) == (5, 5)
        assert binom_conv_sum(1, 0, 0) == (1, 1)
        assert weighted_binom_conv_sum(3, 1, 1) == (14, 14)
        assert weighted_binom_conv_sum(1, 0, 0) == (1, 1)

    def test_polynomial_in_N_grid(self):
        for N in range(1, 10):
            for k in range(7):
                for l in range(7):
                    lhs, rhs = binom_conv_sum(N, k, l)
                    assert lhs == rhs
                    lhs, rhs = weighted_binom_conv_sum(N, k, l)
                    assert lhs == rhs

    def test_prime_N_with_degenerate_tail(self):
        # k + l >= N makes trailing C(N-1, n) factors vanish
        N = 13
        for k in range(0, N, 3):
            for l in range(0, N, 3):
                lhs, rhs = binom_conv_sum(N, k, l)
                assert lhs == rhs
                lhs, rhs = weighted_binom_conv_sum(N, k, l)
                assert lhs == rhs

    def test_requires_positive_N(self):
        with pytest.raises(ValueError):
            binom_conv_sum(0, 1, 1)
        with pytest.raises(ValueError):
            weighted_binom_conv_sum(0, 1, 1)


class TestSignedIntermediateSum:
    def test_matches_alternating_closed_form(self):
        # sum_{k,l} C(n,k)C(n+k,k)C(n,l)C(n+l,l) (-1)^l/(k+l+1) = (-1)^n/(2n+1)
        for n in range(26):
            c = [comb(n, k) * comb(n + k, k) for k in range(n + 1)]
            total = Fraction(0)
            for k in range(n + 1):
                for l in range(n + 1):
                    total += c[k] * c[l] * Fraction((-1) ** l, k + l + 1)
            assert total == Fraction((-1) ** n, 2 * n + 1)
