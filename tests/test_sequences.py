from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, repeat
from math import comb
from operator import mul

import pytest

from supercong import sequences
from supercong.core import (
    NonPIntegralError, OracleMismatchError, binom_gen, legendre, mod_reduce,
    odd_primes)
from supercong.sequences import (
    S_poly,
    S_MULT,
    SequenceTable,
    T_MULT,
    _audit_table,
    _inv_squares,
    _oracle_rows,
    _pair_weights_exact,
    _pair_weights_mod,
    _row_exact,
    _table,
    _table_values,
    j2,
    pfaff_check,
    s_seq,
    s_table_mod,
    t_seq,
    t_symmetry_check,
    t_table_mod,
)


def u_mod(p: int, e: int, x: Fraction) -> int:
    """u = x(x+1) mod p^e, the one input of the fast route."""
    return mod_reduce(x * (x + 1), p, e).value


X_GRID = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(-1, 3),
          Fraction(-1, 4), Fraction(-1, 6), Fraction(2, 5)]


class TestExactSequences:
    def test_degree_zero(self):
        assert S_poly(0, Fraction(5, 7), Fraction(-9)) == 1
        assert t_seq(0, Fraction(3, 4)) == 1
        assert s_seq(0, Fraction(3, 4)) == 1

    def test_degree_one_closed_form(self):
        # S_poly(1, x, -1) = 1 + x(x+1)
        for x in X_GRID:
            assert S_poly(1, x, -1) == 1 + x * (x + 1)

    def test_t_values_at_minus_half(self):
        assert t_seq(1, Fraction(-1, 2)) == Fraction(1, 2)
        assert t_seq(2, Fraction(-1, 2)) == Fraction(9, 16)

    def test_t_at_zero_is_one(self):
        assert all(t_seq(n, 0) == 1 for n in range(12))
        assert all(s_seq(n, 0) == 1 for n in range(12))

    def test_j2_values(self):
        assert j2(0) == 1
        assert j2(1) == Fraction(3, 4)
        assert j2(2) == Fraction(41, 64)
        for n in range(11):
            assert S_poly(n, Fraction(-1, 2), -1) == j2(n)

    def test_t_is_S_at_minus_two(self):
        for n in range(41):
            for x in (Fraction(-1, 2), Fraction(2, 5), Fraction(3)):
                assert t_seq(n, x) == S_poly(n, x, -2)

    def test_negative_index_rejected(self):
        for fn in (t_seq, s_seq):
            with pytest.raises(ValueError):
                fn(-1, Fraction(1, 2))


class TestExactOracleSize:
    """The exact oracles carry only the denominator they need, M b^{2n}
    with M the part of (2n)! whose primes divide b; integers much longer
    than that make the audit slower."""

    def test_row_stays_small(self):
        s, t, den = _row_exact(400, Fraction(29, 11))
        assert max(s.bit_length(), t.bit_length(), den.bit_length()) < 4000

    def test_pair_weights_stay_small(self):
        num, den = _pair_weights_exact(Fraction(29, 11), 300, 1)
        assert max(v.bit_length() for v in num + [den]) < 3000


class TestRecurrence:
    """The recurrence in n that builds every table, for any multiplier c:
    N^2 f_N = ((3-c) N(N-1) + 1 + c x(x+1)) f_{N-1}
              + (2c-3) (N-1)^2 f_{N-2} - (c-1) (N-1)(N-2) f_{N-3}."""

    XS = X_GRID + [Fraction(-7, 3), Fraction(11, 4), Fraction(-5)]

    @pytest.mark.parametrize("mult", range(-3, 6))
    def test_holds_exactly_over_q(self, mult):
        for x in self.XS:
            f = [S_poly(n, x, -mult) for n in range(40)]
            at = lambda n: f[n] if n >= 0 else 0
            for n in range(1, 40):
                assert n * n * f[n] == (
                    ((3 - mult) * n * (n - 1) + 1 + mult * x * (x + 1))
                    * at(n - 1)
                    + (2 * mult - 3) * (n - 1) ** 2 * at(n - 2)
                    - (mult - 1) * (n - 1) * (n - 2) * at(n - 3)), (x, n)

    @staticmethod
    def _prefix_misses(mult: int, x: Fraction, boundary) -> list:
        """The (K, N), K <= 11 and N <= 24, at which the prefix sums P_K(N)
        = sum_{k<=K} C(N,k) w_k of w_k = C(x,k) C(x+k,k) mult^k break the
        recurrence with -boundary(K) C(N-1,K) w_{K+1} on the right."""
        w = [binom_gen(x, k) * binom_gen(x + k, k) * mult**k
             for k in range(13)]
        misses = []
        for K in range(12):
            P = [sum(comb(N, k) * w[k] for k in range(K + 1))
                 for N in range(25)]
            at = lambda n: P[n] if n >= 0 else 0
            for N in range(1, 25):
                rest = (N * N * P[N]
                        - ((3 - mult) * N * (N - 1) + 1 + mult * x * (x + 1))
                        * at(N - 1)
                        - (2 * mult - 3) * (N - 1) ** 2 * at(N - 2)
                        + (mult - 1) * (N - 1) * (N - 2) * at(N - 3))
                if rest != -boundary(K) * comb(N - 1, K) * w[K + 1]:
                    misses.append((K, N))
        return misses

    @pytest.mark.parametrize("mult", (1, 2, 3))
    def test_prefix_sums_take_one_boundary_term(self, mult):
        # exactly over Q: the boundary term is -(K+1)^2 C(N-1,K) w_{K+1},
        # and the grid refutes K^2 in its place
        for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(5),
                  Fraction(-1, 2)):
            assert self._prefix_misses(mult, x, lambda K: (K + 1) ** 2) == []
            assert self._prefix_misses(mult, x, lambda K: K * K)
            # and the table loop steps it mod p^e
            for p, e in ((29, 1), (29, 2), (31, 3)):
                u = u_mod(p, e, x)
                w = _pair_weights_mod(p, e, u, mult)
                for K in range(12):
                    assert _table_values(p, e, u, mult, (K, w)) == tuple(
                        sum(comb(n, k) * w[k] for k in range(K + 1)) % p**e
                        for n in range(p)), (x, p, e, K)

    @pytest.mark.parametrize("mult", range(-3, 6))
    def test_tables_for_any_multiplier(self, mult):
        # the table at u = x(x+1) is the exact rows of x, of its
        # reflection -1-x and of x + p^e, which have the same u mod p^e
        exact = cache(lambda n, y: S_poly(n, y, -mult))  # x, -1-x recur
        for p in (3, 5, 7, 13):
            for e in (1, 2, 3):
                for x in self.XS:
                    if x.denominator % p == 0:
                        continue
                    values = _table_values(p, e, u_mod(p, e, x), mult)
                    for y in (x, -1 - x, x + p**e):
                        assert values == tuple(
                            mod_reduce(exact(n, y), p, e).value
                            for n in range(p)), (p, e, y)


def _coefficients(N, x, c):
    """A_N, B_N and C_N of the recurrence N^2 f_N = A_N f_{N-1} + B_N f_{N-2}
    - C_N f_{N-3}, as the module docstring of `sequences` states them."""
    return ((3 - c) * N * (N - 1) + 1 + c * x * (x + 1),
            (2 * c - 3) * (N - 1) ** 2, (c - 1) * (N - 1) * (N - 2))


def _wrong_A(N, x, c):
    A, B, C = _coefficients(N, x, c)
    return A + 1, B, C


def _wrong_B(N, x, c):
    A, B, C = _coefficients(N, x, c)
    return A, B + (N - 1) ** 2, C  # 2c-2 for 2c-3


def _wrong_C(N, x, c):
    A, B, C = _coefficients(N, x, c)
    return A, B, C + (N - 1) * (N - 2)  # c for c-1


class TestCertificate:
    """The recurrence proved by creative telescoping, as the docstring of
    _table_values states it: with F(N,k) = C(N,k) w_k, w_k = C(x,k)
    C(x+k,k) c^k, and G(N,k) = -k^2 C(N-1,k-1) w_k, the summand L(N,k) =
    N^2 F(N,k) - A_N F(N-1,k) - B_N F(N-2,k) + C_N F(N-3,k) is G(N,k+1) -
    G(N,k)."""

    @staticmethod
    def _cleared(N, k, x, c, coefficients=_coefficients):
        """N(N-1)(N-2) (L(N,k) - G(N,k+1) + G(N,k)) / F(N,k), each C(N-i,k)
        / C(N,k) as (N-k)_i / (N)_i and w_{k+1}/w_k as c (x-k)(x+k+1) /
        (k+1)^2: a polynomial of degree at most 5, 3, 2 and 1 in N, k, x
        and c, written out unexpanded."""
        A, B, C = coefficients(N, x, c)
        d = N - k
        lhs = (N**3 * (N - 1) * (N - 2) - A * d * (N - 1) * (N - 2)
               - B * d * (d - 1) * (N - 2) + C * d * (d - 1) * (d - 2))
        rhs = (k**3 - c * d * (x - k) * (x + k + 1)) * (N - 1) * (N - 2)
        return lhs - rhs

    # one more point per variable than its degree: a polynomial of those
    # degrees that vanishes on the grid is 0
    GRID = [(N, k, x, c) for N in range(6) for k in range(4)
            for x in range(3) for c in range(2)]

    def test_certificate_is_a_polynomial_identity(self):
        assert [self._cleared(*point) for point in self.GRID] == [0] * 144

    @pytest.mark.parametrize("wrong", (_wrong_A, _wrong_B, _wrong_C))
    def test_one_wrong_coefficient_breaks_it(self, wrong):
        assert any(self._cleared(*point, coefficients=wrong)
                   for point in self.GRID)

    @staticmethod
    def _F(N, k, x, c):
        return comb(N, k) * binom_gen(x, k) * binom_gen(x + k, k) * c**k \
            if N >= 0 else 0

    def _L(self, N, k, x, c):
        A, B, C = _coefficients(N, x, c)
        F = self._F
        return (N * N * F(N, k, x, c) - A * F(N - 1, k, x, c)
                - B * F(N - 2, k, x, c) + C * F(N - 3, k, x, c))

    def _G(self, N, k, x, c):
        """G(N,k) = -k^2 C(N-1,k-1) w_k, as -(k^3/N) F(N,k), N >= 1."""
        return -Fraction(k**3, N) * self._F(N, k, x, c)

    def test_first_two_rows(self):
        # N = 1, 2, which the factor N(N-1)(N-2) clears: L and G are
        # polynomials of degree at most 4 in x and 2 in c there, so a
        # 5 x 3 grid decides each k in [0, N+1]
        for N in (1, 2):
            for k in range(N + 2):
                for x in range(5):
                    for c in range(3):
                        assert self._L(N, k, x, c) == (
                            self._G(N, k + 1, x, c) - self._G(N, k, x, c)), (
                            N, k, x, c)

    def test_telescoped_sums(self):
        # summed over k <= K the certificate leaves the cut loop's boundary
        # term G(N,K+1) = -(K+1)^2 C(N-1,K) w_{K+1}, which is 0 once K >= N,
        # where the sum is the plain recurrence
        for x in (Fraction(-2, 7), Fraction(3)):
            for c in (-2, 1, 2):
                w = [binom_gen(x, k) * binom_gen(x + k, k) * c**k
                     for k in range(11)]
                for N in range(1, 9):
                    for K in range(N + 2):
                        boundary = -(K + 1) ** 2 * comb(N - 1, K) * w[K + 1]
                        assert boundary == self._G(N, K + 1, x, c)
                        assert sum(self._L(N, k, x, c) for k in range(
                            K + 1)) == boundary, (x, c, N, K)
                        assert K < N or boundary == 0

    @pytest.mark.parametrize("c", range(-3, 6))
    def test_loop_steps_are_the_certified_coefficients(self, c, monkeypatch):
        # the table loop adds 1 + c u, u = x(x+1), to its first step list
        monkeypatch.setattr(sequences, "_STEPS", {})
        A, B, C = sequences._steps(61, c)
        assert [(a + 1, b, cc) for a, b, cc in zip(A, B, C)] == [
            _coefficients(N, 0, c) for N in range(1, 61)]


class TestPfaff:
    def test_degree_one_both_sides(self):
        # both sides reduce to 1 - 2z
        for z in (Fraction(17, 5), Fraction(0), Fraction(-3, 2)):
            assert pfaff_check(1, z)

    def test_stated_points(self):
        for n in range(31):
            assert pfaff_check(n, Fraction(17, 5))
            assert pfaff_check(n, Fraction(1, 2))


def _bonnet(n, z):
    """The coefficients of Bonnet's recurrence (n+1) f_{n+1} - (2n+1)(1-2z)
    f_n + n f_{n-1} = 0 for f_n(z) = sum_k C(n,k) C(n+k,k) (-z)^k."""
    return n + 1, (2 * n + 1) * (1 - 2 * z), n


def _wrong_first(n, z):
    a, b, c = _bonnet(n, z)
    return a + 1, b, c  # n+2 for n+1


def _wrong_middle(n, z):
    a, b, c = _bonnet(n, z)
    return a, b + 2 * (1 - 2 * z), c  # 2n+3 for 2n+1


def _wrong_last(n, z):
    a, b, c = _bonnet(n, z)
    return a, b, c + 1  # n+1 for n


class TestPfaffCertificate:
    """pfaff_check proved for every n and z by creative telescoping: with
    F(n,k) = C(n,k) C(n+k,k) (-z)^k and G(n,k) = -2(2n+1) C(n,k-1)
    C(n+k-1,k-1) (-z)^k, the summand L(n,k) = (n+1) F(n+1,k) - (2n+1)(1-2z)
    F(n,k) + n F(n-1,k) of Bonnet's recurrence is G(n,k+1) - G(n,k)."""

    @staticmethod
    def _cleared(n, k, z, coefficients=_bonnet):
        """(n+1-k)(n+k) (L(n,k) - G(n,k+1) + G(n,k)) / F(n,k) for 0 <= k <=
        n, n >= 1, with F(n+1,k)/F(n,k) = (n+1+k)/(n+1-k), F(n-1,k)/F(n,k) =
        (n-k)/(n+k), G(n,k)/F(n,k) = -2(2n+1) k^2/((n+1-k)(n+k)) and
        G(n,k+1)/F(n,k) = 2(2n+1) z: a polynomial of degree at most 3, 2 and
        1 in n, k and z, written out unexpanded; its z terms cancel."""
        a, b, c = coefficients(n, z)
        lhs = (a * (n + 1 + k) * (n + k) - b * (n + 1 - k) * (n + k)
               + c * (n - k) * (n + 1 - k))
        rhs = 2 * (2 * n + 1) * (z * (n + 1 - k) * (n + k) + k * k)
        return lhs - rhs

    # one more point per variable than its degree: a polynomial of those
    # degrees that vanishes on the grid is 0
    GRID = [(n, k, z) for n in range(4) for k in range(3) for z in range(2)]

    def test_certificate_is_a_polynomial_identity(self):
        assert [self._cleared(*point) for point in self.GRID] == [0] * 24

    @pytest.mark.parametrize("wrong", (_wrong_first, _wrong_middle,
                                       _wrong_last))
    def test_one_wrong_coefficient_breaks_it(self, wrong):
        assert any(self._cleared(*point, coefficients=wrong)
                   for point in self.GRID)

    @staticmethod
    def _F(n, k, z):
        return comb(n, k) * comb(n + k, k) * (-z) ** k if k >= 0 else 0

    @staticmethod
    def _G(n, k, z):
        return -2 * (2 * n + 1) * comb(n, k - 1) * comb(n + k - 1, k - 1) \
            * (-z) ** k if k >= 1 else 0

    def _L(self, n, k, z):
        a, b, c = _bonnet(n, z)
        return (a * self._F(n + 1, k, z) - b * self._F(n, k, z)
                + c * self._F(n - 1, k, z))

    def test_boundary_row(self):
        # at k = n+1, where F(n,k) = 0 and the cleared form does not apply,
        # L(n,n+1) = (n+1) F(n+1,n+1) and G(n,n+2) = 0, so the certificate
        # reads (n+1) C(2n+2,n+1) = 2(2n+1) C(2n,n), which holds for every n
        # as C(2n+2,n+1) = C(2n,n) (2n+2)(2n+1)/(n+1)^2
        for n in range(1, 40):
            assert (n + 1) * comb(2 * n + 2, n + 1) == (
                2 * (2 * n + 1) * comb(2 * n, n))
            for z in (Fraction(-2, 7), Fraction(3)):
                assert self._L(n, n + 1, z) == (
                    self._G(n, n + 2, z) - self._G(n, n + 1, z))

    def test_recurrence_and_reflection_give_pfaff(self):
        # summed over 0 <= k <= n+1 the certificate telescopes to G(n,n+2) -
        # G(n,0) = 0: Bonnet's recurrence for n >= 1.  Under z -> 1-z its
        # middle coefficient changes sign (degree 1 in n and in z: a 2 x 2
        # grid decides it), so g_n = (-1)^n f_n(1-z) obeys it too, and g_0,
        # g_1 = 1, 1-2z are f_0, f_1: f_n(z) = (-1)^n f_n(1-z) for every n,
        # which is pfaff_check; its z-derivative is pfaff_derivative_check
        for n in range(2):
            for z in range(2):
                a, b, c = _bonnet(n, z)
                assert _bonnet(n, 1 - z) == (a, -b, c)
        for z in (Fraction(17, 5), Fraction(-2, 7), Fraction(1, 2),
                  Fraction(3)):
            f = [sequences._pfaff_sum(n, z, 0) for n in range(15)]
            g = [(-1) ** n * sequences._pfaff_sum(n, 1 - z, 0)
                 for n in range(15)]
            assert f[:2] == g[:2] == [1, 1 - 2 * z]
            for n in range(1, 14):
                a, b, c = _bonnet(n, z)
                assert sum(self._L(n, k, z) for k in range(n + 2)) == 0
                for h in (f, g):
                    assert a * h[n + 1] - b * h[n] + c * h[n - 1] == 0, (z, n)
            assert f == g


class TestSymmetry:
    def test_fixed_point(self):
        assert t_symmetry_check(9, Fraction(-1, 2))

    def test_stated_points(self):
        for n in range(31):
            assert t_symmetry_check(n, Fraction(2, 3))
            assert t_symmetry_check(n, Fraction(5))


class TestTables:
    def test_x_zero_all_ones(self):
        tab = t_table_mod(5, 2, 0)
        assert tab.values == (1, 1, 1, 1, 1)
        assert tab.modulus == 25

    def test_matches_exact_reduction(self):
        for p in (3, 5, 7, 11, 13):
            for e in (1, 2):
                for x in X_GRID:
                    if x.denominator % p == 0:
                        continue
                    tab = t_table_mod(p, e, x)
                    for n in range(p):
                        assert tab[n] == mod_reduce(t_seq(n, x), p, e).value
                    stab = s_table_mod(p, e, x)
                    for n in range(p):
                        assert stab[n] == mod_reduce(s_seq(n, x), p, e).value

    def test_interleaved_bases_stay_apart(self):
        # tables at (p,2), (p,3), (q,2) and (p,2) again, both multipliers
        # and several x in turn: a list of 1/N^2 cached under the wrong key
        # would feed one modulus's inverses into another's table
        _inv_squares.cache_clear()
        _table.cache_clear()
        xs = (Fraction(-1, 3), Fraction(2, 5), Fraction(7))
        for p, e in ((11, 2), (11, 3), (13, 2), (11, 2)):
            for x in xs:
                for build, exact in ((t_table_mod, t_seq),
                                     (s_table_mod, s_seq)):
                    tab = build(p, e, x)
                    assert [tab[n] for n in range(p)] == [
                        mod_reduce(exact(n, x), p, e).value
                        for n in range(p)], (p, e, x, build.__name__)

    def test_interleaved_step_lists_stay_apart(self, monkeypatch):
        # tables and block prefixes at primes large, small and large again,
        # each against the literal binomial transform sum_{k<=K} C(n,k) w_k
        # of its pair weights: the run-wide step lists start empty, the
        # first prime builds them, a smaller one reads a prefix and a larger
        # one extends them, so a list grown at one prime serves every other
        # exactly; lists kept under the wrong multiplier would feed one
        # family's coefficients into another's table, and a loop that read
        # the wrong 1/N^2 one modulus's inverses into another's
        monkeypatch.setattr(sequences, "_STEPS", {})
        keys = ((101, 2, 2), (11, 3, 1), (11, 2, -3), (499, 3, 1),
                (13, 2, 2), (11, 3, 0), (101, 3, 2), (13, 3, 3),
                (499, 2, 2), (11, 2, 1), (101, 2, 1), (13, 3, 2))
        x = Fraction(-2, 7)
        for p, e, mult in keys:
            u = u_mod(p, e, x)
            w = _pair_weights_mod(p, e, u, mult)
            prefixes = [list(accumulate(map(mul, map(comb, repeat(n),
                                                      range(n + 1)), w)))
                        for n in range(p)]  # P_K(n) for K <= n, exactly
            for K in (None, 0, 4, p - 2, p - 1):
                values = _table_values(p, e, u, mult,
                                       None if K is None else (K, w))
                top = p - 1 if K is None else K
                assert values == tuple(row[min(top, n)] % p**e
                                       for n, row in enumerate(prefixes)), (
                    p, e, mult, K)
        # each family's lists reach as far as its largest prime asked
        largest = {}
        for p, _, mult in keys:
            largest[mult] = max(largest.get(mult, 0), p)
        assert {mult: [len(steps) for steps in lists]
                for mult, lists in sequences._STEPS.items()} == {
            mult: [p - 1] * 3 for mult, p in largest.items()}

    @pytest.mark.parametrize("p", (3, 5, 7, 11, 499))
    def test_inverse_squares(self, p):
        # the one-pass list of 1/n^2, each entry against its definition
        for e in (1, 2, 3):
            inv_sq = _inv_squares.__wrapped__(p, e)
            assert len(inv_sq) == p and inv_sq[0] == 0
            assert all(n * n * inv_sq[n] % p**e == 1 for n in range(1, p))

    @pytest.mark.parametrize("build, e", ((t_table_mod, 2), (s_table_mod, 3)))
    def test_square_sums_in_any_order(self, build, e):
        # the theorem1 and theorem2 weights and two others, read in every
        # order on a fresh table, each against the literal sum of
        # (a n + b) f_n^2, whichever moments the earlier reads summed, and
        # again from the kept moments: S1 as the sum of the suffix sums is
        # the literal sum of (n+1) f_n^2, and no read leaves the shared
        # squares stale
        p, x = 31, Fraction(3, 5)
        values = build(p, e, x).values
        mod = p**e
        moments = [sum((n + 1) ** i * values[n] ** 2 for n in range(p)) % mod
                   for i in (0, 1)]
        for order in permutations(((0, 1), (1, 1), (-7, 4), (3, 0))):
            table = SequenceTable(p, e, build(p, e, x).mult, values)
            for a, b in order:
                literal = sum((a * n + b) * values[n] ** 2
                              for n in range(p)) % mod
                assert table.square_sum(a, b).value == literal, (order, a, b)
                assert table.square_sum(a, b).value == literal, (order, a, b)
                assert table.squares == [v * v for v in values]
            assert table.moments == moments, order

    def test_square_sum_mod_p_for_every_multiplier(self, monkeypatch):
        # S0 = sum_{n<p} f_n^2 mod p of the table of any multiplier c in
        # [1, p-1] at u = x(x+1) is (-1/p) when 2x = -1 (mod p), else 0;
        # x and -1-x share u, so x in [0, (p-1)/2] reaches every u, and at
        # p <= 7 the exact sums of S_poly(n, x, -c)^2 agree
        monkeypatch.setattr(sequences, "_STEPS", {})
        cases = 0
        for p in odd_primes(3, 61):
            half = (p - 1) // 2
            for c in range(1, p):
                for x in range(half + 1):
                    s0 = SequenceTable(p, 1, c, _table_values(
                        p, 1, x * (x + 1) % p, c)).square_sum(0, 1)
                    assert s0.value == (
                        legendre(-1, p) % p if x == half else 0), (p, c, x)
                    if p <= 7:
                        assert s0 == mod_reduce(sum(
                            S_poly(n, x, -c) ** 2 for n in range(p)), p, 1)
                    cases += 1
        assert cases == 10_228

    def test_oracle_modes_accept_correct_tables(self):
        t_table_mod(13, 2, Fraction(-1, 3), oracle="full")
        t_table_mod(61, 2, Fraction(2, 5), oracle="spot")
        s_table_mod(7, 3, Fraction(-1, 2), oracle="full")

    def test_oracle_rejects_tampered_rows(self):
        tab = t_table_mod(11, 2, Fraction(2, 5))
        bad = tab.values[:3] + (tab.values[3] + 11,) + tab.values[4:]
        with pytest.raises(OracleMismatchError):
            _audit_table(11, 2, Fraction(2, 5), 2, bad, "full")

    @pytest.mark.parametrize("e", (2, 3))
    @pytest.mark.parametrize("mult", (T_MULT, S_MULT))
    def test_spot_oracle_rejects_tampered_rows(self, e, mult):
        p, x = 101, Fraction(-17, 7)
        values = _table_values(p, e, u_mod(p, e, x), mult)
        _audit_table(p, e, x, mult, values, "spot")
        for n in _oracle_rows(p, x, "spot"):
            bad = values[:n] + ((values[n] + p) % p**e,) + values[n + 1:]
            with pytest.raises(OracleMismatchError, match=f"row n={n} "):
                _audit_table(p, e, x, mult, bad, "spot")

    def test_unknown_oracle_mode_rejected(self):
        with pytest.raises(ValueError):
            t_table_mod(11, 2, Fraction(2, 5), oracle="sometimes")

    def test_non_p_integral_argument(self):
        with pytest.raises(NonPIntegralError):
            t_table_mod(5, 2, Fraction(1, 5))

    def test_rejects_bad_prime_or_exponent(self):
        with pytest.raises(ValueError):
            t_table_mod(9, 2, Fraction(1, 2))
        with pytest.raises(ValueError):
            t_table_mod(5, 0, Fraction(1, 2))

    def test_accessors(self):
        tab = s_table_mod(7, 2, Fraction(-1, 2))
        assert len(tab) == 7
        assert tab.residue(0).value == 1 and tab.residue(0).modulus == 49
        assert isinstance(tab, SequenceTable)
