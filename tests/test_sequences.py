from fractions import Fraction

import pytest

from supercong.core import NonPIntegralError, OracleMismatchError, mod_reduce
from supercong.sequences import (
    S_poly,
    S_MULT,
    SequenceTable,
    T_MULT,
    _audit_table,
    _oracle_rows,
    _table_values,
    j2,
    pfaff_check,
    s_seq,
    s_table_mod,
    t_seq,
    t_symmetry_check,
    t_table_mod,
)

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


class TestPfaff:
    def test_degree_one_both_sides(self):
        # both sides reduce to 1 - 2z
        for z in (Fraction(17, 5), Fraction(0), Fraction(-3, 2)):
            assert pfaff_check(1, z)

    def test_stated_points(self):
        for n in range(31):
            assert pfaff_check(n, Fraction(17, 5))
            assert pfaff_check(n, Fraction(1, 2))


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
        values = _table_values(p, e, x, mult)
        _audit_table(p, e, x, mult, values, "spot")
        for n in _oracle_rows(p, e, x, mult, "spot"):
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
