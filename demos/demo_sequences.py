"""Walkthrough of the sequence layer: exact values, reflection symmetry,
and the fast modular tables with their exact-rational oracle.

Run:  python3 demos/demo_sequences.py
"""

from fractions import Fraction

from supercong.sequences import (
    S_poly,
    j2,
    pfaff_check,
    s_seq,
    t_seq,
    t_symmetry_check,
    t_table_mod,
)


def main() -> None:
    print("== exact sequence values ==")
    x = Fraction(-1, 2)
    for n in range(6):
        print(f"  t_{n}(-1/2) = {t_seq(n, x)}    s_{n}(-1/2) = {s_seq(n, x)}")
    print(f"  j2(2) = s_2(-1/2) = {j2(2)}")

    print("\n== the two-variable family specializes to both sequences ==")
    x = Fraction(5, 4)
    for n in range(4):
        print(f"  n={n}: S(x,-2) = {S_poly(n, x, -2)} = t_n? "
              f"{S_poly(n, x, -2) == t_seq(n, x)};  "
              f"S(x,-1) = {S_poly(n, x, -1)} = s_n? "
              f"{S_poly(n, x, -1) == s_seq(n, x)}")

    print("\n== reflection symmetry t_n(x) = t_n(-1-x), exact ==")
    for x in (Fraction(2, 3), Fraction(-7, 5), Fraction(4)):
        ok = all(t_symmetry_check(n, x) for n in range(12))
        print(f"  x = {x}: n <= 11 all agree: {ok}")

    print("\n== Pfaff reflection for the pair weights ==")
    for z in (Fraction(1, 2), Fraction(17, 5), Fraction(-3)):
        ok = all(pfaff_check(n, z) for n in range(12))
        print(f"  z = {z}: n <= 11 all agree: {ok}")

    print("\n== fast modular tables, cross-checked against exact rationals ==")
    p, x = 101, Fraction(-1, 3)
    table = t_table_mod(p, 2, x, oracle="spot")
    print(f"  t_n({x}) mod {p}^2, first rows: {table.values[:6]} ...")
    print(f"  spot oracle re-derived five rows exactly: no mismatch raised")
    square_sum = sum(v * v for v in table.values) % table.modulus
    print(f"  sum of squares mod {p}^2 = {square_sum}")


if __name__ == "__main__":
    main()
