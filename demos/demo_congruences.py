"""Walkthrough of the congruence engine: p-adic splitting, the pair-weight
regimes, the nine-block decomposition, and the headline quadratic sums.

Run:  python3 demos/demo_congruences.py
"""

from fractions import Fraction

from supercong.congruences import (
    CONJECTURE_CASES,
    block_sums,
    conjecture_check,
    kw_check,
    lemma21_all,
    padic_split,
    sun_s_check,
    theorem1_check,
    theorem1_rhs,
    theorem2_check,
)


def main() -> None:
    print("== splitting a rational argument p-adically: x = m + p*t ==")
    for x, p in ((Fraction(-1, 3), 7), (Fraction(-1, 4), 13),
                 (Fraction(-1, 6), 11)):
        px = padic_split(x, p)
        print(f"  x = {x}, p = {p}:  m = {px.m}, t = {px.t}")
    x, p = Fraction(-1, 3), 11
    px, rx = padic_split(x, p), padic_split(-1 - x, p)
    print(f"  x = {x}, p = {p} has m = {px.m} > (p-1)/2; its reflection "
          f"-1-x = {rx.x} has m = {rx.m} = p-1-m")

    print("\n== pair-weight regimes: all k in [0, p-1] at once ==")
    for p, x in ((11, Fraction(-2, 3)), (13, Fraction(-1, 4))):
        print(f"  p = {p}, x = {x}: every regime formula matches mod p^2: "
              f"{lemma21_all(p, x)}")

    print("\n== the nine blocks of the squared double sum, mod p^2 ==")
    p, x = 11, Fraction(-3, 4)
    sums = block_sums(p, x)
    print(f"  p = {p}, x = {x} (row-major, near corner first):")
    for i in range(0, 9, 3):
        print("   ", [r.value for r in sums[i:i + 3]])
    print("  six far blocks vanish mod p^2; the two cross blocks are one "
          "product read twice\n  (over Q they agree by the symmetry of "
          "P(k,l), which `supercong identities` checks)")

    print("\n== quadratic congruences for the weighted family ==")
    for p, x in ((97, Fraction(-1, 6)), (101, Fraction(3, 5))):
        r1, r2 = theorem1_check(p, x), theorem2_check(p, x)
        print(f"  p = {p}, x = {x}:")
        print(f"    sum t_n^2       = {r1.lhs.value} = {r1.rhs.value} "
              f"mod p^2: {r1.passed}")
        print(f"    sum (n+1) t_n^2 = {r2.lhs.value} = {r2.rhs.value} "
              f"mod p^2: {r2.passed}")
    print(f"  boundary branch: theorem1_rhs(13, -1/2) = "
          f"{theorem1_rhs(13, Fraction(-1, 2)).value} (a quadratic-residue "
          f"sign mod 13^2)")

    print("\n== fixed-argument weighted sums: four cases, one shape c*p ==")
    for name in CONJECTURE_CASES:
        r = conjecture_check(name, 29)
        print(f"  {name} at p=29: lhs = {r.lhs.value} = rhs mod 29^2: "
              f"{r.passed}")

    print("\n== one power deeper: the unweighted sum at -1/2, mod p^3 ==")
    for p in (5, 7, 11, 13):
        r = kw_check(p)
        print(f"  p = {p}: sum s_n(-1/2)^2 = {r.lhs.value} mod p^3, "
              f"sign = {r.rhs.value if r.rhs.value <= 1 else -1}: {r.passed}")

    print("\n== the unweighted companion family mod p^2 (p > 3) ==")
    r = sun_s_check(13, Fraction(2, 7))
    print(f"  p = 13, x = 2/7: lhs = {r.lhs.value} = {r.rhs.value}: "
          f"{r.passed}")


if __name__ == "__main__":
    main()
