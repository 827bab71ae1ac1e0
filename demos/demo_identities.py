"""Walkthrough of the exact identity layer: the two closed-form double
sums and the supporting summation identities they rest on.

Run:  python3 demos/demo_identities.py
"""

from fractions import Fraction

from supercong.identities import (
    binom_conv_sum,
    lemma22_double_sum,
    lemma31_sum,
    lemma32_double_sum,
    liu22_sum,
    pfd_sides,
    weighted_binom_conv_sum,
)


def main() -> None:
    print("== alternating double sums collapse to one-term closed forms ==")
    for n in range(6):
        print(f"  n={n}: plain = {lemma22_double_sum(n)}"
              f"  (expect (-1)^n/(2n+1) = {Fraction((-1)**n, 2*n+1)})")
    for n in range(4):
        print(f"  n={n}: weighted = {lemma32_double_sum(n)}")

    print("\n== partial-fraction identity: both sides at sample points ==")
    for n, x in ((1, Fraction(3)), (3, Fraction(-8, 3)), (4, Fraction(5))):
        lhs, rhs = pfd_sides(n, x)
        print(f"  n={n}, x={x}: lhs = {lhs}, rhs = {rhs}, equal: {lhs == rhs}")
    print("  note the zeros: for integer x in [1, n] both sides vanish")
    print(f"  e.g. n=4, x=2 -> {pfd_sides(4, 2)}")

    print("\n== inner rational sums with product closed forms ==")
    for k, l in ((0, 0), (1, 1), (2, 3)):
        print(f"  (k,l)=({k},{l}): alternating/(n+1)-type = {liu22_sum(k, l)},"
              f"  alternating/(n+2)-type = {lemma31_sum(k, l)}")

    print("\n== binomial convolution rewrites (the block-sum backbone) ==")
    for N, k, l in ((3, 1, 1), (7, 2, 4), (13, 5, 5)):
        lhs, rhs = binom_conv_sum(N, k, l)
        print(f"  N={N}, k={k}, l={l}: sum C(n,k)C(n,l) = {lhs}, "
              f"rewritten = {rhs}")
        lhs, rhs = weighted_binom_conv_sum(N, k, l)
        print(f"      with (n+1) weight: {lhs} = {rhs}")


if __name__ == "__main__":
    main()
