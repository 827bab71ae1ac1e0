"""Exact combinatorial identities underlying the congruence proofs.

Each function evaluates one side (or both sides) of a finite binomial-sum
identity over exact rationals.  Nothing here touches modular arithmetic;
the congruence layer consumes these only through their closed forms.
identity_suite, the battery behind `supercong identities`, checks every
family on fixed grids of points.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random
from typing import Callable

from .core import (
    PoleError,
    RationalLike,
    binom_int,
    odd_primes,
    pochhammer,
    to_fraction,
)
from .sequences import pfaff_check


def _pair_coeffs(n: int) -> list[int]:
    """C(n,k) C(n+k,k) for k in [0, n]."""
    return [comb(n, k) * comb(n + k, k) for k in range(n + 1)]


def lemma22_double_sum(n: int) -> Fraction:
    """sum_{k,l<=n} C(n,k)C(n+k,k)C(n,l)C(n+l,l) (-2)^{k+l} / ((k+l+1) C(k+l,k)).

    Equals (-1)^n / (2n+1).
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    c = _pair_coeffs(n)
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(n + 1):
            total += c[k] * c[l] * Fraction(
                (-2) ** (k + l), (k + l + 1) * comb(k + l, k)
            )
    return total


def lemma22_closed(n: int) -> Fraction:
    return Fraction((-1) ** n, 2 * n + 1)


def lemma32_double_sum(n: int) -> Fraction:
    """sum_{k,l<=n} C(n,k)C(n+k,k)C(n,l)C(n+l,l) (-2)^{k+l} / C(k+l+2, k+1).

    Equals 1/4 - (-1)^n (2n^2+2n-1) / (8n+4).
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    c = _pair_coeffs(n)
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(n + 1):
            total += c[k] * c[l] * Fraction(
                (-2) ** (k + l), comb(k + l + 2, k + 1)
            )
    return total


def lemma32_closed(n: int) -> Fraction:
    return Fraction(1, 4) - Fraction((-1) ** n * (2 * n * n + 2 * n - 1),
                                     8 * n + 4)


def pfd_sides(n: int, x: RationalLike) -> tuple[Fraction, Fraction]:
    """Both sides of the partial-fraction identity at the point x:

    sum_{l=0}^n (-1)^l / (x+l) * C(n+l,l) C(n,l)  and  (1-x)_n / (x)_{n+1}.

    Both sides have poles exactly at the integers x in [-n, 0]; those
    points raise PoleError.
    """
    if n < 0:
        raise ValueError("requires n >= 0")
    x = to_fraction(x)
    if x.denominator == 1 and -n <= x.numerator <= 0:
        raise PoleError(f"x = {x} is a pole for n = {n}")
    lhs = Fraction(0)
    for l in range(n + 1):
        lhs += Fraction((-1) ** l * comb(n + l, l) * comb(n, l)) / (x + l)
    rhs = pochhammer(1 - x, n) / pochhammer(x, n + 1)
    return lhs, rhs


def pfd_check(n: int, x: RationalLike) -> bool:
    """True iff the two sides of the partial-fraction identity agree at x."""
    lhs, rhs = pfd_sides(n, x)
    return lhs == rhs


def pfaff_derivative_check(n: int, z: RationalLike) -> bool:
    """k-weighted variant of the Pfaff reflection, checked exactly at z:

    sum_{k>=1} C(n,k)C(n+k,k) k (-z)^{k-1}
        == (-1)^{n-1} sum_{k>=1} C(n,k)C(n+k,k) k (z-1)^{k-1}.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    z = to_fraction(z)
    c = _pair_coeffs(n)
    lhs = Fraction(0)
    rhs = Fraction(0)
    lpow = Fraction(1)
    rpow = Fraction(1)
    for k in range(1, n + 1):
        lhs += c[k] * k * lpow
        rhs += c[k] * k * rpow
        lpow *= -z
        rpow *= z - 1
    if n % 2 == 0:
        rhs = -rhs
    return lhs == rhs


def liu22_sum(k: int, l: int) -> Fraction:
    """sum_{n=0}^{k+l} (-1)^n / (n+1) * C(n,l) C(l,n-k).

    Equals (-1)^{l+k} / ((l+k+1) C(l+k,l)).
    """
    if k < 0 or l < 0:
        raise ValueError("requires k, l >= 0")
    total = Fraction(0)
    for n in range(k + l + 1):
        c = comb(n, l) * binom_int(l, n - k) if n >= l else 0
        if c:
            total += Fraction((-1) ** n * c, n + 1)
    return total


def liu22_closed(k: int, l: int) -> Fraction:
    return Fraction((-1) ** (l + k), (l + k + 1) * comb(l + k, l))


def lemma31_sum(k: int, l: int) -> Fraction:
    """sum_{n=0}^{k+l} (-1)^n / (n+2) * C(n,l) C(l,n-k).

    Equals (-1)^{l+k} / C(k+l+2, l+1).
    """
    if k < 0 or l < 0:
        raise ValueError("requires k, l >= 0")
    total = Fraction(0)
    for n in range(k + l + 1):
        c = comb(n, l) * binom_int(l, n - k) if n >= l else 0
        if c:
            total += Fraction((-1) ** n * c, n + 2)
    return total


def lemma31_closed(k: int, l: int) -> Fraction:
    return Fraction((-1) ** (l + k), comb(k + l + 2, l + 1))


def binom_conv_sum(N: int, k: int, l: int) -> tuple[Fraction, Fraction]:
    """Both sides of the binomial convolution

    sum_{n=0}^{N-1} C(n,k) C(n,l)
        == N * sum_{n=0}^{k+l} 1/(n+1) * C(n,l) C(l,n-k) C(N-1,n).

    Returns (lhs, rhs) so callers can assert equality themselves.
    """
    if N < 1:
        raise ValueError("requires N >= 1")
    if k < 0 or l < 0:
        raise ValueError("requires k, l >= 0")
    lhs = Fraction(sum(comb(n, k) * comb(n, l) for n in range(N)))
    rhs = Fraction(0)
    for n in range(k + l + 1):
        c = comb(n, l) * binom_int(l, n - k) * binom_int(N - 1, n)
        if c:
            rhs += Fraction(c, n + 1)
    return lhs, N * rhs


def weighted_binom_conv_sum(N: int, k: int, l: int) -> tuple[Fraction, Fraction]:
    """Both sides of the (n+1)-weighted convolution

    sum_{n=0}^{N-1} (n+1) C(n,k) C(n,l)
        == N(N+1) * sum_{n=0}^{k+l} 1/(n+2) * C(n,l) C(l,n-k) C(N-1,n).
    """
    if N < 1:
        raise ValueError("requires N >= 1")
    if k < 0 or l < 0:
        raise ValueError("requires k, l >= 0")
    lhs = Fraction(sum((n + 1) * comb(n, k) * comb(n, l) for n in range(N)))
    rhs = Fraction(0)
    for n in range(k + l + 1):
        c = comb(n, l) * binom_int(l, n - k) * binom_int(N - 1, n)
        if c:
            rhs += Fraction(c, n + 2)
    return lhs, N * (N + 1) * rhs


# ---------------------------------------------------------------------------
# the identity battery: every family above on fixed grids of points

def _seeded_rationals(seed: int, count: int, den_max: int = 9,
                      num_bound: int = 30) -> list[Fraction]:
    rng = Random(seed)
    out: list[Fraction] = []
    seen: set[Fraction] = set()
    while len(out) < count:
        q = Fraction(rng.randint(-num_bound, num_bound),
                     rng.randint(1, den_max))
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def _check_closed_forms(nmax: int) -> bool:
    return all(
        lemma22_double_sum(n) == lemma22_closed(n)
        and lemma32_double_sum(n) == lemma32_closed(n)
        for n in range(nmax + 1))


def _check_pfd(nmax: int) -> bool:
    for n in range(min(nmax, 20) + 1):
        for x in _seeded_rationals(7919 * n + 17, 20):
            if x.denominator == 1 and -n <= x <= 0:
                continue
            if not pfd_check(n, x):
                return False
        # special points: zeros at x = 1..n, closed value at x = n+1
        for k in range(n):
            lhs, rhs = pfd_sides(n, k + 1)
            if lhs != 0 or rhs != 0:
                return False
        lhs, rhs = pfd_sides(n, n + 1)
        expected = Fraction((-1) ** n, (2 * n + 1) * comb(2 * n, n))
        if lhs != rhs or lhs != expected:
            return False
    return True


def _check_pfaff(nmax: int) -> bool:
    for n in range(min(nmax, 30) + 1):
        points = _seeded_rationals(104729 * n + 3, max(n + 1, 20))
        points += [Fraction(17, 5), Fraction(1, 2)]
        if not all(pfaff_check(n, z) for z in points):
            return False
    return True


def _check_pfaff_derivative(nmax: int) -> bool:
    for n in range(1, min(nmax, 25) + 1):
        points = _seeded_rationals(15485863 * n + 11, max(n, 20))
        points += [Fraction(3, 7), Fraction(-2)]
        if not all(pfaff_derivative_check(n, z) for z in points):
            return False
    return True


def _check_inner_sums(bound: int = 15) -> bool:
    return all(
        liu22_sum(k, l) == liu22_closed(k, l)
        and lemma31_sum(k, l) == lemma31_closed(k, l)
        for k in range(bound + 1) for l in range(bound + 1))


def _check_convolutions() -> bool:
    for N in range(1, 13):
        for k in range(9):
            for l in range(9):
                lhs, rhs = binom_conv_sum(N, k, l)
                if lhs != rhs:
                    return False
                lhs, rhs = weighted_binom_conv_sum(N, k, l)
                if lhs != rhs:
                    return False
    for N in odd_primes(3, 31):
        for k in range(N):
            for l in range(N):
                lhs, rhs = binom_conv_sum(N, k, l)
                if lhs != rhs:
                    return False
                lhs, rhs = weighted_binom_conv_sum(N, k, l)
                if lhs != rhs:
                    return False
    return True


def identity_suite(nmax: int = 40) -> list[tuple[str, bool]]:
    """Run the whole identity battery; one (name, ok) entry per family."""
    checks: list[tuple[str, Callable[[], bool]]] = [
        (f"closed_form_double_sums n<={nmax}", lambda: _check_closed_forms(nmax)),
        ("partial_fractions n<=20, 20 points/n", lambda: _check_pfd(nmax)),
        ("pfaff_reflection n<=30, >deg points", lambda: _check_pfaff(nmax)),
        ("pfaff_derivative n<=25, >deg points",
         lambda: _check_pfaff_derivative(nmax)),
        ("inner_sums k,l<=15", _check_inner_sums),
        ("binomial_convolutions N<=12 and prime N<=31", _check_convolutions),
    ]
    return [(name, fn()) for name, fn in checks]
