"""Exact combinatorial identities underlying the congruence proofs.

Each function evaluates one side (or both sides) of a finite binomial-sum
identity over exact rationals.  Nothing here touches modular arithmetic.
The congruence layer reads only the closed forms of Lemmas 2.2 and 3.2,
so those two (lemma22_closed, lemma32_closed) live in `congruences`; this
module imports them and checks the double sums against them.  Sister
identities share one summation: the double sums' kernels are the inner
sums' closed forms, the inner sums and the convolutions each differ in
one argument, and both Pfaff identities are sequences._pfaff_sum.
identity_suite, the battery behind `supercong identities`, checks every
family on fixed grids of points.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from random import Random
from typing import Callable

from .congruences import lemma22_closed, lemma32_closed
from .core import (
    PoleError,
    RationalLike,
    binom_int,
    odd_primes,
    pochhammer,
    to_fraction,
)
from .sequences import _pair_coeffs, _pfaff_sum, pfaff_check


def _double_sum(n: int, inner: Callable[[int, int], Fraction]) -> Fraction:
    """sum_{k,l<=n} C(n,k)C(n+k,k)C(n,l)C(n+l,l) 2^{k+l} inner(k,l): with
    inner liu22_closed or lemma31_closed, 2^{k+l} inner(k,l) is the Lemma
    2.2 or 3.2 kernel (-2)^{k+l} / ((k+l+1) C(k+l,k)) or / C(k+l+2,k+1)."""
    if n < 0:
        raise ValueError("requires n >= 0")
    c = _pair_coeffs(n)
    total = Fraction(0)
    for k in range(n + 1):
        for l in range(n + 1):
            total += c[k] * c[l] * 2 ** (k + l) * inner(k, l)
    return total


def lemma22_double_sum(n: int) -> Fraction:
    """sum_{k,l<=n} C(n,k)C(n+k,k)C(n,l)C(n+l,l) (-2)^{k+l} / ((k+l+1) C(k+l,k)).

    Equals (-1)^n / (2n+1).
    """
    return _double_sum(n, liu22_closed)


def lemma32_double_sum(n: int) -> Fraction:
    """sum_{k,l<=n} C(n,k)C(n+k,k)C(n,l)C(n+l,l) (-2)^{k+l} / C(k+l+2, k+1).

    Equals 1/4 - (-1)^n (2n^2+2n-1) / (8n+4).
    """
    return _double_sum(n, lemma31_closed)


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
    for l, c in enumerate(_pair_coeffs(n)):
        lhs += (-1) ** l * c / (x + l)
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
    return _pfaff_sum(n, z, 1) == (-1) ** (n - 1) * _pfaff_sum(n, 1 - z, 1)


def _inner_sum(k: int, l: int, shift: int,
               coeff: Callable[[int], int]) -> Fraction:
    """sum_{n=0}^{k+l} coeff(n) / (n+shift) * C(n,l) C(l,n-k), k, l >= 0."""
    if k < 0 or l < 0:
        raise ValueError("requires k, l >= 0")
    total = Fraction(0)
    for n in range(l, k + l + 1):  # C(n,l) = 0 for n < l
        c = coeff(n) * comb(n, l) * binom_int(l, n - k)
        if c:
            total += Fraction(c, n + shift)
    return total


def _alternating(n: int) -> int:
    return (-1) ** n


def liu22_sum(k: int, l: int) -> Fraction:
    """sum_{n=0}^{k+l} (-1)^n / (n+1) * C(n,l) C(l,n-k).

    Equals (-1)^{l+k} / ((l+k+1) C(l+k,l)).
    """
    return _inner_sum(k, l, 1, _alternating)


def liu22_closed(k: int, l: int) -> Fraction:
    return Fraction((-1) ** (l + k), (l + k + 1) * comb(l + k, l))


def lemma31_sum(k: int, l: int) -> Fraction:
    """sum_{n=0}^{k+l} (-1)^n / (n+2) * C(n,l) C(l,n-k).

    Equals (-1)^{l+k} / C(k+l+2, l+1).
    """
    return _inner_sum(k, l, 2, _alternating)


def lemma31_closed(k: int, l: int) -> Fraction:
    return Fraction((-1) ** (l + k), comb(k + l + 2, l + 1))


def _convolution(N: int, k: int, l: int,
                 shift: int) -> tuple[Fraction, Fraction]:
    """Both sides of the convolution with weight C(n+shift-1, n), which is 1
    at shift 1 and n+1 at shift 2:

    sum_{n=0}^{N-1} C(n+shift-1, n) C(n,k) C(n,l)
        == shift C(N+shift-1, shift)
           * sum_{n=0}^{k+l} 1/(n+shift) * C(n,l) C(l,n-k) C(N-1,n),

    where shift C(N+shift-1, shift) is N at shift 1 and N(N+1) at shift 2.
    """
    if N < 1:
        raise ValueError("requires N >= 1")
    rhs = _inner_sum(k, l, shift, partial(binom_int, N - 1))
    lhs = sum(comb(n + shift - 1, n) * comb(n, k) * comb(n, l)
              for n in range(N))
    return Fraction(lhs), shift * comb(N + shift - 1, shift) * rhs


def binom_conv_sum(N: int, k: int, l: int) -> tuple[Fraction, Fraction]:
    """Both sides of the binomial convolution

    sum_{n=0}^{N-1} C(n,k) C(n,l)
        == N * sum_{n=0}^{k+l} 1/(n+1) * C(n,l) C(l,n-k) C(N-1,n).

    Returns (lhs, rhs) so callers can assert equality themselves.
    """
    return _convolution(N, k, l, 1)


def weighted_binom_conv_sum(N: int, k: int, l: int) -> tuple[Fraction, Fraction]:
    """Both sides of the (n+1)-weighted convolution

    sum_{n=0}^{N-1} (n+1) C(n,k) C(n,l)
        == N(N+1) * sum_{n=0}^{k+l} 1/(n+2) * C(n,l) C(l,n-k) C(N-1,n).
    """
    return _convolution(N, k, l, 2)


# ---------------------------------------------------------------------------
# the identity battery: every family above on fixed grids of points

_NUM_BOUND = 30  # the seeded points a/b: |a| <= _NUM_BOUND, b <= _DEN_MAX
_DEN_MAX = 9
_INNER_BOUND = 15  # the inner sums are checked at every k, l <= this


def _seeded_rationals(seed: int, count: int) -> list[Fraction]:
    rng = Random(seed)
    out: dict[Fraction, None] = {}  # distinct, in order of first draw
    while len(out) < count:
        out[Fraction(rng.randint(-_NUM_BOUND, _NUM_BOUND),
                     rng.randint(1, _DEN_MAX))] = None
    return list(out)


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
        if any(pfd_sides(n, k) != (0, 0) for k in range(1, n + 1)):
            return False
        lhs, rhs = pfd_sides(n, n + 1)
        expected = Fraction((-1) ** n, (2 * n + 1) * comb(2 * n, n))
        if lhs != rhs or lhs != expected:
            return False
    return True


def _check_pfaff(nmax: int) -> bool:
    return all(pfaff_check(n, z) for n in range(min(nmax, 30) + 1)
               for z in _seeded_rationals(104729 * n + 3, max(n + 1, 20))
               + [Fraction(17, 5), Fraction(1, 2)])


def _check_pfaff_derivative(nmax: int) -> bool:
    return all(pfaff_derivative_check(n, z)
               for n in range(1, min(nmax, 25) + 1)
               for z in _seeded_rationals(15485863 * n + 11, max(n, 20))
               + [Fraction(3, 7), Fraction(-2)])


def _check_inner_sums() -> bool:
    return all(
        liu22_sum(k, l) == liu22_closed(k, l)
        and lemma31_sum(k, l) == lemma31_closed(k, l)
        for k in range(_INNER_BOUND + 1) for l in range(_INNER_BOUND + 1))


def _check_convolutions() -> bool:
    """Both convolutions at k, l < 9 for N <= 12, and at every k, l < N for
    every prime N < 50: there the literal left side is symmetric in k and
    l, so the ordered right sides P(k,l) = sum_n C(n,l) C(l,n-k) d_n of the
    nine-block split are too, P(k,l) = P(l,k), in both splits."""
    grid = [(N, range(9)) for N in range(1, 13)] + [
        (N, range(N)) for N in odd_primes(3, 49)]
    return all(lhs == rhs
               for N, ks in grid for k in ks for l in ks
               for lhs, rhs in (binom_conv_sum(N, k, l),
                                weighted_binom_conv_sum(N, k, l)))


def identity_suite(nmax: int = 40) -> list[tuple[str, bool]]:
    """Run the whole identity battery; one (name, ok) entry per family."""
    checks: list[tuple[str, Callable[[], bool]]] = [
        (f"closed_form_double_sums n<={nmax}", lambda: _check_closed_forms(nmax)),
        ("partial_fractions n<=20, 20 points/n", lambda: _check_pfd(nmax)),
        ("pfaff_reflection n<=30, >deg points", lambda: _check_pfaff(nmax)),
        ("pfaff_derivative n<=25, >deg points",
         lambda: _check_pfaff_derivative(nmax)),
        (f"inner_sums k,l<={_INNER_BOUND}", _check_inner_sums),
        ("binomial_convolutions N<=12 and prime N<50", _check_convolutions),
    ]
    return [(name, fn()) for name, fn in checks]
