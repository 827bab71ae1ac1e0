"""Exact rational scalars and residue arithmetic mod odd prime powers.

Everything downstream is built on four ingredients kept deliberately small:
arbitrary-precision rationals (``fractions.Fraction``), residues mod p^e with
an explicit modulus, generalized binomial coefficients C(x, k) for rational x,
and the reduction map from p-integral rationals into Z/p^e Z.  All arithmetic
is exact; there are no floats anywhere in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Literal, Union

RationalLike = Union[Fraction, int, str]
LegendreValue = Literal[-1, 0, 1]


class SupercongError(Exception):
    """Base class for every domain error raised by this package."""


class NonPIntegralError(SupercongError):
    """p divides a denominator, so reduction mod p^e is undefined."""


class NotInvertibleError(SupercongError):
    """Residue shares a nontrivial factor with its modulus."""


class RegimeError(SupercongError):
    """Argument lies outside the p-adic regime a check is stated for."""


class PoleError(SupercongError):
    """Evaluation point collides with a pole of a rational-function identity."""


class HypothesisViolatedError(SupercongError):
    """Inputs violate a statement's hypothesis; callers record this as a skip."""


class OracleMismatchError(SupercongError):
    """Fast modular path disagreed with the exact-rational re-computation."""


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'a/b' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# Deterministic Miller-Rabin.  Below each bound, the strong pseudoprime
# test to the first `count` prime bases is proven exact, the bound being
# the least composite that passes it (Jaeschke 1993; Jiang and Deng 2014;
# Sorenson and Webster 2017).  No base set here is proven past the last
# bound, so is_prime refuses there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = ((2_047, 1), (1_373_653, 2), (25_326_001, 3),
              (3_215_031_751, 4), (2_152_302_898_747, 5),
              (3_474_749_660_383, 6), (341_550_071_728_321, 7),
              (3_825_123_056_546_413_051, 9),
              (318_665_857_834_031_151_167_461, 12),
              (3_317_044_064_679_887_385_961_981, 13))
PRIME_TEST_BOUND = _MR_BOUNDS[-1][0]


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_TEST_BOUND; ValueError above."""
    if n < 2:
        return False
    for bound, count in _MR_BOUNDS:
        if n < bound:
            break
    else:
        raise ValueError(f"n = {n} is not below {PRIME_TEST_BOUND}, where "
                         "the primality test is proven")
    bases = _MR_BASES[:count]
    for b in bases:
        if n % b == 0:
            return n == b
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


def require_odd_prime(p: int) -> None:
    if not isinstance(p, int) or not is_odd_prime(p):
        raise ValueError(f"p = {p!r} is not an odd prime")


def odd_primes(lo: int, hi: int) -> Iterator[int]:
    """Yield odd primes p with lo <= p <= hi in increasing order."""
    n = max(lo, 3) | 1  # first odd candidate
    while n <= hi:
        if is_prime(n):
            yield n
        n += 2


def binom_int(n: int, k: int) -> int:
    """C(n, k) for integer n >= 0, with C(n, k) = 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binom_int requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_gen(x: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient C(x, k) = x(x-1)...(x-k+1)/k!."""
    if k < 0:
        raise ValueError("binom_gen requires k >= 0")
    x = to_fraction(x)
    num = Fraction(1)
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def pochhammer(x: RationalLike, k: int) -> Fraction:
    """Rising factorial (x)_k = x(x+1)...(x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer requires k >= 0")
    x = to_fraction(x)
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


_HARMONIC: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """Harmonic number H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0.  Memoized."""
    if n < 0:
        raise ValueError("harmonic requires n >= 0")
    while len(_HARMONIC) <= n:
        k = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, k))
    return _HARMONIC[n]


def legendre(a: int, p: int) -> LegendreValue:
    """Legendre symbol (a/p) for odd prime p, via Euler's criterion."""
    require_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


class Residue:
    """An element of Z/(m)Z carrying its modulus; arithmetic checks moduli.
    Equal value and modulus make equal, equally hashed residues."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        if modulus < 2:
            raise ValueError(f"modulus {modulus} < 2")
        self.value = value % modulus
        self.modulus = modulus

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Residue):
            return NotImplemented
        return self.value == other.value and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.value, self.modulus))

    def _other(self, other: "Residue | int") -> int:
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}"
                )
            return other.value
        if isinstance(other, int):
            return other % self.modulus
        return NotImplemented

    def __add__(self, other: "Residue | int") -> "Residue":
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value + v) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other: "Residue | int") -> "Residue":
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue((self.value - v) % self.modulus, self.modulus)

    def __mul__(self, other: "Residue | int") -> "Residue":
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return Residue(self.value * v % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __neg__(self) -> "Residue":
        return Residue(-self.value % self.modulus, self.modulus)

    def __pow__(self, k: int) -> "Residue":
        if k < 0:
            return self.inverse() ** (-k)
        return Residue(pow(self.value, k, self.modulus), self.modulus)

    def inverse(self) -> "Residue":
        return mod_inv(self)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def mod_inv(a: Residue) -> Residue:
    """Multiplicative inverse in Z/(m)Z; NotInvertibleError if gcd > 1."""
    try:
        inv = pow(a.value, -1, a.modulus)
    except ValueError:
        raise NotInvertibleError(
            f"{a.value} is not invertible mod {a.modulus}"
        ) from None
    return Residue(inv, a.modulus)


def mod_reduce(q: RationalLike, p: int, e: int = 1) -> Residue:
    """Reduce a p-integral rational into Z/p^e Z (denominator inverted);
    reduce_ratio refuses a q that is not p-integral."""
    require_odd_prime(p)
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"exponent e = {e!r} must be a positive integer")
    q = to_fraction(q)
    return Residue(reduce_ratio(q.numerator, q.denominator, p, e), p**e)


def reduce_ratio(num: int, den: int, p: int, e: int) -> int:
    """num/den mod p^e as a least residue, for a pair in lowest terms or
    one whose denominator is prime to p: the package's one p-integrality
    test, whose refusal "num/den is not p-integral" is the records' skip."""
    if den % p == 0:
        raise NonPIntegralError(f"{num}/{den} is not {p}-integral")
    m = p**e
    return num % m * pow(den, -1, m) % m
