"""The binomial double-product sequences: exact values and residue tables.

Two evaluation routes are kept strictly separate on purpose.  The fast route
works entirely mod p^e: pair weights C(x,k) C(x+k,k) c^k are produced by a
multiplicative k-recurrence (k < p keeps every step invertible) and combined
by one binomial transform, t_n = n! sum_{k+j=n} (w_k / k!) (1 / j!), which
`congruences` also applies to masked weights for its block sums.  For n < p no
factorial has a factor p, so every factorial is a unit mod p^e; the
convolution for all n in [0, p-1] is one big-integer product of the two
sequences packed into fixed-width slots (Kronecker substitution).  The slow
route (_row_exact, behind t_seq and s_seq) evaluates one row exactly with
integers only: a term-ratio recurrence summed over the common denominator
b^{2n} (n!)^3 of x = a/b, turned into one Fraction at the end.  The audit
reduces that Fraction mod p^e and compares; the slow route exists to audit
the fast route and is never consulted to produce a table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .core import (
    DegenerateError,
    NonPIntegralError,
    OracleMismatchError,
    RationalLike,
    Residue,
    binom_gen,
    mod_reduce,
    require_odd_prime,
    to_fraction,
)

# sequence family -> multiplier c in sum_k C(n,k) C(x,k) C(x+k,k) c^k
T_MULT = 2
S_MULT = 1


@lru_cache(maxsize=512)
def _pair_weights_exact(x: Fraction, kmax: int, mult: int) -> tuple[Fraction, ...]:
    """w_k = C(x,k) C(x+k,k) mult^k for k in [0, kmax], exact.

    Used by the exact cross blocks in congruences; rows use _row_exact.
    """
    out = [Fraction(1)]
    falling = Fraction(1)  # C(x, k)
    rising = Fraction(1)  # C(x+k, k)
    scale = 1
    for k in range(1, kmax + 1):
        falling *= Fraction(x - k + 1, k)
        rising *= Fraction(x + k, k)
        scale *= mult
        out.append(falling * rising * scale)
    return tuple(out)


def _row_exact(n: int, x: Fraction, mult: int) -> Fraction:
    """sum_k C(n,k) C(x,k) C(x+k,k) mult^k, exact, in integers until the end.

    For x = a/b, term k is num_k / (b^{2k} (k!)^3) with num_k = num_{k-1}
    (n-k+1) mult (a-(k-1)b)(a+kb).  Horner's rule puts all terms over
    b^{2n} (n!)^3: one big-by-small product per step, one gcd at the end.
    """
    a, b = x.numerator, x.denominator
    acc = num = 1
    for k in range(1, n + 1):
        num *= (n - k + 1) * mult * (a - (k - 1) * b) * (a + k * b)
        acc = acc * (k * k * k * b * b) + num
    return Fraction(acc, b ** (2 * n) * factorial(n) ** 3)


def t_seq(n: int, x: RationalLike) -> Fraction:
    """t_n(x) = sum_k C(n,k) C(x,k) C(x+k,k) 2^k as an exact rational."""
    if n < 0:
        raise ValueError("t_seq requires n >= 0")
    return _row_exact(n, to_fraction(x), T_MULT)


def s_seq(n: int, x: RationalLike) -> Fraction:
    """s_n(x) = sum_k C(n,k) C(x,k) C(x+k,k), the unweighted companion sum."""
    if n < 0:
        raise ValueError("s_seq requires n >= 0")
    return _row_exact(n, to_fraction(x), S_MULT)


def j2(n: int) -> Fraction:
    """The half-integer specialization s_n(-1/2)."""
    return s_seq(n, Fraction(-1, 2))


def S_poly(n: int, x: RationalLike, y: RationalLike) -> Fraction:
    """sum_k C(n,k) C(x,k) C(-1-x,k) y^k, evaluated term by term.

    Since C(-1-x,k) (-1)^k = C(x+k,k), this equals the pair-weight sum with
    multiplier -y; t_seq is S_poly(n, x, -2) and s_seq is S_poly(n, x, -1).
    The definition is kept literal here so tests can confirm that collapse.
    """
    if n < 0:
        raise ValueError("S_poly requires n >= 0")
    x = to_fraction(x)
    y = to_fraction(y)
    total = Fraction(0)
    ypow = Fraction(1)
    for k in range(n + 1):
        total += comb(n, k) * binom_gen(x, k) * binom_gen(-1 - x, k) * ypow
        ypow *= y
    return total


def t_symmetry_check(n: int, x: RationalLike) -> bool:
    """Exact check of the reflection invariance t_n(x) = t_n(-1-x)."""
    x = to_fraction(x)
    return t_seq(n, x) == t_seq(n, -1 - x)


def pfaff_check(n: int, z: RationalLike) -> bool:
    """Pfaff reflection for the pair weights, checked exactly at one point:

    sum_k C(n,k) C(n+k,k) (-z)^k == (-1)^n sum_k C(n,k) C(n+k,k) (z-1)^k.
    """
    if n < 0:
        raise ValueError("pfaff_check requires n >= 0")
    z = to_fraction(z)
    lhs = Fraction(0)
    rhs = Fraction(0)
    lpow = Fraction(1)
    rpow = Fraction(1)
    for k in range(n + 1):
        c = comb(n, k) * comb(n + k, k)
        lhs += c * lpow
        rhs += c * rpow
        lpow *= -z
        rpow *= z - 1
    if n % 2:
        rhs = -rhs
    return lhs == rhs


@dataclass(frozen=True)
class SequenceTable:
    """Residues of one sequence family mod p^e for every row n in [0, p-1]."""

    p: int
    e: int
    x: Fraction
    mult: int
    values: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.e

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def residue(self, n: int) -> Residue:
        return Residue(self.values[n], self.modulus)


@lru_cache(maxsize=4096)
def _pair_weights_mod(p: int, e: int, x: Fraction, mult: int) -> tuple[int, ...]:
    """w_k = C(x,k) C(x+k,k) mult^k mod p^e for k in [0, p-1].

    Incremental update w_k = w_{k-1} * mult * (x-k+1)(x+k) / k^2; every
    k in [1, p-1] is invertible mod p^e, so the recurrence never divides
    by a multiple of p.
    """
    mod = p**e
    if x.denominator % p == 0:
        raise NonPIntegralError(f"{x} is not {p}-integral")
    xr = x.numerator % mod * pow(x.denominator, -1, mod) % mod
    w = [0] * p
    w[0] = 1
    cur = 1
    for k in range(1, p):
        try:
            inv_kk = pow(k * k, -1, mod)
        except ValueError:  # unreachable for k < p; kept as a hard guard
            raise DegenerateError(f"k = {k} has no inverse mod {mod}") from None
        cur = cur * (mult * (xr - k + 1) * (xr + k)) % mod
        cur = cur * inv_kk % mod
        w[k] = cur
    return tuple(w)


def _factorials(p: int, e: int) -> tuple[list[int], list[int]]:
    """n! and 1/n! mod p^e for n in [0, p-1]; all units, since n < p."""
    mod = p**e
    fact = [1] * p
    for n in range(1, p):
        fact[n] = fact[n - 1] * n % mod
    inv_fact = [0] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, mod)
    for n in range(p - 1, 0, -1):
        inv_fact[n - 1] = inv_fact[n] * n % mod
    return fact, inv_fact


def _binomial_transform(p: int, e: int, w: Sequence[int]) -> tuple[int, ...]:
    """sum_k C(n,k) w_k mod p^e for every n in [0, p-1], as one convolution.

    sum_k C(n,k) w_k = n! * sum_{k+j=n} (w_k / k!) (1 / j!).  This relies on
    n < p: then n! has no factor p, so every factorial is a unit mod p^e.
    Both factor sequences are packed into one integer each, in slots wide
    enough for a coefficient of the product (at most p (p^e - 1)^2, so no
    carry crosses a slot), and multiplied once.
    """
    mod = p**e
    fact, inv_fact = _factorials(p, e)
    width = ((p * (mod - 1) ** 2).bit_length() + 7) // 8  # bytes per slot

    def pack(seq) -> int:
        return int.from_bytes(
            b"".join(v.to_bytes(width, "little") for v in seq), "little")

    product = (pack([wk * ik % mod for wk, ik in zip(w, inv_fact)])
               * pack(inv_fact))
    # the product has 2p - 1 slots; only the first p (rows n < p) are read
    raw = product.to_bytes(width * (2 * p - 1), "little")
    return tuple(int.from_bytes(raw[i:i + width], "little") * f % mod
                 for i, f in zip(range(0, width * p, width), fact))


@lru_cache(maxsize=4096)
def _table_values(p: int, e: int, x: Fraction, mult: int) -> tuple[int, ...]:
    """Rows n in [0, p-1] mod p^e: the binomial transform of the pair weights."""
    return _binomial_transform(p, e, _pair_weights_mod(p, e, x, mult))


# oracle row audit: full table for small p, else 5 deterministic spot rows
_SPOT_ROWS = 5
_FULL_BELOW = 50


def _oracle_rows(p: int, e: int, x: Fraction, mult: int, mode: str) -> list[int]:
    if mode == "full" or (mode == "spot" and p <= _FULL_BELOW):
        return list(range(p))
    if mode == "spot":
        seed = ((p * 1_000_003 + e) * 1_000_003
                + x.numerator % 999_999_937) * 1_000_003 \
            + x.denominator * 7 + mult
        rng = random.Random(seed)
        return sorted(rng.sample(range(p), min(_SPOT_ROWS, p)))
    raise ValueError(f"unknown oracle mode {mode!r}")


def _audit_table(p: int, e: int, x: Fraction, mult: int,
                 values: tuple[int, ...], mode: str) -> None:
    for n in _oracle_rows(p, e, x, mult, mode):
        expect = mod_reduce(_row_exact(n, x, mult), p, e).value
        if expect != values[n]:
            raise OracleMismatchError(
                f"table row n={n} (p={p}, e={e}, x={x}, mult={mult}): "
                f"fast path {values[n]} != exact {expect} (mod {p**e})"
            )


def _build_table(p: int, e: int, x: RationalLike, mult: int,
                 oracle: str) -> SequenceTable:
    require_odd_prime(p)
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"exponent e = {e!r} must be a positive integer")
    x = to_fraction(x)
    values = _table_values(p, e, x, mult)
    if oracle != "off":
        _audit_table(p, e, x, mult, values, oracle)
    return SequenceTable(p, e, x, mult, values)


def t_table_mod(p: int, e: int, x: RationalLike,
                oracle: str = "off") -> SequenceTable:
    """Table of t_n(x) mod p^e for n in [0, p-1].

    oracle='off' trusts the fast path; 'spot' re-derives five deterministic
    rows (all rows when p <= 50) from exact rationals; 'full' re-derives
    every row.  A disagreement raises OracleMismatchError.
    """
    return _build_table(p, e, x, T_MULT, oracle)


def s_table_mod(p: int, e: int, x: RationalLike,
                oracle: str = "off") -> SequenceTable:
    """Table of s_n(x) mod p^e for n in [0, p-1]; same oracle contract."""
    return _build_table(p, e, x, S_MULT, oracle)
