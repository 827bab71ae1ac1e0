"""The congruence engine: p-adic splitting and every verified statement.

Statement checks come in two shapes.  Residue statements compare a directly
computed left side against a closed-form right side mod p^e and return a
CongruenceReport; structural checks (pair-weight regimes, block vanishing,
the residue case table) return plain booleans.  Hypothesis failures raise —
the suite layer converts those into skip records.

The nine-block decomposition sums f(k,l) = w_k w_l P(k,l) over rectangles
K x L of the (k,l) grid, where w_k = C(x,k) C(x+k,k) 2^k and P(k,l) is
sum_{n<p} c_n C(n,k) C(n,l), with c_n = 1 (plain) or n+1 (weighted).  So a
rectangle is sum_{n<p} c_n A_K(n) A_L(n) with A_K(n) = sum_{k in K} C(n,k)
w_k: three masked binomial transforms mod p^2 per argument, from the t
table and two prefix sums P_K(n) = sum_{k<=K} C(n,k) w_k that the table's
own loop steps with one boundary term (sequences._table_values), then O(p)
work per distinct product A_K A_L (six; a mirrored block reads its twin),
for both splits at once; the transforms are checked, and audited under an
oracle, but not kept (_block_sums_mod).  Mod p^2 the two cross blocks are
one product read twice; their equality over Q is the symmetry of P(k,l),
which the identity battery proves for every prime below 50
(identities.binom_conv_sum).

Lemma 2.1 is checked at every k < p in one O(p) pass mod p^2, which sums
H_j mod p from the (p, 2) basis at each argument; the literal exact-rational
route (_lemma21_exact) is its oracle, with the exact pair weights built once
per argument.

Each closed form is written once.  The near and cross blocks of Lemmas
2.3/2.4 and 3.3/3.4 are p c(m) and p t c(m), with c the Lemma 2.2 or 3.2
closed form (BLOCK_LEMMAS).  Those two closed forms live here, beside
BLOCK_LEMMAS, and `identities` imports them to check its double sums, so a
verify run never loads the identity battery.  R(x), the Legendre symbol
(-1/p) when 2x = -1 (mod p) and (-1)^m (p + 2(x-m)) / (2x+1) otherwise, is
the right side of theorem1 and sun_s, and theorem2's right side is
(p - (2x^2+2x-1) R(x))/4 in both branches (_r_mod, _theorem2_mod).
Every check splits x once (_split) as (x, x mod p^2, m), reducing x by
core.reduce_ratio, the package's one p-integrality test, and every right
side, lemma21's and the block lemmas' included, is evaluated in Z/p^2 from
m and pt = x mod p^2 - m, with modular inverses: reduction mod p^2 is a
ring homomorphism on the p-integral rationals, so it gives the residues of
the rational closed forms; only lemma21's exact oracle keeps t = (x-m)/p.
Lemma 2.1's ranges of k are written once (_block_ranges).  Table
statements read the table of u = x(x+1) mod p^2 (sequences._table), u from
the split's xr, so a check reduces x once and x, -1-x and x + p^2 read one
table.  Its square sums are a S1 + (b-a) S0 of the two it keeps
(SequenceTable), against which a weighted_* statement checks its direct
sum (_weighted_square_sum); the (n+1)-weighted block sums take sum (n+1)
v_n as S1 does (sequences._plus_one_weighted).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, repeat
from math import comb
from operator import mul
from random import Random
from typing import Callable, NamedTuple, Sequence

from .core import (
    HypothesisViolatedError,
    OracleMismatchError,
    RationalLike,
    RegimeError,
    Residue,
    SupercongError,
    harmonic,
    reduce_ratio,
    require_odd_prime,
    to_fraction,
)
from .sequences import (
    S_MULT,
    SequenceTable,
    T_MULT,
    _factorials,
    _oracle_rows,
    _pair_weights_exact,
    _pair_weights_mod,
    _per_prime,
    _plus_one_weighted,
    _table,
    _table_values,
    _u_mod,
    s_table_mod,
)


class PadicRational(NamedTuple):
    """A p-integral rational split as x = m + p*t with m in [0, p-1]."""

    x: Fraction
    p: int
    m: int
    t: Fraction


def _split(p: int, x: RationalLike) -> tuple[Fraction, int, int]:
    """(x, xr = x mod p^2, m = xr mod p), so pt = xr - m (mod p^2); refuses
    a p that is not an odd prime and, in reduce_ratio, an x that is not
    p-integral, x being in lowest terms."""
    require_odd_prime(p)
    x = to_fraction(x)
    xr = reduce_ratio(x.numerator, x.denominator, p, 2)
    return x, xr, xr % p


def padic_split(x: RationalLike, p: int) -> PadicRational:
    """Split a p-integral rational as x = m + p*t, m the least residue: the
    split every check reads (_split), with t an exact rational."""
    x, _, m = _split(p, x)
    return PadicRational(x, p, m, (x - m) / p)


def residue_table_check(p: int) -> bool:
    """Least residues of -1/4, -1/3, -1/6 match their mod-4/3/6 case table."""
    require_odd_prime(p)
    if p < 5:
        raise ValueError("the case table rows require p >= 5")
    quarter = (p - 1) // 4 if p % 4 == 1 else (3 * p - 1) // 4
    third = (p - 1) // 3 if p % 3 == 1 else (2 * p - 1) // 3
    sixth = (p - 1) // 6 if p % 6 == 1 else (5 * p - 1) // 6
    return (reduce_ratio(-1, 4, p, 1) == quarter
            and reduce_ratio(-1, 3, p, 1) == third
            and reduce_ratio(-1, 6, p, 1) == sixth)


class CongruenceReport:
    """One verification outcome; passed is None only for skipped checks."""

    __slots__ = ("statement", "p", "x", "lhs", "rhs", "passed",
                 "skipped_reason", "micros")

    def __init__(self, statement: str, p: int, x: Fraction | None,
                 lhs: Residue | None, rhs: Residue | None,
                 passed: bool | None, skipped_reason: str | None,
                 micros: int) -> None:
        if lhs is not None and rhs is not None:
            if lhs.modulus != rhs.modulus:
                raise ValueError("lhs/rhs modulus mismatch in report")
            if passed != (lhs == rhs):
                raise ValueError("passed flag contradicts lhs/rhs")
        self.statement = statement
        self.p = p
        self.x = x
        self.lhs = lhs
        self.rhs = rhs
        self.passed = passed
        self.skipped_reason = skipped_reason
        self.micros = micros


def _report(statement: str, p: int, x: Fraction | None, lhs: Residue,
            rhs: Residue) -> CongruenceReport:
    """A residue verdict; micros is 0 until suite.run_check times the task."""
    return CongruenceReport(statement, p, x, lhs, rhs, lhs == rhs, None, 0)


# ---------------------------------------------------------------------------
# pair-weight regimes (three ranges of k, mod p^2)

def _require_half_regime(p: int, m: int) -> None:
    if m > (p - 1) // 2:
        raise RegimeError(f"m = {m} > (p-1)/2; check the reflection -1-x")


def _block_ranges(p: int, m: int) -> tuple[range, range, range]:
    """Lemma 2.1's three ranges of k: [0, m], (m, p-m) and [p-m, p-1]."""
    return range(0, m + 1), range(m + 1, p - m), range(p - m, p)


def _lemma21_exact(p: int, x: Fraction, m: int,
                   ks: Sequence[int]) -> list[tuple[int, int]]:
    """Both sides of Lemma 2.1 mod p^2 at each k in ks, from exact
    rationals; the pair weights are built once, up to max(ks)."""
    t = (x - m) / p
    num, den = _pair_weights_exact(x, max(ks), S_MULT)
    low, mid, _ = _block_ranges(p, m)
    sides = []
    for k in ks:
        rhs = Fraction(0)  # the top range
        if k in low:
            rhs = comb(m, k) * comb(m + k, k) * (
                1 + p * t * (harmonic(m + k) - harmonic(m - k)))
        elif k in mid:
            sign = -1 if (m + k) % 2 == 0 else 1  # (-1)^{m+k+1}
            rhs = Fraction(sign * comb(m + k, k),
                           (k - m) * comb(k, m)) * p * t
        sides.append((reduce_ratio(num[k], den, p, 2),
                      reduce_ratio(rhs.numerator, rhs.denominator, p, 2)))
    return sides


def _lemma21_sides(p: int, xr: int,
                   m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of Lemma 2.1 for every k < p, mod p^2, in one pass.

    The left side is the pair weight with multiplier 1.  On the right,
    every factorial is of a number below p, so a unit: C(m,k) C(m+k,k) =
    (m+k)! / (k!^2 (m-k)!) and C(m+k,k) / ((k-m) C(k,m)) = (m+k)! (k-m-1)!
    / k!^2.  A term p*y needs y only mod p, hence t mod p and H_j mod p,
    the running sum of 1/j = (j-1)! / j! over the same basis, for j < p.
    """
    mod = p * p
    fact, inv_fact = _factorials(p, 2)
    t = (xr - m) // p  # t mod p, as pt = xr - m (mod p^2)
    harm = list(accumulate(map(mul, fact, inv_fact[1:]), initial=0))
    low, mid, _ = _block_ranges(p, m)
    rhs = [0] * p  # the top range stays 0
    for k in low:
        c = fact[m + k] * inv_fact[k] ** 2 * inv_fact[m - k] % mod
        rhs[k] = (c + p * (c * t * (harm[m + k] - harm[m - k]) % p)) % mod
    for k in mid:
        sign = -1 if (m + k) % 2 == 0 else 1  # (-1)^{m+k+1}
        c = fact[m + k] * fact[k - m - 1] * inv_fact[k] ** 2
        rhs[k] = p * (sign * c * t % p)
    return _pair_weights_mod(p, 2, _u_mod(p, 2, xr), S_MULT), tuple(rhs)


def lemma21_all(p: int, x: RationalLike, oracle: str = "off") -> bool:
    """C(x,k) C(x+k,k) mod p^2 matches its regime formula at x = m + pt, at
    every k in [0, p-1]:

      0 <= k <= m:        C(m,k) C(m+k,k) (1 + pt H_{m+k} - pt H_{m-k})
      m < k < p-m:        (-1)^{m+k+1} pt C(m+k,k) / ((k-m) C(k,m))
      p-m <= k <= p-1:    0

    Requires m <= (p-1)/2 (callers reflect x to -1-x first otherwise); the
    middle range is empty when m = (p-1)/2.  Both sides are computed mod p^2
    in one pass (_lemma21_sides).  oracle='off' trusts that pass; 'spot'
    re-derives both sides at five deterministic k (every k when p <= 50)
    over the rationals, reduced mod p^2 only at the end (_lemma21_exact);
    'full' at every k.  A disagreement raises OracleMismatchError.
    """
    x, xr, m = _split(p, x)
    _require_half_regime(p, m)
    lhs, rhs = _lemma21_sides(p, xr, m)
    if oracle != "off":
        ks = _oracle_rows(p, x, oracle)
        for k, exact in zip(ks, _lemma21_exact(p, x, m, ks)):
            if (lhs[k], rhs[k]) != exact:
                raise OracleMismatchError(
                    f"lemma21 k={k} (p={p}, x={x}): fast sides "
                    f"{lhs[k]}, {rhs[k]} != exact {exact[0]}, {exact[1]} "
                    f"(mod {p * p})")
    return lhs == rhs


# ---------------------------------------------------------------------------
# nine-block machinery

def _check_prefixes(p: int, x: Fraction, w: Sequence[int],
                    cuts: Sequence[int],
                    prefixes: Sequence[Sequence[int]]) -> None:
    """Each prefix P_K, K in cuts, against the direct masked sum
    sum_{k<=K} C(n,k) w_k mod p^2 at five rows (fewer when they meet): 1,
    (p-1)/2, p-1 and each K+1 < p, where a boundary term starts to act.  A
    break is a program fault, not a failed congruence."""
    mod = p * p
    fact, inv_fact = _factorials(p, 2)
    rows = {1, (p - 1) // 2, p - 1, *(K + 1 for K in cuts)}
    for n in sorted(n for n in rows if n < p):
        terms = [wk * ik * inv_fact[n - k]
                 for k, (wk, ik) in enumerate(zip(w[:n + 1], inv_fact))]
        for K, prefix in zip(cuts, prefixes):
            direct = fact[n] * sum(terms[:K + 1]) % mod
            if prefix[n] != direct:
                raise SupercongError(
                    f"block prefix P_{K}(n={n}) at p={p}, x={x}: recurrence "
                    f"{prefix[n]} != direct sum {direct} (mod {mod})")


def _audit_transforms(p: int, x: Fraction, m: int,
                      parts: Sequence[Sequence[int]], oracle: str) -> None:
    """Rows of A_lo, A_mid and A_hi against their masked integer sums
    sum_{k in K} C(n,k) W_k over the exact weights' one denominator: the
    _oracle_rows rows in spot mode, every row in full mode."""
    num, den = _pair_weights_exact(x, p - 1, T_MULT)
    for n in _oracle_rows(p, x, oracle):
        row = list(map(mul, map(comb, repeat(n), range(n + 1)), num))
        for name, K, part in zip(("lo", "mid", "hi"), _block_ranges(p, m),
                                 parts):
            exact = reduce_ratio(sum(row[K.start:K.stop]), den, p, 2)
            if part[n] != exact:
                raise OracleMismatchError(
                    f"block transform A_{name} row n={n} (p={p}, x={x}): "
                    f"fast path {part[n]} != exact {exact} (mod {p * p})")


# one entry per (p, x), read by all six block statements
@_per_prime
def _block_sums_mod(p: int, x: Fraction, xr: int, m: int,
                    oracle: str) -> tuple[int, ...]:
    """The nine block sums mod p^2 of the plain split, then the nine of the
    weighted split, each row-major: block K x L is sum_{n<p} c_n A_K(n)
    A_L(n), c_n = 1 or n+1, with A_K(n) = sum_{k in K} C(n,k) w_k mod p^2.

    A_lo = P_m, A_mid = P_{p-m-1} - P_m and A_hi = t - P_{p-m-1}, from the
    prefix sums P_K of `sequences` and the t table of the run's oracle
    mode, shared with theorem1; weights, prefixes and table read u = xr (xr+1).
    _check_prefixes checks the prefixes at five rows; under an oracle,
    _audit_transforms audits A_lo, A_mid and A_hi exactly.
    """
    mod = p * p
    u = _u_mod(p, 2, xr)
    w = _pair_weights_mod(p, 2, u, T_MULT)
    cuts = (m, p - m - 1)  # the last k of lo and of mid
    prefixes = [_table_values(p, 2, u, T_MULT, (K, w)) for K in cuts]
    _check_prefixes(p, x, w, cuts, prefixes)
    lo, top = prefixes
    t = _table(p, 2, u, T_MULT, oracle, x=x).values
    parts = (lo, [(b - a) % mod for a, b in zip(lo, top)],
             [(c - b) % mod for b, c in zip(top, t)])
    if oracle != "off":
        _audit_transforms(p, x, m, parts, oracle)
    sums = {}  # (K, L) -> both sums of A_K A_L, the mirrored cell its twin
    for i, j in combinations_with_replacement(range(3), 2):
        ab = list(map(mul, parts[i], parts[j]))
        sums[i, j] = sums[j, i] = sum(ab) % mod, _plus_one_weighted(ab) % mod
    plain, weighted = zip(*(sums[i, j] for i in range(3) for j in range(3)))
    return plain + weighted


_VANISHING_BLOCKS = (2, 4, 5, 6, 7, 8)  # row-major indices of blocks 3,5,6,7,8,9


def _regime_block_sums(p: int, x: RationalLike, weighted: bool,
                       oracle: str) -> tuple[
        Fraction, int, int, tuple[int, ...]]:
    """_split(p, x) and the nine block sums of one decomposition mod p^2.

    The block statements need m < (p-1)/2.  Reflection x -> -1-x maps m
    to p-1-m, so m = (p-1)/2 stays put and is a skip, not a fault."""
    x, xr, m = _split(p, x)
    if m == (p - 1) // 2:
        raise RegimeError(
            "m = (p-1)/2 for both x and -1-x; outside the stated regime")
    _require_half_regime(p, m)
    sums = _block_sums_mod(p, x, xr, m, oracle)
    return x, xr, m, sums[9:] if weighted else sums[:9]


def block_vanishing_check(p: int, x: RationalLike, weighted: bool = False,
                          oracle: str = "off") -> bool:
    """The six far blocks vanish mod p^2; oracle is the audit mode of the
    block route (its t table and its three transforms)."""
    sums = _regime_block_sums(p, x, weighted, oracle)[3]
    return not any(sums[i] for i in _VANISHING_BLOCKS)


def block_sums(p: int, x: RationalLike,
               weighted: bool = False) -> tuple[Residue, ...]:
    """All nine block sums mod p^2 in row-major order (diagnostic view)."""
    return tuple(Residue(v, p * p)
                 for v in _regime_block_sums(p, x, weighted, "off")[3])


def lemma22_closed(n: int) -> Fraction:
    """Closed form (-1)^n / (2n+1) of identities.lemma22_double_sum."""
    return Fraction((-1) ** n, 2 * n + 1)


def lemma32_closed(n: int) -> Fraction:
    """Closed form 1/4 - (-1)^n (2n^2+2n-1) / (8n+4) of
    identities.lemma32_double_sum."""
    return Fraction(1, 4) - Fraction((-1) ** n * (2 * n * n + 2 * n - 1),
                                     8 * n + 4)


# statement -> (weighted decomposition, row-major block index, closed form c):
# the near block (index 0) is p c(m), the cross block (index 1) is p t c(m)
BLOCK_LEMMAS: dict[str, tuple[bool, int, Callable[[int], Fraction]]] = {
    "lemma23": (False, 0, lemma22_closed),
    "lemma24": (False, 1, lemma22_closed),
    "lemma33": (True, 0, lemma32_closed),
    "lemma34": (True, 1, lambda m: lemma32_closed(m) - Fraction(1, 4)),
}


def block_lemma_check(name: str, p: int, x: RationalLike,
                      oracle: str = "off") -> CongruenceReport:
    """The near or cross block of the plain or (n+1)-weighted decomposition
    mod p^2 against its closed form, by statement id (see BLOCK_LEMMAS);
    c(m) is p-integral (2m+1 < p), so p t c(m) is (xr - m) c(m) mod p^2."""
    weighted, block, closed = BLOCK_LEMMAS[name]
    x, xr, m, sums = _regime_block_sums(p, x, weighted, oracle)
    c = closed(m)
    rhs = reduce_ratio(c.numerator, c.denominator, p, 2) * (
        xr - m if block else p)
    return _report(name, p, x, Residue(sums[block], p * p), Residue(rhs, p * p))


# ---------------------------------------------------------------------------
# headline quadratic congruences

_MINUS_ONE_SYMBOL = {1: 1, 3: -1}  # (-1/p) by p mod 4, p already validated


def _r_mod(p: int, xr: int, m: int) -> Residue:
    """R(x) mod p^2 from _split's xr = x mod p^2 and m: the Legendre symbol
    (-1/p) when 2x = -1 (mod p), else (-1)^m (p + 2(x-m)) / (2x+1), with
    2x+1 a unit.  The right side of theorem1 and sun_s."""
    mod = p * p
    if 2 * m + 1 == p:
        return Residue(_MINUS_ONE_SYMBOL[p % 4], mod)
    ratio = (p + 2 * (xr - m)) * pow(2 * xr + 1, -1, mod)
    return Residue(-ratio if m % 2 else ratio, mod)


def _theorem2_mod(p: int, xr: int, m: int) -> Residue:
    """(p - (2x^2 + 2x - 1) R(x)) / 4 mod p^2, the right side of theorem2.
    On 2x = -1 (mod p), x(x+1) = -1/4 (mod p^2), so it is p/4 + (3/8)(-1/p)."""
    mod = p * p
    r = _r_mod(p, xr, m).value
    return Residue((p - (2 * xr * xr + 2 * xr - 1) * r) * pow(4, -1, mod), mod)


def theorem1_rhs(p: int, x: RationalLike) -> Residue:
    """Closed form R(x) for sum t_n(x)^2 mod p^2 (_r_mod)."""
    return _r_mod(p, *_split(p, x)[1:])


def theorem1_check(p: int, x: RationalLike,
                   oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} t_n(x)^2 mod p^2 against theorem1_rhs."""
    x, xr, m = _split(p, x)
    lhs = _table(p, 2, _u_mod(p, 2, xr), T_MULT, oracle, x=x).square_sum(0, 1)
    return _report("theorem1", p, x, lhs, _r_mod(p, xr, m))


def theorem2_rhs(p: int, x: RationalLike) -> Residue:
    """Closed form (p - (2x^2+2x-1) R(x))/4 for sum (n+1) t_n(x)^2 mod p^2."""
    return _theorem2_mod(p, *_split(p, x)[1:])


def theorem2_check(p: int, x: RationalLike,
                   oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} (n+1) t_n(x)^2 mod p^2 against theorem2_rhs."""
    x, xr, m = _split(p, x)
    lhs = _table(p, 2, _u_mod(p, 2, xr), T_MULT, oracle, x=x).square_sum(1, 1)
    return _report("theorem2", p, x, lhs, _theorem2_mod(p, xr, m))


def _weighted_square_sum(table: SequenceTable, a: int, b: int) -> Residue:
    """sum_{n<p} (a n + b) table[n]^2 mod p^e, summed directly."""
    squares = table.squares
    return Residue(a * sum(map(mul, range(len(squares)), squares))
                   + b * sum(squares), table.modulus)


# (a, b, x, coefficient c in the expected residue c*p, minimum prime)
CONJECTURE_CASES: dict[str, tuple[int, int, Fraction, int, int]] = {
    "weighted_8n5": (8, 5, Fraction(-1, 2), 2, 3),
    "weighted_32n21": (32, 21, Fraction(-1, 4), 8, 3),
    "weighted_18n7": (18, 7, Fraction(-1, 3), 0, 5),
    "weighted_72n49": (72, 49, Fraction(-1, 6), 18, 5),
}


def conjecture_check(name: str, p: int, oracle: str = "off") -> CongruenceReport:
    """One of the four fixed-argument weighted congruences, by statement id:
    sum_{n<p} (a n + b) t_n(x)^2 = c p mod p^2 (CONJECTURE_CASES).

    The direct sum is checked against the table's a S1 + (b-a) S0; a
    disagreement is an internal error, not a verification failure, so it
    raises.
    """
    a, b, x, coeff, min_p = CONJECTURE_CASES[name]
    if p < min_p:
        raise HypothesisViolatedError(f"{name} requires p >= {min_p}")
    x, xr, _ = _split(p, x)
    table = _table(p, 2, _u_mod(p, 2, xr), T_MULT, oracle, x=x)
    lhs = _weighted_square_sum(table, a, b)
    if lhs != table.square_sum(a, b):
        raise SupercongError(
            f"linear-weight recombination failed at p={p}, x={x}")
    return _report(name, p, x, lhs, Residue(coeff * p, p * p))


def kw_check(p: int, oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} s_n(-1/2)^2 = (-1/p) mod p^3 (note: one power deeper)."""
    x = Fraction(-1, 2)
    lhs = s_table_mod(p, 3, x, oracle=oracle).square_sum(0, 1)
    return _report("kw", p, x, lhs, Residue(_MINUS_ONE_SYMBOL[p % 4], p**3))


def sun_s_check(p: int, x: RationalLike,
                oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} s_n(x)^2 = R(x) mod p^2 (_r_mod), hypotheses p > 3 and
    2x != -1 (mod p)."""
    if p <= 3:
        raise HypothesisViolatedError("stated for p > 3 only")
    x, xr, m = _split(p, x)
    if 2 * m + 1 == p:
        raise HypothesisViolatedError("2x = -1 (mod p) is excluded")
    table = _table(p, 2, _u_mod(p, 2, xr), S_MULT, oracle, x=x)
    return _report("sun_s", p, x, table.square_sum(0, 1), _r_mod(p, xr, m))


# ---------------------------------------------------------------------------
# the standard argument grid

GRID_BASE_X = (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4),
               Fraction(-1, 6))
GRID_RANDOM_COUNT = 10
GRID_RANDOM_BOUND = 20
GRID_INT_CAP = 20


def default_x_grid(p: int) -> tuple[Fraction, ...]:
    """The standard argument grid at p: the four fixed rationals (those that
    are p-integral), 10 deterministic pseudo-random p-integral rationals
    with |numerator|, denominator <= 20, then the integers 0..min(p-1, 20).
    Entries are distinct; order is reproducible for log diffing."""
    require_odd_prime(p)
    grid: list[Fraction] = [x for x in GRID_BASE_X if x.denominator % p]
    seen = set(grid)
    rng = Random(1_000_003 * p + 12345)
    added = 0
    while added < GRID_RANDOM_COUNT:
        q = Fraction(rng.randint(-GRID_RANDOM_BOUND, GRID_RANDOM_BOUND),
                     rng.randint(1, GRID_RANDOM_BOUND))
        if q.denominator % p == 0 or q in seen:
            continue
        seen.add(q)
        grid.append(q)
        added += 1
    for i in range(min(p - 1, GRID_INT_CAP) + 1):
        q = Fraction(i)
        if q not in seen:
            seen.add(q)
            grid.append(q)
    return tuple(grid)
