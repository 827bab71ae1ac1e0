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
w_k: three masked binomial transforms mod p^2 per argument (the same
routine as the t table), then O(p) work per block.  The three transforms
must add up to the t table; a break is a program fault and raises.  The
two cross blocks are additionally compared as exact rationals for p <= 50,
through the literal, ordered inner table P(k,l); their equality is claimed
exactly, not just mod p^2.

Lemma 2.1 is checked at every k < p in one O(p) pass mod p^2; the literal
exact-rational route (lemma21_check) is its oracle.

Each closed form is written once.  The near and cross blocks of Lemmas
2.3/2.4 and 3.3/3.4 are p c(m) and p t c(m), with c the Lemma 2.2 or 3.2
closed form taken from `identities` (BLOCK_LEMMAS); theorem1, theorem2 and
sun_s share the factor (-1)^m (p + 2(x-m)) / (2x+1) (_sign_ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from random import Random
from time import perf_counter_ns
from typing import Callable

from .core import (
    HypothesisViolatedError,
    NonPIntegralError,
    OracleMismatchError,
    RationalLike,
    RegimeError,
    Residue,
    SupercongError,
    binom_gen,
    harmonic,
    legendre,
    mod_reduce,
    require_odd_prime,
    to_fraction,
)
from .identities import lemma22_closed, lemma32_closed
from .sequences import (
    S_MULT,
    SequenceTable,
    T_MULT,
    _binomial_transform,
    _factorials,
    _oracle_rows,
    _pair_weights_exact,
    _pair_weights_mod,
    _table_values,
    s_table_mod,
    t_table_mod,
)


@dataclass(frozen=True)
class PadicRational:
    """A p-integral rational split as x = m + p*t with m in [0, p-1]."""

    x: Fraction
    p: int
    m: int
    t: Fraction

    def t_mod(self, e: int = 1) -> Residue:
        return mod_reduce(self.t, self.p, e)

    def reflect(self) -> "PadicRational":
        """The split of -1-x; maps m to p-1-m and preserves p-integrality."""
        return padic_split(-1 - self.x, self.p)


def padic_split(x: RationalLike, p: int) -> PadicRational:
    """Split a p-integral rational as x = m + p*t, m the least residue."""
    require_odd_prime(p)
    x = to_fraction(x)
    if x.denominator % p == 0:
        raise NonPIntegralError(f"{x} is not {p}-integral")
    m = x.numerator * pow(x.denominator, -1, p) % p
    return PadicRational(x, p, m, (x - m) / p)


def _as_padic(x: "RationalLike | PadicRational", p: int) -> PadicRational:
    if isinstance(x, PadicRational):
        if x.p != p:
            raise ValueError(f"PadicRational was split at p={x.p}, not {p}")
        return x
    return padic_split(x, p)


def residue_table_check(p: int) -> bool:
    """Least residues of -1/4, -1/3, -1/6 match their mod-4/3/6 case table."""
    require_odd_prime(p)
    if p < 5:
        raise ValueError("the case table rows require p >= 5")
    quarter = (p - 1) // 4 if p % 4 == 1 else (3 * p - 1) // 4
    third = (p - 1) // 3 if p % 3 == 1 else (2 * p - 1) // 3
    sixth = (p - 1) // 6 if p % 6 == 1 else (5 * p - 1) // 6
    return (padic_split(Fraction(-1, 4), p).m == quarter
            and padic_split(Fraction(-1, 3), p).m == third
            and padic_split(Fraction(-1, 6), p).m == sixth)


@dataclass(frozen=True)
class CongruenceReport:
    """One verification outcome; passed is None only for skipped checks."""

    statement: str
    p: int
    x: Fraction | None
    lhs: Residue | None
    rhs: Residue | None
    passed: bool | None
    skipped_reason: str | None
    micros: int

    def __post_init__(self) -> None:
        if self.lhs is not None and self.rhs is not None:
            if self.lhs.modulus != self.rhs.modulus:
                raise ValueError("lhs/rhs modulus mismatch in report")
            if self.passed != (self.lhs == self.rhs):
                raise ValueError("passed flag contradicts lhs/rhs")


def _report(statement: str, p: int, x: Fraction | None, lhs: Residue,
            rhs: Residue, t0: int) -> CongruenceReport:
    micros = (perf_counter_ns() - t0) // 1000
    return CongruenceReport(statement, p, x, lhs, rhs, lhs == rhs, None, micros)


# ---------------------------------------------------------------------------
# pair-weight regimes (three ranges of k, mod p^2)

def _require_half_regime(px: PadicRational) -> None:
    if px.m > (px.p - 1) // 2:
        raise RegimeError(f"m = {px.m} > (p-1)/2; check the reflection -1-x")


def _lemma21_exact(px: PadicRational, k: int) -> tuple[Residue, Residue]:
    """Both sides of lemma21_check at k, from exact rationals."""
    p, m, t = px.p, px.m, px.t
    lhs = mod_reduce(binom_gen(px.x, k) * binom_gen(px.x + k, k), p, 2)
    if k <= m:
        rhs_exact = comb(m, k) * comb(m + k, k) * (
            1 + p * t * (harmonic(m + k) - harmonic(m - k)))
    elif k >= p - m:
        rhs_exact = Fraction(0)
    else:
        sign = -1 if (m + k) % 2 == 0 else 1  # (-1)^{m+k+1}
        rhs_exact = Fraction(sign * comb(m + k, k),
                             (k - m) * comb(k, m)) * p * t
    return lhs, mod_reduce(rhs_exact, p, 2)


def lemma21_check(p: int, x: "RationalLike | PadicRational", k: int) -> bool:
    """C(x,k) C(x+k,k) mod p^2 matches its regime formula at x = m + pt:

      0 <= k <= m:        C(m,k) C(m+k,k) (1 + pt H_{m+k} - pt H_{m-k})
      m < k < p-m:        (-1)^{m+k+1} pt C(m+k,k) / ((k-m) C(k,m))
      p-m <= k <= p-1:    0

    Requires m <= (p-1)/2 (callers reflect x to -1-x first otherwise); the
    middle range is empty when m = (p-1)/2.  Evaluated literally over the
    rationals, so it is the oracle for lemma21_all.
    """
    px = _as_padic(x, p)
    _require_half_regime(px)
    if not 0 <= k <= p - 1:
        raise ValueError(f"k = {k} outside [0, {p - 1}]")
    lhs, rhs = _lemma21_exact(px, k)
    return lhs == rhs


def _lemma21_sides(px: PadicRational) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of lemma21_check for every k < p, mod p^2, in one pass.

    The left side is the pair weight with multiplier 1.  On the right,
    every factorial is of a number below p, so a unit: C(m,k) C(m+k,k) =
    (m+k)! / (k!^2 (m-k)!) and C(m+k,k) / ((k-m) C(k,m)) = (m+k)! (k-m-1)!
    / k!^2.  A term p*y needs y only mod p, hence t mod p and H_j mod p.
    """
    p, m = px.p, px.m
    mod = p * p
    fact, inv_fact = _factorials(p, 2)
    t = px.t_mod(1).value
    harm = [0] * p  # H_j mod p, with 1/j = (j-1)! / j!
    for j in range(1, p):
        harm[j] = (harm[j - 1] + fact[j - 1] * inv_fact[j]) % p
    rhs = [0] * p  # k >= p - m stays 0
    for k in range(p - m):
        if k <= m:
            c = fact[m + k] * inv_fact[k] ** 2 * inv_fact[m - k] % mod
            rhs[k] = (c + p * (c * t * (harm[m + k] - harm[m - k]) % p)) % mod
        else:
            sign = -1 if (m + k) % 2 == 0 else 1  # (-1)^{m+k+1}
            c = fact[m + k] * fact[k - m - 1] * inv_fact[k] ** 2
            rhs[k] = p * (sign * c * t % p)
    return _pair_weights_mod(p, 2, px.x, S_MULT), tuple(rhs)


def lemma21_all(p: int, x: "RationalLike | PadicRational",
                oracle: str = "off") -> bool:
    """lemma21_check at every k in [0, p-1], both sides computed mod p^2.

    oracle='off' trusts the modular pass; 'spot' re-derives both sides at
    five deterministic k (every k when p <= 50) through the exact route of
    lemma21_check; 'full' at every k.  A disagreement raises
    OracleMismatchError.
    """
    px = _as_padic(x, p)
    _require_half_regime(px)
    lhs, rhs = _lemma21_sides(px)
    if oracle != "off":
        for k in _oracle_rows(p, 2, px.x, S_MULT, oracle):
            exact = tuple(r.value for r in _lemma21_exact(px, k))
            if (lhs[k], rhs[k]) != exact:
                raise OracleMismatchError(
                    f"lemma21 k={k} (p={p}, x={px.x}): fast sides "
                    f"{lhs[k]}, {rhs[k]} != exact {exact[0]}, {exact[1]} "
                    f"(mod {p * p})")
    return lhs == rhs


# ---------------------------------------------------------------------------
# nine-block machinery

@lru_cache(maxsize=32)
def _scaled_inner_exact(p: int) -> tuple[tuple[tuple[int, ...], ...],
                                         tuple[tuple[int, ...], ...]]:
    """P_f(k,l) = sum_n C(n,l) C(l,n-k) C(p,n+1) and the weighted
    P_g(k,l) = sum_n C(n,l) C(l,n-k) (n+1) C(p+1,n+2), k,l in [0,p-1].

    These equal sum_{n<p} C(n,k) C(n,l) and sum_{n<p} (n+1) C(n,k) C(n,l)
    (identities.binom_conv_sum and weighted_binom_conv_sum at N = p).  The
    summand is not visibly symmetric under k <-> l, and each ordered cell is
    computed literally, so the exact cross-block equality stays a real check.
    """
    require_odd_prime(p)
    plain = [comb(p, n + 1) for n in range(p)]
    weighted = [(n + 1) * comb(p + 1, n + 2) for n in range(p)]
    f_rows = []
    g_rows = []
    for k in range(p):
        f_row = []
        g_row = []
        for l in range(p):
            sf = sg = 0
            for n in range(max(k, l), min(k + l, p - 1) + 1):
                c = comb(n, l) * comb(l, n - k)
                sf += c * plain[n]
                sg += c * weighted[n]
            f_row.append(sf)
            g_row.append(sg)
        f_rows.append(tuple(f_row))
        g_rows.append(tuple(g_row))
    return tuple(f_rows), tuple(g_rows)


def _block_ranges(p: int, m: int) -> tuple[range, range, range]:
    return range(0, m + 1), range(m + 1, p - m), range(p - m, p)


@lru_cache(maxsize=1024)
def _block_transforms(p: int, x: Fraction) -> tuple[tuple[int, ...], ...]:
    """A_K(n) = sum_{k in K} C(n,k) w_k mod p^2, n < p, for K = lo, mid, hi.

    The three ranges partition [0, p-1], so the transforms add up to the t
    table; anything else is a program fault, not a failed congruence.
    """
    w = _pair_weights_mod(p, 2, x, T_MULT)
    parts = tuple(
        _binomial_transform(p, 2, [wk if k in K else 0
                                   for k, wk in enumerate(w)])
        for K in _block_ranges(p, padic_split(x, p).m))
    mod = p * p
    if any((a + b + c) % mod != t for a, b, c, t in
           zip(*parts, _table_values(p, 2, x, T_MULT))):
        raise SupercongError(
            f"block transforms do not add up to the t table at p={p}, x={x}")
    return parts


@lru_cache(maxsize=1024)
def _block_sums_mod(p: int, x: Fraction, weighted: bool) -> tuple[int, ...]:
    """The nine rectangle sums of w_k w_l P(k,l) mod p^2, row-major order:
    block K x L is sum_{n<p} c_n A_K(n) A_L(n), c_n = n+1 or 1."""
    parts = _block_transforms(p, x)
    c = range(1, p + 1) if weighted else (1,) * p
    mod = p * p
    return tuple(sum(cn * a * b for cn, a, b in zip(c, ak, al)) % mod
                 for ak in parts for al in parts)


# The exact cross-block equality is checked up to this prime.  Mod p^2 the
# two cross blocks are one product read twice, and over Q their equality is
# the symmetry of P(k,l) = sum_n c_n C(n,k) C(n,l), which holds at every p;
# the literal table is only an independent witness of that identity, and
# costs O(p^3), so above this size it is not rebuilt.
_EXACT_CROSS_PMAX = 50


@lru_cache(maxsize=512)
def _cross_blocks_exact(p: int, x: Fraction,
                        weighted: bool) -> tuple[Fraction, Fraction]:
    """Blocks 2 and 4 (lo x mid and mid x lo) as exact rationals, summed
    over the integers with the weights on one common denominator."""
    m = padic_split(x, p).m
    scaled_f, scaled_g = _scaled_inner_exact(p)
    inner = scaled_g if weighted else scaled_f
    w = _pair_weights_exact(x, p - 1, T_MULT)
    den = lcm(*(v.denominator for v in w))
    num = [v.numerator * (den // v.denominator) for v in w]
    lo, mid, _ = _block_ranges(p, m)
    lo_mid = sum(num[k] * num[l] * inner[k][l] for k in lo for l in mid)
    mid_lo = sum(num[k] * num[l] * inner[k][l] for k in mid for l in lo)
    return Fraction(lo_mid, den * den), Fraction(mid_lo, den * den)


_VANISHING_BLOCKS = (2, 4, 5, 6, 7, 8)  # row-major indices of blocks 3,5,6,7,8,9


def _require_low_regime(px: PadicRational) -> None:
    if px.m >= (px.p - 1) // 2:
        raise RegimeError(
            f"m = {px.m} >= (p-1)/2 at p = {px.p}; "
            "reflect x to -1-x first (m = (p-1)/2 has no reflection)")


def block_vanishing_check(p: int, x: RationalLike, weighted: bool = False) -> bool:
    """Six far blocks vanish mod p^2 and, for p <= 50, the two cross blocks
    agree exactly."""
    px = _as_padic(x, p)
    _require_low_regime(px)
    sums = _block_sums_mod(p, px.x, weighted)
    if any(sums[i] for i in _VANISHING_BLOCKS):
        return False
    if p > _EXACT_CROSS_PMAX:
        return True
    lo_mid, mid_lo = _cross_blocks_exact(p, px.x, weighted)
    return lo_mid == mid_lo


def block_sums(p: int, x: RationalLike,
               weighted: bool = False) -> tuple[Residue, ...]:
    """All nine block sums mod p^2 in row-major order (diagnostic view)."""
    px = _as_padic(x, p)
    _require_low_regime(px)
    mod = p * p
    return tuple(Residue(v, mod) for v in _block_sums_mod(p, px.x, weighted))


# statement -> (weighted decomposition, row-major block index, closed form c):
# the near block (index 0) is p c(m), the cross block (index 1) is p t c(m)
BLOCK_LEMMAS: dict[str, tuple[bool, int, Callable[[int], Fraction]]] = {
    "lemma23": (False, 0, lemma22_closed),
    "lemma24": (False, 1, lemma22_closed),
    "lemma33": (True, 0, lemma32_closed),
    "lemma34": (True, 1, lambda m: lemma32_closed(m) - Fraction(1, 4)),
}


def block_lemma_check(name: str, p: int, x: RationalLike) -> CongruenceReport:
    """The near or cross block of the plain or (n+1)-weighted decomposition
    mod p^2 against its closed form, by statement id (see BLOCK_LEMMAS)."""
    t0 = perf_counter_ns()
    weighted, block, closed = BLOCK_LEMMAS[name]
    px = _as_padic(x, p)
    _require_low_regime(px)
    lhs = Residue(_block_sums_mod(p, px.x, weighted)[block], p * p)
    rhs = p * closed(px.m) * (px.t if block else 1)
    return _report(name, p, px.x, lhs, mod_reduce(rhs, p, 2), t0)


# ---------------------------------------------------------------------------
# headline quadratic congruences

def _weighted_square_sum(table: SequenceTable, a: int, b: int) -> Residue:
    """sum_{n<p} (a n + b) table[n]^2 mod p^e."""
    mod = table.modulus
    acc = 0
    for n, v in enumerate(table.values):
        acc += (a * n + b) * v * v
    return Residue(acc % mod, mod)


def _sign_ratio(px: PadicRational) -> Fraction:
    """(-1)^m (p + 2(x-m)) / (2x+1), shared by theorem1, theorem2 and sun_s."""
    return (-1) ** px.m * (px.p + 2 * (px.x - px.m)) / (2 * px.x + 1)


def theorem1_rhs(p: int, x: "RationalLike | PadicRational") -> Residue:
    """Closed form for sum t_n(x)^2 mod p^2: the Legendre symbol (-1/p)
    when 2x = -1 (mod p), else (-1)^m (p + 2(x-m)) / (2x+1)."""
    px = _as_padic(x, p)
    if 2 * px.m + 1 == p:
        return Residue(legendre(-1, p), p * p)
    return mod_reduce(_sign_ratio(px), p, 2)


def theorem1_check(p: int, x: RationalLike,
                   oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} t_n(x)^2 mod p^2 against theorem1_rhs."""
    t0 = perf_counter_ns()
    px = _as_padic(x, p)
    table = t_table_mod(p, 2, px.x, oracle=oracle)
    lhs = _weighted_square_sum(table, 0, 1)
    return _report("theorem1", p, px.x, lhs, theorem1_rhs(p, px), t0)


def theorem2_rhs(p: int, x: "RationalLike | PadicRational") -> Residue:
    """Closed form for sum (n+1) t_n(x)^2 mod p^2:
    p/4 + (3/8)(-1/p) when 2x = -1 (mod p), else
    p/4 - (-1)^m (2x^2 + 2x - 1)(p + 2(x-m)) / (8x+4)."""
    px = _as_padic(x, p)
    if 2 * px.m + 1 == p:
        val = Fraction(p, 4) + Fraction(3, 8) * legendre(-1, p)
    else:
        val = Fraction(p, 4) - (
            (2 * px.x * px.x + 2 * px.x - 1) / 4 * _sign_ratio(px))
    return mod_reduce(val, p, 2)


def theorem2_check(p: int, x: RationalLike,
                   oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} (n+1) t_n(x)^2 mod p^2 against theorem2_rhs."""
    t0 = perf_counter_ns()
    px = _as_padic(x, p)
    table = t_table_mod(p, 2, px.x, oracle=oracle)
    lhs = _weighted_square_sum(table, 1, 1)
    return _report("theorem2", p, px.x, lhs, theorem2_rhs(p, px), t0)


def weighted_sum_check(p: int, a: int, b: int, x: RationalLike,
                       expected: "Residue | int",
                       oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} (a n + b) t_n(x)^2 mod p^2 against an expected residue.

    The direct sum is also cross-derived as a * [sum (n+1) t^2] +
    (b - a) * [sum t^2]; disagreement there is an internal error, not a
    verification failure, so it raises.
    """
    t0 = perf_counter_ns()
    px = _as_padic(x, p)
    mod = p * p
    if isinstance(expected, int):
        expected = Residue(expected, mod)
    if expected.modulus != mod:
        raise ValueError(f"expected residue has modulus {expected.modulus}, "
                         f"want {mod}")
    table = t_table_mod(p, 2, px.x, oracle=oracle)
    lhs = _weighted_square_sum(table, a, b)
    plain = _weighted_square_sum(table, 0, 1)
    shifted = _weighted_square_sum(table, 1, 1)
    if lhs != a * shifted + (b - a) * plain:
        raise SupercongError(
            f"linear-weight recombination failed at p={p}, x={px.x}")
    return _report(f"weighted_{a}n{b}", p, px.x, lhs, expected, t0)


# (a, b, x, coefficient c in the expected residue c*p, minimum prime)
CONJECTURE_CASES: dict[str, tuple[int, int, Fraction, int, int]] = {
    "weighted_8n5": (8, 5, Fraction(-1, 2), 2, 3),
    "weighted_32n21": (32, 21, Fraction(-1, 4), 8, 3),
    "weighted_18n7": (18, 7, Fraction(-1, 3), 0, 5),
    "weighted_72n49": (72, 49, Fraction(-1, 6), 18, 5),
}


def conjecture_check(name: str, p: int, oracle: str = "off") -> CongruenceReport:
    """One of the four fixed-argument weighted congruences, by statement id."""
    a, b, x, coeff, min_p = CONJECTURE_CASES[name]
    if p < min_p:
        raise HypothesisViolatedError(f"{name} requires p >= {min_p}")
    return weighted_sum_check(p, a, b, x, Residue(coeff * p, p * p), oracle)


def kw_check(p: int, oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} s_n(-1/2)^2 = (-1/p) mod p^3 (note: one power deeper)."""
    t0 = perf_counter_ns()
    x = Fraction(-1, 2)
    table = s_table_mod(p, 3, x, oracle=oracle)
    lhs = _weighted_square_sum(table, 0, 1)
    rhs = Residue(legendre(-1, p), p**3)
    return _report("kw", p, x, lhs, rhs, t0)


def sun_s_check(p: int, x: RationalLike,
                oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} s_n(x)^2 = (-1)^m (p + 2(x-m)) / (2x+1) mod p^2,
    hypotheses p > 3 and 2x != -1 (mod p)."""
    t0 = perf_counter_ns()
    if p <= 3:
        raise HypothesisViolatedError("stated for p > 3 only")
    px = _as_padic(x, p)
    if 2 * px.m + 1 == p:
        raise HypothesisViolatedError("2x = -1 (mod p) is excluded")
    table = s_table_mod(p, 2, px.x, oracle=oracle)
    lhs = _weighted_square_sum(table, 0, 1)
    rhs = mod_reduce(_sign_ratio(px), p, 2)
    return _report("sun_s", p, px.x, lhs, rhs, t0)


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
