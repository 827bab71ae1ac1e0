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
w_k: three masked binomial transforms mod p^2 per argument, each one
big-integer product against 1/j! packed once (Kronecker substitution), then
O(p) work per distinct product A_K A_L (six; a mirrored block reads its
twin).  Both splits read the same transforms, so one entry per (p, x)
holds the nine sums of each and the transforms are not kept
(_block_sums_mod).  The three transforms must add up to the t table, which
`sequences` builds by its recurrence in n, another route (_table_values,
which the table statements share); a break is a program fault and raises.
The two cross blocks are additionally compared as exact rationals for
p <= 50, each as its own ordered sum of P(k,l) = sum_n C(n,l) C(l,n-k) d_n
over its cells, one column l at a time, with the sum over its rows
carried from l-1 to l by Pascal's rule; their equality is claimed exactly,
not just mod p^2.  One pass per (p, x) sums the cross blocks of both splits
(_cross_blocks_exact).  Both entries are memos of one prime at a time
(sequences._per_prime), so a prime group builds each once.

Each public check validates p once, through padic_split or the table it
builds (sun_s_check decides its exclusion by padic_split, then builds its
table by sequences._table), and passes p on to helpers that take it as
given: reduce_ratio, not mod_reduce, and (-1/p) from p mod 4, not legendre.

Lemma 2.1 is checked at every k < p in one O(p) pass mod p^2; the literal
exact-rational route (lemma21_check) is its oracle, with the exact pair
weights built once per argument.

Each closed form is written once.  The near and cross blocks of Lemmas
2.3/2.4 and 3.3/3.4 are p c(m) and p t c(m), with c the Lemma 2.2 or 3.2
closed form (BLOCK_LEMMAS).  Those two closed forms live here, beside
BLOCK_LEMMAS, and `identities` imports them to check its double sums, so
a verify run never loads the identity battery.  theorem1, theorem2 and
sun_s share the factor (-1)^m (p + 2(x-m)) / (2x+1) (_sign_ratio).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from math import comb
from operator import add, mul
from random import Random
from time import perf_counter_ns
from typing import Callable, Iterable, NamedTuple, Sequence

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
    _table,
    _table_values,
    _x_mod,
    s_table_mod,
    t_table_mod,
)


class PadicRational(NamedTuple):
    """A p-integral rational split as x = m + p*t with m in [0, p-1]."""

    x: Fraction
    p: int
    m: int
    t: Fraction

    def t_mod(self, e: int = 1) -> Residue:
        return _residue(self.t, self.p, e)

    def reflect(self) -> "PadicRational":
        """The split of -1-x; maps m to p-1-m and preserves p-integrality."""
        return _split(-1 - self.x, self.p)


def padic_split(x: RationalLike, p: int) -> PadicRational:
    """Split a p-integral rational as x = m + p*t, m the least residue."""
    require_odd_prime(p)
    return _split(to_fraction(x), p)


def _split(x: Fraction, p: int) -> PadicRational:
    """padic_split for a p already validated."""
    m = _x_mod(p, 1, x)
    return PadicRational(x, p, m, (x - m) / p)


def _as_padic(x: "RationalLike | PadicRational", p: int) -> PadicRational:
    if isinstance(x, PadicRational):
        if x.p != p:
            raise ValueError(f"PadicRational was split at p={x.p}, not {p}")
        return x
    return padic_split(x, p)


def _residue(q: Fraction, p: int, e: int) -> Residue:
    """A p-integral rational mod p^e."""
    return Residue(reduce_ratio(q.numerator, q.denominator, p, e), p**e)


def _minus_one_symbol(p: int) -> int:
    """The Legendre symbol (-1/p): 1 when p = 1 (mod 4), else -1."""
    return 1 if p % 4 == 1 else -1


def residue_table_check(p: int) -> bool:
    """Least residues of -1/4, -1/3, -1/6 match their mod-4/3/6 case table."""
    require_odd_prime(p)
    if p < 5:
        raise ValueError("the case table rows require p >= 5")
    quarter = (p - 1) // 4 if p % 4 == 1 else (3 * p - 1) // 4
    third = (p - 1) // 3 if p % 3 == 1 else (2 * p - 1) // 3
    sixth = (p - 1) // 6 if p % 6 == 1 else (5 * p - 1) // 6
    return (_x_mod(p, 1, Fraction(-1, 4)) == quarter
            and _x_mod(p, 1, Fraction(-1, 3)) == third
            and _x_mod(p, 1, Fraction(-1, 6)) == sixth)


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
            rhs: Residue, t0: int) -> CongruenceReport:
    micros = (perf_counter_ns() - t0) // 1000
    return CongruenceReport(statement, p, x, lhs, rhs, lhs == rhs, None, micros)


# ---------------------------------------------------------------------------
# pair-weight regimes (three ranges of k, mod p^2)

def _require_half_regime(px: PadicRational) -> None:
    if px.m > (px.p - 1) // 2:
        raise RegimeError(f"m = {px.m} > (p-1)/2; check the reflection -1-x")


def _lemma21_exact(px: PadicRational,
                   ks: Sequence[int]) -> list[tuple[int, int]]:
    """Both sides of lemma21_check mod p^2 at each k in ks, from exact
    rationals; the pair weights are built once, up to max(ks)."""
    p, m, t = px.p, px.m, px.t
    num, den = _pair_weights_exact(px.x, max(ks), S_MULT)
    sides = []
    for k in ks:
        if k <= m:
            rhs_exact = comb(m, k) * comb(m + k, k) * (
                1 + p * t * (harmonic(m + k) - harmonic(m - k)))
        elif k >= p - m:
            rhs_exact = Fraction(0)
        else:
            sign = -1 if (m + k) % 2 == 0 else 1  # (-1)^{m+k+1}
            rhs_exact = Fraction(sign * comb(m + k, k),
                                 (k - m) * comb(k, m)) * p * t
        sides.append((reduce_ratio(num[k], den, p, 2),
                      _residue(rhs_exact, p, 2).value))
    return sides


def lemma21_check(p: int, x: "RationalLike | PadicRational", k: int) -> bool:
    """C(x,k) C(x+k,k) mod p^2 matches its regime formula at x = m + pt:

      0 <= k <= m:        C(m,k) C(m+k,k) (1 + pt H_{m+k} - pt H_{m-k})
      m < k < p-m:        (-1)^{m+k+1} pt C(m+k,k) / ((k-m) C(k,m))
      p-m <= k <= p-1:    0

    Requires m <= (p-1)/2 (callers reflect x to -1-x first otherwise); the
    middle range is empty when m = (p-1)/2.  Evaluated over the rationals
    (the exact pair weights, the regime formula in Fractions) and reduced
    mod p^2 only at the end, so it is the oracle for lemma21_all.
    """
    px = _as_padic(x, p)
    _require_half_regime(px)
    if not 0 <= k <= p - 1:
        raise ValueError(f"k = {k} outside [0, {p - 1}]")
    [(lhs, rhs)] = _lemma21_exact(px, [k])
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
    fact, inv_fact, _ = _factorials(p, 2)
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
        ks = _oracle_rows(p, 2, px.x, S_MULT, oracle)
        for k, exact in zip(ks, _lemma21_exact(px, ks)):
            if (lhs[k], rhs[k]) != exact:
                raise OracleMismatchError(
                    f"lemma21 k={k} (p={p}, x={px.x}): fast sides "
                    f"{lhs[k]}, {rhs[k]} != exact {exact[0]}, {exact[1]} "
                    f"(mod {p * p})")
    return lhs == rhs


# ---------------------------------------------------------------------------
# nine-block machinery

def _block_ranges(p: int, m: int) -> tuple[range, range, range]:
    return range(0, m + 1), range(m + 1, p - m), range(p - m, p)


def _pack(values: Iterable[int], width: int) -> int:
    """One integer holding values in consecutive width-byte slots, low first."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, values, repeat(width), repeat("little"))),
        "little")


def _binomial_transform(p: int, e: int,
                        ws: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """sum_k C(n,k) w_k mod p^e for every n in [0, p-1], for each w in ws.

    sum_k C(n,k) w_k = n! * sum_{k+j=n} (w_k / k!) (1 / j!).  This relies on
    n < p: then n! has no factor p, so every factorial is a unit mod p^e.
    The 1/j! are packed once into slots wide enough for a product
    coefficient of at most p (p^e - 1)^2, so that no carry crosses a slot;
    each w_k / k! is packed the same way, and one product per w gives all
    its rows (Kronecker substitution).
    """
    mod = p**e
    fact, inv_fact, _ = _factorials(p, e)
    width = ((p * (mod - 1) ** 2).bit_length() + 7) // 8
    packed_inv_fact = _pack(inv_fact, width)
    from_bytes = int.from_bytes
    out = []
    for w in ws:
        product = _pack([wk * ik % mod for wk, ik in zip(w, inv_fact)],
                        width) * packed_inv_fact
        # the product has 2p - 1 slots; only the first p (rows n < p) are read
        raw = product.to_bytes(width * (2 * p - 1), "little")
        out.append(tuple([from_bytes(raw[i:i + width], "little") * f % mod
                          for i, f in zip(range(0, width * p, width), fact)]))
    return out


# one entry per (p, x), read by all six block statements
@_per_prime
def _block_sums_mod(p: int, x: Fraction) -> tuple[int, ...]:
    """The nine block sums mod p^2 of the plain split, then the nine of the
    weighted split, each row-major: block K x L is sum_{n<p} c_n A_K(n)
    A_L(n), c_n = 1 or n+1, with A_K(n) = sum_{k in K} C(n,k) w_k mod p^2.

    The three ranges partition [0, p-1], so the transforms add up to the t
    table, which the recurrence of `sequences` builds by another route;
    anything else is a program fault, not a failed congruence.
    """
    w = _pair_weights_mod(p, 2, x, T_MULT)
    parts = _binomial_transform(
        p, 2, [[wk if k in K else 0 for k, wk in enumerate(w)]
               for K in _block_ranges(p, _x_mod(p, 1, x))])
    mod = p * p
    if any((a + b + c) % mod != t for a, b, c, t in
           zip(*parts, _table_values(p, 2, x, T_MULT))):
        raise SupercongError(
            f"block transforms do not add up to the t table at p={p}, x={x}")
    sums = {}  # (K, L) -> both sums of A_K A_L, the mirrored cell its twin
    for i, j in combinations_with_replacement(range(3), 2):
        ab = list(map(mul, parts[i], parts[j]))
        sums[i, j] = sums[j, i] = (
            sum(ab) % mod, sum(map(mul, range(1, p + 1), ab)) % mod)
    plain, weighted = zip(*(sums[i, j] for i in range(3) for j in range(3)))
    return plain + weighted


# The exact cross-block equality is checked up to this prime.  Mod p^2 the
# two cross blocks are one product read twice, and over Q their equality is
# the symmetry of P(k,l) = sum_n c_n C(n,k) C(n,l), which holds at every p;
# the ordered sums of _cross_blocks_exact only witness that identity, in
# O(p) passes over lists of p big integers per argument, so above this size
# they are skipped.
_EXACT_CROSS_PMAX = 50


# one entry per (p, x), read by blocks and then by blocks_weighted
@_per_prime
def _cross_blocks_exact(p: int, x: Fraction) -> tuple[
        tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Blocks 2 and 4 (lo x mid and mid x lo) of the plain split, then of
    the weighted split, as exact rationals, each summed over the integers
    with the weights on their one common denominator.

    A block K x L is sum_{l in L} W_l sum_{n<p} d_n C(n,l) g_l(n), with
    g_l(n) = sum_{k in K} W_k C(l,n-k), which is P(k,l) = sum_n C(n,l)
    C(l,n-k) d_n summed over the cells.  d_n = C(p,n+1) gives the plain
    split and (n+1) C(p+1,n+2) the weighted one (identities.binom_conv_sum
    and weighted_binom_conv_sum at N = p).  g_0 is W masked to K, and
    Pascal's rule C(l,j) = C(l-1,j) + C(l-1,j-1) steps it from l-1 to l.
    K enters only through C(l,n-k) and L only through d_n C(n,l), so the two
    orders of a cross block are different sums, and their equality is a
    real check of the symmetry of P(k,l).
    """
    plain = [comb(p, n + 1) for n in range(p)]
    weighted = [(n + 1) * comb(p + 1, n + 2) for n in range(p)]
    num, den = _pair_weights_exact(x, p - 1, T_MULT)
    lo, mid, _ = _block_ranges(p, _x_mod(p, 1, x))
    blocks = []  # (plain, weighted) of lo x mid, then of mid x lo
    for rows, cols in ((lo, mid), (mid, lo)):
        # g[i] = g_l(l+i): C(n,l) = 0 for n < l, so only n >= l is kept
        g = [w if n in rows else 0 for n, w in enumerate(num)]
        a = b = 0
        for l in range(cols.stop):
            if l in cols:
                h = list(map(mul, g, map(comb, range(l, p), repeat(l))))
                a += num[l] * sum(map(mul, plain[l:], h))
                b += num[l] * sum(map(mul, weighted[l:], h))
            g = list(map(add, g[1:], g))  # g_l to g_{l+1}
        blocks.append((Fraction(a, den * den), Fraction(b, den * den)))
    return tuple(zip(*blocks))


_VANISHING_BLOCKS = (2, 4, 5, 6, 7, 8)  # row-major indices of blocks 3,5,6,7,8,9


def _regime_block_sums(p: int, x: "RationalLike | PadicRational",
                       weighted: bool) -> tuple[PadicRational, tuple[int, ...]]:
    """The split of x and the nine block sums of one split mod p^2.

    The block statements need m < (p-1)/2.  Reflection x -> -1-x maps m
    to p-1-m, so m = (p-1)/2 stays put and is a skip, not a fault."""
    px = _as_padic(x, p)
    if px.m == (p - 1) // 2:
        raise RegimeError(
            "m = (p-1)/2 for both x and -1-x; outside the stated regime")
    if px.m > (p - 1) // 2:
        raise RegimeError(f"m = {px.m} > (p-1)/2 at p = {p}; "
                          "reflect x to -1-x first")
    sums = _block_sums_mod(p, px.x)
    return px, sums[9:] if weighted else sums[:9]


def block_vanishing_check(p: int, x: "RationalLike | PadicRational",
                          weighted: bool = False) -> bool:
    """Six far blocks vanish mod p^2 and, for p <= 50, the two cross blocks
    agree exactly."""
    px, sums = _regime_block_sums(p, x, weighted)
    if any(sums[i] for i in _VANISHING_BLOCKS):
        return False
    if p > _EXACT_CROSS_PMAX:
        return True
    lo_mid, mid_lo = _cross_blocks_exact(p, px.x)[weighted]
    return lo_mid == mid_lo


def block_sums(p: int, x: "RationalLike | PadicRational",
               weighted: bool = False) -> tuple[Residue, ...]:
    """All nine block sums mod p^2 in row-major order (diagnostic view)."""
    mod = p * p
    return tuple(Residue(v, mod) for v in _regime_block_sums(p, x, weighted)[1])


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


def block_lemma_check(name: str, p: int,
                      x: "RationalLike | PadicRational") -> CongruenceReport:
    """The near or cross block of the plain or (n+1)-weighted decomposition
    mod p^2 against its closed form, by statement id (see BLOCK_LEMMAS)."""
    t0 = perf_counter_ns()
    weighted, block, closed = BLOCK_LEMMAS[name]
    px, sums = _regime_block_sums(p, x, weighted)
    lhs = Residue(sums[block], p * p)
    rhs = p * closed(px.m) * (px.t if block else 1)
    return _report(name, p, px.x, lhs, _residue(rhs, p, 2), t0)


# ---------------------------------------------------------------------------
# headline quadratic congruences

def _weighted_square_sum(table: SequenceTable, a: int, b: int) -> Residue:
    """sum_{n<p} (a n + b) table[n]^2 mod p^e, summed directly."""
    v = table.values
    squares = map(mul, v, v)
    total = (sum(map(mul, range(b, b + a * len(v), a), squares)) if a
             else b * sum(squares))
    return Residue(total, table.modulus)


def _sign_ratio(px: PadicRational) -> Fraction:
    """(-1)^m (p + 2(x-m)) / (2x+1), shared by theorem1, theorem2 and sun_s."""
    return (-1) ** px.m * (px.p + 2 * (px.x - px.m)) / (2 * px.x + 1)


def theorem1_rhs(p: int, x: "RationalLike | PadicRational") -> Residue:
    """Closed form for sum t_n(x)^2 mod p^2: the Legendre symbol (-1/p)
    when 2x = -1 (mod p), else (-1)^m (p + 2(x-m)) / (2x+1)."""
    px = _as_padic(x, p)
    if 2 * px.m + 1 == p:
        return Residue(_minus_one_symbol(p), p * p)
    return _residue(_sign_ratio(px), p, 2)


def theorem1_check(p: int, x: RationalLike,
                   oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} t_n(x)^2 mod p^2 against theorem1_rhs."""
    t0 = perf_counter_ns()
    table = t_table_mod(p, 2, x, oracle=oracle)
    lhs = _weighted_square_sum(table, 0, 1)
    return _report("theorem1", p, table.x, lhs,
                   theorem1_rhs(p, _split(table.x, p)), t0)


def theorem2_rhs(p: int, x: "RationalLike | PadicRational") -> Residue:
    """Closed form for sum (n+1) t_n(x)^2 mod p^2:
    p/4 + (3/8)(-1/p) when 2x = -1 (mod p), else
    p/4 - (-1)^m (2x^2 + 2x - 1)(p + 2(x-m)) / (8x+4)."""
    px = _as_padic(x, p)
    if 2 * px.m + 1 == p:
        val = Fraction(p, 4) + Fraction(3, 8) * _minus_one_symbol(p)
    else:
        val = Fraction(p, 4) - (
            (2 * px.x * px.x + 2 * px.x - 1) / 4 * _sign_ratio(px))
    return _residue(val, p, 2)


def theorem2_check(p: int, x: RationalLike,
                   oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} (n+1) t_n(x)^2 mod p^2 against theorem2_rhs."""
    t0 = perf_counter_ns()
    table = t_table_mod(p, 2, x, oracle=oracle)
    lhs = _weighted_square_sum(table, 1, 1)
    return _report("theorem2", p, table.x, lhs,
                   theorem2_rhs(p, _split(table.x, p)), t0)


def weighted_sum_check(p: int, a: int, b: int, x: RationalLike,
                       expected: "Residue | int",
                       oracle: str = "off") -> CongruenceReport:
    """sum_{n<p} (a n + b) t_n(x)^2 mod p^2 against an expected residue.

    The direct sum is also cross-derived as a * [sum (n+1) t^2] +
    (b - a) * [sum t^2]; disagreement there is an internal error, not a
    verification failure, so it raises.
    """
    t0 = perf_counter_ns()
    mod = p * p
    if isinstance(expected, int):
        expected = Residue(expected, mod)
    if expected.modulus != mod:
        raise ValueError(f"expected residue has modulus {expected.modulus}, "
                         f"want {mod}")
    table = t_table_mod(p, 2, x, oracle=oracle)
    lhs = _weighted_square_sum(table, a, b)
    plain = _weighted_square_sum(table, 0, 1)
    shifted = _weighted_square_sum(table, 1, 1)
    if lhs != a * shifted + (b - a) * plain:
        raise SupercongError(
            f"linear-weight recombination failed at p={p}, x={table.x}")
    return _report(f"weighted_{a}n{b}", p, table.x, lhs, expected, t0)


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
    rhs = Residue(_minus_one_symbol(p), p**3)
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
    table = _table(p, 2, px.x, S_MULT, oracle)
    lhs = _weighted_square_sum(table, 0, 1)
    rhs = _residue(_sign_ratio(px), p, 2)
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
