"""The binomial double-product sequences: exact values and residue tables.

Two evaluation routes are kept strictly separate on purpose.  The fast route
works entirely mod p^e, over lists built once per (p, e): 1/n^2 for 0 < n <
p (_inv_squares), which every table reads, and n! and 1/n! (_factorials),
which only the pair weights, the block prefixes and Lemma 2.1 read; all are
units, since no number below p has a factor p.  Both families are f_n =
sum_k C(n,k) C(x,k) C(x+k,k) c^k (c = 2 for t, c = 1 for s), the
hypergeometric sum 3F2(-n, -x, x+1; 1, 1; c), so they satisfy one
recurrence in n for every c:

  N^2 f_N = ((3-c) N(N-1) + 1 + c x(x+1)) f_{N-1} + (2c-3) (N-1)^2 f_{N-2}
            - (c-1) (N-1)(N-2) f_{N-3},   f_0 = 1

(of order 2 when c = 1, and the s loop steps without f_{N-3}; at N = 1, 2
the terms before f_0 have coefficient 0, so they need no start value).  A
table needs rows N < p only, so the one division, by N^2, is by a unit mod
p^e, read from the prime's list.  The coefficients depend on N and c only,
one list each per c for the whole run (_steps), so a table is one zip of
small-integer steps mod p^e over them and the 1/N^2 of (p, e) (_table_values).
The pair weight w_k = C(x,k) C(x+k,k) c^k is the running product of
c (u - k(k-1)) = c (x-k+1)(x+k) times (1/k!)^2 from _factorials, so the fast
route, recurrence included, reads x only through u = x(x+1) mod p^e
(_u_mod, from x mod p^e, which each caller reduces once).  _table keeps one
table per u with its audit, its squares and the paper's two square sums
(SequenceTable), so x, -1-x and x + p^e share one table, each table is
audited once per oracle mode, at the first x that builds it, squared once,
and each of the two sums is taken at most once.  The memos keep the
entries of the latest prime only (_per_prime), as do those of
`congruences`: a run computes prime by prime; the step lists alone are
kept for the run.  With one boundary term a loop of its own gives the
prefix sums P_K of the block transforms in `congruences`.
The slow route works with integers only, for x = a/b: _row_exact evaluates
row n of both families in one pass, by a term-ratio recurrence, as two
integer numerators over M b^{2n}, where M is the part of (2n)! made of the
primes of b, the only denominator the terms C(n,k) C(x,k) C(x+k,k) c^k
need; a t term is the s term shifted left by k, so one exact division per
step serves both (t_seq and s_seq each turn their part into one reduced
Fraction).  _pair_weights_exact gives the weights themselves as integer
numerators over the one denominator M b^{2K}, M for (2K)!, for the exact
checks in `congruences`.
The audit reduces a row's exact numerator of its family over the common
denominator mod p^e and compares.  Its rows depend on (p, x) only
(_oracle_rows), and the exact rows are kept per prime (_exact_row), so the
t and s tables of one (p, x) share every row's one pass.  The slow route
exists to audit the fast route and is never consulted to produce a table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import update_wrapper
from itertools import accumulate, islice, repeat
from math import comb
from operator import mul
from typing import Callable, Sequence

from .core import (
    OracleMismatchError,
    RationalLike,
    Residue,
    mod_reduce,
    reduce_ratio,
    to_fraction,
)

# sequence family -> multiplier c in sum_k C(n,k) C(x,k) C(x+k,k) c^k
T_MULT = 2
S_MULT = 1


def _factorial_part(n: int, b: int) -> int:
    """The part of n! made of the primes that divide b: the product of
    q^{v_q(n!)} over the primes q | b, with Legendre's formula v_q(n!) =
    sum_i floor(n / q^i), b factored by trial division up to min(n, sqrt b).
    """
    primes, q = [], 2
    while q <= n and q * q <= b:
        if b % q == 0:
            primes.append(q)
            while b % q == 0:
                b //= q
        q += 1
    if 1 < b <= n:  # b is 1, a prime, or has only prime factors above n
        primes.append(b)
    part = 1
    for q in primes:
        qi = q
        while qi <= n:
            part *= q ** (n // qi)
            qi *= q
    return part


def _pair_weights_exact(x: Fraction, kmax: int,
                        mult: int) -> tuple[list[int], int]:
    """w_k = C(x,k) C(x+k,k) mult^k for k in [0, kmax], exact, as integer
    numerators over the one denominator D = M b^{2 kmax}, x = a/b, with M
    the part of (2 kmax)! whose primes divide b (_factorial_part).

    v_k = M b^{2k} w_k is an integer (see _row_exact), so the step v_k =
    v_{k-1} mult (a-(k-1)b)(a+kb) / k^2 divides exactly; each v_k is then
    scaled by the missing b^{2(kmax-k)}, and v_0 ends as D itself.
    """
    a, b = x.numerator, x.denominator
    num = [_factorial_part(2 * kmax, b)] * (kmax + 1)
    for k in range(1, kmax + 1):
        num[k] = num[k - 1] * (mult * (a - (k - 1) * b) * (a + k * b)) \
            // (k * k)
    scale, bb = 1, b * b
    for k in range(kmax, -1, -1):
        num[k] *= scale
        scale *= bb
    return num, num[0]


def _row_exact(n: int, x: Fraction) -> tuple[int, int, int]:
    """s_n(x) and t_n(x), exact, as integer numerators s and t over one
    denominator D = M b^{2n}, not reduced, for x = a/b and M the part of
    (2n)! whose primes divide b (_factorial_part).

    C(x,k) C(x+k,k) = C(2k,k) C(x+k,2k), and b^{2k} (2k)! C(x+k,2k) is a
    product of 2k consecutive terms of a + jb, which every prime q not
    dividing b divides at least v_q((2k)!) times.  So every U_k = M b^{2k}
    C(n,k) C(x,k) C(x+k,k) with k <= n is an integer, and the step U_k =
    U_{k-1} (n-k+1)(a-(k-1)b)(a+kb) / k^3 divides exactly.  The t term is
    the s term times 2^k, a shift, so the one exact division per k serves
    both families.  Horner's rule puts all terms over the one denominator:
    one big-by-small product, one exact division, one shift and two b^2
    steps per k, and no gcd.
    """
    a, b = x.numerator, x.denominator
    bb, part = b * b, _factorial_part(2 * n, b)
    s = t = u = part
    for k in range(1, n + 1):
        u = u * ((n - k + 1) * (a - (k - 1) * b) * (a + k * b)) \
            // (k * k * k)
        s = s * bb + u
        t = t * bb + (u << k)
    return s, t, part * bb**n


def t_seq(n: int, x: RationalLike) -> Fraction:
    """t_n(x) = sum_k C(n,k) C(x,k) C(x+k,k) 2^k as an exact rational."""
    if n < 0:
        raise ValueError("t_seq requires n >= 0")
    _, t, den = _row_exact(n, to_fraction(x))
    return Fraction(t, den)


def s_seq(n: int, x: RationalLike) -> Fraction:
    """s_n(x) = sum_k C(n,k) C(x,k) C(x+k,k), the unweighted companion sum."""
    if n < 0:
        raise ValueError("s_seq requires n >= 0")
    s, _, den = _row_exact(n, to_fraction(x))
    return Fraction(s, den)


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
    term = Fraction(1)  # C(x,k) C(-1-x,k) y^k, each binomial by its own step
    for k in range(n + 1):
        total += comb(n, k) * term
        term *= (x - k) * (-1 - x - k) * y / ((k + 1) * (k + 1))
    return total


def t_symmetry_check(n: int, x: RationalLike) -> bool:
    """Exact check of the reflection invariance t_n(x) = t_n(-1-x)."""
    x = to_fraction(x)
    return t_seq(n, x) == t_seq(n, -1 - x)


def _pair_coeffs(n: int) -> list[int]:
    """C(n,k) C(n+k,k) for k in [0, n]."""
    return [comb(n, k) * comb(n + k, k) for k in range(n + 1)]


def _pfaff_sum(n: int, z: Fraction, d: int) -> Fraction:
    """F_d(z) = sum_{k>=d} C(n,k) C(n+k,k) k^d (-z)^{k-d}, d = 0 or 1: both
    sides of the Pfaff reflection (d = 0) and of its k-weighted variant
    (d = 1) are F_d at z and at 1-z, since (z-1)^j = (-(1-z))^j."""
    total, power = Fraction(0), Fraction(1)
    for k, c in enumerate(_pair_coeffs(n)[d:], d):
        total += c * k**d * power
        power *= -z
    return total


def pfaff_check(n: int, z: RationalLike) -> bool:
    """Pfaff reflection for the pair weights, checked exactly at one point:

    sum_k C(n,k) C(n+k,k) (-z)^k == (-1)^n sum_k C(n,k) C(n+k,k) (z-1)^k.
    """
    if n < 0:
        raise ValueError("pfaff_check requires n >= 0")
    z = to_fraction(z)
    return _pfaff_sum(n, z, 0) == (-1) ** n * _pfaff_sum(n, 1 - z, 0)


def _plus_one_weighted(v: Sequence[int]) -> int:
    """sum_n (n+1) v_n, as the sum of the suffix sums sum_j sum_{n>=j} v_n:
    S1 of a table, and the (n+1)-weighted block sums of `congruences`."""
    return sum(accumulate(reversed(v)))


class SequenceTable:
    """Residues of one sequence family mod p^e for every row n in [0, p-1].

    The table keeps the two sums the paper determines, S0 = sum_{n<p} f_n^2
    (Theorem 1) and S1 = sum_{n<p} (n+1) f_n^2 (Theorem 2), each summed mod
    p^e from the one list of squares on its first read and kept (moment),
    so the statements that share a table (through _table) share them, and
    sum_{n<p} (a n + b) f_n^2 = a S1 + (b-a) S0 (square_sum).
    """

    __slots__ = ("p", "e", "mult", "values", "squares", "moments")

    def __init__(self, p: int, e: int, mult: int,
                 values: tuple[int, ...]) -> None:
        self.p = p
        self.e = e
        self.mult = mult
        self.values = values
        self.squares = list(map(mul, values, values))
        self.moments: list[int | None] = [None, None]  # S0, S1 once summed

    @property
    def modulus(self) -> int:
        return self.p**self.e

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def residue(self, n: int) -> Residue:
        return Residue(self.values[n], self.modulus)

    def moment(self, i: int) -> int:
        """S0 (i = 0) or S1 (i = 1) mod p^e, summed once and kept."""
        if self.moments[i] is None:
            self.moments[i] = (_plus_one_weighted if i else sum)(
                self.squares) % self.modulus
        return self.moments[i]

    def square_sum(self, a: int, b: int) -> Residue:
        """sum_{n<p} (a n + b) f_n^2 mod p^e, as a S1 + (b-a) S0, reading
        only the moments whose coefficient is not 0."""
        total = a * self.moment(1) if a else 0
        if b != a:
            total += (b - a) * self.moment(0)
        return Residue(total, self.modulus)


class _per_prime:
    """Memo of build(p, ...) for the latest p: a call at another p first
    drops every entry.  The positional arguments are the key; keyword
    arguments go to the build on a miss and are not part of it."""

    def __init__(self, build: Callable) -> None:
        update_wrapper(self, build)
        self.cache_clear()

    def cache_clear(self) -> None:
        self.p, self.entries, self.hits = None, {}, 0

    def __call__(self, *args, **extra):  # args[0] is p
        if args[0] != self.p:
            self.p, self.entries = args[0], {}
        value = self.entries.get(args, self)  # self: no entry yet
        if value is self:
            return self.entries.setdefault(args,
                                           self.__wrapped__(*args, **extra))
        self.hits += 1
        return value


@_per_prime
def _factorials(p: int, e: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """n! and 1/n! mod p^e for n < p, all units: the basis of the pair
    weights, the block prefixes and lemma21, which alone read them."""
    mod = p**e
    fact = [1] * p
    for n in range(1, p):
        fact[n] = fact[n - 1] * n % mod
    inv_fact = [0] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, mod)
    for n in range(p - 1, 0, -1):
        inv_fact[n - 1] = inv_fact[n] * n % mod
    return tuple(fact), tuple(inv_fact)


# one entry per (p, e), read by every table and block prefix mod p^e
@_per_prime
def _inv_squares(p: int, e: int) -> tuple[int, ...]:
    """1/n^2 mod p^e for n < p, with 1/0^2 read as 0, in one pass: for m =
    p^e and 1 < n < p, m mod n is a unit below n and m = (m//n) n + m mod n,
    so 1/n = -(m//n) / (m mod n) and 1/n^2 = (m//n)^2 / (m mod n)^2, whose
    second factor the list already holds."""
    mod = p**e
    inv_sq = [0, 1]
    put = inv_sq.append
    for n in range(2, p):
        q = mod // n
        put(q * q * inv_sq[mod % n] % mod)
    return tuple(inv_sq)


# multiplier c -> its three step lists, for N = 1, 2, ... as far as the
# largest prime so far asks: grown, never rebuilt, and kept for the run
_STEPS: dict[int, tuple[list[int], list[int], list[int]]] = {}


def _steps(p: int, mult: int) -> tuple[list[int], list[int], list[int]]:
    """The recurrence's coefficients at N = 1, ..., n, n >= p-1, as plain
    ints, c = mult: (3-c) N(N-1), (2c-3) (N-1)^2 and (c-1) (N-1)(N-2), each
    k (N-1) (N+s), the product of the progressions k (N-1) and N+s (all
    zeros when k = 0, which no range can step by): a larger prime extends
    its family's lists, and a smaller one reads a prefix."""
    lists = _STEPS.setdefault(mult, ([], [], []))
    have, n = len(lists[0]), p - 1
    if have < n:
        for steps, (k, s) in zip(lists, ((3 - mult, 0), (2 * mult - 3, -1),
                                         (mult - 1, -2))):
            steps += (map(mul, range(k * have, k * n, k),
                          range(have + 1 + s, n + 1 + s)) if k
                      else repeat(0, n - have))
    return lists


def _u_mod(p: int, e: int, xr: int) -> int:
    """u = x(x+1) mod p^e, the fast route's one input, from xr = x mod p^e."""
    return xr * (xr + 1) % p**e


def _pair_weights_mod(p: int, e: int, u: int, mult: int) -> tuple[int, ...]:
    """w_k = C(x,k) C(x+k,k) mult^k mod p^e, k < p, from u = x(x+1) mod p^e:
    the running product of mult (u - k(k-1)) times 1/k!^2 from _factorials."""
    mod = p**e
    inv_fact = _factorials(p, e)[1]
    w, cur = [1] * p, 1
    for k in range(1, p):
        cur = cur * (mult * (u - k * (k - 1))) % mod
        w[k] = cur * inv_fact[k] ** 2 % mod
    return tuple(w)


def _table_values(p: int, e: int, u: int, mult: int,
                  cut: tuple[int, Sequence[int]] | None = None
                  ) -> tuple[int, ...]:
    """Rows n in [0, p-1] mod p^e, from u = x(x+1) mod p^e, by the
    recurrence in n of the module docstring, of order 2 when c = 1 (the s
    family): each step reads its coefficients from the family's run-wide
    step lists (_steps), zipped with the p-1 units 1/N^2 (_inv_squares).

    Its certificate: with F(N,k) = C(N,k) w_k and G(N,k) = -k^2 C(N-1,k-1)
    w_k, the summand L(N,k) = N^2 F(N,k) - A_N F(N-1,k) - B_N F(N-2,k) +
    C_N F(N-3,k), A, B, C the recurrence's coefficients, is G(N,k+1) -
    G(N,k): divided by F(N,k), with C(N-i,k)/C(N,k) = (N-k)_i/(N)_i, and
    times N(N-1)(N-2), a polynomial identity of degree 5, 3, 2 and 1 in N,
    k, x and c, which tests/test_sequences.py checks on a 6 x 4 x 3 x 2
    grid, and N = 1, 2 apart.  Summed over k <= N it is the recurrence, as
    G(N,0) = G(N,N+1) = 0.

    cut = (K, w), w the pair weights mod p^e, gives instead the prefix sums
    P_K(n) = sum_{k<=K} C(n,k) w_k: summed over k <= K, the certificate
    leaves the boundary term G(N,K+1) = -(K+1)^2 C(N-1,K) w_{K+1} on the
    right, read from n! and 1/n! (_factorials), which is 0 for N <= K,
    where P_K is f, and for every N < p once K >= p-1, where the plain
    loop gives P_K = f.
    """
    mod = p**e
    inv_sq = islice(_inv_squares(p, e), 1, None)  # from N = 1, as the steps
    A, B, C = _steps(p, mult)
    q = (1 + mult * u) % mod
    f = [1]
    put = f.append
    f1, f2, f3 = 1, 0, 0  # f_{N-1}, f_{N-2}, f_{N-3}
    if cut is not None and cut[0] < p - 1:
        K, w = cut
        fact, inv_fact = _factorials(p, e)
        top = (K + 1) ** 2 * w[K + 1] * inv_fact[K] % mod
        g = [0] * K + [  # g_N for N >= 1, C(N-1, K) = (N-1)! / (K! (N-1-K)!)
            top * fact[n - 1] * inv_fact[n - 1 - K] % mod
            for n in range(K + 1, p)]
        for a, b, c, i, gn in zip(A, B, C, inv_sq, g):
            f1, f2, f3 = ((a + q) * f1 + b * f2 - c * f3 - gn) * i % mod, \
                f1, f2
            put(f1)
    elif mult != 1:
        for a, b, c, i in zip(A, B, C, inv_sq):
            f1, f2, f3 = ((a + q) * f1 + b * f2 - c * f3) * i % mod, f1, f2
            put(f1)
    else:
        for a, b, i in zip(A, B, inv_sq):
            f1, f2 = ((a + q) * f1 + b * f2) * i % mod, f1
            put(f1)
    return tuple(f)


# oracle row audit: full table for small p, else 5 deterministic spot rows
_SPOT_ROWS = 5
_FULL_BELOW = 50


def _oracle_rows(p: int, x: Fraction, mode: str) -> list[int]:
    """The rows an audit at (p, x) re-derives: every row in full mode and
    for p <= 50, else _SPOT_ROWS rows seeded by (p, x) alone, so the t and
    s tables of one (p, x), mod p^2 or p^3, share them, and so do the exact
    checks in `congruences` at that (p, x)."""
    if mode == "full" or (mode == "spot" and p <= _FULL_BELOW):
        return list(range(p))
    if mode == "spot":
        seed = (p * 1_000_003 + x.numerator % 999_999_937) * 1_000_003 \
            + x.denominator
        rng = random.Random(seed)
        return sorted(rng.sample(range(p), min(_SPOT_ROWS, p)))
    raise ValueError(f"unknown oracle mode {mode!r}")


# one entry per (p, n, x), read by the audits of both families at (p, x)
@_per_prime
def _exact_row(p: int, n: int, x: Fraction) -> tuple[int, int, int]:
    """_row_exact(n, x), kept for the prime: the t and s tables of one
    (p, x) audit the same rows, so the second family's audit reads them."""
    return _row_exact(n, x)


def _audit_table(p: int, e: int, x: Fraction, mult: int,
                 values: tuple[int, ...], mode: str) -> None:
    for n in _oracle_rows(p, x, mode):
        s, t, den = _exact_row(p, n, x)
        expect = reduce_ratio(t if mult == T_MULT else s, den, p, e)
        if expect != values[n]:
            raise OracleMismatchError(
                f"table row n={n} (p={p}, e={e}, x={x}, mult={mult}): "
                f"fast path {values[n]} != exact {expect} (mod {p**e})"
            )


def _build_table(p: int, e: int, x: RationalLike, mult: int,
                 oracle: str) -> SequenceTable:
    """The table at x, reduced by mod_reduce, which checks p, e and x."""
    xr = mod_reduce(x, p, e).value
    return _table(p, e, _u_mod(p, e, xr), mult, oracle, x=to_fraction(x))


# audited tables, shared by theorem1, theorem2, weighted_*, the block
# check and every x of one u: each is built and audited once
@_per_prime
def _table(p: int, e: int, u: int, mult: int, oracle: str, *,
           x: Fraction) -> SequenceTable:
    """The table at u = x(x+1) mod p^e, p and e already validated; x, not
    in the key, is where the audit re-derives the rows exactly.  A failed
    audit raises before the memo stores the table, so each reader meets
    the mismatch at its own x."""
    values = _table_values(p, e, u, mult)
    if oracle != "off":
        _audit_table(p, e, x, mult, values, oracle)
    return SequenceTable(p, e, mult, values)


def t_table_mod(p: int, e: int, x: RationalLike,
                oracle: str = "off") -> SequenceTable:
    """Table of t_n(x) mod p^e for n in [0, p-1].

    oracle='off' trusts the fast path; 'spot' re-derives five deterministic
    rows (all rows when p <= 50) from exact rationals; 'full' re-derives
    every row, each shared with s_table_mod at the same (p, x) (_exact_row).
    A disagreement raises OracleMismatchError.
    """
    return _build_table(p, e, x, T_MULT, oracle)


def s_table_mod(p: int, e: int, x: RationalLike,
                oracle: str = "off") -> SequenceTable:
    """Table of s_n(x) mod p^e for n in [0, p-1]; same oracle contract."""
    return _build_table(p, e, x, S_MULT, oracle)
