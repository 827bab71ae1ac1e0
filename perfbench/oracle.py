"""Correctness checks made apart from the program.

Nothing here imports supercong.  The closed forms are written out again from
the paper, the left sides are recomputed with Fractions and math.comb, and
the skip set is derived from the statements' hypotheses.  `check_round`
returns a list of problems; an empty list means the round's JSONL records
are what the paper says they must be.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, lcm

# statement -> (a, b, x, c): sum_{n<p} (a n + b) t_n(x)^2 = c p (mod p^2)
WEIGHTED = {
    "weighted_8n5": (8, 5, Fraction(-1, 2), 2),
    "weighted_32n21": (32, 21, Fraction(-1, 4), 8),
    "weighted_18n7": (18, 7, Fraction(-1, 3), 0),
    "weighted_72n49": (72, 49, Fraction(-1, 6), 18),
}
MIN_P = {"weighted_18n7": 5, "weighted_72n49": 5, "sun_s": 5,
         "residue_table": 5}
NO_X = set(WEIGHTED) | {"kw"}
# statements that evaluate at -1-x when x = m + pt has m > (p-1)/2
REFLECTS = {"lemma21", "lemma23", "lemma24", "lemma33", "lemma34", "blocks",
            "blocks_weighted"}
# ... and that have no stated regime when m = (p-1)/2 for x and -1-x alike
STRICT = REFLECTS - {"lemma21"}
BOOLEAN = {"lemma21", "blocks", "blocks_weighted", "residue_table"}


def least_residue(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


def reduce(q: Fraction, p: int, e: int) -> int:
    mod = p**e
    if q.denominator % p == 0:
        raise ValueError(f"{q} is not {p}-integral")
    return q.numerator * pow(q.denominator, -1, mod) % mod


def evaluated_x(sid: str, p: int, x: Fraction) -> Fraction:
    if sid in REFLECTS and least_residue(x, p) > (p - 1) // 2:
        return -1 - x
    return x


def skips(sid: str, p: int, x: Fraction | None) -> bool:
    """Whether the statement's hypotheses exclude (p, x)."""
    if p < MIN_P.get(sid, 3):
        return True
    if x is None:
        return False
    if x.denominator % p == 0:
        return True
    boundary = 2 * least_residue(x, p) + 1 == p  # 2x = -1 (mod p)
    return boundary and (sid == "sun_s" or sid in STRICT)


def closed_rhs(sid: str, p: int, x: Fraction) -> tuple[int, int] | None:
    """The paper's right side as (residue, modulus); None for a boolean
    statement.  x is the argument the record says was evaluated."""
    if sid in BOOLEAN:
        return None
    if sid == "kw":
        return (-1) ** ((p - 1) // 2) % p**3, p**3
    if sid in WEIGHTED:
        return WEIGHTED[sid][3] * p % (p * p), p * p
    m = least_residue(x, p)
    sign = (-1) ** m
    t = (x - m) / p
    if sid in ("theorem1", "sun_s"):
        if 2 * m + 1 == p:
            val = Fraction((-1) ** ((p - 1) // 2))
        else:
            val = sign * (p + 2 * (x - m)) / (2 * x + 1)
    elif sid == "theorem2":
        if 2 * m + 1 == p:
            val = Fraction(p, 4) + Fraction(3, 8) * (-1) ** ((p - 1) // 2)
        else:
            val = Fraction(p, 4) - (sign * (2 * x * x + 2 * x - 1)
                                    * (p + 2 * (x - m)) / (8 * x + 4))
    elif sid == "lemma23":
        val = Fraction(sign * p, 2 * m + 1)
    elif sid == "lemma24":
        val = Fraction(sign * p, 2 * m + 1) * t
    elif sid == "lemma33":
        val = Fraction(p, 4) - Fraction(sign * (2 * m * m + 2 * m - 1) * p,
                                        8 * m + 4)
    elif sid == "lemma34":
        val = Fraction(sign * (1 - 2 * m * m - 2 * m), 8 * m + 4) * p * t
    else:
        raise ValueError(f"no closed form for {sid!r}")
    return reduce(val, p, 2), p * p


def pair_weights(x: Fraction, count: int, mult: int) -> list[Fraction]:
    """C(x,k) C(x+k,k) mult^k for k < count, as exact rationals."""
    w = [Fraction(1)]
    for k in range(1, count):
        w.append(w[-1] * (x - k + 1) * (x + k) * mult / (k * k))
    return w


def partial_sums(p: int, w: list[Fraction], ks: range) -> list[Fraction]:
    """A(n) = sum_{k in ks} C(n,k) w_k for every n < p, exactly.  The sums
    run over integers scaled by the common denominator of the w_k."""
    d = lcm(*(wk.denominator for wk in w))
    scaled = [wk.numerator * (d // wk.denominator) for wk in w]
    return [Fraction(sum(comb(n, k) * scaled[k] for k in ks if k <= n), d)
            for n in range(p)]


def exact_lhs(sid: str, p: int, x: Fraction) -> int:
    """The record's left side, recomputed over the rationals and reduced
    only at the end.  The lemma blocks use the identity
    block(K, L) = sum_{n<p} c_n A_K(n) A_L(n), A_K(n) = sum_{k in K} C(n,k) w_k,
    with c_n = 1 (plain) or n + 1 (weighted)."""
    if sid in WEIGHTED:
        a, b, x, _ = WEIGHTED[sid]
        e, mult, ks = 2, 2, range(p)
    elif sid == "kw":
        a, b, x, e, mult, ks = 0, 1, Fraction(-1, 2), 3, 1, range(p)
    elif sid in ("theorem1", "theorem2", "sun_s"):
        a = 1 if sid == "theorem2" else 0
        b, e, ks = 1, 2, range(p)
        mult = 1 if sid == "sun_s" else 2
    elif sid in ("lemma23", "lemma24", "lemma33", "lemma34"):
        m = least_residue(x, p)
        a = 1 if sid in ("lemma33", "lemma34") else 0
        b, e, mult, ks = 1, 2, 2, range(m + 1)
    else:
        raise ValueError(f"no left side for {sid!r}")
    w = pair_weights(x, p, mult)
    left = partial_sums(p, w, ks)
    if sid in ("lemma24", "lemma34"):
        right = partial_sums(p, w, range(m + 1, p - m))
    else:
        right = left
    return reduce(sum(((a * n + b) * left[n] * right[n] for n in range(p)),
                      Fraction(0)), p, e)


def far_blocks_vanish(p: int, x: Fraction, weighted: bool) -> bool:
    """The six far blocks of the nine-block decomposition are 0 mod p^2."""
    m = least_residue(x, p)
    w = pair_weights(x, p, 2)
    parts = [partial_sums(p, w, r)
             for r in (range(m + 1), range(m + 1, p - m), range(p - m, p))]
    for i, j in ((0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)):
        block = sum(((n + 1 if weighted else 1) * parts[i][n] * parts[j][n]
                     for n in range(p)), Fraction(0))
        if reduce(block, p, 2):
            return False
    return True


def check_round(records: list[dict], tasks: list[tuple[str, int, Fraction | None]],
                sample: int, sample_pmax: int, seed: int) -> list[str]:
    """Check one round's records against the expected task list.

    Every record: scan order, evaluated argument, skip set, pass flag and
    closed-form right side.  A seeded sample of `sample` records with
    p <= sample_pmax: the left side (or, for blocks, the far-block
    vanishing) recomputed exactly.
    """
    problems: list[str] = []
    if len(records) != len(tasks):
        return [f"{len(records)} records for {len(tasks)} tasks"]
    exact_pool = []
    for rec, (sid, p, x) in zip(records, tasks):
        where = f"{sid} p={p} x={x}"
        if rec["statement"] != sid or rec["p"] != p:
            problems.append(f"{where}: record is {rec['statement']} p={rec['p']}")
            continue
        if skips(sid, p, x):
            if rec["pass"] is not None or not rec["skipped_reason"]:
                problems.append(f"{where}: expected a skip, got pass={rec['pass']}")
            continue
        if rec["pass"] is not True or rec["skipped_reason"] is not None:
            problems.append(f"{where}: pass={rec['pass']} "
                            f"reason={rec['skipped_reason']}")
            continue
        ex = WEIGHTED[sid][2] if sid in WEIGHTED else (
            Fraction(-1, 2) if sid == "kw" else evaluated_x(sid, p, x))
        if rec["x"] is None or Fraction(rec["x"]) != ex:
            problems.append(f"{where}: evaluated x {rec['x']}, expected {ex}")
            continue
        rhs = closed_rhs(sid, p, ex)
        if rhs is None:
            if rec["lhs"] is not None or rec["rhs"] is not None:
                problems.append(f"{where}: boolean statement carries residues")
        elif (rec["rhs"], rec["lhs"], rec["modulus"]) != (
                str(rhs[0]), str(rhs[0]), str(rhs[1])):
            problems.append(f"{where}: lhs={rec['lhs']} rhs={rec['rhs']} "
                            f"mod {rec['modulus']}, closed form {rhs[0]} "
                            f"mod {rhs[1]}")
        elif p <= sample_pmax:
            exact_pool.append((sid, p, ex, rec))
        if sid in ("blocks", "blocks_weighted") and p <= sample_pmax:
            exact_pool.append((sid, p, ex, rec))
    rng = random.Random(seed)
    for sid, p, ex, rec in rng.sample(exact_pool, min(sample, len(exact_pool))):
        if sid in ("blocks", "blocks_weighted"):
            if not far_blocks_vanish(p, ex, sid == "blocks_weighted"):
                problems.append(f"{sid} p={p} x={ex}: a far block is not 0")
        elif str(exact_lhs(sid, p, ex)) != rec["lhs"]:
            problems.append(f"{sid} p={p} x={ex}: lhs {rec['lhs']} differs "
                            "from the exact recomputation")
    return problems
