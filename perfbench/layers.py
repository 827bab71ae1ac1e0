"""Per-layer timings: calls into the public functions of supercong at fixed
primes, in one fresh process (so every cache starts cold).

Usage: python3 layers.py SEED   (with supercong importable)

Prints one JSON object mapping each metric name of BENCHMARK.json's
per-layer block that starts with a module name to its median value.  A
"cold" timing uses an argument this process has not seen before, so no
cache can serve it; the first block check at a prime is cold because the
exact inner table is built once per prime.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

from supercong import (block_vanishing_check, lemma21_all, mod_reduce,
                       t_table_mod, theorem1_check)
from supercong.suite import report_record, run_check


class FreshArguments:
    """Distinct arguments x = m + p*a/7, never repeated.  The residue
    m = (p-1)//4 and the denominator are fixed for each prime, as the block
    ranges and the height of x set the cost; the seed picks only the
    numerator a, from -40..40 with 7 not dividing it."""

    NUMERATORS = [a for a in range(-40, 41) if a % 7]

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"layers:{seed}")
        self.left: dict[int, list[int]] = {}

    def __call__(self, p: int) -> Fraction:
        left = self.left.setdefault(p, list(self.NUMERATORS))
        a = left.pop(self.rng.randrange(len(left)))
        return (p - 1) // 4 + p * Fraction(a, 7)


def timed(fn, *args, **kwargs) -> float:
    t0 = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - t0


def median_of(reps: int, fn) -> float:
    return statistics.median(fn() for _ in range(reps))


def measure(seed: int) -> dict[str, float]:
    fresh = FreshArguments(seed)
    out: dict[str, float] = {}
    # blocks first: the first call at each prime is the only cold one
    for p in (31, 53, 101):
        out[f"congruences.blocks_cold_ms.p{p}"] = 1e3 * timed(
            block_vanishing_check, p, fresh(p))
        out[f"congruences.blocks_warm_ms.p{p}"] = 1e3 * median_of(
            3, lambda: timed(block_vanishing_check, p, fresh(p)))
    for p in (53, 101):
        out[f"congruences.lemma21_all_ms.p{p}"] = 1e3 * median_of(
            3, lambda: timed(lemma21_all, p, fresh(p)))
    for p, reps in ((101, 21), (499, 7), (997, 3)):
        off = median_of(reps, lambda: timed(t_table_mod, p, 2, fresh(p)))
        spot = median_of(reps, lambda: timed(t_table_mod, p, 2, fresh(p),
                                             oracle="spot"))
        out[f"sequences.t_table_ms.p{p}"] = 1e3 * off
        out[f"sequences.spot_audit_ms.p{p}"] = 1e3 * (spot - off)
    x = fresh(499)
    theorem1_check(499, x)
    out["congruences.theorem1_check_warm_us.p499"] = 1e6 * median_of(
        51, lambda: timed(theorem1_check, 499, x))
    out["suite.run_check_us"] = 1e6 * median_of(
        201, lambda: timed(run_check, "residue_table", 499))
    report = theorem1_check(499, x)
    out["suite.record_us"] = 1e6 * median_of(
        201, lambda: timed(lambda: json.dumps(report_record(report))))
    q = Fraction(-123456789, 987654321)
    out["core.mod_reduce_us"] = 1e6 * median_of(
        201, lambda: timed(mod_reduce, q, 499, 2))
    return out


if __name__ == "__main__":
    print(json.dumps(measure(int(sys.argv[1]))))
