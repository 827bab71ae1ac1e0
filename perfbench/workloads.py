"""The benchmark's workloads: which statements, primes and arguments.

Each workload is one `supercong verify --jobs 1` command.  The seed only
picks the numerators of the seeded arguments; their denominators, the
primes and the statements are fixed, so every seed asks for the same amount
of work and hits the same hypotheses, apart from the few primes dividing
2a + b (where 2x = -1 mod p) in `structural`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from oracle import MIN_P, NO_X

CONJECTURE_X = (Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 3),
                Fraction(-1, 6))


@dataclass(frozen=True)
class Workload:
    name: str
    statements: tuple[str, ...]
    pmin: int
    pmax: int
    oracle: str
    fixed_x: tuple[Fraction, ...]
    denominators: tuple[int, ...]  # one seeded argument a/b per entry
    sample_pmax: int  # records with p <= this are sampled for exact checks
    sample: int

    def x_values(self, seed: int) -> tuple[Fraction, ...]:
        rng = random.Random(f"{self.name}:{seed}")
        xs = list(self.fixed_x)
        for b in self.denominators:
            a = rng.choice([a for a in range(-40, 41)
                            if gcd(a, b) == 1 and 2 * a + b != 0])
            xs.append(Fraction(a, b))
        return tuple(xs)

    def verify_args(self, seed: int, primes: bool = True) -> list[str]:
        """Arguments after `supercong verify`; primes=False selects an
        empty prime range, so the process does everything but checks."""
        args = []
        for sid in self.statements:
            args += ["--statement", sid]
        lo, hi = (self.pmin, self.pmax) if primes else (4, 4)
        args += ["--pmin", str(lo), "--pmax", str(hi)]
        for x in self.x_values(seed):
            args.append(f"--x={x}")
        return args + ["--oracle", self.oracle, "--jobs", "1"]

    def tasks(self, seed: int) -> list[tuple[str, int, Fraction | None]]:
        """The (statement, p, x) scan order a round must report."""
        xs = self.x_values(seed)
        out = []
        for sid in self.statements:
            for p in primes_between(max(self.pmin, MIN_P.get(sid, 3)),
                                    self.pmax):
                if sid in NO_X:
                    out.append((sid, p, None))
                else:
                    out.extend((sid, p, x) for x in xs)
        return out


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1)
            if n % 2 and all(n % d for d in range(3, int(n**0.5) + 1, 2))]


WORKLOADS = {
    w.name: w
    for w in (
        # Table builds near the default cap of 500; theorem2 and the four
        # weighted statements reuse theorem1's tables, sun_s and kw build
        # their own.  Where item 2 (faster tables) and caching changes show.
        Workload("sweep",
                 ("theorem1", "theorem2", "sun_s", "weighted_8n5",
                  "weighted_32n21", "weighted_18n7", "weighted_72n49", "kw"),
                 400, 499, "off", CONJECTURE_X, (7, 11), 409, 2),
        # The exact-rational spot audit on every table, none shared: where
        # oracle changes show.
        Workload("audited", ("theorem1", "sun_s"), 350, 499, "spot",
                 (), (7, 11), 359, 2),
        # The O(p^3) exact inner table and the block sums, no residue
        # table: where item 3 shows and item 2 moves nothing.
        Workload("structural",
                 ("lemma21", "lemma23", "lemma24", "lemma33", "lemma34",
                  "blocks", "blocks_weighted"),
                 3, 61, "off", (Fraction(-1, 2),), (5, 7, 9), 23, 24),
    )
}
