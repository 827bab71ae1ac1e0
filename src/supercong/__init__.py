"""supercong: exact verification of quadratic congruences for binomial sums.

The package evaluates the Apery-like sequences

    t_n(x) = sum_k C(n,k) C(x,k) C(x+k,k) 2^k
    s_n(x) = sum_k C(n,k) C(x,k) C(x+k,k)

both as exact rationals and as residue tables mod p^e, and checks the
congruences satisfied by sum_{n<p} t_n(x)^2 and sum_{n<p} (n+1) t_n(x)^2
mod p^2 (plus a mod-p^3 variant of the s-family at x = -1/2) against their
closed forms, for ranges of odd primes and p-integral rational arguments.
Every modular fast path can be cross-checked row by row against an
independent exact-rational oracle.

The top level re-exports only a small library surface; everything else is
imported from its submodule (core, sequences, identities, congruences,
suite, cli).
"""

from .core import mod_reduce
from .sequences import t_seq, t_table_mod
from .congruences import (
    block_vanishing_check,
    lemma21_all,
    padic_split,
    theorem1_check,
)

__version__ = "0.1.0"
