"""Key-space / attack-cost models (paper Sec. V-G).

The paper argues the schemes' security from three quantitative claims:

1. AES-128 has an *effective* key space of 2^64 against the key-expansion
   related analysis of ref. [63] while the nominal space is 2^128;
2. even a supercomputer testing 22x10^19 encryptions/second needs on
   the order of 3.7x10^10 years to brute-force the encrypted data;
3. the best known shortcut, the biclique attack, still costs 2^126.1
   AES evaluations — "not feasible".

:class:`BruteForceModel` turns those constants into a checkable
calculation, and the Sec. V-G benchmark prints paper-quoted versus
computed numbers side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BruteForceModel",
    "biclique_complexity",
    "SECONDS_PER_YEAR",
    "PAPER_TEST_RATE",
]

#: Julian year in seconds.
SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

#: The paper's hypothetical supercomputer: 22x10^19 encryptions/second.
PAPER_TEST_RATE = 22e19


@dataclass(frozen=True)
class BruteForceModel:
    """Expected exhaustive-search cost for a ``key_bits`` cipher.

    Parameters
    ----------
    key_bits:
        Effective key length in bits (128 nominal for AES-128; 64
        under the paper's ref. [63] reading).
    tests_per_second:
        Attacker throughput in key tests per second.
    """

    key_bits: float
    tests_per_second: float = PAPER_TEST_RATE

    def __post_init__(self) -> None:
        if self.key_bits <= 0:
            raise ValueError("key_bits must be positive")
        if self.tests_per_second <= 0:
            raise ValueError("tests_per_second must be positive")

    @property
    def keyspace(self) -> float:
        """Number of candidate keys, 2**key_bits."""
        return 2.0**self.key_bits

    def seconds_worst_case(self) -> float:
        """Time to sweep the whole key space."""
        return self.keyspace / self.tests_per_second

    def seconds_expected(self) -> float:
        """Expected time (half the space on average)."""
        return self.seconds_worst_case() / 2.0

    def years_worst_case(self) -> float:
        """Worst-case sweep in years (the paper quotes this form)."""
        return self.seconds_worst_case() / SECONDS_PER_YEAR

    def years_expected(self) -> float:
        """Expected search time in years."""
        return self.seconds_expected() / SECONDS_PER_YEAR

    def is_infeasible(self, horizon_years: float = 100.0) -> bool:
        """Whether the expected search exceeds a practical horizon."""
        return self.years_expected() > horizon_years


def biclique_complexity(key_bits: int = 128) -> float:
    """log2 complexity of the best public single-key AES attack.

    2^126.1 for AES-128 (Bogdanov-Khovratovich-Rechberger; the paper's
    ref. [64] discussion) — a 3.8x speedup over brute force, "not
    feasible" in any practical sense.  Values for 192/256-bit keys are
    included for completeness.
    """
    table = {128: 126.1, 192: 189.7, 256: 254.4}
    try:
        return table[key_bits]
    except KeyError:
        raise ValueError(
            f"no published biclique complexity for {key_bits}-bit AES"
        ) from None


def huffman_tree_guess_space(n_symbols: int, max_len: int = 24) -> float:
    """log2 of a loose lower bound on the Huffman-tree search space.

    Recovering Huffman-coded data without the code table is NP-hard
    in the worst case (paper refs [56], [57]); this gives the log2
    count of distinct length-limited canonical codes an attacker would
    have to consider (#compositions of symbols into length classes),
    as a rough quantitative companion to the hardness claim.  It is
    not a bound on a given stream's security.  It falls with the
    alphabet (1 symbol: 4.6 bits; under 128 bits below 435 symbols),
    and with ``meta`` in the clear a one-symbol code (qi and cloudf48
    at bound 1e-2) leaves at most log2(2·radius) ≤ 16 bits.  Nor does
    an attacker with same-class public data need to search: a
    surrogate tree from another seed decoded 10 of 30 stand-in cells
    to the whole field (docs/SECURITY.md, limitation 2).
    """
    if n_symbols < 1:
        raise ValueError("need at least one symbol")
    # Each symbol independently takes one of max_len lengths, subject
    # to Kraft feasibility; counting all assignments is an upper bound,
    # restricting to sorted profiles a lower one.  Use the profile
    # count: C(n_symbols + max_len - 1, max_len - 1) compositions.
    return math.lgamma(n_symbols + max_len) / math.log(2.0) - (
        math.lgamma(n_symbols + 1) + math.lgamma(max_len)
    ) / math.log(2.0)
