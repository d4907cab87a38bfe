"""Segmented smallest-prime-factor sieve and prime tables.

Every other module queries a SieveTable: the SPF array answers factor
structure in O(log n) per integer, the prime list answers counting and
enumeration, and primes_upto(x) is the one way to the primes <= x.
build_sieve(limit) is the one way to a table. Construction is segmented
so cache behaviour stays flat at large limits, and each segment takes
plain strided stores of the base primes, largest first, so no slot is
read back; the base primes, those up to sqrt(limit), are the prime list
of a table built the same way at that smaller limit, and the finished
table is immutable. Largest prime factors over a range come from one
memoized walk over the SPF chains (largest_factor_walk), and the
factorizations of a whole range from one vectorized walk down them
(factor_exponents).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError

SEGMENT = 1 << 18
LPF_CHUNK = 1 << 18
MAX_LIMIT = 1 << 40
MEMORY_BUDGET = 3 << 30


@dataclass(frozen=True)
class SieveTable:
    """Immutable SPF table and prime list up to ``limit`` inclusive."""

    limit: int
    spf: np.ndarray      # spf[n] = smallest prime factor of n, 0 for n < 2
    primes: np.ndarray   # int64, ascending, all primes <= limit

    def __post_init__(self):
        self.spf.flags.writeable = False
        self.primes.flags.writeable = False

    def primes_upto(self, x: int) -> np.ndarray:
        """The primes <= x, ascending: a view of ``primes``, empty below 2."""
        return self.primes[:self.primes.searchsorted(x, side="right")]

    def check_range(self, n: int, lo: int = 2) -> None:
        if not lo <= n <= self.limit:
            raise DomainError(f"n={n} outside [{lo}, {self.limit}]")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p^e, factors ascending in p."""

    n: int
    factors: list[tuple[int, int]]


def estimate_table_bytes(limit: int) -> int:
    """Rough upper bound on the memory a table at ``limit`` occupies."""
    prime_estimate = int(1.3 * limit / max(math.log(limit), 1.0)) + 16
    return 4 * (limit + 1) + 8 * prime_estimate


def build_sieve(limit: int) -> SieveTable:
    """Build the SPF table and prime list for 2..limit.

    The result is bit-identical for any SEGMENT >= 2: segments cover
    disjoint ranges and base primes are stored largest-first with plain
    strided writes, so a composite's smallest prime factor p, which
    reaches it since p * p <= n, writes its slot last. The base primes
    are build_sieve(isqrt(limit)).primes, none below limit 4. A table
    whose estimated size exceeds MEMORY_BUDGET raises ResourceError
    before anything is allocated. That holds from limit 714,219,036 on,
    far below 2^32, so every smallest prime factor fits the uint32 array.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > MAX_LIMIT:
        raise DomainError(f"limit {limit} exceeds the 2^40 indexing ceiling")
    required = estimate_table_bytes(limit)
    if required > MEMORY_BUDGET:
        raise ResourceError(
            f"sieve at limit {limit} needs ~{required} bytes "
            f"(budget {MEMORY_BUDGET})",
            required_bytes=required, budget_bytes=MEMORY_BUDGET)

    spf = np.zeros(limit + 1, dtype=np.uint32)
    root = math.isqrt(limit)
    base = (build_sieve(root).primes if root >= 2
            else np.empty(0, dtype=np.int64))
    base_list = base.tolist()
    prime_chunks: list[np.ndarray] = []

    for lo in range(2, limit + 1, SEGMENT):
        hi = min(lo + SEGMENT, limit + 1)
        view = spf[lo:hi]
        reach = int(np.searchsorted(base, math.isqrt(hi - 1), side="right"))
        for p in reversed(base_list[:reach]):    # the p with p * p < hi
            view[max(p * p, -(-lo // p) * p) - lo:: p] = p
        fresh = np.flatnonzero(view == 0).astype(np.int64) + lo
        view[fresh - lo] = fresh
        prime_chunks.append(fresh)

    return SieveTable(limit=limit, spf=spf,
                      primes=np.concatenate(prime_chunks))


def factorize(table: SieveTable, n: int) -> Factorization:
    """Exact factorization of n by repeated SPF division."""
    table.check_range(n)
    m = n
    factors: list[tuple[int, int]] = []
    spf = table.spf
    while m > 1:
        p = spf.item(m)
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    return Factorization(n=n, factors=factors)


def divide_out(m: np.ndarray, p: np.ndarray):
    """Each m[i] with every factor p[i] divided out, and how many times
    p[i] divides m[i], as int64 arrays; m is left as it is."""
    m, e = m.copy(), np.zeros_like(m)
    more = np.flatnonzero(m % p == 0)
    while more.size:
        m[more] //= p[more]
        e[more] += 1
        more = more[m[more] % p[more] == 0]
    return m, e


def factor_exponents(table: SieveTable, n_max: int):
    """Every factorization of 2..n_max at once, vectorized.

    Returns int64 arrays (k, p, e), one entry per prime power p^e that
    exactly divides k, ordered as factorize lists them: k ascending, then
    p ascending. Read off the SPF chains LPF_CHUNK integers at a time:
    each round divides every unfinished cofactor by its smallest prime
    as often as it goes, and a stable sort by k puts the rounds in order.
    """
    table.check_range(n_max, lo=0)
    spf = table.spf
    none = np.empty(0, dtype=np.int64)
    rounds = [(none, none, none)]
    for lo in range(2, n_max + 1, LPF_CHUNK):
        k = np.arange(lo, min(lo + LPF_CHUNK, n_max + 1), dtype=np.int64)
        m = k
        while k.size:
            p = spf[m].astype(np.int64)
            m, e = divide_out(m, p)
            rounds.append((k, p, e))
            rest = m > 1
            k, m = k[rest], m[rest]
    ks, ps, es = (np.concatenate(col) for col in zip(*rounds))
    order = np.argsort(ks, kind="stable")
    return ks[order], ps[order], es[order]


def largest_prime_factor(table: SieveTable, n: int) -> int:
    """Largest prime dividing n; SPF division yields factors ascending."""
    table.check_range(n)
    m = n
    p = 0
    spf = table.spf
    while m > 1:
        p = spf.item(m)
        while m % p == 0:
            m //= p
    return p


def largest_factor_walk(table: SieveTable, hi: int):
    """Largest prime factor P(n) of every n in [2, hi), in the SPF dtype,
    as (start, P) pairs for ascending chunks of at most LPF_CHUNK.

    Reads the recurrence P(n) = max(spf(n), P(n // spf(n))), P(1) = 0,
    off each integer's own SPF chain. A chunk [start, stop) ends by
    2 * start, so every cofactor n // spf(n) <= n / 2 < start is known
    before its chunk runs. The memo keeps P only up to (hi - 1) // 2,
    the largest cofactor; a chunk above it is a fresh array.
    """
    spf = table.spf
    memo = np.zeros((hi - 1) // 2 + 1, dtype=spf.dtype)
    start = 2
    while start < hi:
        stop = min(start + LPF_CHUNK, 2 * start,
                   memo.size if start < memo.size else hi)
        p = spf[start:stop]
        out = (memo[start:stop] if stop <= memo.size
               else np.empty(stop - start, dtype=spf.dtype))
        # divided in the SPF dtype, gathered with intp (numpy converts a
        # uint32 index array on every gather), and not held past the yield
        np.maximum(p, memo[(np.arange(start, stop, dtype=p.dtype) // p)
                           .astype(np.intp)], out=out)
        yield start, out
        start = stop


def largest_factor_range(table: SieveTable, lo: int, hi: int) -> np.ndarray:
    """Largest prime factor P(n) of every n in [lo, hi): the walk's
    chunks in one array."""
    if not 2 <= lo <= hi <= table.limit + 1:
        raise DomainError(
            f"range [{lo}, {hi}) outside [2, {table.limit + 1})")
    chunks = [p for _, p in largest_factor_walk(table, hi)]
    return np.concatenate([table.spf[:0], *chunks])[lo - 2:]
