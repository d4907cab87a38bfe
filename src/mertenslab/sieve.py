"""Segmented smallest-prime-factor sieve and prime tables.

Every other module queries a SieveTable: the SPF array answers factor
structure in O(log n) per integer, the prime list answers counting and
enumeration, and primes_upto(x) is the one way to the primes <= x. The
uint16 SPF array is 0 at a prime, whose least factor is itself.
build_sieve(limit) is the one way to a table. Construction is segmented
so cache behaviour stays flat at large limits, and each segment takes
plain strided stores of the base primes, largest first, so no slot is
read back; the base primes, those up to sqrt(limit), are the prime list
of a table built the same way at that smaller limit, and the finished
table is immutable. Largest prime factors over a range come from one
memoized walk over the SPF chains (largest_factor_walk), and the
factorizations of a range from one vectorized walk (factor_exponents).
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
    spf: np.ndarray      # uint16: least prime factor of composite n, else 0
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
    return 2 * (limit + 1) + 8 * prime_estimate


def build_sieve(limit: int) -> SieveTable:
    """Build the SPF table and prime list for 2..limit.

    The result is bit-identical for any SEGMENT >= 2: segments cover
    disjoint ranges and base primes are stored largest-first with plain
    strided writes, so a composite's smallest prime factor p, which
    reaches it since p * p <= n, writes its slot last, and a prime's
    stays 0. The base primes are build_sieve(isqrt(limit)).primes, none
    below limit 4. A second pass writes each segment's primes, counted
    by the first, into the prime list in place. A table whose estimated
    size exceeds MEMORY_BUDGET raises ResourceError before anything is
    allocated: from limit 1,290,685,816 on, so every composite's least
    factor is at most isqrt(1,290,685,815) = 35,926 < 2^16 (uint16).
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

    spf = np.zeros(limit + 1, dtype=np.uint16)
    root = math.isqrt(limit)
    base = (build_sieve(root).primes if root >= 2
            else np.empty(0, dtype=np.int64))
    base_list = base.tolist()
    segments, counts = range(2, limit + 1, SEGMENT), []
    for lo in segments:
        hi = min(lo + SEGMENT, limit + 1)
        view = spf[lo:hi]
        reach = int(np.searchsorted(base, math.isqrt(hi - 1), side="right"))
        for p in reversed(base_list[:reach]):    # the p with p * p < hi
            view[max(p * p, -(-lo // p) * p) - lo:: p] = p
        counts.append(view.size - np.count_nonzero(view))

    primes, at = np.empty(sum(counts), dtype=np.int64), 0
    for lo, count in zip(segments, counts):
        at += count
        np.add(np.flatnonzero(spf[lo:lo + SEGMENT] == 0), lo,
               out=primes[at - count:at])
    return SieveTable(limit=limit, spf=spf, primes=primes)


def factorize(table: SieveTable, n: int) -> Factorization:
    """Exact factorization of n by repeated SPF division."""
    table.check_range(n)
    m = n
    factors: list[tuple[int, int]] = []
    spf = table.spf
    while m > 1:
        p = spf.item(m) or m
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
            np.copyto(p, m, where=p == 0)       # m is prime
            m, e = divide_out(m, p)
            rounds.append((k, p, e))
            rest = m > 1
            k, m = k[rest], m[rest]
    ks, ps, es = (np.concatenate(col) for col in zip(*rounds))
    order = np.argsort(ks, kind="stable")
    return ks[order], ps[order], es[order]


def largest_prime_factor(table: SieveTable, n: int) -> int:
    """Largest prime dividing n: the last of factorize's ascending
    factors."""
    return factorize(table, n).factors[-1][0]


def largest_factor_walk(table: SieveTable, hi: int):
    """Largest prime factor P(n) of every n in [2, hi), in uint32 (P
    passes 2^16), as (start, P) pairs for chunks of at most LPF_CHUNK.

    Reads the recurrence P(n) = max(spf(n), P(n // spf(n))), P(1) = 0,
    off each integer's SPF chain, a prime's spf being itself. A chunk
    [start, stop) ends by 2 * start, so every cofactor n // spf(n) <= n/2
    < start is known before its chunk runs. The memo keeps P only up to
    (hi - 1) // 2, the largest cofactor; a chunk above it is a fresh array.
    """
    spf, primes = table.spf, table.primes
    memo = np.zeros((hi - 1) // 2 + 1, dtype=np.uint32)
    start = 2
    while start < hi:
        stop = min(start + LPF_CHUNK, 2 * start,
                   memo.size if start < memo.size else hi)
        out = (memo[start:stop] if stop <= memo.size
               else np.empty(stop - start, dtype=np.uint32))
        out[:] = spf[start:stop]
        i, j = primes.searchsorted([start, stop]).tolist()
        out[primes[i:j] - start] = primes[i:j]
        # divided in uint32, gathered with intp (numpy converts a uint32
        # index array on every gather), and not held past the yield
        np.maximum(out, memo[(np.arange(start, stop, dtype=np.uint32) // out)
                             .astype(np.intp)], out=out)
        yield start, out
        start = stop


def largest_factor_range(table: SieveTable, lo: int, hi: int) -> np.ndarray:
    """Largest prime factor P(n) of every n in [lo, hi), uint32: the
    walk's chunks in one array."""
    if not 2 <= lo <= hi <= table.limit + 1:
        raise DomainError(
            f"range [{lo}, {hi}) outside [2, {table.limit + 1})")
    chunks = [p for _, p in largest_factor_walk(table, hi)]
    return np.concatenate([np.empty(0, dtype=np.uint32), *chunks])[lo - 2:]
