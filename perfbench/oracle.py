"""Seeded point queries and an answer oracle that shares no code with
mertenslab.

The oracle sieves its own primes, builds its own prime powers, computes
every term with ``math`` and sums with ``math.fsum``. Counts must match
exactly; sums within ``REL_TOL``. All terms are positive, so a sum of
exactly rounded partial sums is within 2.2e-16 relative of the exact
sum, and the library's exactly rounded sums differ from it only by the
last-ulp differences between numpy's and libm's ``log``.
"""

import bisect
import math
import random

import numpy as np

LIMIT = 10 ** 7
KNOWN_PI = {10 ** 7: 664579}
X_LOG10_LO = 3.0            # x is log-uniform on [1e3, 1e7]
REL_TOL = 1e-12

FUNCS = ("sum_lambda_over_n", "mertens_first_sum", "reciprocal_prime_sum",
         "chebyshev_psi", "theta_log_primorial", "prime_count", "g_count",
         "rough_tail_sum", "log_zeta_truncation")

# function -> term series whose prefix sum it is
_SERIES = {
    "sum_lambda_over_n": "lambda_over_m",
    "mertens_first_sum": "logp_over_p",
    "reciprocal_prime_sum": "recip",
    "chebyshev_psi": "lambda",
    "theta_log_primorial": "logp",
    "log_zeta_truncation": "logzeta2",
}


def draw_queries(rng: random.Random, count: int,
                 limit: int = LIMIT) -> list[tuple[str, int]]:
    """``count`` (function, x) pairs in random order.

    Every function gets ``count / len(FUNCS)`` queries whose x values are
    stratified log-uniform on [1e3, limit]: one x in each equal slice of
    log x. Each x is still log-uniform, but every batch has the same mix
    of cheap and costly queries, so a seed changes the inputs and not
    the amount of work.
    """
    per_func, rest = divmod(count, len(FUNCS))
    if rest:
        raise ValueError(f"count must be a multiple of {len(FUNCS)}")
    lo, hi = X_LOG10_LO, math.log10(limit)
    queries = []
    for func in FUNCS:
        for j in range(per_func):
            u = (j + rng.random()) / per_func
            x = round(10.0 ** (lo + (hi - lo) * u))
            queries.append((func, min(max(x, 10 ** 3), limit)))
    rng.shuffle(queries)
    return queries


class Oracle:
    """Reference answers for point queries with x <= limit."""

    def __init__(self, limit: int = LIMIT):
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = False
        primes = np.flatnonzero(flags).astype(np.int64)
        if limit in KNOWN_PI and primes.size != KNOWN_PI[limit]:
            raise RuntimeError(f"oracle sieve found {primes.size} primes "
                               f"<= {limit}, expected {KNOWN_PI[limit]}")
        self.primes = primes
        self.prime_list = primes.tolist()
        self.prime_minus_one_cum = np.cumsum(primes - 1)
        # prime powers m = p^k <= limit with their base p and exponent k
        powers = [(p, p, 1) for p in self.prime_list]
        for p in self.prime_list:
            if p * p > limit:
                break
            m, k = p * p, 2
            while m <= limit:
                powers.append((m, p, k))
                m, k = m * p, k + 1
        powers.sort()
        pp_pos = [m for m, _, _ in powers]
        logs = {p: math.log(p) for p in self.prime_list}
        self.series = {
            "recip": (self.prime_list, [1.0 / p for p in self.prime_list]),
            "logp": (self.prime_list, [logs[p] for p in self.prime_list]),
            "logp_over_p": (self.prime_list,
                            [logs[p] / p for p in self.prime_list]),
            "lambda": (pp_pos, [logs[p] for _, p, _ in powers]),
            "lambda_over_m": (pp_pos, [logs[p] / m for m, p, _ in powers]),
            "logzeta2": (pp_pos, [1.0 / (k * m * m) for m, _, k in powers]),
        }

    def g_count(self, x: int) -> int:
        """G(x) = sum_{p <= r}(p - 1) + sum_{p > r} floor(x/p), r = isqrt x.

        The second sum groups primes by k = floor(x/p), i.e. p in
        (x//(k+1), x//k], which needs only O(sqrt x) prime counts.
        """
        r = math.isqrt(x)
        n_small = bisect.bisect_right(self.prime_list, r)
        small = int(self.prime_minus_one_cum[n_small - 1]) if n_small else 0
        ks = np.arange(1, r + 1, dtype=np.int64)
        hi = np.searchsorted(self.primes, x // ks, side="right")
        lo = np.searchsorted(self.primes, np.maximum(x // (ks + 1), r),
                             side="right")
        return small + int((ks * np.maximum(hi - lo, 0)).sum())

    def answers(self, queries: list[tuple[str, int]]) -> list:
        """Reference answer for each query, in order."""
        want: list = [None] * len(queries)
        ranges: dict[str, list] = {}
        for i, (func, x) in enumerate(queries):
            if func == "prime_count":
                want[i] = bisect.bisect_right(self.prime_list, x)
            elif func == "g_count":
                want[i] = self.g_count(x)
            elif func == "rough_tail_sum":
                ranges.setdefault("recip", []).append((i, math.isqrt(x), x))
            else:
                ranges.setdefault(_SERIES[func], []).append((i, 0, x))
        for series, items in ranges.items():
            pos, terms = self.series[series]
            cut = {v: bisect.bisect_right(pos, v)
                   for _, lo, hi in items for v in (lo, hi)}
            bounds = sorted({0, *cut.values()})
            partials = [math.fsum(terms[a:b])
                        for a, b in zip(bounds, bounds[1:])]
            slot = {c: j for j, c in enumerate(bounds)}
            for i, lo, hi in items:
                want[i] = math.fsum(partials[slot[cut[lo]]:slot[cut[hi]]])
        return want


def count_misses(got: list, want: list) -> int:
    """Answers that raised or are off the reference."""
    misses = 0
    for g, w in zip(got, want, strict=True):
        if isinstance(w, int):
            ok = type(g) is int and g == w
        else:
            ok = (isinstance(g, float)
                  and abs(g - w) <= REL_TOL * abs(w))
        misses += not ok
    return misses
