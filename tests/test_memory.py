"""Peak allocation of the streamed checks on a 1e6 table.

Each ceiling is the check's tracemalloc peak with its sweep streamed in
blocks of 4096, plus headroom. The default summation.BLOCK is close to
the 78,498 primes of this table, so the test takes a block well below
them. A sweep that holds every case at once, as the array forms did,
goes past the ceiling: the peaks then were
lambda-sum-bound 5.1 MB, mertens1-bound 4.4, psi-linear 4.4, psi-dyadic
6.5, pi-upper 3.8, primorial-bound 4.4, reciprocal-lower 4.4, dusart
3.8, stirling-lower 48.0, binomial-bounds 5.6, log-factorial-dual-route
40.0, pair-bijection 14.8 and abel-exactness 18.8. mm-route-agreement, with the series in one array and 1/p beside
the primes in the tail, peaked at 1.9 MB. Before the prime sums came
as jump streams, each check built its prefix over the whole range:
lambda-sum-bound peaked at 3.29 MB, mertens1-bound 2.02, psi-linear
3.29, primorial-bound 1.39 and lambda-mertens-gap 1.90; streamed, they
measure 0.61, 0.60, 0.45, 0.43 and 0.02. With S(x) at the table limit
summed block by block, mm-route-agreement went 1.16 -> 0.17.
split-interval, counting its x's over the whole range, peaked at 17.8
MB; block by block it measures 3.1. The census at 2e7 (on the session's
2e7 table) peaked at 45.5 MB with a uint32 memo of P(n) and 25.0 with
the uint16 one capped at 0xFFFF.

The nine point queries at 1e6 read their sums in the same blocks:
0.10-0.20 MB for the float sums and 0.02 for g_count. Summed over whole
arrays they peaked at 1.16-3.15 MB.

build_sieve(1e6) in segments of 4096 allocates the table and 0.03 MB
besides. When it kept each segment's primes and joined them at the end,
with the primes also written back into the SPF array, it went 0.67 MB
past the table.
"""

import tracemalloc

import pytest

import mertenslab as ml
from mertenslab import density, sieve, suites, summation

CEILINGS_MB = {
    "lambda-sum-bound": 0.9,
    "mertens1-bound": 0.9,
    "psi-linear": 0.7,
    "psi-dyadic": 4.8,
    "pi-upper": 0.6,
    "primorial-bound": 0.7,
    "reciprocal-lower": 1.7,
    "dusart": 0.6,
    "stirling-lower": 0.6,
    "binomial-bounds": 4.2,
    "log-factorial-dual-route": 13.0,
    "pair-bijection": 13.0,
    "split-interval": 4.0,
    "abel-exactness": 11.0,
    "mm-route-agreement": 0.3,
    "lambda-mertens-gap": 0.1,
}


@pytest.mark.parametrize("name", sorted(CEILINGS_MB))
def test_check_peak_allocation(table_1e6, monkeypatch, name):
    monkeypatch.setattr(summation, "BLOCK", 4096, raising=False)
    check = dict(suites.build_checks(table_1e6, ["all"]))[name]
    tracemalloc.start()
    try:
        assert check().passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < CEILINGS_MB[name] * 1e6


POINT_QUERIES = ("sum_lambda_over_n", "mertens_first_sum",
                 "reciprocal_prime_sum", "chebyshev_psi",
                 "theta_log_primorial", "prime_count", "g_count",
                 "rough_tail_sum", "log_zeta_truncation")


@pytest.mark.parametrize("func", POINT_QUERIES)
def test_point_query_peak_allocation(table_1e6, monkeypatch, func):
    monkeypatch.setattr(summation, "BLOCK", 4096, raising=False)
    args = (2.0, 10 ** 6) if func == "log_zeta_truncation" else (10 ** 6,)
    tracemalloc.start()
    try:
        getattr(ml, func)(table_1e6, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.3e6


def test_census_peak_allocation(table_2e7):
    # the walk's memo of P(n) for n <= 1e7 in uint16 is 20 MB
    tracemalloc.start()
    try:
        density.census_counts(table_2e7, [2 * 10 ** 7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_sieve_build_peak_allocation(monkeypatch):
    monkeypatch.setattr(sieve, "SEGMENT", 4096)
    tracemalloc.start()
    try:
        table = sieve.build_sieve(10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - (table.spf.nbytes + table.primes.nbytes) < 0.1e6


# pi(L) at each limit: 65,537 is the first prime past 2^16
PRIME_COUNTS = {2: 1, 3: 2, 100: 25, 10 ** 4: 1229, 65_537: 6543,
                10 ** 6: 78_498}


@pytest.mark.parametrize("limit", sorted(PRIME_COUNTS))
def test_table_bytes(limit):
    table = sieve.build_sieve(limit)
    size = table.spf.nbytes + table.primes.nbytes
    assert size == 2 * ((limit - 1) // 2 + 1) + 8 * PRIME_COUNTS[limit]
    assert size <= sieve.estimate_table_bytes(limit)
