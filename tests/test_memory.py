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
measure 0.61, 0.60, 0.45, 0.43 and 0.02.
"""

import tracemalloc

import pytest

from mertenslab import suites, summation

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
    "abel-exactness": 11.0,
    "mm-route-agreement": 1.4,
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
