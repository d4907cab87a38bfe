"""Peak allocation of the streamed checks on a 1e6 table.

Each ceiling is the check's tracemalloc peak with its sweep streamed in
blocks of 4096, plus headroom. The default summation.BLOCK is close to
the 78,498 primes of this table, so the test takes a block well below
them. A sweep that holds every case at once, as the array forms did,
goes past the ceiling: the peaks then were
lambda-sum-bound 5.1 MB, mertens1-bound 4.4, psi-linear 4.4, psi-dyadic
6.5, pi-upper 3.8, dusart 3.8, stirling-lower 48.0, binomial-bounds 5.6,
log-factorial-dual-route 40.0, pair-bijection 14.8 and abel-exactness
18.8.
"""

import tracemalloc

import pytest

from mertenslab import suites, summation

CEILINGS_MB = {
    "lambda-sum-bound": 4.2,
    "mertens1-bound": 2.5,
    "psi-linear": 3.9,
    "psi-dyadic": 4.8,
    "pi-upper": 0.6,
    "dusart": 0.6,
    "stirling-lower": 0.6,
    "binomial-bounds": 4.2,
    "log-factorial-dual-route": 13.0,
    "pair-bijection": 13.0,
    "abel-exactness": 11.0,
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
