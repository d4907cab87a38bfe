import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertenslab import sieve
from mertenslab.arith import von_mangoldt
from mertenslab.errors import DomainError, ResourceError
from mertenslab.sieve import (
    MAX_LIMIT,
    build_sieve,
    factor_exponents,
    factorize,
    largest_factor_range,
    largest_prime_factor,
)

from oracles import trial_factorize, trial_largest_factor, trial_primes


def test_build_sieve_examples():
    assert build_sieve(10).primes.tolist() == trial_primes(10) \
        == [2, 3, 5, 7]
    assert build_sieve(2).primes.tolist() == [2]
    assert build_sieve(100).primes.size == len(trial_primes(100)) == 25


@pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 15, 16, 24, 25, 48, 49,
                                   120, 121, 10 ** 4 - 1, 10 ** 4,
                                   10 ** 4 + 1])
def test_primes_and_spf_at_square_boundaries(limit):
    # the base primes come from the table at isqrt(limit), which gains a
    # prime at limit p^2 and has none below limit 4; a prime's slot is 0
    table = build_sieve(limit)
    assert table.primes.tolist() == trial_primes(limit)
    assert table.spf.tolist() == [0, 0] + [
        0 if len(f) == 1 and f[0][1] == 1 else f[0][0]
        for f in map(trial_factorize, range(2, limit + 1))]


def test_spf_invariants(table_1e4):
    spf = table_1e4.spf
    assert spf.dtype == np.uint16 and spf[0] == spf[1] == 0
    # spf[n] == 0 exactly at the primes
    primes = set(table_1e4.primes.tolist())
    assert primes == set(trial_primes(10 ** 4))
    assert primes == {n for n in range(2, 10 ** 4 + 1) if spf[n] == 0}
    # a composite's entry is its trial least factor p, with p * p <= n
    for n in set(range(2, 10 ** 4 + 1)) - primes:
        p = int(spf[n])
        assert n % p == 0
        assert trial_factorize(n)[0][0] == p
        assert p * p <= n
    assert table_1e4.primes[0] == 2 and table_1e4.primes[1] == 3


def test_prime_list_strictly_increasing(table_1e4):
    ps = table_1e4.primes
    assert np.all(ps[1:] > ps[:-1])


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(2, 3000), segment=st.integers(2, 4096))
def test_segment_size_independence(limit, segment):
    reference = build_sieve(limit)      # one segment: SEGMENT > 3000
    with mock.patch.object(sieve, "SEGMENT", segment):
        table = build_sieve(limit)
    assert np.array_equal(reference.spf, table.spf)
    assert np.array_equal(reference.primes, table.primes)


def test_segment_size_independence_large():
    tables = []
    for segment in (2, 7, 64, 10 ** 5):
        with mock.patch.object(sieve, "SEGMENT", segment):
            tables.append(build_sieve(10 ** 5))
    for other in tables[1:]:
        assert np.array_equal(tables[0].spf, other.spf)
        assert np.array_equal(tables[0].primes, other.primes)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 10 ** 4))
def test_factorize_matches_trial_division(table_1e4, n):
    fact = factorize(table_1e4, n)
    assert fact.factors == trial_factorize(n)
    assert math.prod(p ** e for p, e in fact.factors) == n


def test_factorize_reads_python_ints(table_1e4):
    # exact Python integers, so p ** e cannot wrap at a fixed width
    for n in range(2, 10 ** 4 + 1):
        factors = factorize(table_1e4, n).factors
        assert all(type(p) is int and type(e) is int for p, e in factors)
        assert math.prod(p ** e for p, e in factors) == n
        assert type(largest_prime_factor(table_1e4, n)) is int


@pytest.mark.parametrize("chunk", [sieve.LPF_CHUNK, 1, 7, 1000])
def test_factor_exponents_is_every_factorization(table_1e4, monkeypatch,
                                                 chunk):
    # small chunks put many chunk ends inside the range, one at every k
    monkeypatch.setattr(sieve, "LPF_CHUNK", chunk)
    ks, ps, es = factor_exponents(table_1e4, 10 ** 4)
    assert ks.dtype == ps.dtype == es.dtype == np.int64
    flat = [(k, p, e) for k in range(2, 10 ** 4 + 1)
            for p, e in factorize(table_1e4, k).factors]
    assert list(zip(ks.tolist(), ps.tolist(), es.tolist())) == flat
    assert [(p, e) for k, p, e in flat if k <= 2310] == [
        f for k in range(2, 2311) for f in trial_factorize(k)]


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
def test_factor_exponents_at_tiny_limits(table_1e4, n_max):
    ks, ps, es = factor_exponents(table_1e4, n_max)
    assert (ks.tolist(), ps.tolist(), es.tolist()) == {
        0: ([], [], []), 1: ([], [], []), 2: ([2], [2], [1]),
        3: ([2, 3], [2, 3], [1, 1]), 4: ([2, 3, 4], [2, 3, 2], [1, 1, 2]),
    }[n_max]
    for v in (-1, table_1e4.limit + 1):
        with pytest.raises(DomainError):
            factor_exponents(table_1e4, v)


def test_factorize_examples(table_1e4):
    assert factorize(table_1e4, 12).factors == [(2, 2), (3, 1)]
    assert factorize(table_1e4, 97).factors == [(97, 1)]
    assert factorize(table_1e4, 2).factors == [(2, 1)]


def test_largest_prime_factor(table_1e4):
    assert largest_prime_factor(table_1e4, 10) == 5
    assert largest_prime_factor(table_1e4, 8) == 2
    assert largest_prime_factor(table_1e4, 97) == 97
    for n in range(2, 2000):
        assert largest_prime_factor(table_1e4, n) == trial_largest_factor(n)


def test_largest_factor_range(table_1e4):
    got = largest_factor_range(table_1e4, 2, 2000)
    expect = [trial_largest_factor(n) for n in range(2, 2000)]
    assert got.tolist() == expect
    assert got.dtype == np.uint32


def test_largest_factor_range_across_chunk_ends(table_1e6):
    # windows straddling each end of the memo's chunks, one ending at
    # limit + 1; checked against the scalar SPF peel
    limit = table_1e6.limit
    ends = [2 ** k for k in range(2, 19)]
    ends += range(2 ** 18 + 2 ** 18, limit, 2 ** 18)
    windows = [(max(2, e - 5), e + 5) for e in ends]
    windows.append((limit - 40, limit + 1))
    for lo, hi in windows:
        got = largest_factor_range(table_1e6, lo, hi)
        expect = [largest_prime_factor(table_1e6, n) for n in range(lo, hi)]
        assert got.tolist() == expect


def test_readers_against_trial_division(table_1e6):
    # a prime reads 0 from the table, so every reader must take its factor
    # as n itself; P(n) passes 2^16 here (999,983 is the largest prime).
    # Every n within 3 of a sieve segment end, a walk chunk end, the
    # largest prime or the limit.
    table, limit = table_1e6, table_1e6.limit
    ends = set(range(2 + sieve.SEGMENT, limit + 1, sieve.SEGMENT))
    ends |= {2 ** k for k in range(2, 19)}
    ends |= set(range(2 * sieve.LPF_CHUNK, limit, sieve.LPF_CHUNK))
    ends |= {int(table.primes[-1]), limit}
    ns = sorted({n for e in ends for n in range(e - 3, e + 4)
                 if 2 <= n <= limit})
    assert table.primes[-1] == 999_983 and 999_983 in ns
    trial = {n: trial_factorize(n) for n in ns}
    for n in ns:
        assert factorize(table, n).factors == trial[n]
        assert largest_prime_factor(table, n) == trial[n][-1][0]
        lam = (math.log(trial[n][0][0]) if len(trial[n]) == 1 else 0.0)
        assert von_mangoldt(table, n) == lam
    ks, ps, es = factor_exponents(table, table.limit)
    starts = np.searchsorted(ks, ns)
    stops = np.searchsorted(ks, ns, side="right")
    for n, i, j in zip(ns, starts.tolist(), stops.tolist()):
        assert list(zip(ps[i:j].tolist(), es[i:j].tolist())) == trial[n]
    lpf = largest_factor_range(table, 2, table.limit + 1)
    assert lpf.dtype == np.uint32
    assert [int(lpf[n - 2]) for n in ns] == [trial[n][-1][0] for n in ns]


def test_prime_count_consistency(table_1e4):
    primes = table_1e4.primes
    for x in range(0, 10 ** 4 + 1, 97):
        assert int(np.searchsorted(primes, x, side="right")) == len(
            trial_primes(x))


@settings(max_examples=100, deadline=None)
@given(x=st.integers(-1, 10 ** 4))
@example(x=-1)
@example(x=1)
@example(x=2)
@example(x=9973)        # the largest prime in the table
@example(x=10 ** 4)
def test_primes_upto_is_the_prefix(table_1e4, x):
    ps = table_1e4.primes_upto(x)
    assert ps.tolist() == trial_primes(x)
    assert ps.base is table_1e4.primes      # a view, not a copy


def test_domain_errors(table_1e4):
    with pytest.raises(DomainError):
        build_sieve(1)
    with pytest.raises(DomainError):
        build_sieve(MAX_LIMIT + 1)
    with pytest.raises(DomainError):
        factorize(table_1e4, 1)
    with pytest.raises(DomainError):
        factorize(table_1e4, 10 ** 4 + 1)
    with pytest.raises(DomainError):
        largest_prime_factor(table_1e4, 0)
    for lo, hi in ((1, 10), (2, 10 ** 4 + 2), (10, 9)):
        with pytest.raises(DomainError):
            largest_factor_range(table_1e4, lo, hi)
    assert largest_factor_range(table_1e4, 10, 10).size == 0


def test_resource_error_reports_bytes():
    # the estimate exceeds the budget, so nothing is allocated
    with pytest.raises(ResourceError) as err:
        build_sieve(2 * 10 ** 9)
    assert err.value.required_bytes > sieve.MEMORY_BUDGET
    assert err.value.budget_bytes == sieve.MEMORY_BUDGET


def test_resource_error_comes_before_any_uint16_overflow():
    # the 2-byte estimate passes the budget from 1,290,685,816 on, so a
    # table's composites have least factors below isqrt(1,290,685,815) =
    # 35,926 < 2^16; the estimate and build_sieve(2^32) both raise before
    # they touch numpy at all
    with mock.patch.object(sieve, "np") as fake_np:
        assert (sieve.estimate_table_bytes(1_290_685_815)
                <= sieve.MEMORY_BUDGET
                < sieve.estimate_table_bytes(1_290_685_816))
        with pytest.raises(ResourceError) as err:
            build_sieve(2 ** 32)
    assert fake_np.mock_calls == []
    assert err.value.required_bytes > sieve.MEMORY_BUDGET
    assert math.isqrt(1_290_685_815) == 35_926 < 2 ** 16
    assert build_sieve(100).spf.dtype == np.uint16


def test_table_is_immutable(table_1e4):
    with pytest.raises(ValueError):
        table_1e4.spf[2] = 7
    with pytest.raises(ValueError):
        table_1e4.primes[0] = 3
