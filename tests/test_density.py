import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertenslab import density as D
from mertenslab import sieve
from mertenslab.errors import DomainError
from mertenslab.outcomes import Witness
from mertenslab.sieve import largest_prime_factor

from oracles import (census_brute, g_count_all_loop, split_interval_loop,
                     trial_largest_factor)


def test_largest_prime_factor_boundaries(table_1e4):
    def large(n):
        return largest_prime_factor(table_1e4, n) ** 2 > n

    assert large(10)        # 5^2 > 10
    assert not large(4)     # 2^2 = 4, strict
    assert not large(9)     # 3^2 = 9, strict
    for n in range(2, 1500):
        assert large(n) == (trial_largest_factor(n) ** 2 > n)


def test_census_oracle_examples(table_1e4):
    assert D.census_oracle(table_1e4, 10) == 6   # 2,3,5,6,7,10
    assert D.census_oracle(table_1e4, 2) == 1
    assert D.census_oracle(table_1e4, 3) == 2
    assert D.census_oracle(table_1e4, 1000) == census_brute(1000)[1000]


def test_census_oracle_every_x_matches_brute(table_1e4):
    expect = census_brute(3000)
    for x in range(2, 3001):
        assert D.census_oracle(table_1e4, x) == expect[x]


@pytest.mark.parametrize("chunk", [D.LPF_CHUNK, 1, 7, 1000])
def test_census_counts_every_x_in_any_order(table_1e4, monkeypatch, chunk):
    # one call reads every x, repeats included, across every chunk end
    monkeypatch.setattr(sieve, "LPF_CHUNK", chunk)
    monkeypatch.setattr(D, "LPF_CHUNK", chunk)
    expect = census_brute(3000)
    xs = np.random.default_rng(5).permutation(np.arange(2, 3001))
    xs = np.concatenate((xs, [2, 3000, 1000]))
    assert D.census_counts(table_1e4, xs).tolist() == \
        [expect[x] for x in xs.tolist()]


def test_census_counts_rejects_x_outside_the_table(table_1e4):
    for xs in ([1, 10], [10, 10 ** 4 + 1]):
        with pytest.raises(DomainError):
            D.census_counts(table_1e4, xs)


def test_census_oracle_past_uint32_squares(table_1e6):
    # P(n) > 65535 squares past 2^32: the census must not square in uint32
    for x in (65535, 65536, 65537, 2 ** 18 - 1, 2 ** 18 + 1, 10 ** 6):
        assert D.census_oracle(table_1e6, x) == D.g_count(table_1e6, x)


def test_g_count_examples(table_1e4):
    assert D.g_count(table_1e4, 10) == 6    # 1 + 2 + 2 + 1
    assert D.g_count(table_1e4, 2) == 1     # p=2: min(1, 1)


@settings(max_examples=120, deadline=None)
@given(x=st.integers(2, 10 ** 4))
def test_bijection_pointwise(table_1e4, x):
    assert D.g_count(table_1e4, x) == D.census_oracle(table_1e4, x)


def test_g_count_all_matches_point_op(table_1e4):
    g_all = D.g_count_all(table_1e4, 3000)
    for x in range(2, 3001):
        assert int(g_all[x]) == D.g_count(table_1e4, x)


@pytest.mark.parametrize("x", [2, 3, 4, 5, 6, 7, 10, 11, 12, 20, 42, 100,
                               1000, 12345, 10 ** 5])
def test_g_count_all_matches_the_prime_loop(table_1e5, x):
    # p(p - 1) = 2, 6, 20, 42: from those x on the prime 2, 3, 5 or 7
    # has its full p - 1 multiples, below them its count is floor(x/p)
    got = D.g_count_all(table_1e5, x)
    assert got.dtype == np.int64
    assert np.array_equal(got, g_count_all_loop(x))


def test_split_point():
    assert D.split_point(10) == pytest.approx(3.7015621187164243, rel=1e-15)
    assert D.split_point(2) == 2.0
    with pytest.raises(DomainError):
        D.split_point(0)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 10 ** 9))
def test_split_point_chain(x):
    e = D.split_point(x)
    assert math.sqrt(x) < e <= 1 + x


def test_split_point_consistency(table_1e4):
    # primes with p - 1 <= floor(10/p) are exactly those below the split
    small = [p for p in (2, 3, 5, 7) if p - 1 <= 10 // p]
    below = [p for p in (2, 3, 5, 7) if p <= D.split_point(10)]
    assert small == below == [2, 3]


def test_g_count_split(table_1e4):
    assert D.g_count_split(table_1e4, 10) == (3, 3)
    assert D.g_count_split(table_1e4, 4) == (1, 1)
    for x in range(2, 2000):
        small, large = D.g_count_split(table_1e4, x)
        assert small + large == D.g_count(table_1e4, x)


def test_rough_tail_sum(table_1e4):
    assert D.rough_tail_sum(table_1e4, 10) == pytest.approx(1 / 5 + 1 / 7,
                                                            rel=1e-15)
    assert D.rough_tail_sum(table_1e4, 4) == pytest.approx(1 / 3, rel=1e-15)
    with pytest.raises(DomainError):
        D.rough_tail_sum(table_1e4, 3)


def test_density_series(table_1e6):
    rep = D.density_series(table_1e6, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
    assert rep.passed
    for row in rep.rows:
        assert abs(row.residual) <= row.tolerance == 3.0 / math.log(row.x)
    with pytest.raises(DomainError):
        D.density_series(table_1e6, [])
    with pytest.raises(DomainError):
        D.density_series(table_1e6, [1000, 1000])


def test_large_factor_census_invariants(table_1e4):
    g = D.g_count(table_1e4, 1000)
    assert g == D.census_oracle(table_1e4, 1000) == census_brute(1000)[1000]
    assert 0.0 <= g / 1000 <= 1.0
    assert math.sqrt(1000) < D.split_point(1000) <= 1001


def test_sweeps(table_1e5):
    assert D.bijection_sweep(table_1e5, 10 ** 4).passed
    assert D.split_identity_sweep(table_1e5, 2000).passed
    assert D.split_interval_sweep(table_1e5, 10 ** 5).passed
    assert D.small_part_bound_sweep(table_1e5, 10 ** 5).passed
    assert D.rough_tail_monotone_sweep(table_1e5, 5).passed


def test_rough_tail_monotone_needs_two_decades(table_1e4):
    for k_max in (1, 0, -1):
        with pytest.raises(DomainError):
            D.rough_tail_monotone_sweep(table_1e4, k_max)


def test_split_interval_floor_identity(table_1e4):
    # any prime between sqrt x and the split point forces floor(x/p) = p - 1
    for x in range(2, 5000):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71):
            if p * p > x and p * (p - 1) <= x:
                assert x // p == p - 1


@pytest.mark.parametrize("x_max", [2, 3, 5, 6, 7, 19, 20, 21, 41, 42, 43,
                                   3000])
def test_split_interval_sweep_matches_the_per_x_loop(table_1e4, verdict_args,
                                                     x_max):
    # p^2 - p = 2, 6, 20, 42 open the spans of 2, 3, 5, 7 and
    # p^2 - 1 = 3, 8, 24, 48 close them: x_max on either side of each
    floors = verdict_args(D, "exact_case")
    counts = verdict_args(D, "worst_case")
    assert D.split_interval_sweep(table_1e4, x_max).passed
    xs, ps, want_floors, want_counts = split_interval_loop(x_max)
    (got_xs, got_floors, got_rhs), = floors
    assert got_xs.tobytes() == xs.tobytes()
    assert got_floors.tobytes() == want_floors.tobytes()
    assert got_rhs.tobytes() == (ps - 1).tobytes()
    (got_inputs, got_counts, got_cap), = counts
    assert got_inputs.tolist() == list(range(2, x_max + 1))
    assert got_counts.tobytes() == want_counts.tobytes()
    assert got_cap == 1


def test_split_interval_sweep_witness_is_first_bad_x(table_1e4, monkeypatch):
    # spans laid one x late run to p^2, where x // p = p: the first such x
    # is 4, the end of 2's span, then 9, 25, ...
    real = D._multiples

    def one_late(bases, counts):
        d, j = real(bases, counts)
        return d, j + 1

    monkeypatch.setattr(D, "_multiples", one_late)
    out = D.split_interval_sweep(table_1e4, 3000)
    assert not out.passed and out.range == (2, 3000)
    assert out.worst_witness == Witness(input=4, lhs=2.0, rhs=1.0,
                                        margin=-1.0)


def _scalar_split_totals(table, x_max):
    """small + large from the scalar g_count_split, for x = 0..x_max."""
    return np.array([0, 0] + [sum(D.g_count_split(table, x))
                              for x in range(2, x_max + 1)], dtype=np.int64)


def test_split_identity_sweep_matches_scalar_split(table_1e4, monkeypatch):
    # with G(x) replaced by the scalar totals, the sweep passes only if its
    # blocked totals equal g_count_split at every x <= 3000
    totals = _scalar_split_totals(table_1e4, 3000)
    assert np.array_equal(totals, D.g_count_all(table_1e4, 3000))
    monkeypatch.setattr(D, "g_count_all", lambda table, x_max: totals)
    outcome = D.split_identity_sweep(table_1e4, 3000)
    assert outcome.passed and outcome.worst_witness.input == 3000


_EDGE = 2 + D.LPF_CHUNK // 430      # first block edge at x_max = 3000


@pytest.mark.parametrize("bad", [1500, _EDGE - 1, _EDGE, _EDGE + 1, 3000])
def test_split_identity_sweep_reports_first_mismatch(table_1e4, monkeypatch,
                                                     bad):
    assert table_1e4.primes_upto(3000).size == 430
    totals = _scalar_split_totals(table_1e4, 3000)
    totals[bad] += 1
    totals[bad + 7:] += 1       # a later mismatch must not be the witness
    monkeypatch.setattr(D, "g_count_all", lambda table, x_max: totals)
    outcome = D.split_identity_sweep(table_1e4, 3000)
    w = outcome.worst_witness
    assert not outcome.passed
    assert (w.input, w.lhs, w.rhs, w.margin) == (
        bad, totals[bad] - 1, totals[bad], -1.0)


@pytest.mark.parametrize("spots, bad, hi", [
    ((5000, 20000), 20000, 20000),
    ((5000, 20000), 5000, 5000),
    ((500, 5000), 500, 1000),
])
def test_bijection_sweep_spot_mismatch(table_1e5, monkeypatch, spots, bad,
                                       hi):
    # a census one too high at x = bad; the range ends at the larger of
    # x_max = 1000 and that spot
    real = D.census_counts
    monkeypatch.setattr(D, "census_counts", lambda table, xs: real(table, xs)
                        + (np.asarray(xs) == bad))
    out = D.bijection_sweep(table_1e5, 1000, spots)
    g = D.g_count(table_1e5, bad)
    assert not out.passed and out.range == (2, hi)
    assert out.worst_witness == Witness(input=bad, lhs=float(g),
                                        rhs=float(g + 1), margin=-1.0)


def test_bijection_sweep_pass_range_covers_spots(table_1e5):
    out = D.bijection_sweep(table_1e5, 1000, (5000, 20000))
    g = float(D.g_count(table_1e5, 1000))
    assert out.passed and out.range == (2, 20000)
    assert out.worst_witness == Witness(input=1000, lhs=g, rhs=g, margin=0.0)
