import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertenslab import arith, bounds, density, partial_sums
from mertenslab.errors import DomainError
from mertenslab.outcomes import (Witness, exact_case, worst_case,
                                 worst_case_blocks)


def test_worst_case_first_smallest_margin():
    out = worst_case("c", (1, 4), np.arange(1, 5), np.zeros(4), np.ones(4),
                     np.array([3.0, 1.0, 2.0, 1.0]))
    assert out.passed
    assert out.worst_witness == Witness(input=2, lhs=0.0, rhs=1.0, margin=1.0)


@pytest.mark.parametrize("margin, strict, passed", [
    (0.0, False, True),
    (0.0, True, False),
    (5e-324, True, True),
    (-5e-324, False, False),    # no floor below 0: the least miss fails
])
def test_worst_case_strict(margin, strict, passed):
    out = worst_case("c", (1, 2), [1, 2], 0.0, 0.0, np.array([1.0, margin]),
                     strict=strict)
    assert out.passed is passed
    assert out.worst_witness.margin == margin


def test_worst_case_scalar_sides_broadcast():
    rel = np.array([1e-13, 4e-13, 2e-13])
    out = worst_case("c", (2, 4), np.arange(2, 5), rel, 1e-12, 1e-12 - rel)
    w = out.worst_witness
    assert (w.input, w.lhs, w.rhs, w.margin) == (3, 4e-13, 1e-12,
                                                 1e-12 - 4e-13)
    assert type(w.input) is int and type(w.rhs) is float
    out = worst_case("c", (5, 6), [5, 6], 7, 2.5, np.array([-4.5, -4.5]))
    assert not out.passed
    assert out.worst_witness == Witness(input=5, lhs=7.0, rhs=2.5,
                                        margin=-4.5)


_MARGINS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9,
                                      math.nan, -math.inf]),
                     st.floats(allow_nan=True))


@settings(max_examples=500, deadline=None)
@given(st.lists(_MARGINS, min_size=1, max_size=30).flatmap(
           lambda m: st.tuples(st.just(m), st.sets(st.integers(1, len(m))))),
       st.booleans(), st.booleans())
@example(([0.0, -0.0, -0.0], {1, 2}), False, False)
@example(([1.0, math.nan, -1.0, math.nan], {1, 2, 3}), False, True)
@example(([2.0, -1.0, 3.0, -1.0, -1.0], {2, 4}), True, False)
def test_worst_case_blocks_match_one_call(case, strict, scalar):
    # any split into blocks: the first smallest margin, NaN first, of all
    margins, cuts = case
    n = len(margins)
    inputs, m = np.arange(10, 10 + n), np.array(margins)
    lhs = 7.5 if scalar else np.arange(n) * 0.5
    rhs = np.arange(n) - 3.0
    whole = worst_case("c", (1, n), inputs, lhs, rhs, m, strict)
    edges = [0, *sorted(cuts - {n}), n]
    blocks = ((inputs[a:b], lhs if scalar else lhs[a:b], rhs[a:b], m[a:b])
              for a, b in zip(edges, edges[1:]))
    got = worst_case_blocks("c", (1, n), blocks, strict)
    assert repr(got) == repr(whole)


def test_two_sided_tie_keeps_first_side():
    # the two-sided checks keep the side with the smaller margin; on a tie
    # the side listed first wins
    upper = worst_case("c", (1, 2), [1, 2], 0.0, 1.0, np.array([0.5, 0.25]))
    lower = worst_case("c", (1, 2), [1, 2], 2.0, 3.0, np.array([0.25, 0.5]))
    by_margin = lambda o: o.worst_witness.margin
    assert min(upper, lower, key=by_margin) is upper
    assert min(lower, upper, key=by_margin) is lower


def test_exact_case_first_mismatch_wins():
    # a later and larger miss must not displace the first
    out = exact_case("c", (2, 6), np.arange(2, 7), np.array([1, 2, 9, 4, 99]),
                     np.array([1, 2, 3, 4, 0]))
    assert not out.passed
    assert out.worst_witness == Witness(input=4, lhs=9.0, rhs=3.0,
                                        margin=-6.0)


def test_exact_case_pass_witness_is_last_case():
    out = exact_case("c", (2, 4), np.arange(2, 5), np.array([5, 6, 7]),
                     np.array([5, 6, 7]))
    assert out.passed and out.range == (2, 4)
    assert out.worst_witness == Witness(input=4, lhs=7.0, rhs=7.0,
                                        margin=0.0)
    assert repr(out.worst_witness.margin) == "0.0"
    # signed zeros are equal, and the margin is still +0.0
    zero = exact_case("c", (1, 1), [1], [-0.0], [0.0])
    assert zero.passed and repr(zero.worst_witness.margin) == "0.0"


def test_exact_case_lists_and_integers():
    out = exact_case("c", (3, 5), [3, 4, 5], [0, 0, 1], 0)
    w = out.worst_witness
    assert not out.passed
    assert (w.input, w.lhs, w.rhs, w.margin) == (5, 1.0, 0.0, -1.0)
    assert type(w.input) is int and type(w.lhs) is float
    # integers differ by 1 above 2^53, where their floats coincide
    big = exact_case("c", (1, 1), [1], [2 ** 53 + 1], [2 ** 53])
    assert not big.passed and big.worst_witness.margin == -1.0


GUARDED = [
    (arith.chebyshev_psi, 0), (arith.theta_log_primorial, 0),
    (arith.prime_count, 0), (arith.lambda_values, 0),
    (arith.theta_table, 0), (arith.pi_count_table, 0),
    (arith.divisor_lambda_sums, 0), (arith.legendre_exact_sweep, 2),
    (arith.logfact_dual_route_sweep, 2), (arith.selberg_sweep, 1),
    (arith.generalized_lambda_k1_sweep, 1),
    (arith.psi_theta_dominance_sweep, 2),
    (bounds.check_psi_linear, 2), (bounds.check_primorial_bound, 1),
    (bounds.check_pi_upper, 3), (bounds.check_reciprocal_lower, 2),
    (density.small_part_bound_sweep, 10),
    (partial_sums.lambda_sum_bound_sweep, 10),
    (partial_sums.mertens_bound_sweep, 2),
    (partial_sums.lambda_mertens_gap_sweep, 2),
]


@pytest.mark.parametrize("fn, lo", GUARDED, ids=[f.__name__ for f, _ in GUARDED])
def test_table_range_guard(table_1e4, fn, lo):
    for v in (lo - 1, table_1e4.limit + 1):
        with pytest.raises(DomainError) as exc:
            fn(table_1e4, v)
        assert str(exc.value) == f"n={v} outside [{lo}, {table_1e4.limit}]"
