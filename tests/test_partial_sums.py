import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertenslab import partial_sums as P
from mertenslab import summation
from mertenslab.errors import DomainError
from mertenslab.outcomes import Witness

from oracles import abel_summation_loop, abel_summation_quadrature

LOG2 = math.log(2)


def test_sum_lambda_over_n_examples(table_1e4):
    expected = (0.875 * LOG2 + (4 / 9) * math.log(3) + math.log(5) / 5
                + math.log(7) / 7)
    assert P.sum_lambda_over_n(table_1e4, 10) == pytest.approx(expected,
                                                               rel=1e-14)
    assert P.sum_lambda_over_n(table_1e4, 2) == pytest.approx(LOG2 / 2)


def test_sum_lambda_tracks_log(table_1e6):
    value = P.sum_lambda_over_n(table_1e6, 10 ** 6)
    assert abs(value - math.log(10 ** 6)) <= 2.0


def test_mertens_first_sum(table_1e4):
    expected = (LOG2 / 2 + math.log(3) / 3 + math.log(5) / 5
                + math.log(7) / 7)
    assert P.mertens_first_sum(table_1e4, 10) == pytest.approx(expected,
                                                               rel=1e-14)
    assert P.mertens_first_sum(table_1e4, 2) == pytest.approx(LOG2 / 2)


def test_reciprocal_prime_sum(table_1e4):
    assert P.reciprocal_prime_sum(table_1e4, 10) == pytest.approx(
        1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-15)
    assert P.reciprocal_prime_sum(table_1e4, 2) == 0.5
    residual = P.reciprocal_prime_sum(table_1e4, 10) - math.log(math.log(10))
    assert abs(residual - P.MEISSEL_MERTENS_REFERENCE) < 1.0 / math.log(10)


def test_abel_single_step_telescopes():
    f = lambda t: 1.0 / math.log(t)
    fp = lambda t: -1.0 / (t * math.log(t) ** 2)
    got = P.abel_summation([(2, 1.0)], f, fp, 2, 4)
    assert got == pytest.approx(1.0 / LOG2, rel=1e-15)
    assert P.abel_summation(iter([(2, 1.0)]), f, fp, 2, 4) == got


def test_abel_takes_an_array_of_pairs(table_1e6):
    # abel-exactness passes an (n, 2) float array: float indices give f
    # and the weights the bits that int indices give
    f = lambda t: 1.0 / math.log(t)
    ps = table_1e6.primes
    pairs = [(p, math.log(p) / p) for p in ps.tolist()]
    logs = np.fromiter(map(math.log, ps.tolist()), np.float64, ps.size)
    weights = np.column_stack((ps, logs / ps))
    assert weights.tolist() == [[float(p), w] for p, w in pairs]
    assert all(f(float(p)).hex() == f(p).hex() for p, _ in pairs)
    for x in (100, 10 ** 4, 10 ** 6):
        n = table_1e6.primes_upto(x).size
        got = P.abel_summation(weights[:n], f, None, 2.0, float(x))
        assert got.hex() == P.abel_summation(pairs[:n], f, None, 2.0,
                                             float(x)).hex()


def test_abel_empty_weights():
    f = lambda t: 1.0 / math.log(t)
    assert P.abel_summation([], f, None, 2, 4) == 0.0


def test_abel_reconstructs_reciprocal_sum(table_1e4):
    f = lambda t: 1.0 / math.log(t)
    fp = lambda t: -1.0 / (t * math.log(t) ** 2)
    for x in (100, 10 ** 4):
        ps = [int(p) for p in table_1e4.primes if p <= x]
        weights = [(p, math.log(p) / p) for p in ps]
        got = P.abel_summation(weights, f, fp, 2, x)
        ref = P.reciprocal_prime_sum(table_1e4, x)
        assert abs(got - ref) / ref <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.integers(2, 500),
              st.floats(-8, 8, allow_nan=False, allow_infinity=False)),
    min_size=0, max_size=40))
def test_abel_equals_direct_weighted_sum(weight_list):
    # the discrete identity: result is exactly the weighted f sum
    weights = sorted(weight_list)
    f = lambda t: 1.0 / math.log(t + 1.5)
    fp = lambda t: -1.0 / ((t + 1.5) * math.log(t + 1.5) ** 2)
    got = P.abel_summation(weights, f, fp, 2, 501)
    expected = math.fsum(a * f(max(i, 2)) for i, a in weights)
    assert got == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_abel_quadrature_cross_check(table_1e4):
    f = lambda t: 1.0 / math.log(t)
    fp = lambda t: -1.0 / (t * math.log(t) ** 2)
    ps = [int(p) for p in table_1e4.primes if p <= 100]
    weights = [(p, math.log(p) / p) for p in ps]
    exact = P.abel_summation(weights, f, fp, 2, 100)
    quad = abel_summation_quadrature(weights, f, fp, 2, 100, steps=64)
    assert quad == pytest.approx(exact, abs=1e-6)


def test_abel_domain_errors():
    f = lambda t: t
    with pytest.raises(DomainError):
        P.abel_summation([(3, 1.0), (2, 1.0)], f, None, 2, 4)
    with pytest.raises(ValueError):
        abel_summation_quadrature([(3, 1.0), (2, 1.0)], f, f, 2, 4)
    with pytest.raises(DomainError):
        P.abel_summation([], f, None, 4, 4)


def test_mertens2_residual_report(table_1e6):
    rep = P.mertens2_residual_report(table_1e6, [10 ** 3, 10 ** 4, 10 ** 5],
                                   P.MEISSEL_MERTENS_REFERENCE)
    assert rep.passed
    for row in rep.rows:
        assert row.residual == row.observed - row.predicted
        assert abs(row.residual) <= row.tolerance == 1.0 / math.log(row.x)


def test_mertens2_residual_small_x(table_1e4):
    rep = P.mertens2_residual_report(table_1e4, [3],
                                   P.MEISSEL_MERTENS_REFERENCE)
    row = rep.rows[0]
    assert row.observed == pytest.approx(5 / 6, rel=1e-15)
    assert abs(row.residual) <= 1.0 / math.log(3)


def test_mertens2_rejects_bad_xs(table_1e4):
    with pytest.raises(DomainError):
        P.mertens2_residual_report(table_1e4, [10, 10],
                                 P.MEISSEL_MERTENS_REFERENCE)
    with pytest.raises(DomainError):
        P.mertens2_residual_report(table_1e4, [],
                                 P.MEISSEL_MERTENS_REFERENCE)


def test_meissel_mertens_from_tail(table_1e6):
    est = P.meissel_mertens_from_tail(table_1e6, 10 ** 6)
    assert est.route == "tail-limit"
    assert abs(est.value - P.MEISSEL_MERTENS_REFERENCE) <= est.error_bound
    assert est.error_bound == pytest.approx(1.0 / math.log(10 ** 6))
    with pytest.raises(DomainError):
        P.meissel_mertens_from_tail(table_1e6, 50)


def test_meissel_mertens_from_series(table_1e6):
    est = P.meissel_mertens_from_series(table_1e6, 10 ** 6)
    assert est.route == "gamma-plus-prime-series"
    assert est.error_bound == 1.0 / 10 ** 6
    assert abs(est.value - P.MEISSEL_MERTENS_REFERENCE) <= 1e-5
    # single term at p = 2
    assert math.log1p(-0.5) + 0.5 == pytest.approx(-0.1931471805599453)
    with pytest.raises(DomainError):
        P.meissel_mertens_from_series(table_1e6, 100)


@pytest.mark.parametrize("block", [1 << 15, 4096, 777])
@pytest.mark.parametrize("limit", [1000, 1009, 10 ** 6])
def test_series_streams_to_the_whole_array_sum(table_1e6, monkeypatch,
                                                limit, block):
    # gamma and every term rounded once, whatever the block of primes
    monkeypatch.setattr(summation, "BLOCK", block)
    ps = table_1e6.primes_upto(limit).astype(np.float64)
    terms = np.log1p(-1.0 / ps) + 1.0 / ps
    want = math.fsum([P.EULER_GAMMA, *terms.tolist()])
    got = P.meissel_mertens_from_series(table_1e6, limit).value
    assert got.hex() == want.hex()


def test_route_agreement(table_1e6):
    series, tail, out = P.meissel_mertens_agreement(table_1e6)
    assert series == P.meissel_mertens_from_series(table_1e6, 10 ** 6)
    assert tail == P.meissel_mertens_from_tail(table_1e6, 10 ** 6)
    delta = abs(series.value - tail.value)
    assert delta <= tail.error_bound
    assert out.name == "mm-route-agreement" and out.passed
    assert out.range == (10 ** 6, 10 ** 6)
    assert (out.worst_witness.lhs, out.worst_witness.rhs) == (
        delta, series.error_bound + tail.error_bound)


def test_lambda_mertens_gap_fails_on_negative_gap(table_1e4, monkeypatch):
    # a negative term at 4, the first jump, pulls the gap below 0 while it
    # stays far under the ceiling: only the gap >= 0 clause can fail
    real = P.compensated_cumsum

    def planted(terms):
        return real(np.where(np.arange(terms.size) == 0, -1.0, terms))

    monkeypatch.setattr(P, "compensated_cumsum", planted)
    out = P.lambda_mertens_gap_sweep(table_1e4, 1000)
    assert not out.passed
    assert out.worst_witness.margin > 0.0


def test_lambda_mertens_gap_before_any_higher_power(table_1e4):
    for x in (2, 3):
        out = P.lambda_mertens_gap_sweep(table_1e4, x)
        assert out.passed and out.range == (2, x)
        assert out.worst_witness == Witness(input=x, lhs=0.0, rhs=1.0,
                                            margin=1.0)


def test_log_zeta_truncation(table_1e6):
    assert P.log_zeta_truncation(table_1e6, 2.0, 2) == 0.25
    z2 = P.log_zeta_truncation(table_1e6, 2.0, 10 ** 6)
    assert z2 == pytest.approx(math.log(P.PI_SQUARED_OVER_6), abs=1e-5)
    z4 = P.log_zeta_truncation(table_1e6, 4.0, 10 ** 4)
    assert z4 == pytest.approx(math.log(P.PI_FOURTH_OVER_90), abs=1e-9)
    with pytest.raises(DomainError):
        P.log_zeta_truncation(table_1e6, 1.0, 100)


def test_reciprocal_prime_sum_monotone(table_1e4):
    vals = [P.reciprocal_prime_sum(table_1e4, x) for x in (10, 100, 1000)]
    assert vals == sorted(vals)


def test_bound_sweeps(table_1e6):
    lam_bound = P.lambda_sum_bound_sweep(table_1e6, 10 ** 6)
    assert lam_bound.passed
    # calibration: the observed sup stays well under the asserted ceiling
    assert lam_bound.worst_witness.lhs < 0.7
    mertens = P.mertens_bound_sweep(table_1e6, 10 ** 6)
    assert mertens.passed
    assert mertens.worst_witness.lhs < 1.4
    gap = P.lambda_mertens_gap_sweep(table_1e6, 10 ** 6)
    assert gap.passed
    assert 0.0 < gap.worst_witness.lhs <= 1.0


def test_constant_estimate_validation():
    with pytest.raises(DomainError):
        P.ConstantEstimate("log-2", math.nan, "x", 0.0)
    with pytest.raises(DomainError):
        P.ConstantEstimate("log-2", 0.7, "x", -1.0)


def test_lambda_sum_and_mertens1_residuals(table_1e6):
    for x in (10, 10 ** 3, 10 ** 6):
        lam = P.sum_lambda_over_n(table_1e6, x)
        mer = P.mertens_first_sum(table_1e6, x)
        assert abs(lam - math.log(x)) <= 2.0
        assert abs(mer - math.log(x)) <= 2.0
        # the gap between the two sums is the higher-prime-power mass
        assert 0.0 <= lam - mer <= 1.0


def _calls_and_value(abel, weights, lower, upper):
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / (t + 2.0)

    return calls, abel(weights, f, None, lower, upper)


WEIGHT = st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                   st.sampled_from([0.0, -0.0]))
BOUND = st.one_of(st.integers(-1, 25), st.floats(-1, 25))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 30), WEIGHT), max_size=40),
       BOUND, st.one_of(st.integers(1, 30), st.floats(1e-3, 30)))
@example([], 2, 2)
@example([(2, 1.0), (2, 2.0), (3, 3.0)], 1, 4)          # one index twice
@example([(1, -0.0), (3, 1.0)], 1, 2)                  # A(lower) = -0.0
@example([(2, 1e16), (3, 1.0), (3, -1e16)], 0.5, 2.5)
def test_abel_matches_running_sum_loop(weight_list, lower, width):
    # bit for bit, sign of zero included, and f called at the same points
    weights = sorted(weight_list, key=lambda w: w[0])
    new_calls, got = _calls_and_value(P.abel_summation, weights, lower,
                                      lower + width)
    old_calls, want = _calls_and_value(abel_summation_loop, weights, lower,
                                       lower + width)
    assert (got.hex(), math.copysign(1.0, got)) == \
        (want.hex(), math.copysign(1.0, want))
    assert new_calls == old_calls
