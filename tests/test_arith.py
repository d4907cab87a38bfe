import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertenslab import arith as A
from mertenslab.errors import DomainError
from mertenslab.outcomes import Witness
from mertenslab.summation import compensated_cumsum

from oracles import (divisor_lambda_loop, divisors_brute, k1_diffs_loop,
                     legendre_misses_loop, mobius_brute, selberg_diffs_loop,
                     trial_factorize)


def test_von_mangoldt_examples(table_1e4):
    assert A.von_mangoldt(table_1e4, 8) == math.log(2)
    assert A.von_mangoldt(table_1e4, 12) == 0.0
    assert A.von_mangoldt(table_1e4, 1) == 0.0


def test_von_mangoldt_prime_power_structure(table_1e4):
    for n in range(1, 3000):
        factors = trial_factorize(n)
        if len(factors) == 1:
            p, _ = factors[0]
            assert A.von_mangoldt(table_1e4, n) == math.log(p)
        else:
            assert A.von_mangoldt(table_1e4, n) == 0.0


def test_mobius(table_1e4):
    mu = A.mobius_values(table_1e4, 2000)
    assert (mu[1], mu[6], mu[12]) == (1, 1, 0)
    assert mu[1:].tolist() == [mobius_brute(n) for n in range(1, 2001)]


@pytest.fixture(scope="module")
def mu_90000(table_1e5):
    return A.mobius_values(table_1e5, 300 * 300)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 300), n=st.integers(1, 300))
def test_mobius_multiplicative_on_coprimes(mu_90000, m, n):
    if math.gcd(m, n) == 1:
        assert mu_90000[m * n] == mu_90000[m] * mu_90000[n]


def test_log_factorial_direct():
    lf = A.log_factorial_table(10)
    assert lf[0] == lf[1] == 0.0
    assert lf[10] == pytest.approx(math.log(3628800), rel=1e-15)


def _log_factorial_via_lambda(table, n_max):
    """log(k!) for k = 0..n_max as the running sum of Lambda over the
    divisors of each k: the route of logfact_dual_route_sweep."""
    return compensated_cumsum(A.divisor_lambda_sums(table, n_max))


def test_log_factorial_via_lambda(table_1e4):
    expected = (8 * math.log(2) + 4 * math.log(3) + 2 * math.log(5)
                + math.log(7))
    via = _log_factorial_via_lambda(table_1e4, 10)
    assert via[10] == pytest.approx(expected, rel=1e-14)
    assert via[2] == pytest.approx(math.log(2), rel=1e-15)
    assert via[3] == pytest.approx(math.log(6), rel=1e-15)


def test_log_factorial_routes_agree(table_1e4):
    direct = A.log_factorial_table(10 ** 4)
    via = _log_factorial_via_lambda(table_1e4, 10 ** 4)
    for n in (2, 10, 100, 5000, 10 ** 4):
        assert abs(direct[n] - via[n]) / direct[n] <= 1e-12
        assert direct[n] == pytest.approx(math.lgamma(n + 1), rel=1e-13)


def test_log_sum_identity_sweep_small_k(table_1e4):
    for k in (2, 12, 97, 9973, 10 ** 4):
        assert A.log_sum_identity_sweep(table_1e4, k).passed
    two = A.log_sum_identity_sweep(table_1e4, 2)
    assert two.range == (1, 2)
    # Lambda(1) + Lambda(2) is log 2 exactly
    assert two.worst_witness == Witness(input=2, lhs=0.0, rhs=1e-12,
                                        margin=1e-12)


def test_chebyshev_psi(table_1e4):
    assert A.chebyshev_psi(table_1e4, 0) == 0.0
    assert A.chebyshev_psi(table_1e4, 1) == 0.0
    assert A.chebyshev_psi(table_1e4, 2) == pytest.approx(math.log(2))
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert A.chebyshev_psi(table_1e4, 10) == pytest.approx(expected,
                                                           rel=1e-14)


def test_theta_log_primorial(table_1e4):
    assert A.theta_log_primorial(table_1e4, 1) == 0.0
    assert A.theta_log_primorial(table_1e4, 2) == pytest.approx(math.log(2))
    assert A.theta_log_primorial(table_1e4, 10) == pytest.approx(
        math.log(210), rel=1e-14)


def test_prime_count(table_1e4):
    assert A.prime_count(table_1e4, 1) == 0
    assert A.prime_count(table_1e4, 2) == 1
    assert A.prime_count(table_1e4, 100) == 25


def test_generalized_lambda(table_1e4):
    assert A.generalized_lambda(table_1e4, 8, 1) == pytest.approx(
        math.log(2), abs=1e-12)
    assert A.generalized_lambda(table_1e4, 1, 2) == 0.0
    assert A.generalized_lambda(table_1e4, 12, 2) == pytest.approx(
        2 * math.log(2) * math.log(3), abs=1e-12)
    with pytest.raises(DomainError):
        A.generalized_lambda(table_1e4, 12, 0)


def test_generalized_lambda_brute_divisor_sum(table_1e4):
    # independent route: all divisors with brute-force mobius
    for n in (12, 30, 64, 360, 9973):
        for k in (1, 2, 3):
            expected = math.fsum(
                mobius_brute(d) * math.log(n // d) ** k
                for d in divisors_brute(n))
            assert A.generalized_lambda(table_1e4, n, k) == pytest.approx(
                expected, abs=1e-10)


def test_selberg_examples(table_1e4, verdict_args):
    calls = verdict_args(A, "worst_case")
    assert A.selberg_sweep(table_1e4, 1).passed
    assert A.selberg_sweep(table_1e4, 30).passed
    # both sides are 0 at n = 1 and equal 3 log^2 2 at n = 4
    assert calls[0][1].tolist() == [0.0]
    assert A.generalized_lambda(table_1e4, 4, 2) == pytest.approx(
        3 * math.log(2) ** 2, abs=1e-12)
    assert calls[1][1][[0, 3, 29]].max() <= 1e-12


def test_domain_guards(table_1e4):
    with pytest.raises(DomainError):
        A.von_mangoldt(table_1e4, 0)
    with pytest.raises(DomainError):
        A.chebyshev_psi(table_1e4, -1)


def test_cumulative_tables_match_point_ops(table_1e4):
    psi = A.psi_table(table_1e4, 1000)
    theta = A.theta_table(table_1e4, 1000)
    pi = A.pi_count_table(table_1e4, 1000)
    lf = A.log_factorial_table(1000)
    for x in (0, 1, 2, 3, 10, 97, 1000):
        assert psi[x] == pytest.approx(A.chebyshev_psi(table_1e4, x),
                                       rel=1e-13, abs=1e-13)
        assert theta[x] == pytest.approx(A.theta_log_primorial(table_1e4, x),
                                         rel=1e-13, abs=1e-13)
        assert pi[x] == A.prime_count(table_1e4, x)
        assert lf[x] == pytest.approx(math.lgamma(x + 1),
                                      rel=1e-13, abs=1e-13)
    for table in (psi, theta, lf, pi):
        assert np.all(np.diff(table) >= 0)
    assert pi.dtype == np.int64


def test_sweeps_pass_small(table_1e5):
    assert A.log_sum_identity_sweep(table_1e5, 10 ** 5).passed
    assert A.legendre_exact_sweep(table_1e5, 2000).passed
    assert A.logfact_dual_route_sweep(table_1e5, 10 ** 5).passed
    assert A.selberg_sweep(table_1e5, 2000).passed
    assert A.generalized_lambda_k1_sweep(table_1e5, 2000).passed
    assert A.psi_theta_dominance_sweep(table_1e5, 10 ** 4).passed


@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 8, 9, 960, 961, 962,
                               10 ** 4, 10 ** 5])
def test_divisor_lambda_sums_matches_prime_power_loop(table_1e5, x):
    # 961 = 31^2: 31 is above sqrt x at 960 and at or below it from 961
    assert (A.divisor_lambda_sums(table_1e5, x).tobytes()
            == divisor_lambda_loop(x).tobytes())


@pytest.mark.parametrize("k_max", [1, 0, -1])
def test_log_sum_identity_sweep_needs_k_max_two(table_1e4, k_max):
    with pytest.raises(DomainError, match=f"n={k_max} outside"):
        A.log_sum_identity_sweep(table_1e4, k_max)


def test_mobius_values_match_point_and_brute(table_1e4):
    mu = A.mobius_values(table_1e4, 10 ** 4)
    assert mu.dtype == np.int64 and mu[0] == 0
    assert mu[1:].tolist() == [mobius_brute(n) for n in range(1, 10 ** 4 + 1)]
    assert A.mobius_values(table_1e4, 0).tolist() == [0]
    assert A.mobius_values(table_1e4, 1).tolist() == [0, 1]


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 30, 210, 2310, 10 ** 4])
def test_identity_sweeps_match_the_divisor_loops_bit_for_bit(
        table_1e4, verdict_args, n_max):
    calls = verdict_args(A, "worst_case")
    assert A.selberg_sweep(table_1e4, n_max).passed
    assert A.generalized_lambda_k1_sweep(table_1e4, n_max).passed
    assert calls[0][1].tobytes() == selberg_diffs_loop(n_max).tobytes()
    assert calls[1][1].tobytes() == k1_diffs_loop(n_max).tobytes()
    if n_max >= 2:
        calls = verdict_args(A, "exact_case")
        assert A.legendre_exact_sweep(table_1e4, n_max).passed
        assert calls[0][1].tobytes() == legendre_misses_loop(n_max).tobytes()


def _plant_exponents(monkeypatch, planted: dict) -> None:
    """factor_exponents with the exponent e at each (k, p) -> e of
    ``planted`` with k <= n_max, replacing or adding that entry."""
    real = A.factor_exponents

    def with_planted(table, n_max):
        ks, ps, es = real(table, n_max)
        rows = dict(zip(zip(ks.tolist(), ps.tolist()), es.tolist()))
        rows.update((kp, e) for kp, e in planted.items() if kp[0] <= n_max)
        return tuple(np.array([(k, p, e)
                               for (k, p), e in sorted(rows.items())]).T)

    monkeypatch.setattr(A, "factor_exponents", with_planted)


def test_legendre_sweep_witness_is_first_miss(table_1e4, monkeypatch,
                                              verdict_args):
    # a wrong exponent of 2 in 12 misses every n >= 12 by one, an
    # exponent of 3 in 31, which 3 does not divide, every n >= 31 by one
    # more, a wrong exponent of 5 in 50 every n >= 50 by three more;
    # n = 12 is the witness
    _plant_exponents(monkeypatch, {(12, 2): 3, (31, 3): 1, (50, 5): 5})
    calls = verdict_args(A, "exact_case")
    out = A.legendre_exact_sweep(table_1e4, 100)
    assert not out.passed and out.range == (2, 100)
    assert out.worst_witness == Witness(input=12, lhs=1.0, rhs=0.0,
                                        margin=-1.0)
    assert calls[0][1].tolist() == [0] * 10 + [1] * 19 + [2] * 19 + [5] * 51


def test_legendre_sweep_sees_an_exponent_where_p_does_not_divide(
        table_1e4, monkeypatch):
    _plant_exponents(monkeypatch, {(31, 3): 1})
    assert A.legendre_exact_sweep(table_1e4, 30).passed
    out = A.legendre_exact_sweep(table_1e4, 100)
    assert out.worst_witness == Witness(input=31, lhs=1.0, rhs=0.0,
                                        margin=-1.0)


IDENTITY_SWEEPS = [A.selberg_sweep, A.generalized_lambda_k1_sweep]


@pytest.mark.parametrize("sweep", IDENTITY_SWEEPS,
                         ids=[f.__name__ for f in IDENTITY_SWEEPS])
def test_identity_sweeps_fail_at_a_flipped_mobius_value(table_1e4,
                                                        monkeypatch, sweep):
    # mu(34) = 1 enters at n = 34 j through mu(34) log^k j, which is 0 at
    # j = 1: n = 68 is the first n it moves, and the only one below 102
    real = A.mobius_values

    def flipped(table, x):
        mu = real(table, x)
        mu[34:35] *= -1
        return mu

    monkeypatch.setattr(A, "mobius_values", flipped)
    assert sweep(table_1e4, 67).passed
    out = sweep(table_1e4, 101)
    assert not out.passed and out.worst_witness.input == 68


@pytest.mark.parametrize("sweep", IDENTITY_SWEEPS,
                         ids=[f.__name__ for f in IDENTITY_SWEEPS])
def test_identity_sweeps_fail_without_the_d_equals_1_term(table_1e4,
                                                          monkeypatch, sweep):
    # a convolution that drops the d = 1 terms f(1) g(n) loses
    # mu(1) log^k n from every n >= 2. Dropping d = n instead would go
    # unseen: f(n) g(1) is 0 in both checks, as log 1 = Lambda(1) = 0.
    real = A.dirichlet

    def without_d_1(f, g, x):
        return real(np.where(np.arange(f.size) == 1, 0, f), g, x)

    monkeypatch.setattr(A, "dirichlet", without_d_1)
    assert sweep(table_1e4, 1).passed
    out = sweep(table_1e4, 2)
    assert not out.passed and out.worst_witness.input == 2
    assert not sweep(table_1e4, 10 ** 4).passed


def test_psi_theta_dominance_needs_the_break_at_4(table_1e4, monkeypatch):
    # without 4 among the prime powers psi = theta until 8: psi >= theta
    # still holds, so only the break-at-4 clause can fail the check
    real = A.higher_powers

    def without_4(table, x):
        powers, bases = real(table, x)
        keep = powers != 4
        return powers[keep], bases[keep]

    monkeypatch.setattr(A, "higher_powers", without_4)
    out = A.psi_theta_dominance_sweep(table_1e4, 1000)
    assert not out.passed
    assert out.worst_witness.margin == 0.0
    assert A.psi_theta_dominance_sweep(table_1e4, 3).passed
