"""The one pass rule, margin >= 0 (> 0 when strict), on the checks that
once passed below it: six bounds checks passed at margin >= -1e-9 and
psi-theta-dominance at >= -1e-12, with a break clause to match.

Each test plants a miss smaller than those old floors, the size float
error would have, and asserts FAIL. The planted curve constant is read
off the check's own step function, so the planted margin is exact to a
few ulps of the values compared.
"""

import math

import numpy as np

from mertenslab import arith as A
from mertenslab import bounds as B
from mertenslab.summation import joined

PLANT = 5e-10   # the least margin planted: -PLANT, inside the old -1e-9


def _fails_by_a_hair(out):
    assert not out.passed
    assert -1e-9 < out.worst_witness.margin < 0.0


def _at_every_integer(table, x, powers=False):
    """psi (``powers``) or theta at n = 0..x, as the sweeps stream it."""
    jumps, prefix = joined(A.prime_steps(table, x, A.log_base, powers))
    return np.r_[0.0, prefix][np.searchsorted(jumps, np.arange(x + 1),
                                              "right")]


def _slope_under(gain, ns):
    """The least slope c with c n - gain >= -PLANT at every n of ``ns``:
    against the cap c n, the gain misses by PLANT where gain/n is
    steepest."""
    return float(np.max((gain - PLANT) / ns))


def test_binomial_bounds_fail_by_a_hair(monkeypatch):
    ns = np.arange(1, 1001)
    lf = A.log_factorial_table(2000)
    monkeypatch.setattr(B, "LOG4", _slope_under(lf[2 * ns] - 2.0 * lf[ns],
                                                ns))
    _fails_by_a_hair(B.check_binomial_bounds(1000))


def test_psi_dyadic_fails_by_a_hair(table_1e4, monkeypatch):
    psi = _at_every_integer(table_1e4, 10 ** 4, powers=True)
    ns = np.arange(1, 5001)
    monkeypatch.setattr(B, "LOG4", _slope_under(psi[2 * ns] - psi[ns], ns))
    _fails_by_a_hair(B.check_psi_dyadic(table_1e4, 5000))


def test_interval_primorial_fails_by_a_hair(table_1e4, monkeypatch):
    theta = _at_every_integer(table_1e4, 10 ** 4)
    ms = np.arange(1, 5000)
    monkeypatch.setattr(B, "LOG4", _slope_under(
        theta[2 * ms + 1] - theta[ms + 1], ms))
    _fails_by_a_hair(B.check_interval_primorial(table_1e4, 4999))


def test_psi_linear_fails_by_a_hair(table_1e4):
    # c2 just under psi(x)/x at its maximum, x = 113
    xs = np.arange(2, 10 ** 4 + 1)
    c2 = _slope_under(_at_every_integer(table_1e4, 10 ** 4, True)[2:], xs)
    out = B.check_psi_linear(table_1e4, 10 ** 4, 0.3, c2)
    _fails_by_a_hair(out)
    assert out.worst_witness.input == 113


def test_primorial_bound_fails_by_a_hair(table_1e4, monkeypatch):
    ks = np.arange(1, 10 ** 4 + 1)
    theta = _at_every_integer(table_1e4, 10 ** 4)
    monkeypatch.setattr(B, "LOG4", _slope_under(theta[1:], ks))
    _fails_by_a_hair(B.check_primorial_bound(table_1e4, 10 ** 4))


def test_reciprocal_lower_fails_by_a_hair(table_1e4, monkeypatch):
    # S(n) lowered everywhere until its least margin is -PLANT
    least = B.check_reciprocal_lower(table_1e4, 10 ** 4).worst_witness
    real = B.compensated_cumsum
    monkeypatch.setattr(B, "compensated_cumsum",
                        lambda v: real(v) - (least.margin + PLANT))
    out = B.check_reciprocal_lower(table_1e4, 10 ** 4)
    _fails_by_a_hair(out)
    assert out.worst_witness.input == least.input


def _planted(monkeypatch, theta=None, psi=None):
    """prime_steps with theta's (or psi's) prefix mapped by theta(jumps,
    prefix) (or psi(jumps, prefix)) block by block."""
    real = A.prime_steps

    def steps(table, x, weight, powers=False):
        plant = psi if powers else theta
        for jumps, prefix in real(table, x, weight, powers):
            yield jumps, prefix if plant is None else plant(jumps, prefix)
    monkeypatch.setattr(A, "prime_steps", steps)


def test_psi_theta_dominance_fails_on_theta_raised_below_4(table_1e4,
                                                            monkeypatch):
    # psi - theta = -1e-13 on [2, 3]: the main rule fails at 2
    _planted(monkeypatch, theta=lambda q, v: v + np.where(q < 4, 1e-13, 0.0))
    out = A.psi_theta_dominance_sweep(table_1e4, 10 ** 4)
    assert not out.passed and out.worst_witness.input == 2
    assert -1e-12 < out.worst_witness.margin < 0.0


def test_psi_theta_dominance_fails_on_theta_lowered_below_4(table_1e4,
                                                             monkeypatch):
    # psi - theta = +1e-13 on [2, 3]: every margin holds, but equality
    # below 4 does not
    _planted(monkeypatch, theta=lambda q, v: v - np.where(q < 4, 1e-13, 0.0))
    out = A.psi_theta_dominance_sweep(table_1e4, 10 ** 4)
    assert not out.passed and out.worst_witness.margin >= 0.0


def test_psi_theta_dominance_fails_just_under_log_2_at_4(table_1e4,
                                                          monkeypatch):
    # psi(4) one ulp lower, so psi - theta on [4, 4] falls under log 2
    # by less than 1e-15; every margin still holds
    ps, theta = joined(A.prime_steps(table_1e4, 4, A.log_base))
    ms, psi = joined(A.prime_steps(table_1e4, 4, A.log_base, True))
    low = np.nextafter(psi[ms == 4][0], 0.0)
    assert math.log(2) - 1e-15 < low - theta[ps == 3][0] < math.log(2)
    _planted(monkeypatch, psi=lambda q, v: np.where(q == 4, low, v))
    out = A.psi_theta_dominance_sweep(table_1e4, 10 ** 4)
    assert not out.passed and out.worst_witness.margin >= 0.0
