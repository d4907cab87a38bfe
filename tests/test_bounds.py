import math

import pytest

from mertenslab import arith
from mertenslab import bounds as B
from mertenslab.errors import DomainError


def test_binomial_bounds_small_exact():
    out = B.check_binomial_bounds(200)
    assert out.passed
    # hand arithmetic at n = 1, 2
    assert math.comb(2, 1) == 2 and 4 / 3 <= 2 <= 4
    assert math.comb(4, 2) == 6 and 3.2 <= 6 <= 16
    with pytest.raises(DomainError):
        B.check_binomial_bounds(0)


def test_psi_dyadic(table_1e4):
    out = B.check_psi_dyadic(table_1e4, 5000)
    assert out.passed
    assert out.worst_witness.margin >= 0
    with pytest.raises(DomainError):
        B.check_psi_dyadic(table_1e4, 10 ** 5)


def test_psi_dyadic_hand_value(table_1e4):
    # Psi(10) - Psi(5) against 10 log 2
    from mertenslab.arith import chebyshev_psi
    gain = chebyshev_psi(table_1e4, 10) - chebyshev_psi(table_1e4, 5)
    assert gain == pytest.approx(7.8320141805 - 4.0943445622, abs=1e-9)
    assert gain <= 10 * math.log(2)


def test_psi_linear(table_1e4):
    out = B.check_psi_linear(table_1e4, 10 ** 4)
    assert out.passed
    # default constants hug the ratio observed at x = 2
    assert out.worst_witness.input == 2
    with pytest.raises(DomainError):
        B.check_psi_linear(table_1e4, 10 ** 4, c1=1.5, c2=1.2)


def test_psi_linear_rejects_tight_constants(table_1e4):
    out = B.check_psi_linear(table_1e4, 10 ** 4, c1=0.4, c2=1.2)
    assert not out.passed          # Psi(2)/2 = 0.3466 < 0.4
    assert out.worst_witness.input == 2


@pytest.mark.parametrize("c1, c2, line_side", [(0.4, 1.2, "lhs"),
                                               (0.1, 0.9, "rhs")])
def test_psi_linear_witness_sides(table_1e4, c1, c2, line_side):
    # the lower side's witness is (c1 x, psi), the upper side's (psi, c2 x),
    # and neither line may be overwritten by a margin
    w = B.check_psi_linear(table_1e4, 10 ** 4, c1, c2).worst_witness
    c, psi = (c1, w.rhs) if line_side == "lhs" else (c2, w.lhs)
    assert getattr(w, line_side) == c * w.input
    assert psi == pytest.approx(arith.chebyshev_psi(table_1e4, w.input),
                                rel=1e-14)
    assert w.margin == w.rhs - w.lhs < 0.0


def test_primorial_bound(table_1e4):
    out = B.check_primorial_bound(table_1e4, 10 ** 4)
    assert out.passed
    # the k = 1, 2 base cases, exact
    assert 1 <= 4 and 2 <= 16


def test_interval_primorial(table_1e4):
    out = B.check_interval_primorial(table_1e4, 4000)
    assert out.passed
    with pytest.raises(DomainError):       # an empty range of m
        B.check_interval_primorial(table_1e4, 0)
    with pytest.raises(DomainError):       # 2m + 1 past the table
        B.check_interval_primorial(table_1e4, 5000)
    # m = 2: primes in (3, 5] = {5}; 5 <= 16 and 5 | C(5,3) = 10
    assert math.comb(5, 3) % 5 == 0


def test_stirling_lower():
    out = B.check_stirling_lower(10 ** 4)
    assert out.passed
    assert out.worst_witness.input == 1     # slack grows with m
    assert math.log(math.factorial(10)) > 10 * (math.log(10) - 1)


def test_pi_upper(table_1e4):
    out = B.check_pi_upper(table_1e4, 10 ** 4)
    assert out.passed
    assert out.worst_witness.margin > 0
    # n = 3 is the tightest classical point by ratio
    assert 2 <= math.e * 3 / math.log(3)


def test_dusart(table_1e4):
    out = B.check_dusart(table_1e4, 1229)    # all primes in the table
    assert out.passed
    assert out.worst_witness.input == 6      # p_6 = 13 vs 14.2497
    with pytest.raises(DomainError):
        B.check_dusart(table_1e4, 5000)


def test_reciprocal_lower(table_1e4):
    out = B.check_reciprocal_lower(table_1e4, 10 ** 4)
    assert out.passed
    # n = 2 hand check
    lhs = 0.5
    rhs = math.log(math.log(3)) - math.log(math.pi ** 2 / 6)
    assert lhs >= rhs and rhs == pytest.approx(-0.4037, abs=1e-4)


def test_mertens_bound(table_1e4):
    out = B.check_mertens_bound(table_1e4, 10 ** 4)
    assert out.passed
    assert out.worst_witness.lhs <= 2.0
