import math

import pytest

from mertenslab import arith
from mertenslab import bounds as B
from mertenslab.errors import DomainError
from mertenslab.outcomes import Witness


def test_binomial_bounds_small_exact():
    out = B.check_binomial_bounds(200)
    assert out.passed
    # hand arithmetic at n = 1, 2
    assert math.comb(2, 1) == 2 and 4 / 3 <= 2 <= 4
    assert math.comb(4, 2) == 6 and 3.2 <= 6 <= 16
    with pytest.raises(DomainError):
        B.check_binomial_bounds(0)


def _plant_comb(monkeypatch, planted):
    """math.comb with the value planted[(a, b)] at each of its keys."""
    real = math.comb
    monkeypatch.setattr(B.math, "comb",
                        lambda a, b: planted.get((a, b)) or real(a, b))


def test_binomial_bounds_exact_pass_reports_first_miss(monkeypatch):
    # C(2n, n) = 4^n + 1 breaks the upper bound; planted at n = 3 and 7
    _plant_comb(monkeypatch, {(6, 3): 4 ** 3 + 1, (14, 7): 4 ** 7 + 1})
    out = B.check_binomial_bounds(100)
    assert not out.passed
    assert out.worst_witness == Witness(input=3, lhs=65.0, rhs=64.0,
                                        margin=-1.0)


def test_interval_primorial_exact_pass_reports_first_miss(table_1e4,
                                                          monkeypatch):
    # C(2m+1, m+1) + 1, planted at m = 4 and 9, is no multiple of the
    # product of the primes in (m+1, 2m+1]: 7 at m = 4, 46189 at m = 9
    _plant_comb(monkeypatch, {(9, 5): 127, (19, 10): 92379})
    out = B.check_interval_primorial(table_1e4, 100)
    assert not out.passed
    assert out.worst_witness == Witness(input=4, lhs=7.0, rhs=127.0,
                                        margin=-1.0)


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
