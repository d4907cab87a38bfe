"""The point prime sums and G(x) against their whole-array formulas.

arith.prime_sum reads the primes summation.BLOCK at a time, and
density.g_count reads G(x) by quotient groups. Both must give the
floats and integers of the formulas they replaced, bit for bit:
oracles.point_sum_reference keeps those formulas. The x cover
the smallest cases, prime squares and cubes and their neighbours, the
x where a sum's terms (its primes, its primes above isqrt x, or its
primes and higher powers) number BLOCK - 1, BLOCK or BLOCK + 1, and
seeded log-uniform x up to 1e6. BLOCK = 1 and 7 run on the x up to 3e3
and 3e4, where their thousands of blocks per sum stay cheap.
"""

import math
import random

import numpy as np
import pytest

import mertenslab as ml
from mertenslab import density, summation

from oracles import point_sum_reference

FUNCS = ("sum_lambda_over_n", "mertens_first_sum", "reciprocal_prime_sum",
         "chebyshev_psi", "theta_log_primorial", "prime_count", "g_count",
         "rough_tail_sum", "log_zeta_truncation")
BLOCKS = {1: 3_000, 7: 30_000, 4096: 10 ** 6, summation.BLOCK: 10 ** 6}
LIMIT = 10 ** 6


def _first_x_with(counts: np.ndarray, wanted) -> list[int]:
    """The first x with counts[x] == c, for each c of ``wanted`` reached."""
    return [int(np.argmax(counts == c)) for c in wanted
            if np.any(counts == c)]


@pytest.fixture(scope="module")
def cases(table_1e6):
    """The x each BLOCK runs at, and the reference at each (func, x, s)."""
    primes = table_1e6.primes
    xs = {2, 3, 4, 5, 8, 9, 10 ** 3, 10 ** 5, LIMIT}
    roots = primes[primes < 1000]
    for p in [*roots[roots <= 100].tolist(), *roots[-5:].tolist()]:
        for q in (p * p, p ** 3):
            xs |= {q - 1, q, q + 1}
    rng = random.Random(20231)
    xs |= {round(10 ** rng.uniform(math.log10(2), 6)) for _ in range(200)}
    # pi(x), pi(x) - pi(isqrt x) and pi(x) plus the higher powers <= x
    n = np.arange(LIMIT + 1)
    pi = np.cumsum(np.isin(n, primes))
    power = np.zeros(LIMIT + 1, dtype=np.int64)
    for p in primes[primes <= 1000].tolist():
        power[[p ** k for k in range(2, 20) if p ** k <= LIMIT]] = 1
    kinds = (pi, pi - pi[np.sqrt(n).astype(np.int64)], pi + np.cumsum(power))
    for b in BLOCKS:
        for counts in kinds:
            xs |= set(_first_x_with(counts, (b - 1, b, b + 1)))
    xs = sorted(x for x in xs if 2 <= x <= LIMIT)
    want = {}
    for x in xs:
        for func in FUNCS:
            for s in ((1.5, 2.0, 4.0) if func == "log_zeta_truncation"
                      else (None,)):
                if func != "rough_tail_sum" or x >= 4:
                    want[func, x, s] = point_sum_reference(
                        table_1e6, func, x, s or 2.0)
    return want


def _answer(table, func, x, s):
    if s is None:
        return getattr(ml, func)(table, x)
    return ml.log_zeta_truncation(table, s, x)


def _bits(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("block", sorted(BLOCKS))
@pytest.mark.parametrize("func", FUNCS)
def test_point_sum_is_its_whole_array_formula(table_1e6, cases, monkeypatch,
                                              func, block):
    monkeypatch.setattr(summation, "BLOCK", block)
    misses = [(x, s, _bits(got), _bits(want))
              for (f, x, s), want in cases.items()
              if f == func and x <= BLOCKS[block]
              for got in [_answer(table_1e6, func, x, s)]
              if _bits(got) != _bits(want)]
    assert misses == []


def test_g_count_by_quotient_groups_at_every_x(table_1e5, table_1e6):
    want = density.g_count_all(table_1e5, 10 ** 5)
    got = [density.g_count(table_1e5, x) for x in range(2, 10 ** 5 + 1)]
    assert got == want[2:].tolist()
    assert {type(g) for g in got} == {int}
    assert density.g_count(table_1e6, 10 ** 6) == \
        density.g_count_all(table_1e6, 10 ** 6)[-1] == 731660
