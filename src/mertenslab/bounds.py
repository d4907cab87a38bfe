"""Effective inequalities checked over exhaustive desk-scale ranges.

Every check passes under the one rule of outcomes.worst_case_blocks:
margin >= 0, and > 0 for the strict claims of dusart and stirling-lower,
so a computed miss of any size fails; no check has a floor below 0.
Where exact integer arithmetic is feasible (small parameters) a
zero-tolerance big-integer pass runs alongside; its first miss, as
exact_case would pick it, overrides the float verdict with its own
witness (margin -1.0), built here by hand. Failures are reported, never
raised.

pi(n), psi(x), theta(x), the sum of 1/p and the gain of psi or theta
over (n, 2n] are step functions, held to rising curves at the tight end
of each constant piece by summation.step_law (each check says why its
curve rises). arith.prime_steps streams them: psi is the compensated
prefix sum of the prime-power terms, within 16 ulps of exact at 1e7,
and theta the same sum over the primes.
"""

import math

import numpy as np

from .arith import (log_base, log_factorial_blocks, log_factorial_table,
                    prime_steps)
from .errors import DomainError
from .outcomes import VerificationOutcome, Witness, worst_case_blocks
from .partial_sums import mertens_bound_sweep
from .sieve import SieveTable
from .summation import compensated_cumsum, int_blocks, joined, step_law

LOG4 = math.log(4.0)


def check_binomial_bounds(n_max: int) -> VerificationOutcome:
    """4^n/(2n+1) <= C(2n,n) <= 4^n for n = 1..n_max.

    Log space; exact big-integer comparison for n <= 30.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    lf = log_factorial_table(2 * n_max)

    def side(upper):
        for ns in int_blocks(1, n_max):
            logc = lf[2 * ns] - 2.0 * lf[ns]
            cap = ns * LOG4
            floor = cap - np.log(2.0 * ns + 1.0)
            yield ((ns, logc, cap, cap - logc) if upper
                   else (ns, floor, logc, logc - floor))
    out = min((worst_case_blocks("binomial-bounds", (1, n_max), side(upper))
               for upper in (True, False)),
              key=lambda o: o.worst_witness.margin)
    for n in range(1, min(30, n_max) + 1):
        c = math.comb(2 * n, n)
        if not (4 ** n <= c * (2 * n + 1) and c <= 4 ** n):
            return VerificationOutcome("binomial-bounds", (1, n_max), False,
                                       Witness(input=n, lhs=float(c),
                                               rhs=float(4 ** n), margin=-1.0))
    return out


def _dyadic_sweep(name: str, steps, n_max: int, s: int) -> VerificationOutcome:
    """S(2n + s) - S(n + s) <= n log 4 for n = 1..n_max, S the step
    function with the (jumps, prefix) blocks ``steps``, joined to read it
    at any x. S(2n + s) moves at n = ceil((q - s)/2) and S(n + s) at
    n = q - s for each jump q: the gain, a step function with those
    jumps, streams to step_law against the rising cap."""
    pos, cum = joined(steps)
    cum = np.r_[0.0, cum]           # S after each jump count, 0 at none
    moves = np.sort(np.concatenate(((pos - s + 1) // 2, pos - s)))
    moves = moves[np.concatenate(([True], moves[1:] != moves[:-1]))]
    gains = ((n, cum[np.searchsorted(pos, 2 * n + s, "right")]
              - cum[np.searchsorted(pos, n + s, "right")])
             for n in (moves[i] for i in int_blocks(0, moves.size - 1)))
    # 2n log 2 bit for bit: log 4 = 2 log 2
    return step_law(name, gains, 1, n_max, [(lambda n: n * LOG4, "upper")])


def check_psi_dyadic(table: SieveTable, n_max: int) -> VerificationOutcome:
    """psi(2n) - psi(n) <= 2n log 2 for n = 1..n_max: _dyadic_sweep at
    s = 0 over the prime powers q, so psi(2n) moves at n = ceil(q/2) and
    psi(n) at n = q."""
    if not 1 <= 2 * n_max <= table.limit:
        raise DomainError(f"2*n_max={2 * n_max} outside [2, {table.limit}]")
    steps = prime_steps(table, 2 * n_max, log_base, True)
    return _dyadic_sweep("psi-dyadic", steps, n_max, 0)


def check_psi_linear(table: SieveTable, x_max: int, c1: float = 0.3,
                     c2: float = 1.2) -> VerificationOutcome:
    """c1 x <= psi(x) <= c2 x on [2, x_max]; constants calibrated.

    Both lines rise (0 < c1 < c2), read off one pass over psi; on a tie
    the lower side's witness stands, as its law comes first."""
    table.check_range(x_max)
    if not 0 < c1 < c2:
        raise DomainError(f"need 0 < c1 < c2, got ({c1}, {c2})")
    return step_law("psi-linear", prime_steps(table, x_max, log_base, True),
                    2, x_max, [(lambda x: c1 * x, "lower"),
                               (lambda x: c2 * x, "upper")])


def check_primorial_bound(table: SieveTable,
                          k_max: int) -> VerificationOutcome:
    """theta(k) <= k log 4, a rising cap, for k = 1..k_max; exact
    product for k <= 60."""
    table.check_range(k_max, lo=1)
    out = step_law("primorial-bound", prime_steps(table, k_max, log_base),
                   1, k_max, [(lambda k: k * LOG4, "upper")])
    primorial = 1
    for k in range(1, min(60, k_max) + 1):
        if k >= 2 and table.spf[k] == 0:
            primorial *= k
        if primorial > 4 ** k:
            return VerificationOutcome("primorial-bound", (1, k_max), False,
                                       Witness(input=k, lhs=float(primorial),
                                               rhs=float(4 ** k), margin=-1.0))
    return out


def check_interval_primorial(table: SieveTable,
                             m_max: int) -> VerificationOutcome:
    """Product of primes in (m+1, 2m+1] is <= 4^m, and for m <= 30 it
    divides C(2m+1, m+1) exactly.

    The first is _dyadic_sweep at s = 1 over the primes p: theta(2m+1)
    moves at m = (p-1)/2 and theta(m+1) at m = p-1.
    """
    if not 1 <= m_max <= (table.limit - 1) // 2:
        raise DomainError(
            f"m_max={m_max} outside [1, {(table.limit - 1) // 2}]")
    out = _dyadic_sweep("interval-primorial",
                        prime_steps(table, 2 * m_max + 1, log_base), m_max, 1)
    for m in range(1, min(30, m_max) + 1):
        prod = 1
        for p in range(m + 2, 2 * m + 2):
            if table.spf[p] == 0:
                prod *= p
        binom = math.comb(2 * m + 1, m + 1)
        if binom % prod != 0 or prod > 4 ** m:
            return VerificationOutcome(
                "interval-primorial", (1, m_max), False,
                Witness(input=m, lhs=float(prod), rhs=float(binom),
                        margin=-1.0))
    return out


def check_stirling_lower(m_max: int) -> VerificationOutcome:
    """log(m!) > m(log m - 1), strictly, for m = 1..m_max."""
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")

    def blocks():
        for lo, lf in log_factorial_blocks(m_max):
            ms = np.arange(max(lo, 1), lo + lf.size, dtype=np.int64)
            lf = lf[ms[0] - lo:]
            mf = ms.astype(np.float64)
            rhs = mf * (np.log(mf) - 1.0)
            yield ms, rhs, lf, lf - rhs
    return worst_case_blocks("stirling-lower", (1, m_max), blocks(),
                             strict=True)


def check_pi_upper(table: SieveTable, n_max: int) -> VerificationOutcome:
    """pi(n) <= e n / log n for n = 3..n_max.

    The cap rises for n >= 3 > e, where its derivative e (log n - 1) /
    log^2 n is positive; pi is the jump count itself.
    """
    table.check_range(n_max, lo=3)
    return step_law("pi-upper", prime_steps(table, n_max, None), 3, n_max,
                    [(lambda n: math.e * n / np.log(n.astype(np.float64)),
                      "upper")])


def check_dusart(table: SieveTable, n_max: int) -> VerificationOutcome:
    """p_n < n log n + n log log n for n = 6..n_max, strictly."""
    if table.primes.size < n_max:
        raise DomainError(
            f"table holds {table.primes.size} primes, need {n_max}")
    if n_max < 6:
        raise DomainError(f"n_max must be >= 6, got {n_max}")

    def blocks():
        for ns in int_blocks(6, n_max):
            pn = table.primes[ns - 1].astype(np.float64)
            nf = ns.astype(np.float64)
            cap = nf * np.log(nf) + nf * np.log(np.log(nf))
            yield ns, pn, cap, cap - pn
    return worst_case_blocks("dusart", (6, n_max), blocks(), strict=True)


def check_reciprocal_lower(table: SieveTable,
                           n_max: int) -> VerificationOutcome:
    """S(n) >= loglog(n+1) - log(pi^2/6), a rising floor, for
    n = 2..n_max."""
    table.check_range(n_max)
    ps = table.primes_upto(n_max)
    cum = compensated_cumsum(1.0 / ps.astype(np.float64))
    shift = math.log(math.pi * math.pi / 6.0)
    return step_law(
        "reciprocal-lower", [(ps, cum)], 2, n_max,
        [(lambda n: np.log(np.log(n.astype(np.float64) + 1.0)) - shift,
          "lower")])


def check_mertens_bound(table: SieveTable, n_max: int,
                        ceiling: float = 2.0) -> VerificationOutcome:
    """|sum (log p)/p - log n| <= 2 at every integer n in [2, n_max]."""
    return mertens_bound_sweep(table, n_max, ceiling)
