"""Effective inequalities checked over exhaustive desk-scale ranges.

Every check runs in log space with a 1e-9 slack guard so float error
can never fabricate a counterexample of a proven theorem; where exact
integer arithmetic is feasible (small parameters) a zero-tolerance
big-integer pass runs alongside; a miss there overrides the float
verdict with its own witness (margin -1.0), built here by hand. Every
other verdict comes from outcomes.worst_case. Failures are reported,
never raised.

pi(n), psi(x), theta(x) and the sum of 1/p are step functions checked
against monotone curves, so those checks evaluate only where a constant
piece starts or ends (summation.piece_ends), which covers every
integer in range; a one-sided check reads only the end where its margin
is tightest. psi there is the compensated prefix sum of the sorted
prime-power terms, within 16 ulps of the exact value at 1e7; theta is
the same sum over the primes.
"""

import math

import numpy as np

from .arith import (log_factorial_blocks, log_factorial_table,
                    prime_power_terms)
from .errors import DomainError
from .outcomes import (VerificationOutcome, Witness, worst_case,
                       worst_case_blocks)
from .partial_sums import mertens_bound_sweep
from .sieve import SieveTable
from .summation import (_jump_cumulative, compensated_cumsum, int_blocks,
                        piece_blocks, piece_ends, step_values)

LOG4 = math.log(4.0)
SLACK = 1e-9


def check_binomial_bounds(n_max: int) -> VerificationOutcome:
    """4^n/(2n+1) <= C(2n,n) <= 4^n for n = 1..n_max.

    Log space with slack; exact big-integer comparison for n <= 30.
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
    out = min((worst_case_blocks("binomial-bounds", (1, n_max), side(upper),
                                 -SLACK) for upper in (True, False)),
              key=lambda o: o.worst_witness.margin)
    for n in range(1, min(30, n_max) + 1):
        c = math.comb(2 * n, n)
        if not (4 ** n <= c * (2 * n + 1) and c <= 4 ** n):
            out = VerificationOutcome("binomial-bounds", (1, n_max), False,
                                      Witness(input=n, lhs=float(c),
                                              rhs=float(4 ** n), margin=-1.0))
    return out


def _dyadic_sweep(name: str, pos: np.ndarray, cum: np.ndarray, n_max: int,
                  s: int) -> VerificationOutcome:
    """S(2n + s) - S(n + s) <= n log 4 for n = 1..n_max, S the step
    function with jumps ``pos`` and prefix sums ``cum``. For each jump q,
    S(2n + s) moves at n = ceil((q - s)/2) and S(n + s) at n = q - s;
    between moves the gain is constant and the cap grows."""
    moves = np.sort(np.concatenate(((pos - s + 1) // 2, pos - s)))
    moves = moves[np.concatenate(([True], moves[1:] != moves[:-1]))]

    def blocks():
        for ends, _ in piece_blocks(moves, 1, n_max):
            ns = ends[:, 0]
            gain = (step_values(cum, np.searchsorted(pos, 2 * ns + s, "right"))
                    - step_values(cum, np.searchsorted(pos, ns + s, "right")))
            cap = ns * LOG4         # 2n log 2 bit for bit: log 4 = 2 log 2
            yield ns, gain, cap, cap - gain
    return worst_case_blocks(name, (1, n_max), blocks(), -SLACK)


def check_psi_dyadic(table: SieveTable, n_max: int) -> VerificationOutcome:
    """psi(2n) - psi(n) <= 2n log 2 for n = 1..n_max: _dyadic_sweep at
    s = 0 over the prime powers q, so psi(2n) moves at n = ceil(q/2) and
    psi(n) at n = q."""
    if not 1 <= 2 * n_max <= table.limit:
        raise DomainError(f"2*n_max={2 * n_max} outside [2, {table.limit}]")
    pos, psi = _jump_cumulative(*prime_power_terms(table, 2 * n_max))
    return _dyadic_sweep("psi-dyadic", pos, psi, n_max, 0)


def check_psi_linear(table: SieveTable, x_max: int, c1: float = 0.3,
                     c2: float = 1.2) -> VerificationOutcome:
    """c1 x <= psi(x) <= c2 x on [2, x_max]; constants calibrated.

    psi is constant between prime powers while both lines grow, so the
    lower margin is tightest at a piece's right end, the upper at its left.
    """
    table.check_range(x_max)
    if not 0 < c1 < c2:
        raise DomainError(f"need 0 < c1 < c2, got ({c1}, {c2})")
    pos, psi = _jump_cumulative(*prime_power_terms(table, x_max))

    def side(upper):
        for ends, counts in piece_blocks(pos, 2, x_max):
            x = ends[:, 0] if upper else ends[:, 1]
            vals, line = step_values(psi, counts), (c2 if upper else c1) * x
            yield ((x, vals, line, line - vals) if upper
                   else (x, line, vals, vals - line))
    return min((worst_case_blocks("psi-linear", (2, x_max), side(upper),
                                  -SLACK) for upper in (False, True)),
               key=lambda o: o.worst_witness.margin)


def check_primorial_bound(table: SieveTable,
                          k_max: int) -> VerificationOutcome:
    """theta(k) <= k log 4 for k = 1..k_max; exact product for k <= 60.

    theta is constant between primes while the cap grows, so each piece
    is tightest at its left end.
    """
    table.check_range(k_max, lo=1)
    ps = table.primes_upto(k_max)
    theta = compensated_cumsum(np.log(ps.astype(np.float64)))
    ends, counts = piece_ends(ps, 1, k_max)
    ks = ends[:, 0]
    vals = step_values(theta, counts)
    cap = ks * LOG4
    out = worst_case("primorial-bound", (1, k_max), ks, vals, cap,
                     cap - vals, -SLACK)
    primorial = 1
    for k in range(1, min(60, k_max) + 1):
        if int(table.spf[k]) == k and k >= 2:
            primorial *= k
        if primorial > 4 ** k:
            out = VerificationOutcome("primorial-bound", (1, k_max), False,
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
    ps = table.primes_upto(2 * m_max + 1)
    theta = compensated_cumsum(np.log(ps.astype(np.float64)))
    out = _dyadic_sweep("interval-primorial", ps, theta, m_max, 1)
    for m in range(1, min(30, m_max) + 1):
        prod = 1
        for p in range(m + 2, 2 * m + 2):
            if int(table.spf[p]) == p:
                prod *= p
        binom = math.comb(2 * m + 1, m + 1)
        if binom % prod != 0 or prod > 4 ** m:
            out = VerificationOutcome("interval-primorial", (1, m_max), False,
                                      Witness(input=m, lhs=float(prod),
                                              rhs=float(binom), margin=-1.0))
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

    The cap grows for n >= 3 and pi is constant between primes, so each
    piece is tightest at its left end.
    """
    table.check_range(n_max, lo=3)

    def blocks():
        for ends, pis in piece_blocks(table.primes, 3, n_max):
            ns = ends[:, 0]
            cap = math.e * ns / np.log(ns.astype(np.float64))
            yield ns, pis, cap, cap - pis
    return worst_case_blocks("pi-upper", (3, n_max), blocks())


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
    """S(n) >= loglog(n+1) - log(pi^2/6) for n = 2..n_max.

    S is constant between primes and the floor grows, so each piece is
    tightest at its right end.
    """
    table.check_range(n_max)
    ps = table.primes_upto(n_max)
    cum = compensated_cumsum(1.0 / ps.astype(np.float64))
    shift = math.log(math.pi * math.pi / 6.0)
    ends, counts = piece_ends(ps, 2, n_max)
    ns = ends[:, 1]
    s_vals = step_values(cum, counts)
    floor = np.log(np.log(ns.astype(np.float64) + 1.0)) - shift
    return worst_case("reciprocal-lower", (2, n_max), ns, floor, s_vals,
                      s_vals - floor, -SLACK)


def check_mertens_bound(table: SieveTable, n_max: int,
                        ceiling: float = 2.0) -> VerificationOutcome:
    """|sum (log p)/p - log n| <= 2 at every integer n in [2, n_max]."""
    return mertens_bound_sweep(table, n_max, ceiling)
