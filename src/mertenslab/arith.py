"""The classical arithmetic functions over a sieve table.

Point evaluations of the von Mangoldt and Moebius functions, Legendre
valuations, both log-factorial routes, the Chebyshev functions, and the
Selberg / generalized von Mangoldt divisor sums, plus the vectorized
sweep variants the verification suites run over exhaustive ranges.
"""

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .outcomes import (VerificationOutcome, exact_case, worst_case,
                       worst_case_blocks)
from .sieve import SieveTable, divide_out, factor_exponents, factorize
from .summation import (_jump_cumulative, _multiples, compensated_cumsum,
                         cumsum_blocks, dirichlet, fsum, piece_ends,
                         step_values)

PSI_THETA_TOL = 1e-12


def is_prime(n: int) -> bool:
    """Trial division; used where no sieve table is in scope."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def von_mangoldt(table: SieveTable, n: int) -> float:
    """log p when n = p^alpha, else 0; detection by repeated SPF division."""
    table.check_range(n, lo=1)
    if n == 1:
        return 0.0
    p = int(table.spf[n])
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def mobius(table: SieveTable, n: int) -> int:
    """+-1 for squarefree n by parity of the factor count, 0 otherwise."""
    table.check_range(n, lo=1)
    if n == 1:
        return 1
    factors = factorize(table, n).factors
    if any(e >= 2 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def legendre_valuation(p: int, n: int) -> int:
    """Exponent of the prime p in n!: sum of floor(n / p^k)."""
    if not is_prime(p):
        raise DomainError(f"p={p} is not prime")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    total = 0
    pk = p
    while pk <= n:
        total += n // pk
        pk *= p
    return total


def log_factorial_direct(n: int) -> float:
    """log(n!) summed term by term; empty product at n = 0 gives 0."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n < 2:
        return 0.0
    return fsum(np.log(np.arange(2, n + 1, dtype=np.float64)))


def prime_power_terms(table: SieveTable, x: int):
    """All prime powers m = p^k <= x and their log p.

    Returns (ms, logs) as int64/float64 arrays, primes first, then the
    higher powers grouped by p ascending. log p reuses the k = 1 value
    so a power and its base carry bit-identical weights.
    """
    if x < 2:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    ps = table.primes_upto(x)
    base_logs = np.log(ps.astype(np.float64))
    extra_m: list[int] = []
    extra_l: list[float] = []
    for i in range(table.primes_upto(math.isqrt(x)).size):
        p = int(ps[i])
        lp = float(base_logs[i])
        m = p * p
        while m <= x:
            extra_m.append(m)
            extra_l.append(lp)
            m *= p
    ms = np.concatenate([ps, np.asarray(extra_m, dtype=np.int64)])
    logs = np.concatenate([base_logs, np.asarray(extra_l, dtype=np.float64)])
    return ms, logs


def log_factorial_via_lambda(table: SieveTable, n: int) -> float:
    """log(n!) as the prime-power sum of Lambda(m) * floor(n/m)."""
    table.check_range(n)
    ms, logs = prime_power_terms(table, n)
    floors = (n // ms).astype(np.float64)
    return fsum(logs * floors)


def chebyshev_psi(table: SieveTable, x: int) -> float:
    """Cumulative Lambda mass up to x (0 below 2)."""
    table.check_range(x, lo=0)
    _, logs = prime_power_terms(table, x)
    return fsum(logs)


def theta_log_primorial(table: SieveTable, k: int) -> float:
    """log of the primorial: sum of log p over primes p <= k."""
    table.check_range(k, lo=0)
    return fsum(np.log(table.primes_upto(k).astype(np.float64)))


def prime_count(table: SieveTable, x: int) -> int:
    """pi(x) by binary search in the prime list."""
    table.check_range(x, lo=0)
    return table.primes_upto(x).size


def generalized_lambda(table: SieveTable, n: int, k: int) -> float:
    """Divisor sum of mu(d) log^k(n/d); k = 1 reproduces von_mangoldt.

    Only squarefree d contribute, so the sum runs over subsets of the
    distinct primes of n, built by doubling, with sign by subset parity.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    table.check_range(n, lo=1)
    if n == 1:
        return 0.0
    divs = [(1.0, 1)]
    for p, _ in factorize(table, n).factors:
        divs += [(-mu, d * p) for mu, d in divs]
    return fsum([mu * math.log(n // d) ** k for mu, d in divs])


# ---------------------------------------------------------------------------
# batch builders for the sweep checks and the bounds suite


def lambda_values(table: SieveTable, x: int) -> np.ndarray:
    """Lambda(n) for n = 0..x as a float64 array."""
    table.check_range(x, lo=0)
    arr = np.zeros(x + 1, dtype=np.float64)
    ms, logs = prime_power_terms(table, x)
    arr[ms] = logs
    return arr


def mobius_values(table: SieveTable, x: int) -> np.ndarray:
    """mu(n) for n = 0..x as an int64 array (0 at n = 0), read off
    factor_exponents: 0 where some exponent is >= 2, else -1 to the
    number of distinct primes."""
    table.check_range(x, lo=0)
    ks, _, es = factor_exponents(table, x)
    mu = np.where(np.bincount(ks, minlength=x + 1) % 2, -1, 1)
    mu[ks[es >= 2]] = 0
    mu[0] = 0
    return mu


def psi_table(table: SieveTable, x: int) -> np.ndarray:
    """psi(n) for n = 0..x, one compensated prefix pass."""
    return compensated_cumsum(lambda_values(table, x))


def theta_table(table: SieveTable, x: int) -> np.ndarray:
    """theta(n) for n = 0..x, one compensated prefix pass."""
    table.check_range(x, lo=0)
    arr = np.zeros(x + 1, dtype=np.float64)
    ps = table.primes_upto(x)
    arr[ps] = np.log(ps.astype(np.float64))
    return compensated_cumsum(arr)


def pi_count_table(table: SieveTable, x: int) -> np.ndarray:
    """pi(n) for n = 0..x as an int64 array."""
    table.check_range(x, lo=0)
    arr = np.zeros(x + 1, dtype=np.int64)
    arr[table.primes_upto(x)] = 1
    return np.cumsum(arr)


def log_factorial_blocks(n: int):
    """log(k!) for k = 0..n, one compensated prefix pass, as the (start,
    block) pairs of summation.cumsum_blocks; term k is log max(k, 1)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return cumsum_blocks(n + 1, lambda a, b: np.log(
        np.arange(a, b, dtype=np.float64).clip(1.0)))


def log_factorial_table(n: int) -> np.ndarray:
    """log(k!) for k = 0..n: log_factorial_blocks in one array."""
    return np.concatenate([b for _, b in log_factorial_blocks(n)])


def divisor_lambda_sums(table: SieveTable, x: int) -> np.ndarray:
    """Sum of Lambda over the divisors of n, for every n = 0..x at once.

    Sieve-accumulated: each prime power m spreads log p onto its
    multiples, which reorganizes the floor(n/m) double count without
    ever invoking the log identity being tested. Every n gets its terms
    in the order of prime_power_terms: its primes up to sqrt x, then its
    prime above sqrt x if any (no n <= x has two), then its higher powers.
    The primes above sqrt x reach their multiples k p by one scatter per
    quotient k <= sqrt x, the others by strided adds. Laying the terms
    out by _multiples for one np.bincount gives the same bits, but at
    x = 1e6 it is about three times slower and holds 3.6 million terms.
    """
    table.check_range(x, lo=0)
    arr = np.zeros(x + 1, dtype=np.float64)
    ms, logs = prime_power_terms(table, x)
    small = table.primes_upto(math.isqrt(x)).size
    n_primes = table.primes_upto(x).size
    big, big_logs = ms[small:n_primes], logs[small:n_primes]
    for m, lp in zip(ms[:small].tolist(), logs[:small].tolist()):
        arr[m::m] += lp
    for k in range(1, math.isqrt(x) + 1):
        n = int(np.searchsorted(big, x // k, side="right"))
        arr[k * big[:n]] += big_logs[:n]
    for m, lp in zip(ms[n_primes:].tolist(), logs[n_primes:].tolist()):
        arr[m::m] += lp
    return arr


def log_sum_identity_sweep(table: SieveTable, k_max: int,
                           rel_tol: float = 1e-12) -> VerificationOutcome:
    """log k against the sum of Lambda over the divisors of k, for every
    k = 2..k_max, relative to log k."""
    table.check_range(k_max)
    sums = divisor_lambda_sums(table, k_max)
    ks = np.arange(2, k_max + 1, dtype=np.float64)
    rel = np.abs(sums[2:] - np.log(ks)) / np.log(ks)
    return worst_case("log-sum-identity", (1, k_max), ks, rel, rel_tol,
                      rel_tol - rel)


def legendre_exact_sweep(table: SieveTable, n_max: int) -> VerificationOutcome:
    """Exact check: Legendre's valuation of each prime p in n! equals the
    exponent accumulated by factorizing 2..n, for every n <= n_max and
    every p <= n. Integer equality, zero tolerance.

    For each p the gap between the two is a step function of n. Legendre's
    sum of floor(n / p^i) rises at each multiple k of p by the number of
    powers p^i dividing k, and the accumulated exponent rises by e at each
    (k, p, e) that factor_exponents reports, wherever k lies. Sorted by
    (p, k), each event moves |gap| of its p, and one difference array
    adds those moves up into the per-n miss count sum_p |gap|.
    """
    table.check_range(n_max)
    ks, ps, es = factor_exponents(table, n_max)
    primes = table.primes_upto(n_max)
    at, j = _multiples(primes, n_max // primes)
    rise = divide_out(j, at)[1] + 1     # the powers of p = at dividing j p
    p, k = np.concatenate((at, ps)), np.concatenate((at * j, ks))
    step = np.concatenate((-rise, es))
    order = np.lexsort((k, p))
    p, k, step = p[order], k[order], step[order]
    gap = np.cumsum(step)           # restarted at each p's first event
    first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    gap -= np.repeat(gap[first] - step[first], np.diff(np.r_[first, p.size]))
    moves = np.zeros(n_max + 1, dtype=np.int64)
    np.add.at(moves, k, np.abs(gap) - np.abs(gap - step))
    misses = np.cumsum(moves)
    return exact_case("legendre-exponent-exact", (2, n_max),
                      np.arange(2, n_max + 1), misses[2:], 0)


def logfact_dual_route_sweep(table: SieveTable, n_max: int,
                             rel_tol: float = 1e-11) -> VerificationOutcome:
    """Direct log(n!) against the prime-power route for every n <= n_max;
    both prefix passes run in step, one block at a time."""
    table.check_range(n_max)
    sums = divisor_lambda_sums(table, n_max)
    vias = cumsum_blocks(n_max + 1, lambda a, b: sums[a:b])

    def blocks():
        for (lo, direct), (_, via) in zip(log_factorial_blocks(n_max), vias):
            k = max(2 - lo, 0)                      # from n = 2 on
            rel = np.abs(direct[k:] - via[k:]) / direct[k:]
            yield (np.arange(lo + k, lo + direct.size), rel, rel_tol,
                   rel_tol - rel)
    return worst_case_blocks("log-factorial-dual-route", (2, n_max),
                             blocks())


def _log_powers(n_max: int, k: int) -> np.ndarray:
    """log^k m for m = 0..n_max (0.0 at m = 0), as math.log(m) ** k: the
    float the point functions use, which np.log may miss by a bit."""
    return np.array([0.0, *(math.log(m) ** k for m in range(1, n_max + 1))])


def selberg_sweep(table: SieveTable, n_max: int,
                  abs_tol: float = 1e-9) -> VerificationOutcome:
    """Selberg identity Lambda log + Lambda * Lambda = mu * log^2 for every
    n <= n_max, both sides as exactly rounded Dirichlet convolutions."""
    table.check_range(n_max, lo=1)
    lam = lambda_values(table, n_max)
    log_n = np.log(np.arange(1, n_max + 1, dtype=np.float64))
    lhs = lam[1:] * log_n + dirichlet(lam, lam, n_max)[1:]
    rhs = dirichlet(mobius_values(table, n_max), _log_powers(n_max, 2), n_max)
    diffs = np.abs(lhs - rhs[1:])
    return worst_case("selberg-identity", (1, n_max), np.arange(1, n_max + 1),
                      diffs, abs_tol, abs_tol - diffs)


def generalized_lambda_k1_sweep(table: SieveTable, n_max: int,
                                abs_tol: float = 1e-12) -> VerificationOutcome:
    """Lambda_1 = mu * log must coincide with the point von Mangoldt values."""
    table.check_range(n_max, lo=1)
    lam1 = dirichlet(mobius_values(table, n_max), _log_powers(n_max, 1),
                     n_max)
    point = np.array([von_mangoldt(table, n) for n in range(1, n_max + 1)])
    diffs = np.abs(lam1[1:] - point)
    return worst_case("generalized-lambda-k1", (1, n_max),
                      np.arange(1, n_max + 1), diffs, abs_tol, abs_tol - diffs)


def psi_theta_dominance_sweep(table: SieveTable,
                              x_max: int) -> VerificationOutcome:
    """psi >= theta everywhere, equality exactly while no higher prime
    power has appeared (x < 4), to within PSI_THETA_TOL.

    Both are constant between prime powers, so their values at the ends
    of those pieces cover every integer in [2, x_max].
    """
    table.check_range(x_max)
    ms, logs = prime_power_terms(table, x_max)
    # prime power list is primes first, then k >= 2 powers
    n_primes = table.primes_upto(x_max).size
    pos, psi_cum = _jump_cumulative(ms, logs)
    # the primes ascend already: a stable sort of them is the identity
    ps, theta_cum = ms[:n_primes], compensated_cumsum(logs[:n_primes])
    ends, counts = piece_ends(pos, 2, x_max)
    xs = ends.ravel()
    psi = np.repeat(step_values(psi_cum, counts), 2)
    theta = step_values(theta_cum, np.searchsorted(ps, xs, side="right"))
    diff = psi - theta
    out = worst_case("psi-theta-dominance", (2, x_max), xs, theta, psi, diff,
                     -PSI_THETA_TOL)
    # equality must break exactly at the first higher power, 4
    breaks_at_4 = x_max < 4 or (
        bool(np.all(diff[xs < 4] <= PSI_THETA_TOL))
        and bool(np.all(diff[xs >= 4] > math.log(2) - 1e-9)))
    return dataclasses.replace(out, passed=out.passed and breaks_at_4)
