"""The classical arithmetic functions over a sieve table.

Point evaluations of the von Mangoldt function, the Chebyshev functions
and pi(x), plus the tables and vectorized sweeps the verification suites
run over exhaustive ranges: Moebius values, log-factorials, Legendre's
valuations and the Selberg identity. Point prime sums (prime_parts,
prime_sum) and prime step functions (prime_steps) read the primes a block
at a time.
"""

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .outcomes import (VerificationOutcome, exact_case, worst_case,
                       worst_case_blocks)
from .sieve import SieveTable, divide_out, factor_exponents
from . import summation
from .summation import (_multiples, _parts, compensated_cumsum,
                        cumsum_blocks, dirichlet, fsum, int_blocks, joined,
                        pieces)


def von_mangoldt(table: SieveTable, n: int) -> float:
    """log p when n = p^alpha, else 0; detection by repeated SPF division."""
    table.check_range(n, lo=1)
    if n == 1:
        return 0.0
    p = table.least_factor(n)
    m = n
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def higher_powers(table: SieveTable, x: int):
    """The prime powers p^k <= x with k >= 2 (about 555 at 1e7), grouped
    by p, both ascending, with the index of each p in table.primes. Only
    the p <= cbrt(x) have a cube; the squares above are one array op."""
    roots = table.primes_upto(math.isqrt(x))
    powers, bases = [], []
    for i, p in enumerate(roots.tolist()):
        m = p * p
        if m * p > x:
            break
        while m <= x:
            powers.append(m)
            bases.append(i)
            m *= p
    n, i = len(powers), len(bases) and bases[-1] + 1  # i primes: p^3 <= x
    hp = np.empty(n + roots.size - i, dtype=np.int64)
    hb = np.arange(i - n, roots.size, dtype=np.intp)
    hp[:n], hb[:n] = powers, bases
    np.square(roots[i:], out=hp[n:])
    return hp, hb


def prime_power_terms(table: SieveTable, x: int):
    """All prime powers m = p^k <= x and their log p.

    Returns (ms, logs) as int64/float64 arrays, primes first, then the
    higher powers as higher_powers lists them. log p reuses the k = 1
    value so a power and its base carry bit-identical weights.
    """
    ps = table.primes_upto(x)
    base_logs = np.log(ps.astype(np.float64))
    powers, bases = higher_powers(table, x)
    return (np.concatenate([ps, powers]),
            np.concatenate([base_logs, base_logs[bases]]))


def log_base(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log p: with prime_steps, psi over the powers and theta alone."""
    return np.log(p.astype(np.float64))


def prime_steps(table: SieveTable, x: int, weight, powers: bool = False):
    """The sum of weight(m, p) over the primes m = p <= x, or with
    ``powers`` over all prime powers m = p^k, as (jumps, prefix) blocks
    for summation.pieces: the m ascending and the sum after each. weight
    maps a block's int64 (m, p) to float64 terms; None counts, in int64.
    The higher powers are merged in a block at a time and cumsum_blocks
    is told the term count, so the prefix is compensated_cumsum of all
    the terms, bit for bit as np.log gives an element the same bits
    wherever it sits in an array."""
    ps = table.primes_upto(x)
    hp, hb = higher_powers(table, x) if powers else (ps[:0], ps[:0])
    order = np.argsort(hp)
    hp, hb = hp[order], table.primes[hb[order]]     # each power and its p
    below = np.searchsorted(ps, hp)     # the primes before each power
    at = below + np.arange(hp.size)     # its index among all terms
    block = []                          # the (m, p) merged last

    def merged(lo, hi):
        a, b = np.searchsorted(at, [lo, hi]).tolist()
        into, prime, q = below[a:b] - (lo - a), ps[lo - a:hi - b], hp[a:b]
        block[:] = ((np.insert(prime, into, v) if b > a else prime)
                    for v in ((q, hb[a:b]) if weight else (q,)))
        return block

    n = ps.size + hp.size
    if weight is None:
        yield from ((merged(c[0] - 1, c[-1])[0], c) for c in int_blocks(1, n))
        return
    # cumsum_blocks asks for each block's terms just before it yields it
    for _, prefix in cumsum_blocks(n, lambda lo, hi: weight(*merged(lo, hi))):
        yield block[0], prefix


def prime_parts(table: SieveTable, x: int, weight, powers: bool = False,
                above: int = 0) -> np.ndarray:
    """Float64 values with the exact sum of weight(m, p) over the primes
    m = p in (above, x], and with ``powers`` over the higher powers p^k <= x
    too, which ``above`` leaves in. weight maps a block's float64 m and p,
    new arrays it may overwrite (one array unless the block holds higher
    powers), to its terms. A block is summation.BLOCK primes; each but the
    last gives its exact _parts, and the last, which the higher powers
    join, its terms."""
    ps = table.primes_upto(x)
    if above:
        ps = ps[ps.searchsorted(above, side="right"):]
    if powers:
        hp, bases = higher_powers(table, x)
        hb = table.primes[bases]
    step, parts = summation.BLOCK, []
    for lo in range(0, max(ps.size, 1), step):  # the last may be empty
        block, last = ps[lo:lo + step], lo + step >= ps.size
        if powers and last:
            m, p = (np.concatenate((block, q), dtype=np.float64)
                    for q in (hp, hb))
        else:
            m = p = block.astype(np.float64)
        terms = weight(m, p)
        if not last:
            parts += _parts(terms)
    return np.append(terms, parts) if parts else terms


def prime_sum(table: SieveTable, x: int, weight, powers: bool = False,
              above: int = 0) -> float:
    """The exactly rounded sum of prime_parts(table, x, weight, ...)."""
    return fsum(prime_parts(table, x, weight, powers, above))


def chebyshev_psi(table: SieveTable, x: int) -> float:
    """Cumulative Lambda mass up to x (0 below 2)."""
    table.check_range(x, lo=0)
    return prime_sum(table, x, lambda m, p: np.log(p, out=p), True)


def theta_log_primorial(table: SieveTable, k: int) -> float:
    """log of the primorial: sum of log p over primes p <= k."""
    table.check_range(k, lo=0)
    return prime_sum(table, k, lambda m, p: np.log(p, out=p))


def prime_count(table: SieveTable, x: int) -> int:
    """pi(x) by binary search in the prime list."""
    table.check_range(x, lo=0)
    return table.primes_upto(x).size


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
    ps = table.primes_upto(x)
    logs = np.log(ps.astype(np.float64))
    small = table.primes_upto(math.isqrt(x)).size
    big, big_logs = ps[small:], logs[small:]
    for m, lp in zip(ps[:small].tolist(), logs[:small].tolist()):
        arr[m::m] += lp
    for k in range(1, math.isqrt(x) + 1):
        n = int(np.searchsorted(big, x // k, side="right"))
        arr[k * big[:n]] += big_logs[:n]
    powers, bases = higher_powers(table, x)
    for m, lp in zip(powers.tolist(), logs[bases].tolist()):
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
    """psi >= theta everywhere; equal while no higher prime power has
    appeared (x < 4), the same terms summed, and from 4 on at least log 2.

    Both are constant between prime powers, so their values at the ends
    of those pieces cover every integer in [2, x_max].
    """
    table.check_range(x_max)
    ends, psi = joined(pieces(prime_steps(table, x_max, log_base, True),
                              2, x_max))
    ps, theta = joined(prime_steps(table, x_max, log_base))
    xs, psi = ends.ravel(), np.repeat(psi, 2)
    theta = np.r_[0.0, theta][np.searchsorted(ps, xs, side="right")]
    diff = psi - theta
    out = worst_case("psi-theta-dominance", (2, x_max), xs, theta, psi, diff)
    # equality must break exactly at the first higher power, 4
    breaks_at_4 = x_max < 4 or (
        bool(np.all(diff[xs < 4] == 0.0))
        and bool(np.all(diff[xs >= 4] >= math.log(2))))
    return dataclasses.replace(out, passed=out.passed and breaks_at_4)
