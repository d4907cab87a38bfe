"""Integers whose largest prime factor exceeds their square root.

Two independent counting routes: a census of the largest prime factor
of every n <= x, read off each n's SPF chain, and the pair count
G(x) = sum over primes of min(p-1, floor(x/p)). They share no code, and
the bijection between them is exact, so the suites compare integer
against integer through outcomes.exact_case. All square-root threshold
comparisons are done in integer arithmetic (p*p vs n in int64, or
P > n // P) so perfect squares can never be misclassified. The census
walks the largest factors up to x once, keeping them below x/2 (20 MB
at 1e7), and one walk gives it at every x a sweep asks for.
"""

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .outcomes import VerificationOutcome, Witness, exact_case, worst_case
from .partial_sums import LOG2, ResidualReport, ResidualRow, _validate_xs
from .sieve import LPF_CHUNK, SieveTable, largest_factor_walk
from .summation import _multiples, fsum, piece_ends, step_values


def census_counts(table: SieveTable, xs) -> np.ndarray:
    """Exact count of n in [2, x] with a large prime factor, at each x of
    ``xs`` (any order, each in [2, limit]), as int64.

    One largest_factor_walk up to the largest x; the flags P(n)^2 > n
    of each chunk are counted with a running total, and a chunk that
    holds some of the xs reads their counts off its prefix sum. The walk
    keeps P below half the largest x (20 MB at 1e7); the temporaries
    stay O(LPF_CHUNK).
    """
    xs = np.asarray(xs, dtype=np.int64)
    table.check_range(int(xs.min()))
    table.check_range(int(xs.max()))
    order = np.argsort(xs, kind="stable")
    want = xs[order]
    out = np.empty(xs.size, dtype=np.int64)
    total = 0
    for start, p in largest_factor_walk(table, int(want[-1]) + 1):
        # P(n)^2 > n as P(n) > n // P(n), exact in the SPF dtype
        flags = p > np.arange(start, start + p.size, dtype=p.dtype) // p
        i, j = np.searchsorted(want, [start, start + p.size]).tolist()
        if i < j:
            out[order[i:j]] = total + np.cumsum(flags)[want[i:j] - start]
        total += int(np.count_nonzero(flags))
    return out


def census_oracle(table: SieveTable, x: int) -> int:
    """Exact count of n in [2, x] with a large prime factor, from the
    largest prime factor of every n read off the SPF table: the one-x
    case of census_counts."""
    return int(census_counts(table, [x])[0])


def g_count(table: SieveTable, x: int) -> int:
    """Pairs (p, q) with q < p <= x/q: sum of min(p-1, floor(x/p))."""
    table.check_range(x)
    ps = table.primes_upto(x)
    return int(np.minimum(ps - 1, x // ps).sum())


def split_point(x: int) -> float:
    """Split point 1/2 + sqrt(1/4 + x); always in (sqrt x, 1 + x]."""
    if x < 1:
        raise DomainError(f"split point needs x >= 1, got {x}")
    return 0.5 + math.sqrt(0.25 + x)


def g_count_split(table: SieveTable, x: int) -> tuple[int, int]:
    """The two halves of the pair count: (p-1) below sqrt x, floors above.

    Thresholds are exact: p <= sqrt x iff p*p <= x.
    """
    table.check_range(x)
    ps = table.primes_upto(x)
    below = ps[ps * ps <= x]
    above = ps[ps * ps > x]
    small = int((below - 1).sum())
    large = int((x // above).sum())
    return small, large


def rough_tail_sum(table: SieveTable, n: int) -> float:
    """Sum of 1/p over primes with sqrt n < p <= n; tends to log 2."""
    if n < 4:
        raise DomainError(f"tail sum needs n >= 4, got {n}")
    table.check_range(n)
    lo = table.primes_upto(math.isqrt(n)).size
    return fsum(1.0 / table.primes_upto(n)[lo:].astype(np.float64))


def density_series(table: SieveTable, xs: list[int],
                   c: float = 3.0) -> ResidualReport:
    """G(x)/x against log 2 with the calibrated c/log x envelope.

    Note the approach to log 2 is not monotone in x. The small part
    sum_{p <= sqrt x} (p-1) adds 1/log x; the fractional parts
    sum {x/p} over sqrt x < p <= x take (1 - gamma)/log x; and Mertens'
    second theorem leaves sum 1/p over that range = log 2 + O(1/log^2 x).
    So G(x)/x - log 2 = gamma/log x + O(1/log^2 x), and the second-order
    term is negative and large at small x: |G(x)/x - log 2| rises from
    1e3 to 1e5 before it falls. Pass means inside-the-envelope only.
    """
    _validate_xs(table, xs, 100)
    rows = []
    for x in xs:
        observed = g_count(table, x) / x
        rows.append(ResidualRow(x, observed, LOG2, observed - LOG2,
                                c / math.log(x)))
    passed = all(abs(r.residual) <= r.tolerance for r in rows)
    return ResidualReport(rows, passed)


# ---------------------------------------------------------------------------
# exhaustive sweeps


def g_count_all(table: SieveTable, x_max: int) -> np.ndarray:
    """G(x) for every x = 0..x_max in one pass.

    min(p-1, floor(x/p)) counts the multiples kp <= x with k <= p-1, so
    each prime contributes +1 steps at p, 2p, ..., min(p-1, x_max/p) p;
    counting those multiples at each n and taking prefix sums gives G
    for all x at once. Pure algebra on the pair count, independent of
    any factorization. Holds the G(x_max) pairs, about 0.7 x_max, as
    int64 arrays.
    """
    table.check_range(x_max)
    ps = table.primes_upto(x_max)
    d, k = _multiples(ps, np.minimum(ps - 1, x_max // ps))
    return np.cumsum(np.bincount(d * k, minlength=x_max + 1))


def bijection_sweep(table: SieveTable, x_max: int,
                    spots: tuple[int, ...] = ()) -> VerificationOutcome:
    """g_count(x) == census_oracle(x) for every x <= x_max, exactly,
    plus spot checks at the given larger x values. The census at every
    x and spot comes from one census_counts call."""
    table.check_range(x_max)
    xs = np.arange(2, x_max + 1)
    census = census_counts(
        table, np.concatenate((xs, np.array(spots, dtype=np.int64))))
    out = exact_case("pair-bijection", (2, x_max), xs,
                     g_count_all(table, x_max)[2:], census[:xs.size])
    if not out.passed:
        return out
    for x, count in zip(spots, census[xs.size:].tolist()):
        spot = exact_case("pair-bijection", (2, max(x_max, x)), [x],
                          [g_count(table, x)], [count])
        if not spot.passed:
            return spot
    return dataclasses.replace(out, range=(2, max((x_max, *spots))))


def split_identity_sweep(table: SieveTable, x_max: int) -> VerificationOutcome:
    """small + large parts reassemble g_count(x) exactly, all x <= x_max.

    The parts are g_count_split's sums, taken for a block of x at once
    over an (x, p) grid of at most LPF_CHUNK entries; x // p is 0 for
    p > x, so the grid can hold every prime up to the block's last x.
    """
    table.check_range(x_max)
    g_all = g_count_all(table, x_max)
    ps = table.primes_upto(x_max)
    step = max(1, LPF_CHUNK // ps.size)
    totals = []
    for lo in range(2, x_max + 1, step):
        xs = np.arange(lo, min(lo + step, x_max + 1), dtype=np.int64)
        pb = ps[:int(np.searchsorted(ps, xs[-1], side="right"))]
        grid = xs[:, None]
        above = pb * pb > grid
        totals.append(np.where(above, 0, pb - 1).sum(axis=1)
                      + np.where(above, grid // pb, 0).sum(axis=1))
    return exact_case("split-identity", (2, x_max), np.arange(2, x_max + 1),
                      np.concatenate(totals), g_all[2:])


def split_interval_sweep(table: SieveTable, x_max: int) -> VerificationOutcome:
    """At most one prime lies in (sqrt x, split_point(x)] for every x <= x_max,
    and any such prime p has floor(x/p) = p - 1.

    p in the interval iff p*p > x and p(p-1) <= x, i.e. x in
    [p^2 - p, p^2 - 1]: integer arithmetic throughout. The j-th x of
    p's span is p(p-1) + j - 1, for j = 1..min(p, x_max - p^2 + p + 1).
    """
    table.check_range(x_max)
    ps = table.primes_upto(math.isqrt(x_max) + 1)
    ps = ps[ps * ps - ps <= x_max]
    owner, j = _multiples(ps, np.minimum(ps, x_max - ps * ps + ps + 1))
    xs = owner * (owner - 1) + j - 1
    floors = exact_case("split-interval", (2, x_max), xs, xs // owner,
                        owner - 1)
    if not floors.passed:
        return floors
    counts = np.bincount(xs, minlength=x_max + 1)[2:]
    return worst_case("split-interval", (2, x_max), range(2, x_max + 1),
                      counts, 1, 1 - counts)


def small_part_bound_sweep(table: SieveTable,
                           x_max: int) -> VerificationOutcome:
    """sum_{p <= sqrt x}(p-1) <= pi(sqrt x) sqrt x <= e x / log(sqrt x)
    for x = 10..x_max.

    pi(sqrt x) and the small part only move at prime squares. Between
    them both margins grow with x (the upper one because
    pi(t) < 1.26 t / log t), so each piece is tightest at its left end.
    """
    table.check_range(x_max, lo=10)
    roots = table.primes_upto(math.isqrt(x_max))
    ends, idx = piece_ends(roots * roots, 10, x_max)
    xs = ends[:, 0]
    small = step_values(np.cumsum(roots - 1), idx)
    sqrt_x = np.sqrt(xs.astype(np.float64))
    mid = idx * sqrt_x                      # pi(sqrt x) * sqrt x
    top = math.e * xs / np.log(sqrt_x)
    return min(
        worst_case("small-part-bound", (10, x_max), xs, small, mid,
                   mid - small),
        worst_case("small-part-bound", (10, x_max), xs, mid, top, top - mid),
        key=lambda o: o.worst_witness.margin)


def rough_tail_monotone_sweep(table: SieveTable,
                              k_max: int) -> VerificationOutcome:
    """|rough tail - log 2| strictly decreasing over decades 10^2..10^k."""
    if k_max < 2:
        raise DomainError(f"need k_max >= 2, got {k_max}")
    if 10 ** k_max > table.limit:
        raise DomainError(f"10^{k_max} exceeds table limit {table.limit}")
    resids = [abs(rough_tail_sum(table, 10 ** k) - LOG2)
              for k in range(2, k_max + 1)]
    ok = all(b < a for a, b in zip(resids, resids[1:]))
    worst = Witness(input=10 ** k_max, lhs=resids[-1], rhs=resids[0],
                    margin=resids[0] - resids[-1])
    return VerificationOutcome("rough-tail-monotone", (100, 10 ** k_max), ok,
                               worst)
