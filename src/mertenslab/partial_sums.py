"""Prime partial sums, their asymptotic residuals, and Abel summation.

The three central sums (Lambda(m)/m, log p/p, 1/p) are evaluated with
exactly rounded accumulation; the residual report compares S(x) against
loglog x + M at caller-chosen sample points. The limit constant is
estimated by two independent routes that must agree; both verify and
constants read that agreement from meissel_mertens_agreement.

The exhaustive sweeps hold each sum, a step function, against a
monotone curve at the piece ends from summation.piece_blocks, the
primitive the bounds and density sweeps share.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .arith import prime_power_terms
from .errors import DomainError
from .outcomes import VerificationOutcome, worst_case, worst_case_blocks
from .sieve import SieveTable
from .summation import (_jump_cumulative, compensated_cumsum, fsum,
                         piece_blocks, running_sums, step_values)

EULER_GAMMA = 0.57721566490153286060
MEISSEL_MERTENS_REFERENCE = 0.2614972128
LOG2 = math.log(2.0)
PI_SQUARED_OVER_6 = math.pi * math.pi / 6.0
PI_FOURTH_OVER_90 = math.pi ** 4 / 90.0


@dataclass(frozen=True)
class ResidualRow:
    x: int
    observed: float
    predicted: float
    residual: float
    tolerance: float


@dataclass(frozen=True)
class ResidualReport:
    rows: list[ResidualRow]
    passed: bool


@dataclass(frozen=True)
class ConstantEstimate:
    name: str
    value: float
    route: str
    error_bound: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.error_bound >= 0):
            raise DomainError("constant estimate must be finite with a "
                              "non-negative error bound")


def sum_lambda_over_n(table: SieveTable, x: int) -> float:
    """Sum of Lambda(m)/m over m <= x; tracks log x within O(1)."""
    table.check_range(x)
    ms, logs = prime_power_terms(table, x)
    return fsum(logs / ms.astype(np.float64))


def mertens_first_sum(table: SieveTable, x: int) -> float:
    """Sum of (log p)/p over primes p <= x; tracks log x within 2."""
    table.check_range(x)
    ps = table.primes_upto(x).astype(np.float64)
    return fsum(np.log(ps) / ps)


def reciprocal_prime_sum(table: SieveTable, x: int) -> float:
    """S(x): sum of 1/p over primes p <= x."""
    table.check_range(x)
    ps = table.primes_upto(x).astype(np.float64)
    return fsum(1.0 / ps)


def abel_summation(weights, f, f_prime, lower: float, upper: float) -> float:
    """Boundary term minus the Stieltjes integral of the partial sums.

    A(t) is the step function accumulating weights with index <= t. The
    integral of A f' is evaluated exactly piecewise (A is constant
    between jumps, so each piece is A * (f(b) - f(a)) via f itself).
    f_prime completes the classical signature; the value never reads it.
    A comes from summation.running_sums; f is called once per jump, at
    the index as a float, from (index, weight) pairs or an (n, 2) array.
    """
    if not lower < upper:
        raise DomainError(f"need lower < upper, got [{lower}, {upper}]")
    weights = np.asarray(weights if isinstance(weights, np.ndarray)
                         else list(weights), dtype=np.float64).reshape(-1, 2)
    idxs = weights[:, 0]
    if np.any(idxs[1:] < idxs[:-1]):
        raise DomainError("weights must be sorted by index")

    start, stop = np.searchsorted(idxs, [lower, upper], side="right").tolist()
    run = running_sums(weights[:stop, 1])
    inner = idxs[start:stop]
    # the last weight of each index, where A(index) is read
    last = start + np.flatnonzero(np.append(inner[1:] != inner[:-1],
                                            inner.size > 0))
    a = run[np.concatenate(([start], last + 1))]    # A(lower), A(each jump)
    fs = np.array([f(lower), *map(f, idxs[last].tolist()), f(upper)],
                  dtype=np.float64)
    pieces = a * np.diff(fs)
    if last.size and not idxs[last[-1]] < upper:
        pieces = pieces[:-1]
    return fsum(np.concatenate(([a[-1] * fs[-1]], -pieces)))


def _decade_monotone(rows: list[ResidualRow]) -> bool:
    """Non-increasing |residual| is asserted only when every sample sits
    on a power of ten (decade sweeps)."""
    xs = [r.x for r in rows]
    if len(xs) < 2 or any(10 ** round(math.log10(x)) != x for x in xs):
        return True
    resid = [abs(r.residual) for r in rows]
    return all(b <= a for a, b in zip(resid, resid[1:]))


def _validate_xs(table: SieveTable, xs: list[int], lo: int) -> None:
    if not xs:
        raise DomainError("xs must be non-empty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("xs must be strictly increasing")
    if xs[0] < lo or xs[-1] > table.limit:
        raise DomainError(f"xs must lie in [{lo}, {table.limit}]")


def mertens2_residual_report(table: SieveTable, xs: list[int],
                             m_reference: float,
                             c: float = 1.0) -> ResidualReport:
    """S(x) against loglog x + M with tolerance c/log x per sample.

    On decade samples the |residual| sequence must also be
    non-increasing for the report to pass.
    """
    _validate_xs(table, xs, 3)
    rows = []
    for x in xs:
        observed = reciprocal_prime_sum(table, x)
        predicted = math.log(math.log(x)) + m_reference
        rows.append(ResidualRow(x, observed, predicted, observed - predicted,
                                c / math.log(x)))
    passed = (all(abs(r.residual) <= r.tolerance for r in rows)
              and _decade_monotone(rows))
    return ResidualReport(rows, passed)


def meissel_mertens_from_tail(table: SieveTable, x: int) -> ConstantEstimate:
    """S(x) - loglog x; converges to the limit constant like 1/log x."""
    if x < 100:
        raise DomainError(f"tail estimate needs x >= 100, got {x}")
    table.check_range(x)
    value = reciprocal_prime_sum(table, x) - math.log(math.log(x))
    return ConstantEstimate("meissel-mertens", value,
                            route="tail-limit", error_bound=1.0 / math.log(x))


def meissel_mertens_from_series(table: SieveTable,
                                prime_limit: int) -> ConstantEstimate:
    """gamma plus the prime series of log(1 - 1/p) + 1/p.

    Each term is log1p(-1/p) + 1/p (the cancellation dominates the
    term's value); the dropped tail is below 1/(2p(p-1)) summed past the
    limit, hence the 1/prime_limit error bound.
    """
    if prime_limit < 10 ** 3:
        raise DomainError(f"prime_limit must be >= 1000, got {prime_limit}")
    table.check_range(prime_limit)
    ps = table.primes_upto(prime_limit).astype(np.float64)
    terms = np.log1p(-1.0 / ps) + 1.0 / ps
    value = fsum(np.concatenate(([EULER_GAMMA], terms)))
    return ConstantEstimate("meissel-mertens", value,
                            route="gamma-plus-prime-series",
                            error_bound=1.0 / prime_limit)


def meissel_mertens_agreement(table: SieveTable) -> tuple[
        ConstantEstimate, ConstantEstimate, VerificationOutcome]:
    """Both estimates of the limit constant and whether they agree: the
    outcome "mm-route-agreement" passes when their distance is within
    the sum of their error bounds. The series runs over primes up to
    min(limit, 1e7), the tail at the table limit."""
    prime_limit = min(table.limit, 10 ** 7)
    series = meissel_mertens_from_series(table, prime_limit)
    tail = meissel_mertens_from_tail(table, table.limit)
    delta = abs(series.value - tail.value)
    combined = series.error_bound + tail.error_bound
    return series, tail, worst_case(
        "mm-route-agreement", (prime_limit, table.limit), [table.limit],
        [delta], combined, [combined - delta])


def log_zeta_truncation(table: SieveTable, s: float, n_max: int) -> float:
    """Truncated Dirichlet series of log zeta: Lambda(n)/(log n * n^s)."""
    if not s > 1:
        raise DomainError(f"series requires s > 1, got {s}")
    table.check_range(n_max)
    ms, logs = prime_power_terms(table, n_max)
    mf = ms.astype(np.float64)
    return fsum(logs / (np.log(mf) * np.power(mf, s)))


# ---------------------------------------------------------------------------
# exhaustive sweeps against the O(1) ceilings


def lambda_sum_bound_sweep(table: SieveTable, x_max: int,
                           ceiling: float = 2.0) -> VerificationOutcome:
    """|sum Lambda(m)/m - log x| <= ceiling at every integer x in
    [10, x_max]."""
    table.check_range(x_max, lo=10)
    ms, logs = prime_power_terms(table, x_max)
    pos, cum = _jump_cumulative(ms, np.divide(logs, ms, out=logs))
    del ms, logs            # not held while the pieces stream
    return _step_vs_log_sweep("lambda-sum-bound", pos, cum, 10, x_max,
                              ceiling)


def mertens_bound_sweep(table: SieveTable, n_max: int,
                        ceiling: float = 2.0) -> VerificationOutcome:
    """|sum (log p)/p - log n| <= ceiling at every integer n in [2, n_max]."""
    table.check_range(n_max)
    ps = table.primes_upto(n_max)
    pf = ps.astype(np.float64)
    cum = compensated_cumsum(np.log(pf) / pf)   # the primes ascend already
    return _step_vs_log_sweep("mertens1-bound", ps, cum, 2, n_max, ceiling)


def _step_vs_log_sweep(name: str, pos: np.ndarray, cum: np.ndarray,
                       lo: int, hi: int,
                       ceiling: float) -> VerificationOutcome:
    """Largest |step - log n| on [lo, hi]. The step is constant on each
    piece and log n increases, so the deviation peaks at a piece end."""
    def blocks():
        for ends, counts in piece_blocks(pos, lo, hi):
            dev = np.log(ends, dtype=np.float64)
            np.subtract(step_values(cum, counts)[:, None], dev, out=dev)
            dev = np.abs(dev, out=dev).ravel()  # both ends, ascending
            yield ends.ravel(), dev, ceiling, ceiling - dev
    return worst_case_blocks(name, (lo, hi), blocks())


def lambda_mertens_gap_sweep(table: SieveTable, x_max: int,
                             ceiling: float = 1.0) -> VerificationOutcome:
    """The gap sum Lambda(m)/m minus (log p)/p lies in [0, ceiling].

    The gap only jumps at higher prime powers (k >= 2), where it gains
    log p / p^k; checking every jump value covers every integer x.
    """
    table.check_range(x_max)
    ms, logs = prime_power_terms(table, x_max)
    # prime power list is primes first, then k >= 2 powers; split positionally
    n_primes = table.primes_upto(x_max).size
    hp = ms[n_primes:]
    terms = logs[n_primes:] / hp.astype(np.float64)
    pos, cum = _jump_cumulative(hp, terms)
    if pos.size == 0:       # no higher power yet: the gap is 0 throughout
        pos, cum = np.array([x_max]), np.zeros(1)
    out = worst_case("lambda-mertens-gap", (2, x_max), pos, cum, ceiling,
                     ceiling - cum)
    return replace(out, passed=out.passed and bool(cum.min() >= 0.0))
