"""Prime partial sums, their asymptotic residuals, and Abel summation.

The three central sums (Lambda(m)/m, log p/p, 1/p) are evaluated with
exactly rounded accumulation; residual reports compare them against
their asymptotic laws at caller-chosen sample points. The limit
constant is estimated by two independent routes that must agree.

The exhaustive sweeps hold each sum, a step function, against a
monotone curve. piece_ends lists where its constant pieces start and
end; the gap on a piece is extreme at one of its ends, so those points
stand for every integer in range. The bounds and density sweeps share
the same primitive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith import prime_power_terms
from .errors import DomainError
from .outcomes import VerificationOutcome, Witness
from .sieve import SieveTable
from .summation import RunningSum, compensated_cumsum, fsum

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


def _prime_prefix(table: SieveTable, x: int) -> np.ndarray:
    cut = int(np.searchsorted(table.primes, x, side="right"))
    return table.primes[:cut]


def sum_lambda_over_n(table: SieveTable, x: int) -> float:
    """Sum of Lambda(m)/m over m <= x; tracks log x within O(1)."""
    table.check_range(x)
    ms, logs = prime_power_terms(table, x)
    return fsum(logs / ms.astype(np.float64))


def mertens_first_sum(table: SieveTable, x: int) -> float:
    """Sum of (log p)/p over primes p <= x; tracks log x within 2."""
    table.check_range(x)
    ps = _prime_prefix(table, x).astype(np.float64)
    return fsum(np.log(ps) / ps)


def reciprocal_prime_sum(table: SieveTable, x: int) -> float:
    """S(x): sum of 1/p over primes p <= x."""
    table.check_range(x)
    ps = _prime_prefix(table, x).astype(np.float64)
    return fsum(1.0 / ps)


def _abel_pieces(weights, f, lower: float, upper: float, integral) -> float:
    """A(upper) f(upper) minus A * integral(a, b) summed over the constant
    pieces [a, b] of the step function A on [lower, upper]."""
    if not lower < upper:
        raise DomainError(f"need lower < upper, got [{lower}, {upper}]")
    weights = list(weights)     # read twice: an iterator would run dry
    idxs = [i for i, _ in weights]
    if any(b < a for a, b in zip(idxs, idxs[1:])):
        raise DomainError("weights must be sorted by index")

    run = RunningSum()
    jumps: dict[int, list[float]] = {}
    for i, a in weights:
        if i <= lower:
            run.add(a)
        elif i <= upper:
            jumps.setdefault(i, []).append(a)

    pieces: list[float] = []
    t_cur = lower
    a_cur = run.value
    for b in sorted(jumps):
        pieces.append(a_cur * integral(t_cur, b))
        for a in jumps[b]:
            run.add(a)
        a_cur = run.value
        t_cur = b
    if t_cur < upper:
        pieces.append(a_cur * integral(t_cur, upper))
    return fsum([a_cur * f(upper)] + [-piece for piece in pieces])


def abel_summation(weights, f, f_prime, lower: float, upper: float) -> float:
    """Boundary term minus the Stieltjes integral of the partial sums.

    A(t) is the step function accumulating weights with index <= t. The
    integral of A f' is evaluated exactly piecewise (A is constant
    between jumps, so each piece is A * (f(b) - f(a)) via f itself).
    f_prime is accepted so callers can pass the same arguments to
    abel_summation_quadrature; the returned value never depends on it.
    """
    return _abel_pieces(weights, f, lower, upper, lambda a, b: f(b) - f(a))


def abel_summation_quadrature(weights, f, f_prime, lower: float, upper: float,
                              quadrature_steps: int = 64) -> float:
    """Same decomposition, but integrating A(t) f'(t) by composite
    Simpson per constant piece. Cross-check only: quadrature-limited."""
    if quadrature_steps < 1:
        raise DomainError("quadrature_steps must be >= 1")

    def simpson(a: float, b: float) -> float:
        n = 2 * quadrature_steps
        ts = np.linspace(a, b, n + 1)
        ys = np.array([f_prime(t) for t in ts])
        coef = np.ones(n + 1)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        return (b - a) / (3 * n) * float(coef @ ys)

    return _abel_pieces(weights, f, lower, upper, simpson)


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


def _log_x_report(evaluate, xs: list[int], ceiling: float) -> ResidualReport:
    rows = []
    for x in xs:
        observed = evaluate(x)
        rows.append(ResidualRow(x, observed, math.log(x),
                                observed - math.log(x), ceiling))
    return ResidualReport(rows,
                          all(abs(r.residual) <= r.tolerance for r in rows))


def lambda_sum_residual_report(table: SieveTable, xs: list[int],
                               ceiling: float = 2.0) -> ResidualReport:
    """Residuals of the Lambda(m)/m sum against log x, O(1) ceiling."""
    _validate_xs(table, xs, 2)
    return _log_x_report(lambda x: sum_lambda_over_n(table, x), xs, ceiling)


def mertens1_residual_report(table: SieveTable, xs: list[int],
                             ceiling: float = 2.0) -> ResidualReport:
    """Residuals of the (log p)/p sum against log x, O(1) ceiling."""
    _validate_xs(table, xs, 2)
    return _log_x_report(lambda x: mertens_first_sum(table, x), xs, ceiling)


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


def meissel_mertens_from_tail(table: SieveTable, x: int,
                              c: float = 1.0) -> ConstantEstimate:
    """S(x) - loglog x; converges to the limit constant like c/log x."""
    if x < 100:
        raise DomainError(f"tail estimate needs x >= 100, got {x}")
    table.check_range(x)
    value = reciprocal_prime_sum(table, x) - math.log(math.log(x))
    return ConstantEstimate("meissel-mertens", value,
                            route="tail-limit", error_bound=c / math.log(x))


def meissel_mertens_from_series(
        table: SieveTable, prime_limit: int,
        gamma: float = EULER_GAMMA) -> ConstantEstimate:
    """gamma plus the prime series of log(1 - 1/p) + 1/p.

    Each term is log1p(-1/p) + 1/p (the cancellation dominates the
    term's value); the dropped tail is below 1/(2p(p-1)) summed past the
    limit, hence the 1/prime_limit error bound.
    """
    if prime_limit < 10 ** 3:
        raise DomainError(f"prime_limit must be >= 1000, got {prime_limit}")
    table.check_range(prime_limit)
    ps = _prime_prefix(table, prime_limit).astype(np.float64)
    terms = np.log1p(-1.0 / ps) + 1.0 / ps
    value = fsum([gamma] + terms.tolist())
    return ConstantEstimate("meissel-mertens", value,
                            route="gamma-plus-prime-series",
                            error_bound=1.0 / prime_limit)


def log_zeta_truncation(table: SieveTable, s: float, n_max: int) -> float:
    """Truncated Dirichlet series of log zeta: Lambda(n)/(log n * n^s)."""
    if s <= 1:
        raise DomainError(f"series requires s > 1, got {s}")
    table.check_range(n_max)
    ms, logs = prime_power_terms(table, n_max)
    mf = ms.astype(np.float64)
    return fsum(logs / (np.log(mf) * np.power(mf, s)))


# ---------------------------------------------------------------------------
# exhaustive sweeps against the O(1) ceilings


def _jump_cumulative(positions: np.ndarray, terms: np.ndarray):
    """Sort jump positions and return them with compensated prefix sums."""
    order = np.argsort(positions, kind="stable")
    return positions[order], compensated_cumsum(terms[order])


def piece_ends(jumps: np.ndarray, lo: int, hi: int):
    """Where the constant pieces of a step function on [lo, hi] start and end.

    The step function jumps at each entry of the sorted array ``jumps``
    and is constant from one jump up to the integer before the next. The
    points are lo, hi, and q and q - 1 for every jump q in (lo, hi],
    ascending; duplicates may occur. Against a monotone curve the gap on
    a piece is extreme at one of the piece's two ends, so checking these
    points covers every integer in [lo, hi]. Returns the points and the
    number of jumps at or below each.
    """
    inner = jumps[np.searchsorted(jumps, lo, side="right"):
                  np.searchsorted(jumps, hi, side="right")]
    ns = np.sort(np.concatenate((np.array([lo, hi], dtype=np.int64),
                                 inner, inner - 1)))
    return ns, np.searchsorted(jumps, ns, side="right")


def step_values(cum: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The step function after ``counts`` jumps: ``cum[count - 1]``, where
    ``cum`` holds its prefix sums, or 0 before the first jump."""
    return np.concatenate(([0], cum))[counts]


def lambda_sum_bound_sweep(table: SieveTable, x_max: int,
                           ceiling: float = 2.0,
                           x_min: int = 10) -> VerificationOutcome:
    """|sum Lambda(m)/m - log x| <= ceiling at every integer x in range."""
    if not x_min <= x_max <= table.limit:
        raise DomainError(f"x_max={x_max} outside [{x_min}, {table.limit}]")
    ms, logs = prime_power_terms(table, x_max)
    pos, cum = _jump_cumulative(ms, logs / ms.astype(np.float64))
    return _step_vs_log_sweep("lambda-sum-bound", pos, cum, x_min, x_max,
                              ceiling)


def mertens_bound_sweep(table: SieveTable, n_max: int,
                        ceiling: float = 2.0) -> VerificationOutcome:
    """|sum (log p)/p - log n| <= ceiling at every integer n in [2, n_max]."""
    if not 2 <= n_max <= table.limit:
        raise DomainError(f"n_max={n_max} outside [2, {table.limit}]")
    ps = _prime_prefix(table, n_max)
    pf = ps.astype(np.float64)
    pos, cum = _jump_cumulative(ps, np.log(pf) / pf)
    return _step_vs_log_sweep("mertens1-bound", pos, cum, 2, n_max, ceiling)


def _step_vs_log_sweep(name: str, pos: np.ndarray, cum: np.ndarray,
                       lo: int, hi: int,
                       ceiling: float) -> VerificationOutcome:
    """Largest |step - log n| on [lo, hi]. The step is constant on each
    piece and log n increases, so the deviation peaks at a piece end."""
    ns, counts = piece_ends(pos, lo, hi)
    dev = np.abs(step_values(cum, counts) - np.log(ns.astype(np.float64)))
    j = int(np.argmax(dev))
    margin = ceiling - float(dev[j])
    worst = Witness(input=int(ns[j]), lhs=float(dev[j]), rhs=ceiling,
                    margin=margin)
    return VerificationOutcome(name, (lo, hi), margin >= 0, worst)


def lambda_mertens_gap_sweep(table: SieveTable, x_max: int,
                             ceiling: float = 1.0) -> VerificationOutcome:
    """The gap sum Lambda(m)/m minus (log p)/p lies in [0, ceiling].

    The gap only jumps at higher prime powers (k >= 2), where it gains
    log p / p^k; checking every jump value covers every integer x.
    """
    if not 2 <= x_max <= table.limit:
        raise DomainError(f"x_max={x_max} outside [2, {table.limit}]")
    ms, logs = prime_power_terms(table, x_max)
    # prime power list is primes first, then k >= 2 powers; split positionally
    n_primes = int(np.searchsorted(table.primes, x_max, side="right"))
    hp = ms[n_primes:]
    terms = logs[n_primes:] / hp.astype(np.float64)
    if hp.size == 0:
        w = Witness(input=x_max, lhs=0.0, rhs=ceiling, margin=ceiling)
        return VerificationOutcome("lambda-mertens-gap", (2, x_max), True, w)
    pos, cum = _jump_cumulative(hp, terms)
    gap_max = float(cum[-1])
    gap_min = float(np.min(cum))
    ok = 0.0 <= gap_min and gap_max <= ceiling
    w = Witness(input=int(pos[-1]), lhs=gap_max, rhs=ceiling,
                margin=ceiling - gap_max)
    return VerificationOutcome("lambda-mertens-gap", (2, x_max), ok, w)
