"""Named verification suites and their deterministic runner.

Each suite is a fixed-order list of (name, callable) pairs producing
VerificationOutcome. Ranges scale with the configured limit but cap at
their desk-scale defaults. The runner may fan checks out to a
thread pool; outcomes are collected in list order, so output is
byte-identical for any thread count.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import arith, bounds, density, partial_sums
from .errors import DomainError
from .outcomes import VerificationOutcome, worst_case
from .sieve import SieveTable

SUITE_NAMES = ("identities", "bounds", "asymptotics", "density")
ABEL_REL_TOL = 1e-12

_TOLERANCE_DEFAULTS = {
    "log-sum-identity": 1e-12,
    "log-factorial-dual-route": 1e-11,
    "selberg-identity": 1e-9,
    "generalized-lambda-k1": 1e-12,
    "lambda-sum-bound": 2.0,
    "mertens1-bound": 2.0,
    "lambda-mertens-gap": 1.0,
    "mertens2-c": 1.0,
    "density-c": 3.0,
    "psi-linear-c1": 0.3,
    "psi-linear-c2": 1.2,
}


def resolve_tolerances(overrides: dict[str, float] | None) -> dict[str, float]:
    tols = dict(_TOLERANCE_DEFAULTS)
    for name, value in (overrides or {}).items():
        if name not in tols:
            known = ", ".join(sorted(tols))
            raise DomainError(f"unknown tolerance '{name}' (known: {known})")
        tols[name] = float(value)
    return tols


def _report_outcome(name: str, report) -> VerificationOutcome:
    """The row with the least room in its envelope; the report's own
    verdict adds its further rules (decade monotonicity)."""
    rows = report.rows
    resids = [abs(r.residual) for r in rows]
    out = worst_case(name, (rows[0].x, rows[-1].x), [r.x for r in rows],
                     resids, [r.tolerance for r in rows],
                     [r.tolerance - a for r, a in zip(rows, resids)])
    return dataclasses.replace(out, passed=out.passed and report.passed)


def _decades(lo_exp: int, hi_exp: int, limit: int) -> list[int]:
    return [10 ** k for k in range(lo_exp, hi_exp + 1) if 10 ** k <= limit]


def identity_checks(table: SieveTable, tols: dict[str, float]) -> list:
    L = table.limit
    return [
        ("log-sum-identity", lambda: arith.log_sum_identity_sweep(
            table, min(L, 10 ** 5), tols["log-sum-identity"])),
        ("legendre-exponent-exact", lambda: arith.legendre_exact_sweep(
            table, min(L, 10 ** 4))),
        ("log-factorial-dual-route", lambda: arith.logfact_dual_route_sweep(
            table, min(L, 10 ** 6), tols["log-factorial-dual-route"])),
        ("selberg-identity", lambda: arith.selberg_sweep(
            table, min(L, 10 ** 4), tols["selberg-identity"])),
        ("generalized-lambda-k1", lambda: arith.generalized_lambda_k1_sweep(
            table, min(L, 10 ** 4), tols["generalized-lambda-k1"])),
        ("psi-theta-dominance", lambda: arith.psi_theta_dominance_sweep(
            table, min(L, 10 ** 5))),
    ]


def bounds_checks(table: SieveTable, tols: dict[str, float]) -> list:
    L = table.limit
    checks = [
        ("binomial-bounds", lambda: bounds.check_binomial_bounds(
            min(L // 2, 10 ** 5))),
        ("psi-dyadic", lambda: bounds.check_psi_dyadic(
            table, min(L // 2, 10 ** 6))),
        ("psi-linear", lambda: bounds.check_psi_linear(
            table, min(L, 10 ** 7), tols["psi-linear-c1"],
            tols["psi-linear-c2"])),
        ("primorial-bound", lambda: bounds.check_primorial_bound(
            table, min(L, 10 ** 6))),
    ]
    if L >= 3:
        checks.append(("interval-primorial",
                       lambda: bounds.check_interval_primorial(
                           table, min((L - 1) // 2, 10 ** 5))))
    checks.append(("stirling-lower", lambda: bounds.check_stirling_lower(
        min(L, 10 ** 6))))
    if L >= 3:
        checks.append(("pi-upper", lambda: bounds.check_pi_upper(
            table, min(L, 10 ** 7))))
    n_primes = int(table.primes.size)
    if n_primes >= 6:
        checks.append(("dusart", lambda: bounds.check_dusart(
            table, min(n_primes, 10 ** 6))))
    checks.extend([
        ("reciprocal-lower", lambda: bounds.check_reciprocal_lower(
            table, min(L, 10 ** 6))),
        ("mertens1-bound", lambda: bounds.check_mertens_bound(
            table, min(L, 10 ** 7), tols["mertens1-bound"])),
    ])
    return checks


def _abel_exactness(table: SieveTable, xs: list[int]) -> VerificationOutcome:
    """Abel reconstruction of S(x) from log p/p weights, per sample x."""
    f = lambda t: 1.0 / math.log(t)
    fp = lambda t: -1.0 / (t * math.log(t) ** 2)
    ps = table.primes_upto(xs[-1])
    # math.log, not np.log: its last bit may differ
    logs = np.fromiter(map(math.log, ps.tolist()), np.float64, ps.size)
    weights = np.column_stack((ps, logs / ps))
    rels = []
    for x in xs:
        got = partial_sums.abel_summation(
            weights[:table.primes_upto(x).size], f, fp, 2.0, float(x))
        ref = partial_sums.reciprocal_prime_sum(table, x)
        rels.append(abs(got - ref) / ref)
    return worst_case("abel-exactness", (xs[0], xs[-1]), xs, rels,
                      ABEL_REL_TOL, [ABEL_REL_TOL - rel for rel in rels])


def _log_zeta_reference(table: SieveTable, s: float, reference: float,
                        pinned_tol: float) -> VerificationOutcome:
    n_max = min(table.limit, 10 ** 6)
    # the dropped tail is below 2 * n^(1-s), so widen at small tables
    tol = max(pinned_tol, 2.0 * n_max ** (1.0 - s))
    diff = abs(partial_sums.log_zeta_truncation(table, s, n_max) - reference)
    return worst_case(f"log-zeta-s{s:g}", (2, n_max), [n_max], [diff], tol,
                      [tol - diff])


def asymptotics_checks(table: SieveTable, tols: dict[str, float]) -> list:
    L = table.limit
    checks = []
    if L >= 10:
        checks.append(("lambda-sum-bound",
                       lambda: partial_sums.lambda_sum_bound_sweep(
                           table, min(L, 10 ** 7), tols["lambda-sum-bound"])))
    checks.append(("lambda-mertens-gap",
                   lambda: partial_sums.lambda_mertens_gap_sweep(
                       table, min(L, 10 ** 7), tols["lambda-mertens-gap"])))
    if L >= 10 ** 3:
        checks.append(("mertens2-residuals", lambda: _report_outcome(
            "mertens2-residuals", partial_sums.mertens2_residual_report(
                table, _decades(3, 7, L),
                partial_sums.MEISSEL_MERTENS_REFERENCE, tols["mertens2-c"]))))
        checks.append(("mm-route-agreement",
                       lambda: partial_sums.meissel_mertens_agreement(
                           table)[2]))
    if L >= 100:
        abel_xs = [x for x in (100, 10 ** 4, 10 ** 6) if x <= L]
        checks.append(("abel-exactness",
                       lambda: _abel_exactness(table, abel_xs)))
    checks.append(("log-zeta-s2", lambda: _log_zeta_reference(
        table, 2.0, math.log(partial_sums.PI_SQUARED_OVER_6), 1e-5)))
    if L >= 10 ** 4:
        checks.append(("log-zeta-s4", lambda: _log_zeta_reference(
            table, 4.0, math.log(partial_sums.PI_FOURTH_OVER_90), 1e-9)))
    return checks


def density_checks(table: SieveTable, tols: dict[str, float]) -> list:
    L = table.limit
    spots = tuple(x for x in (10 ** 6, 10 ** 7) if x <= L)
    checks = [
        ("pair-bijection", lambda: density.bijection_sweep(
            table, min(L, 10 ** 5), spots)),
        ("split-identity", lambda: density.split_identity_sweep(
            table, min(L, 10 ** 4))),
        ("split-interval", lambda: density.split_interval_sweep(
            table, min(L, 10 ** 6))),
    ]
    if L >= 10:
        checks.append(("small-part-bound",
                       lambda: density.small_part_bound_sweep(
                           table, min(L, 10 ** 7))))
    if L >= 10 ** 3:
        checks.append(("rough-tail-monotone",
                       lambda: density.rough_tail_monotone_sweep(
                           table, min(7, int(math.log10(L))))))
        checks.append(("density-envelope", lambda: _report_outcome(
            "density-envelope", density.density_series(
                table, _decades(3, 7, L), tols["density-c"]))))
    return checks


_SUITE_BUILDERS = {
    "identities": identity_checks,
    "bounds": bounds_checks,
    "asymptotics": asymptotics_checks,
    "density": density_checks,
}


def build_checks(table: SieveTable, selection: list[str],
                 tolerance_overrides: dict[str, float] | None = None) -> list:
    tols = resolve_tolerances(tolerance_overrides)
    # each suite runs once, in first-seen order, however often it is named
    names = SUITE_NAMES if "all" in selection else dict.fromkeys(selection)
    for name in names:
        if name not in _SUITE_BUILDERS:
            raise DomainError(f"unknown suite '{name}' "
                              f"(known: {', '.join(SUITE_NAMES)}, all)")
    checks = []
    for name in names:
        checks.extend(_SUITE_BUILDERS[name](table, tols))
    return checks


def run_checks(checks, thread_count: int = 1) -> list[VerificationOutcome]:
    """Run every check, collecting outcomes in declaration order.

    Checks are independent; the pool only changes wall time, never the
    outcome sequence.
    """
    if thread_count < 1:
        raise DomainError(f"thread_count must be >= 1, got {thread_count}")
    if thread_count == 1 or len(checks) <= 1:
        return [fn() for _, fn in checks]
    with ThreadPoolExecutor(max_workers=thread_count) as pool:
        return list(pool.map(lambda item: item[1](), checks))
