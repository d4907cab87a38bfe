"""Command-line front end.

Subcommands: sieve (build a prime table, report count and timing),
table (tabulate the tracked quantities as CSV/JSON), verify (run
verification suites with pass/fail exit codes), constants (the limit
constant by both routes).

Exit codes: 0 all pass, 1 verification failure, 2 usage/resource error.
"""

import argparse
import math
import sys
import time

from . import arith, density, partial_sums, reports, suites
from .errors import DomainError, ResourceError
from .sieve import build_sieve

TABLE_FUNCTIONS = ("lambda-sum", "mertens1", "recip-primes", "psi", "theta",
                   "pi", "g-count", "density", "rough-tail", "logzeta")


def _parse_xs(text: str) -> list[int]:
    try:
        xs = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise DomainError(f"bad --xs value: {text}") from exc
    if not xs:
        raise DomainError("--xs must list at least one x")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise DomainError("--xs values must be strictly increasing")
    return xs


def _parse_tol(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got '{text}'")
    try:
        number = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value in '{text}'") \
            from exc
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite, got '{text}'")
    return name, number


def _thread_count(text: str) -> int:
    """argparse type for --threads: rejected before any table is built."""
    try:
        count = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") \
            from exc
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"thread count must be >= 1, got {count}")
    return count


def _evaluate_table_cell(table, func: str, x: int, s: float):
    """(observed, predicted) for one table row; predicted may be None."""
    if func == "lambda-sum":
        return partial_sums.sum_lambda_over_n(table, x), math.log(x)
    if func == "mertens1":
        return partial_sums.mertens_first_sum(table, x), math.log(x)
    if func == "recip-primes":
        observed = partial_sums.reciprocal_prime_sum(table, x)
        return observed, (math.log(math.log(x))
                          + partial_sums.MEISSEL_MERTENS_REFERENCE)
    if func == "psi":
        return arith.chebyshev_psi(table, x), None
    if func == "theta":
        return arith.theta_log_primorial(table, x), None
    if func == "pi":
        return arith.prime_count(table, x), None
    if func == "g-count":
        return density.g_count(table, x), x * partial_sums.LOG2
    if func == "density":
        return density.g_count(table, x) / x, partial_sums.LOG2
    if func == "rough-tail":
        return density.rough_tail_sum(table, x), partial_sums.LOG2
    if func == "logzeta":
        if s == 2.0:
            predicted = math.log(partial_sums.PI_SQUARED_OVER_6)
        elif s == 4.0:
            predicted = math.log(partial_sums.PI_FOURTH_OVER_90)
        else:
            predicted = None
        return partial_sums.log_zeta_truncation(table, s, x), predicted
    raise DomainError(f"unknown function '{func}'")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_sieve(args) -> int:
    started = time.perf_counter()
    table = build_sieve(args.limit)
    elapsed = time.perf_counter() - started
    count = int(table.primes.size)
    print(f"{count} prime{'' if count == 1 else 's'}")
    print(f"built limit={args.limit} in {elapsed:.3f}s "
          f"({args.limit / max(elapsed, 1e-9) / 1e6:.1f} M/s)")
    return 0


def cmd_table(args) -> int:
    xs = _parse_xs(args.xs)
    limit = xs[-1]
    table = build_sieve(limit)
    rows = []
    for x in xs:
        observed, predicted = _evaluate_table_cell(table, args.func, x,
                                                   args.s)
        residual = None if predicted is None else observed - predicted
        rows.append(reports.ReportRow(x=x, columns={
            "observed": observed, "predicted": predicted,
            "residual": residual}))
    if args.format == "csv":
        text = reports.rows_to_csv(rows)
    else:
        payload_config = {
            "command": "table", "function": args.func, "xs": xs,
            "s": args.s, "limit": limit,
            "output_format": args.format,
        }
        text = reports.report_json(payload_config, rows, [])
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    overrides = dict(args.tol or [])
    suites.resolve_tolerances(overrides)    # a bad name exits before the sieve
    table = build_sieve(args.limit)
    checks = suites.build_checks(table, args.suite, overrides)
    outcomes = suites.run_checks(checks, args.threads)
    lines = "".join(o.describe() + "\n" for o in outcomes)
    sys.stdout.write(lines)
    if args.out:
        payload_config = {
            "command": "verify", "limit": args.limit,
            "suites": args.suite,
            "tolerance_overrides": overrides,
            "thread_count": args.threads,
        }
        _emit(reports.report_json(payload_config, [], outcomes), args.out)
    return 0 if all(o.passed for o in outcomes) else 1


def cmd_constants(args) -> int:
    if args.limit < 10 ** 5:
        raise DomainError(
            f"constants needs limit >= 1e5 for a meaningful tail, "
            f"got {args.limit}")
    table = build_sieve(args.limit)
    series, tail, agreement = partial_sums.meissel_mertens_agreement(table)
    for est in (series, tail):
        print(f"constant={est.name} route={est.route} "
              f"value={est.value!r} error_bound={est.error_bound!r}")
    w = agreement.worst_witness
    print(f"agreement delta={w.lhs!r} combined_bound={w.rhs!r} "
          f"{'PASS' if agreement.passed else 'FAIL'}")
    return 0 if agreement.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mertenslab",
        description="Prime-sum tables, residual reports, and verification "
                    "suites over a smallest-prime-factor sieve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build a sieve, report count/timing")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=cmd_sieve)

    p = sub.add_parser("table", help="tabulate a quantity at given x values "
                                     "(the sieve limit is max of --xs)")
    p.add_argument("--func", required=True, choices=TABLE_FUNCTIONS)
    p.add_argument("--xs", required=True,
                   help="comma-separated strictly increasing integers")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--s", type=float, default=2.0,
                   help="exponent for logzeta (default 2)")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", required=True,
                   choices=suites.SUITE_NAMES + ("all",))
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--tol", action="append", type=_parse_tol, default=None,
                   metavar="NAME=VALUE")
    p.add_argument("--threads", type=_thread_count, default=1)
    p.add_argument("--out", type=str, default=None,
                   help="also write outcomes as JSON")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("constants", help="limit constant by both routes")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (DomainError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
