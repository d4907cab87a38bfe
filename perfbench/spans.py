"""In-memory spans around the public functions of each mertenslab module.

A span records its name, start, end, parent span and run id. Parents are
tracked per thread, so spans opened inside a pool worker nest under the
span that was open when the work was handed over. Self time is a span's
duration minus the part of it that its child spans cover.

Wrappers are installed by rebinding a function in every mertenslab
namespace that holds it: ``from .summation import fsum`` makes
``arith.fsum`` a second binding that a wrapper on ``summation.fsum``
alone would miss. ``traced`` removes every wrapper again on exit.
"""

import functools
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    elems: int = 0
    nbytes: int = 0
    peak_bytes: int = 0
    _base: int = 0


class Tracer:
    """Collects spans; with ``memory`` set, also each span's peak
    tracemalloc allocation above its starting level (single thread)."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.memory = memory
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1].sid if stack else None

    def call(self, name, fn, args=(), kwargs=None, parent=None,
             measure=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        span = Span(next(self._ids), name, 0.0, 0.0, parent, self.run)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak_bytes = max(stack[-1].peak_bytes, peak)
            tracemalloc.reset_peak()
            span._base = span.peak_bytes = current
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self.memory:
                peak = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
                if stack:
                    stack[-1].peak_bytes = max(stack[-1].peak_bytes, peak)
                span.peak_bytes = peak - span._base
            self.spans.append(span)
        if measure is not None:
            span.elems, span.nbytes = measure(args, result)
        return result


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# what gets wrapped, and what each wrapper counts

class Counted:
    """Pass-through iterator that counts the elements drawn from it, so
    a generator handed to ``fsum`` is counted without changing the sum."""

    def __init__(self, values):
        self._it = iter(values)
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        value = next(self._it)
        self.count += 1
        return value


def _sized(values) -> bool:
    return isinstance(getattr(values, "size", None), int) \
        or hasattr(values, "__len__")


def _size(values) -> int:
    """Element count of an array, a sized container or a ``Counted``."""
    if isinstance(values, Counted):
        return values.count
    size = getattr(values, "size", None)
    if isinstance(size, int):
        return size
    return len(values)


def _first_arg_size(args, result):
    return _size(args[0]), 0


def _table_size(args, result):
    return _size(getattr(result, "values", result)), 0


def _sieve_size(args, result):
    return result.limit, result.spf.nbytes + result.primes.nbytes


WRAPPED = {
    "sieve": {"build_sieve": _sieve_size, "factorize": None,
              "largest_factor_range": None},
    "summation": {"fsum": _first_arg_size,
                  "compensated_cumsum": lambda args, result: (result.size, 0)},
    "arith": {"prime_power_terms": None, "lambda_values": _table_size,
              "psi_table": _table_size, "theta_table": _table_size,
              "pi_count_table": _table_size,
              "log_factorial_table": _table_size,
              "divisor_lambda_sums": None},
    "partial_sums": dict.fromkeys((
        "sum_lambda_over_n", "mertens_first_sum", "reciprocal_prime_sum",
        "log_zeta_truncation", "lambda_sum_bound_sweep",
        "mertens_bound_sweep", "lambda_mertens_gap_sweep")),
    "bounds": dict.fromkeys((
        "check_binomial_bounds", "check_psi_dyadic", "check_psi_linear",
        "check_primorial_bound", "check_interval_primorial",
        "check_stirling_lower", "check_pi_upper", "check_dusart",
        "check_reciprocal_lower", "check_mertens_bound")),
    "density": dict.fromkeys(("g_count", "g_count_all", "census_oracle")),
    "reports": {"report_json": None},
    "cli": {"main": None},
}


def _wrapper(tracer: Tracer, name: str, fn, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if measure is _first_arg_size and not _sized(args[0]):
            args = (Counted(args[0]), *args[1:])
        return tracer.call(name, fn, args, kwargs, measure=measure)
    return wrapper


def _run_checks_wrapper(tracer: Tracer, fn):
    """Each check becomes a child span of run_checks, whichever pool
    thread runs it."""
    def body(checks, thread_count=1):
        parent = tracer.current()
        spanned = [(name, functools.partial(tracer.call, f"suites.{name}",
                                            check, parent=parent))
                   for name, check in checks]
        return fn(spanned, thread_count)

    @functools.wraps(fn)
    def wrapper(checks, thread_count=1):
        return tracer.call("suites.run_checks", body, (checks, thread_count),
                           measure=lambda args, result: (args[1], 0))
    return wrapper


def install(tracer: Tracer) -> list:
    """Rebind every wrapped function in every mertenslab namespace.

    Returns the (module, attribute, original) triples for ``uninstall``.
    """
    for mod in [*WRAPPED, "suites"]:
        importlib.import_module(f"mertenslab.{mod}")
    namespaces = [m for name, m in sys.modules.items()
                  if name == "mertenslab" or name.startswith("mertenslab.")]
    targets = [(f"mertenslab.{mod}", fname, f"{mod}.{fname}", measure)
               for mod, fns in WRAPPED.items()
               for fname, measure in fns.items()]
    targets.append(("mertenslab.suites", "run_checks", None, None))
    replaced = []
    for home, fname, span_name, measure in targets:
        original = getattr(sys.modules[home], fname)
        if span_name is None:
            wrapper = _run_checks_wrapper(tracer, original)
        else:
            wrapper = _wrapper(tracer, span_name, original, measure)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)
                    replaced.append((ns, attr, original))
    return replaced


def uninstall(replaced: list) -> None:
    for ns, attr, original in reversed(replaced):
        setattr(ns, attr, original)


@contextmanager
def traced(tracer: Tracer):
    """Wrappers installed for the body, removed afterwards; with a
    memory tracer, tracemalloc runs for the body too."""
    replaced = install(tracer)
    if tracer.memory:
        tracemalloc.start()
    try:
        yield tracer
    finally:
        if tracer.memory:
            tracemalloc.stop()
        uninstall(replaced)


# ---------------------------------------------------------------------------
# per-layer metrics

DENSE_TABLES = ("arith.lambda_values", "arith.psi_table", "arith.theta_table",
                "arith.pi_count_table", "arith.log_factorial_table")
BOUND_SWEEPS = ("partial_sums.lambda_sum_bound_sweep",
                "partial_sums.mertens_bound_sweep",
                "partial_sums.lambda_mertens_gap_sweep")
POINT_SUMS = ("partial_sums.sum_lambda_over_n",
              "partial_sums.mertens_first_sum",
              "partial_sums.reciprocal_prime_sum",
              "partial_sums.log_zeta_truncation")
BOUND_CHECKS = tuple(f"bounds.{name}" for name in WRAPPED["bounds"])


def layer_metrics(spans: list[Span], memory_spans: list[Span],
                  check_names: list[str], overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit); 0 where a layer
    did no work. ``*_s`` values are self time, except that the ``suites``
    metrics without ``self`` in their name are span durations: one per
    check, their sum, and the pool's wall time."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    peaks = defaultdict(int)
    for s in memory_spans:
        peaks[s.name] = max(peaks[s.name], s.peak_bytes)

    def self_s(*names):
        return sum(selfs[s.sid] for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def elems(*names):
        return sum(s.elems for n in names for s in by_name[n])

    def duration(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    build_wall = duration("sieve.build_sieve")
    m = {
        "sieve.build_s": (self_s("sieve.build_sieve"), "s"),
        "sieve.build_Mps": (elems("sieve.build_sieve") / build_wall / 1e6
                            if build_wall else 0.0, "M/s"),
        "sieve.table_bytes": (max((s.nbytes for s in
                                   by_name["sieve.build_sieve"]), default=0),
                              "bytes-computed"),
        "sieve.largest_factor_range_s":
            (self_s("sieve.largest_factor_range"), "s"),
        "sieve.largest_factor_range_calls":
            (calls("sieve.largest_factor_range"), "count"),
        "sieve.factorize_s": (self_s("sieve.factorize"), "s"),
        "sieve.factorize_calls": (calls("sieve.factorize"), "count"),
        "summation.fsum_s": (self_s("summation.fsum"), "s"),
        "summation.fsum_calls": (calls("summation.fsum"), "count"),
        "summation.fsum_elems": (elems("summation.fsum"), "count"),
        "summation.fsum_peak_alloc_mb": (peaks["summation.fsum"] / 1e6, "MB"),
        "summation.cumsum_s": (self_s("summation.compensated_cumsum"), "s"),
        "summation.cumsum_elems":
            (elems("summation.compensated_cumsum"), "count"),
        "arith.prime_power_terms_s": (self_s("arith.prime_power_terms"), "s"),
        "arith.prime_power_terms_calls":
            (calls("arith.prime_power_terms"), "count"),
        "arith.dense_tables_s": (self_s(*DENSE_TABLES), "s"),
        "arith.dense_tables_elems": (elems(*DENSE_TABLES), "count"),
        "arith.divisor_lambda_sums_s":
            (self_s("arith.divisor_lambda_sums"), "s"),
        "partial_sums.bound_sweeps_s": (self_s(*BOUND_SWEEPS), "s"),
        "partial_sums.point_sums_s": (self_s(*POINT_SUMS), "s"),
        "bounds.checks_s": (self_s(*BOUND_CHECKS), "s"),
        "density.g_count_all_s": (self_s("density.g_count_all"), "s"),
        "density.census_s": (self_s("density.census_oracle"), "s"),
        "density.g_count_s": (self_s("density.g_count"), "s"),
        "density.g_count_calls": (calls("density.g_count"), "count"),
    }
    for name in check_names:
        m[f"suites.{name}_s"] = (duration(f"suites.{name}"), "s")
        m[f"suites.{name}_self_s"] = (self_s(f"suites.{name}"), "s")
        m[f"suites.{name}_peak_alloc_mb"] = (peaks[f"suites.{name}"] / 1e6,
                                            "MB")
    busy = duration(*(f"suites.{name}" for name in check_names))
    pool = by_name["suites.run_checks"]
    pool_capacity = sum(s.elems * (s.end - s.start) for s in pool)
    m["suites.checks_busy_s"] = (busy, "s")
    m["suites.run_checks_s"] = (duration("suites.run_checks"), "s")
    m["suites.parallel_efficiency"] = (busy / pool_capacity
                                       if pool_capacity else 0.0, "ratio")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    m["reports.report_json_s"] = (self_s("reports.report_json"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
