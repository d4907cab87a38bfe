"""Child process of the benchmark: traced CLI runs and the query server.

    python3 perfbench/worker.py cli
        Reads one JSON object {"passes": [argv, argv, argv, argv]} from
        stdin and runs ``mertenslab.cli.main`` on each argv in this
        process: a warm-up, plain, then with span wrappers, then with span
        wrappers and tracemalloc.
        Writes {"passes": [...], "metrics": {...}} to stdout.

    python3 perfbench/worker.py query
        Imports mertenslab, builds the 1e7 sieve, writes {"ready": ...},
        then answers one JSON request per stdin line until EOF:
        {"queries": [[func, x], ...]} -> answers and per-query latencies;
        {"trace": [[func, x], ...]} -> the same queries as a warm-up,
        plain, traced and under tracemalloc, plus the per-layer metrics.

Needs ``src`` on PYTHONPATH; the benchmark sets it.
"""

import contextlib
import io
import json
import sys
import time

import golden
import spans
from oracle import LIMIT


def _cli_pass(argv, tracer):
    from mertenslab import cli
    buffer = io.StringIO()
    record = {"exit_code": None, "error": None}
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(spans.traced(tracer))
        stack.enter_context(contextlib.redirect_stdout(buffer))
        started = time.perf_counter()
        try:
            record["exit_code"] = cli.main(argv)
        except Exception as exc:   # reported to the parent as a failure
            record["error"] = repr(exc)
        record["wall_s"] = time.perf_counter() - started
    record["stdout"] = buffer.getvalue()
    return record


def serve_cli(request: dict) -> dict:
    warm_argv, plain_argv, traced_argv, memory_argv = request["passes"]
    timing = spans.Tracer()
    memory = spans.Tracer(memory=True)
    passes = [_cli_pass(warm_argv, None), _cli_pass(plain_argv, None),
              _cli_pass(traced_argv, timing), _cli_pass(memory_argv, memory)]
    overhead = passes[2]["wall_s"] - passes[1]["wall_s"]
    metrics = spans.layer_metrics(timing.spans, memory.spans,
                                  list(golden.load_golden()["lines"]),
                                  overhead)
    return {"passes": passes, "metrics": metrics}


def _answer(ml, table, func, x):
    if func == "log_zeta_truncation":
        return ml.log_zeta_truncation(table, 2.0, x)
    return getattr(ml, func)(table, x)


def _answer_all(ml, table, queries, tracer=None):
    answers, latencies = [], []
    clock = time.perf_counter
    for func, x in queries:
        if tracer is not None:
            tracer.run += 1
        started = clock()
        try:
            answer = _answer(ml, table, func, x)
        except Exception as exc:   # reported to the parent as a miss
            answer = {"error": repr(exc)}
        latencies.append(clock() - started)
        answers.append(answer)
    return answers, latencies


def serve_queries(stdin, stdout) -> None:
    import mertenslab as ml
    table = ml.build_sieve(LIMIT)
    stdout.write(json.dumps({"ready": True,
                             "primes": int(table.primes.size)}) + "\n")
    stdout.flush()
    for line in stdin:
        request = json.loads(line)
        if "queries" in request:
            answers, latencies = _answer_all(ml, table, request["queries"])
            reply = {"answers": answers, "latencies": latencies}
        else:
            queries = request["trace"]
            timing = spans.Tracer()
            memory = spans.Tracer(memory=True)
            warm, _ = _answer_all(ml, table, queries)
            plain, plain_lat = _answer_all(ml, table, queries)
            with spans.traced(timing):
                traced, traced_lat = _answer_all(ml, table, queries, timing)
            with spans.traced(memory):
                in_memory, _ = _answer_all(ml, table, queries, memory)
            overhead = sum(traced_lat) - sum(plain_lat)
            metrics = spans.layer_metrics(
                timing.spans, memory.spans,
                list(golden.load_golden()["lines"]), overhead)
            reply = {"passes": [warm, plain, traced, in_memory],
                     "metrics": metrics}
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "cli":
        reply = serve_cli(json.load(sys.stdin))
        sys.stdout.write(json.dumps(reply) + "\n")
        return 0
    if mode == "query":
        serve_queries(sys.stdin, sys.stdout)
        return 0
    print(f"usage: {sys.argv[0]} cli|query", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
