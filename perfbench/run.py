"""The mertenslab benchmark: one workload per run, result on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the ``src`` tree of the checkout it sits in
and writes only under ``.bench_work`` there. Every workload is a closed
loop with one client.

  verify-t1  ``verify --suite all --limit 10000000 --threads 1``
  verify-t2  the same at ``--threads 2``
  query-1e7  seeded point queries against a built 1e7 table

With ``--trace 0`` the run repeats operations until they add up to
``--seconds`` and reports the end-to-end metrics. An operation is one CLI
invocation, or one point query on query-1e7. Set-up (interpreter start
and ``import mertenslab``, plus ``build_sieve(10**7)`` on query-1e7) is
timed separately in fresh processes, several after each operation, so
that a slow spell of the machine shows in both alike.

With ``--trace 1`` one operation (a batch of queries on query-1e7) runs
four times in a child: a warm-up, plain, under span wrappers, and under
span wrappers plus tracemalloc. The per-layer metrics come from the last
two; the tracing overhead is the traced time minus the plain time.

Every output is checked: verify lines and ``--out`` outcomes against the
recorded references, the query table's prime count against pi(1e7), query
answers against an oracle that shares no code with mertenslab.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden
from oracle import KNOWN_PI, LIMIT, Oracle, count_misses, draw_queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up samples taken after each operation (CLI run or query batch),
# and the fewest a run reports a median of
SETUP_PER_CLI_RUN = 4
SETUP_PER_QUERY_BATCH = 2
SETUP_REPEATS = 12
QUERY_BATCH = 999
TRACE_BATCH = 333           # tracemalloc slows the query pass about 20x
CHILD_TIMEOUT_S = 150
IMPORT_CLI = ("-c", "import mertenslab.cli")


@dataclass
class Context:
    work: Path
    env: dict
    seconds: float
    seed: int


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def wait_child(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap ``proc``; return its exit code and peak RSS in MB."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024 / 1e6


def run_child(ctx: Context, args, stdout_path: Path):
    """Run the interpreter on ``args``; (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stdin=subprocess.DEVNULL, env=ctx.env,
                                cwd=ROOT)
        code, rss = wait_child(proc)
        wall = time.perf_counter() - started
    return code, wall, rss


def read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def op_metrics(walls: list[float], setup: list[float], rss_mb: float) -> dict:
    p95 = (statistics.quantiles(walls, n=20, method="inclusive")[18]
           if len(walls) > 1 else walls[0])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_p95_s": (p95, "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# CLI workloads

VERIFY = ("verify", "--suite", "all", "--limit", "10000000")


@dataclass(frozen=True)
class CliWorkload:
    threads: int

    def command(self, out: Path, threads: int | None = None) -> list[str]:
        return [*VERIFY, "--threads", str(threads or self.threads),
                "--out", str(out)]

    def check(self, golden_ref, stdout, out_text, code, threads=None):
        return golden.check_verify(golden_ref, stdout, out_text, code,
                                   threads or self.threads)


def cli_timed(ctx: Context, wl: CliWorkload) -> Outcome:
    ref = golden.load_golden()
    result = Outcome()
    stdout_path, out_path = ctx.work / "stdout.txt", ctx.work / "out.json"
    setup, walls, rss = [], [], []
    while sum(walls) < ctx.seconds:
        out_path.unlink(missing_ok=True)
        code, wall, peak = run_child(
            ctx, ["-m", "mertenslab.cli", *wl.command(out_path)],
            stdout_path)
        result.add(wl.check(ref, read_text(stdout_path),
                            read_text(out_path), code))
        walls.append(wall)
        rss.append(peak)
        for _ in range(SETUP_PER_CLI_RUN):
            setup.append(run_child(ctx, IMPORT_CLI, stdout_path)[1])
    while len(setup) < SETUP_REPEATS:
        setup.append(run_child(ctx, IMPORT_CLI, stdout_path)[1])
    result.metrics = op_metrics(walls, setup, statistics.median(rss))
    return result


def cli_traced(ctx: Context, wl: CliWorkload) -> Outcome:
    """Warm-up, plain, span-traced and tracemalloc passes in one worker.

    The warm-up keeps first-run effects out of the tracing overhead.
    tracemalloc's peak is process-wide, so the memory pass runs the
    checks on one thread."""
    ref = golden.load_golden()
    passes = [(ctx.work / f"out{i}.json", threads) for i, threads
              in enumerate((wl.threads, wl.threads, wl.threads, 1))]
    request = {"passes": [wl.command(out, threads) for out, threads in passes]}
    reply_path = ctx.work / "reply.json"
    with open(reply_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"),
                                 "cli"], stdin=subprocess.PIPE, stdout=out,
                                env=ctx.env, cwd=ROOT)
        proc.stdin.write(json.dumps(request).encode())
        proc.stdin.close()
        code, _ = wait_child(proc)
    if code != 0:
        raise RuntimeError(f"trace worker exited with {code}")
    reply = json.loads(reply_path.read_text(encoding="utf-8"))
    result = Outcome(metrics=reply["metrics"])
    for (out, threads), record in zip(passes, reply["passes"], strict=True):
        if record["error"] is not None:
            print(f"trace pass raised {record['error']}", file=sys.stderr)
        result.add(wl.check(ref, record["stdout"], read_text(out),
                            record["exit_code"], threads))
    return result


# ---------------------------------------------------------------------------
# query workload

class QueryWorker:
    """A worker process holding a built 1e7 table, spoken to in JSON
    lines; ``setup_s`` is the time from spawn to its ready line.

    A child's peak RSS includes the parent's at spawn time, so the worker
    whose RSS is reported starts before the oracle is built."""

    def __init__(self, ctx: Context):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "query"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ctx.env,
            cwd=ROOT, text=True)
        ready = self._read()
        self.setup_s = time.perf_counter() - started
        self.primes = ready["primes"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("query worker exited early")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> tuple[int, float]:
        """Send EOF, reap; (exit code, peak RSS MB). Safe to repeat."""
        if self.proc.returncode is None:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.reaped = wait_child(self.proc)
        return self.reaped


def check_answers(oracle: Oracle, queries, answers) -> tuple[int, int]:
    if len(answers) != len(queries):
        return len(queries), len(queries)
    return len(queries), count_misses(answers, oracle.answers(queries))


def start_worker(ctx: Context, result: Outcome) -> QueryWorker:
    worker = QueryWorker(ctx)
    result.add((1, int(worker.primes != KNOWN_PI[LIMIT])))
    return worker


def time_setup(ctx: Context, result: Outcome) -> float:
    worker = start_worker(ctx, result)
    code, _ = worker.close()
    result.add((1, int(code != 0)))
    return worker.setup_s


def query_timed(ctx: Context) -> Outcome:
    """Batches of queries to one worker, with a fresh worker's set-up
    timed between batches."""
    rng = random.Random(ctx.seed)
    result = Outcome()
    worker = start_worker(ctx, result)
    setup, latencies = [worker.setup_s], []
    try:
        oracle = Oracle()
        while sum(latencies) < ctx.seconds:
            queries = draw_queries(rng, QUERY_BATCH)
            reply = worker.ask({"queries": queries})
            result.add(check_answers(oracle, queries, reply["answers"]))
            latencies += reply["latencies"]
            for _ in range(SETUP_PER_QUERY_BATCH):
                setup.append(time_setup(ctx, result))
    finally:
        code, rss = worker.close()
    result.add((1, int(code != 0)))
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(ctx, result))
    result.metrics = op_metrics(latencies, setup, rss)
    return result


def query_traced(ctx: Context) -> Outcome:
    queries = draw_queries(random.Random(ctx.seed), TRACE_BATCH)
    result = Outcome()
    worker = start_worker(ctx, result)
    try:
        oracle = Oracle()
        reply = worker.ask({"trace": queries})
    finally:
        code, _ = worker.close()
    result.add((1, int(code != 0)))
    for answers in reply["passes"]:
        result.add(check_answers(oracle, queries, answers))
    result.metrics = reply["metrics"]
    return result


# ---------------------------------------------------------------------------

WORKLOADS = {
    "verify-t1": CliWorkload(threads=1),
    "verify-t2": CliWorkload(threads=2),
    "query-1e7": None,
}


# the query metrics under their usual names, printed for reading only
QUERY_ALIASES = (("query_p50_ms", "wall_s", 1e3, "ms"),
                 ("query_p95_ms", "wall_p95_s", 1e3, "ms"),
                 ("queries_per_s", "ops_per_s", 1.0, "1/s"))


def run(ctx: Context, workload: str, trace: bool) -> Outcome:
    wl = WORKLOADS[workload]
    if wl is None:
        return query_traced(ctx) if trace else query_timed(ctx)
    return cli_traced(ctx, wl) if trace else cli_timed(ctx, wl)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mertenslab" / "cli.py").is_file():
        print(f"error: no mertenslab source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        result = run(Context(work, env, args.seconds, args.seed),
                     args.workload, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    if args.workload == "query-1e7" and not args.trace:
        for alias, name, scale, unit in QUERY_ALIASES:
            print(f"{args.workload} {alias} "
                  f"{metrics[name]['value'] * scale!r} {unit}")
    print(f"{args.workload} fail_ratio "
          f"{result.failed / max(result.attempted, 1)!r} "
          f"({result.failed}/{result.attempted})")
    print(json.dumps({"correct": result.failed == 0 and result.attempted > 0,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
