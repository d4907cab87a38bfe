"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import golden
import oracle
import run
import spans
from spans import Span

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def test_self_time_subtracts_union_of_children():
    tree = [
        Span(1, "root", 0.0, 10.0, None, 0),
        Span(2, "a", 1.0, 4.0, 1, 0),
        Span(3, "b", 3.0, 6.0, 1, 0),      # overlaps a, as in a thread pool
        Span(4, "a.child", 2.0, 3.0, 2, 0),
        Span(5, "late", 9.0, 12.0, 1, 0),  # runs past its parent's end
    ]
    got = spans.self_times(tree)
    assert got[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(3.0)


def test_same_seed_same_queries_other_seed_other_queries():
    first = oracle.draw_queries(random.Random(7), 504)
    assert first == oracle.draw_queries(random.Random(7), 504)
    assert first != oracle.draw_queries(random.Random(8), 504)
    assert {func for func, _ in first} == set(oracle.FUNCS)
    assert all(10 ** 3 <= x <= oracle.LIMIT for _, x in first)


def _golden_outputs(ref, threads=1):
    stdout = "".join(line + "\n" for line in ref["lines"].values())
    payload = {"config": dict(ref["config"], thread_count=threads),
               "rows": [], "outcomes": list(ref["outcomes"].values())}
    return stdout, json.dumps(payload)


def test_reference_output_passes_and_corruptions_fail():
    ref = golden.load_golden()
    assert len(ref["lines"]) == 29
    stdout, out = _golden_outputs(ref, threads=2)
    assert golden.check_verify(ref, stdout, out, 0, 2) == (29, 0)
    assert golden.check_verify(ref, stdout, out, 0, 1) == (29, 29)

    lines = stdout.splitlines(keepends=True)
    corrupted = lines.copy()
    corrupted[3] = corrupted[3].replace("margin=", "margin=-", 1)
    assert golden.check_verify(ref, "".join(corrupted), out, 0, 2) == (29, 1)
    failing = lines.copy()
    failing[5] = "FAIL" + failing[5][4:]
    assert golden.check_verify(ref, "".join(failing), out, 1, 2) == (29, 1)
    assert golden.check_verify(ref, "".join(lines[1:]), out, 0, 2) == (29, 1)
    assert golden.check_verify(ref, stdout, out, 1, 2) == (29, 1)
    assert golden.check_verify(ref, None, None, None, 2) == (29, 29)

    outcomes = json.loads(out)
    outcomes["outcomes"][0]["worst_witness"]["input"] += 1
    assert golden.check_verify(ref, stdout, json.dumps(outcomes), 0, 2) \
        == (29, 1)


def test_oracle_agrees_with_library_and_catches_a_wrong_answer():
    import mertenslab as ml
    limit = 10 ** 5
    table = ml.build_sieve(limit)
    ref = oracle.Oracle(limit)
    queries = oracle.draw_queries(random.Random(3), 405, limit)
    got = [ml.log_zeta_truncation(table, 2.0, x)
           if func == "log_zeta_truncation" else getattr(ml, func)(table, x)
           for func, x in queries]
    want = ref.answers(queries)
    assert oracle.count_misses(got, want) == 0
    i = next(i for i, w in enumerate(want) if isinstance(w, float))
    j = next(j for j, w in enumerate(want) if isinstance(w, int))
    got[i] *= 1 + 1e-9
    got[j] += 1
    assert oracle.count_misses(got, want) == 2


def _verify(argv):
    from mertenslab import cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "mertenslab" or name.startswith("mertenslab.")
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("threads", [1, 2])
def test_wrappers_leave_output_identical_and_are_removed(tmp_path, threads):
    argv = ["verify", "--suite", "all", "--limit", "100000",
            "--threads", str(threads), "--out"]
    plain = _verify(argv + [str(tmp_path / "plain.json")])
    before = _bindings()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        traced = _verify(argv + [str(tmp_path / "traced.json")])
    assert _bindings() == before
    assert traced == plain
    assert (tmp_path / "traced.json").read_bytes() \
        == (tmp_path / "plain.json").read_bytes()

    by_id = {s.sid: s for s in tracer.spans}
    pool = [s for s in tracer.spans if s.name == "suites.run_checks"]
    checks = [s for s in tracer.spans
              if s.name.startswith("suites.") and s not in pool]
    assert len(pool) == 1 and len(checks) == 29
    assert all(s.parent == pool[0].sid for s in checks)
    # the bindings made by ``from .summation import ...`` are wrapped too:
    # arith.fsum, density.fsum, partial_sums.fsum, bounds.compensated_cumsum
    parents = {by_id[s.parent].name for s in tracer.spans
               if s.name == "summation.fsum" and s.parent is not None}
    assert {"suites.selberg-identity", "suites.rough-tail-monotone",
            "partial_sums.log_zeta_truncation"} <= parents
    cumsum_parents = {by_id[s.parent].name for s in tracer.spans
                      if s.name == "summation.compensated_cumsum"}
    assert "bounds.check_reciprocal_lower" in cumsum_parents


def test_fsum_elements_of_a_generator_are_counted():
    from mertenslab import summation
    values = [0.1 * k for k in range(1, 8)]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        from_gen = summation.fsum(v for v in values)
        from_array = summation.fsum(np.array(values))
    assert from_gen == from_array == math.fsum(values)
    assert [s.elems for s in tracer.spans] == [7, 7]


def test_layer_metrics_cover_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())
    names = list(golden.load_golden()["lines"])
    layers = spans.layer_metrics([], [], names, 0.0)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] \
        == [(name, unit) for name, (_, unit) in layers.items()]
    e2e = run.op_metrics([1.0, 2.0], [0.5], 10.0)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == [(name, unit) for name, (_, unit) in e2e.items()]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-t1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
