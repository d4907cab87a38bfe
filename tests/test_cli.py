import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mertenslab import cli, partial_sums, summation
from mertenslab.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN_1E7 = (Path(__file__).parents[1] / "perfbench"
              / "golden_verify_1e7.json")

def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err

def test_sieve_reports_count(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--limit", "100")
    assert code == 0
    assert out.splitlines()[0] == "25 primes"

def test_sieve_singular_prime(capsys):
    code, out, _ = run_cli(capsys, "sieve", "--limit", "2")
    assert code == 0
    assert out.splitlines()[0] == "1 prime"

def test_sieve_limit_guard(capsys):
    code, _, err = run_cli(capsys, "sieve", "--limit", "1")
    assert code == 2
    assert "limit" in err

def test_table_recip_primes_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--func", "recip-primes",
                           "--xs", "10")
    assert code == 0
    assert out == ("x,observed,predicted,residual\n"
                   "10,1.176190476,1.095529658,0.08066081814\n")

def test_table_psi_empty_predicted(capsys):
    code, out, _ = run_cli(capsys, "table", "--func", "psi", "--xs", "2")
    assert code == 0
    assert out.splitlines()[1] == "2,0.6931471806,,"

def test_table_density_example(capsys):
    code, out, _ = run_cli(capsys, "table", "--func", "density", "--xs", "10")
    assert code == 0
    assert out.splitlines()[1] == "10,0.6,0.6931471806,-0.09314718056"

def test_table_unsorted_xs(capsys):
    code, _, err = run_cli(capsys, "table", "--func", "psi", "--xs", "10,10")
    assert code == 2
    assert "increasing" in err

def test_table_unknown_function(capsys):
    code, _, _ = run_cli(capsys, "table", "--func", "nope", "--xs", "10")
    assert code == 2

def test_table_recip_primes_below_two(capsys):
    # an x outside the table is a usage error, not a verification failure
    for xs in ("1,10", "0,10", "-5,10"):
        code, out, err = run_cli(capsys, "table", "--func", "recip-primes",
                                 "--xs=" + xs)
        assert (xs, code, out) == (xs, 2, "")
        assert err.startswith("error: ") and "outside" in err

def test_table_json_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "rows.json"
    code, _, _ = run_cli(capsys, "table", "--func", "mertens1",
                         "--xs", "10,100,1000", "--format", "json",
                         "--out", str(out_path))
    assert code == 0
    raw = out_path.read_text()
    payload = json.loads(raw)
    assert list(payload) == ["config", "rows", "outcomes"]
    again = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    assert raw == again
    assert payload["rows"][0]["x"] == 10

def test_table_logzeta_predicted_only_for_references(capsys):
    code, out, _ = run_cli(capsys, "table", "--func", "logzeta",
                           "--xs", "1000", "--s", "3")
    assert code == 0
    assert out.splitlines()[1].endswith(",,")
    code, out, _ = run_cli(capsys, "table", "--func", "logzeta",
                           "--xs", "1000", "--s", "2")
    assert "0.4977" in out.splitlines()[1]

def test_table_output_deterministic(capsys):
    args = ("table", "--func", "lambda-sum", "--xs", "10,1000,100000")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2

def test_table_snapshot(capsys):
    # every table function at 10, 100 and 1000, then one JSON table and
    # logzeta at s = 3, byte for byte
    runs = [("--func", func) for func in cli.TABLE_FUNCTIONS]
    runs += [("--func", "recip-primes", "--format", "json"),
             ("--func", "logzeta", "--s", "3")]
    outs = []
    for run in runs:
        code, out, err = run_cli(capsys, "table", "--xs", "10,100,1000", *run)
        assert (run, code, err) == (run, 0, "")
        outs.append(out)
    assert "".join(outs).encode() == (DATA / "table_small.txt").read_bytes()

def test_table_snapshot_past_one_block(capsys):
    # pi(1e6) = 78,498 primes span several blocks of summation.BLOCK;
    # recorded before the point sums were read block by block
    runs = [("--func", func) for func in cli.TABLE_FUNCTIONS]
    runs += [("--func", "logzeta", "--s", "3")]
    outs = []
    for run in runs:
        code, out, err = run_cli(capsys, "table", "--xs", "1000,99991,1000000",
                                 *run)
        assert (run, code, err) == (run, 0, "")
        outs.append(out)
    assert "".join(outs).encode() == (DATA / "table_1e6.txt").read_bytes()

def test_verify_passes_and_writes_json(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities",
                           "--limit", "5000", "--out", str(out_path))
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())
    payload = json.loads(out_path.read_text())
    assert payload["config"]["command"] == "verify"
    assert all(o["passed"] for o in payload["outcomes"])

def test_verify_exit_one_on_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "bounds",
                           "--limit", "1000", "--tol", "mertens1-bound=0.1")
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())

def test_verify_unknown_suite(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "nonsense",
                         "--limit", "1000")
    assert code == 2

def test_verify_unknown_tolerance(capsys, monkeypatch):
    # rejected before any table is built
    def no_table(*args, **kwargs):
        raise AssertionError("sieve built for an unknown tolerance")

    monkeypatch.setattr(cli, "build_sieve", no_table)
    code, _, err = run_cli(capsys, "verify", "--suite", "bounds",
                           "--limit", "1000", "--tol", "bogus=1")
    assert code == 2
    assert "unknown tolerance 'bogus'" in err

def test_verify_bad_psi_linear_pair(capsys, monkeypatch):
    # 0 < c1 < c2 is checked with the names, before any table is built
    def no_table(*args, **kwargs):
        raise AssertionError("sieve built for a bad psi-linear pair")

    monkeypatch.setattr(cli, "build_sieve", no_table)
    for tol in ("psi-linear-c1=2", "psi-linear-c1=1.2", "psi-linear-c1=0",
                "psi-linear-c2=0.2"):
        code, out, err = run_cli(capsys, "verify", "--suite", "all",
                                 "--limit", "10000000", "--tol", tol)
        assert (tol, code, out) == (tol, 2, "")
        assert "need 0 < c1 < c2" in err

def test_verify_zero_threads(capsys, monkeypatch):
    # rejected while the arguments are parsed, before any table is built
    def no_table(*args, **kwargs):
        raise AssertionError("sieve built for a bad thread count")

    monkeypatch.setattr(cli, "build_sieve", no_table)
    code, _, err = run_cli(capsys, "verify", "--suite", "bounds",
                           "--limit", "1000", "--threads", "0")
    assert code == 2
    assert "thread" in err

def test_verify_tiny_limits(capsys):
    # checks whose range is empty at a small limit are left out
    for suite in ("identities", "bounds", "asymptotics", "density"):
        for limit in range(2, 13):
            code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                     "--limit", str(limit))
            assert (suite, limit, code, err) == (suite, limit, 0, "")
            for line in out.splitlines():
                lo, hi = line.split("range=[")[1].split("]")[0].split(",")
                assert int(lo) <= int(hi), line

def test_verify_identities_tiny_limits_snapshot(capsys):
    # empty and one-chunk edges of the whole-range arrays, byte for byte
    outs = []
    for limit in (2, 3, 4, 5, 10, 100, 1000):
        code, out, err = run_cli(capsys, "verify", "--suite", "identities",
                                 "--limit", str(limit), "--threads", "1")
        assert (limit, code, err) == (limit, 0, "")
        outs.append(out)
    assert "".join(outs).encode() == (
        DATA / "verify_identities_small.txt").read_bytes()

def test_verify_density_tiny_limits_snapshot(capsys):
    # limits at and beside p^2 - p and p^2 - 1 for p = 2, 3, 5, 7, where
    # the split-interval spans open and close, byte for byte
    outs = []
    for limit in (2, 3, 5, 6, 7, 19, 20, 21, 41, 42, 43, 100, 1000):
        code, out, err = run_cli(capsys, "verify", "--suite", "density",
                                 "--limit", str(limit), "--threads", "1")
        assert (limit, code, err) == (limit, 0, "")
        outs.append(out)
    assert "".join(outs).encode() == (
        DATA / "verify_density_small.txt").read_bytes()

@pytest.mark.parametrize("suite", ["bounds", "asymptotics"])
def test_verify_step_sweeps_tiny_limits_snapshot(capsys, suite):
    # ranges of one integer, pieces empty or one integer long, and the
    # first limits past each check's lower end, byte for byte
    outs = []
    for limit in (2, 3, 4, 5, 6, 9, 10, 11, 13, 41, 100, 1000):
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--limit", str(limit), "--threads", "1")
        assert (limit, code, err) == (limit, 0, "")
        outs.append(out)
    assert "".join(outs).encode() == (
        DATA / f"verify_{suite}_small.txt").read_bytes()

def test_verify_repeated_suite_runs_once(capsys, tmp_path):
    # each suite runs once, in the order it was first named
    paths = [tmp_path / "density.json", tmp_path / "identities.json",
             tmp_path / "repeated.json"]
    runs = [run_cli(capsys, "verify", *suites, "--limit", "1000",
                    "--out", str(path))
            for suites, path in zip(
                (("--suite", "density"), ("--suite", "identities"),
                 ("--suite", "density", "--suite", "identities",
                  "--suite", "density")), paths)]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[2][1] == runs[0][1] + runs[1][1]
    density, identities, repeated = (
        json.loads(path.read_text())["outcomes"] for path in paths)
    assert repeated == density + identities

def test_verify_thread_count_invariant(capsys):
    base = ("verify", "--suite", "all", "--limit", "20000")
    code1, out1, _ = run_cli(capsys, *base, "--threads", "1")
    code8, out8, _ = run_cli(capsys, *base, "--threads", "8")
    assert code1 == code8 == 0
    assert out1 == out8

def test_verify_all_snapshot(capsys, tmp_path):
    # reference output of the exhaustive per-integer sweeps
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                           "--limit", "100000", "--out", str(out_path))
    assert code == 0
    assert out.encode() == (DATA / "verify_all_1e5.txt").read_bytes()
    assert out_path.read_bytes() == (DATA / "verify_all_1e5.json").read_bytes()

def test_verify_all_snapshot_at_the_smallest_block(capsys, tmp_path,
                                                  monkeypatch):
    # one piece, one anchor block, one integer and one n per block: every
    # stream cut as finely as it goes gives the same bytes
    monkeypatch.setattr(summation, "BLOCK", 1)
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                           "--limit", "100000", "--out", str(out_path))
    assert code == 0
    assert out.encode() == (DATA / "verify_all_1e5.txt").read_bytes()
    assert out_path.read_bytes() == (DATA / "verify_all_1e5.json").read_bytes()

@pytest.mark.parametrize("threads", [1, 2])
def test_verify_all_matches_golden_1e7(capsys, tmp_path, threads):
    # the 1e7 outputs the benchmark checks its runs against, at the thread
    # counts of both verify workloads
    golden = json.loads(GOLDEN_1E7.read_text())
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                           "--limit", "10000000", "--threads", str(threads),
                           "--out", str(out_path))
    assert code == 0
    assert out == "".join(line + "\n" for line in golden["lines"].values())
    assert json.loads(out_path.read_text()) == {
        "config": dict(golden["config"], thread_count=threads), "rows": [],
        "outcomes": list(golden["outcomes"].values())}

def test_constants(capsys):
    # reference output, byte for byte
    code, out, _ = run_cli(capsys, "constants", "--limit", "100000")
    assert code == 0
    assert out.encode() == (DATA / "constants_1e5.txt").read_bytes()

def test_constants_and_verify_share_the_agreement(capsys, monkeypatch):
    # a tail estimate far off fails both commands, with the same delta
    real = partial_sums.meissel_mertens_from_tail

    def off_tail(table, x):
        est = real(table, x)
        return dataclasses.replace(est, value=est.value + 1.0)

    monkeypatch.setattr(partial_sums, "meissel_mertens_from_tail", off_tail)
    code, out, _ = run_cli(capsys, "constants", "--limit", "100000")
    assert code == 1
    agreement = out.splitlines()[2]
    assert agreement.endswith(" FAIL")
    code, out, _ = run_cli(capsys, "verify", "--suite", "asymptotics",
                           "--limit", "100000")
    assert code == 1
    line = next(l for l in out.splitlines() if "mm-route-agreement" in l)
    assert line.startswith("FAIL ")
    delta = agreement.split()[1].removeprefix("delta=")
    assert f"lhs={delta}," in line

def test_verify_mertens2_fails_on_growing_decade_residuals(capsys,
                                                         monkeypatch):
    # M raised by 0.01 leaves every residual inside its c/log x envelope
    # but makes |residual| grow from decade to decade
    monkeypatch.setattr(partial_sums, "MEISSEL_MERTENS_REFERENCE",
                        partial_sums.MEISSEL_MERTENS_REFERENCE + 0.01)
    code, out, _ = run_cli(capsys, "verify", "--suite", "asymptotics",
                           "--limit", "100000")
    assert code == 1
    line = next(l for l in out.splitlines() if "mertens2-residuals" in l)
    assert line.startswith("FAIL ")
    assert float(line.split("margin=")[1].rstrip(")")) > 0.0

def test_constants_limit_guard(capsys):
    code, _, _ = run_cli(capsys, "constants", "--limit", "1000")
    assert code == 2

def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mertenslab.cli", "sieve", "--limit", "30"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "10 primes"

def test_verify_rejects_non_finite_tol(capsys, monkeypatch):
    # inf would switch a gate off and nan would put NaN into the --out JSON
    def no_table(*args, **kwargs):
        raise AssertionError("sieve built for a non-finite tolerance")

    monkeypatch.setattr(cli, "build_sieve", no_table)
    for value in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, "verify", "--suite", "bounds",
                                 "--limit", "1000", "--tol",
                                 "mertens1-bound=" + value)
        assert (value, code, out) == (value, 2, "")
        assert "finite" in err

def test_table_logzeta_rejects_nan_s(capsys):
    code, out, err = run_cli(capsys, "table", "--func", "logzeta",
                             "--xs", "100", "--s", "nan")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "s > 1" in err
