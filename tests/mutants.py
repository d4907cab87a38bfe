"""The mutant register: small wrong edits of src/ that named tests must
catch, kept so that a test that stops biting is noticed.

    python tests/mutants.py            every mutant
    python tests/mutants.py ID ...     the named ones

Run it from any directory; it finds the repository from its own path.
Each mutant is (id, file, old text, new text, test ids). For each, the
runner copies src/ to a temporary directory, replaces the one occurrence
of the old text in the copied file, and runs only the mutant's tests,
with PYTHONPATH set to the copy. The mutant is killed when every named
test fails. The runner exits 1 when a mutant survives (a named test
passes, errors, skips or is not found) or is stale (its old text no
longer occurs exactly once: update the mutant with the code, never drop
it). Standard library only. It runs beside the tier-1 suite, not inside
it, since its time grows with the register.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_HAIR = "tests/test_verdict_rule.py::test_"

MUTANTS = [
    ("worst-case-floor", "src/mertenslab/outcomes.py",
     "passed = w.margin > 0.0 if strict else w.margin >= 0.0",
     "passed = w.margin > -1e-9 if strict else w.margin >= -1e-9",
     [_HAIR + "binomial_bounds_fail_by_a_hair",
      _HAIR + "psi_dyadic_fails_by_a_hair",
      _HAIR + "interval_primorial_fails_by_a_hair",
      _HAIR + "psi_linear_fails_by_a_hair",
      _HAIR + "primorial_bound_fails_by_a_hair",
      _HAIR + "reciprocal_lower_fails_by_a_hair",
      "tests/test_outcomes.py::test_worst_case_strict[-5e-324-False-False]"]),
    ("psi-theta-equal-below-4", "src/mertenslab/arith.py",
     "diff[xs < 4] == 0.0", "diff[xs < 4] <= 1e-12",
     [_HAIR + "psi_theta_dominance_fails_on_theta_lowered_below_4"]),
    ("psi-theta-log-2-from-4", "src/mertenslab/arith.py",
     "diff[xs >= 4] >= math.log(2)", "diff[xs >= 4] > math.log(2) - 1e-9",
     [_HAIR + "psi_theta_dominance_fails_just_under_log_2_at_4"]),
    ("psi-linear-pair-late", "src/mertenslab/suites.py",
     "if not 0 < c1 < c2:", "if not 0 < c1:",
     ["tests/test_cli.py::test_verify_bad_psi_linear_pair"]),
    ("prime-parts-last-block", "src/mertenslab/arith.py",
     "return np.append(terms, parts) if parts else terms",
     "return np.append(terms[:0], parts) if parts else terms[:0]",
     ["tests/test_arith.py::test_chebyshev_psi",
      "tests/test_arith.py::test_theta_log_primorial",
      "tests/test_partial_sums.py::"
      "test_series_streams_to_the_whole_array_sum[1000000-777]"]),
    ("prime-parts-higher-powers", "src/mertenslab/arith.py",
     "np.concatenate((block, q), dtype=np.float64)",
     "np.concatenate((block, q[:0]), dtype=np.float64)",
     ["tests/test_arith.py::test_chebyshev_psi",
      "tests/test_arith.py::test_cumulative_tables_match_point_ops",
      "tests/test_partial_sums.py::test_sum_lambda_over_n_examples",
      "tests/test_partial_sums.py::test_log_zeta_truncation"]),
    ("prime-parts-above", "src/mertenslab/arith.py",
     'ps = ps[ps.searchsorted(above, side="right"):]',
     'ps = ps[ps.searchsorted(above, side="right") + 1:]',
     ["tests/test_density.py::test_rough_tail_sum"]),
    ("g-count-quotient-groups", "src/mertenslab/density.py",
     "- (r + 1) * small.size", "- r * small.size",
     ["tests/test_point_sums.py::test_g_count_by_quotient_groups_at_every_x"]),
    ("factorize-prime", "src/mertenslab/sieve.py",
     "p = spf.item(m) or m", "p = spf.item(m)",
     ["tests/test_sieve.py::test_factorize_matches_trial_division",
      "tests/test_sieve.py::test_factorize_examples"]),
]


def _outcomes(report: Path) -> dict[str, str]:
    """Test id -> passed, failed, error or skipped, from a JUnit report."""
    seen = {}
    for case in ET.parse(report).iter("testcase"):
        test = (case.get("classname").replace(".", "/") + ".py::"
                + case.get("name"))
        kinds = [c.tag for c in case if c.tag in ("failure", "error",
                                                  "skipped")]
        seen[test] = {"failure": "failed"}.get(kinds[0], kinds[0]) \
            if kinds else "passed"
    return seen


def run(mutant) -> str | None:
    """None when the mutant is killed, else why the runner must fail."""
    _, rel, old, new, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / rel
        text = target.read_text()
        if text.count(old) != 1:
            return (f"stale: the old text occurs {text.count(old)} times "
                    f"in {rel}, not once")
        target.write_text(text.replace(old, new))
        path = [str(copy), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(path)}
        where = subprocess.run(
            [sys.executable, "-c",
             "import mertenslab; print(mertenslab.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True).stdout
        if not where.startswith(str(copy)):
            return f"the tests would import mertenslab from {where.strip()!r}"
        report = Path(tmp) / "report.xml"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--junitxml", str(report), *tests],
            env=env, cwd=ROOT, capture_output=True, text=True)
        seen = _outcomes(report) if report.exists() else {}
        alive = [f"{t} {seen.get(t, 'not run')}" for t in tests
                 if seen.get(t) != "failed"]
        if alive:
            return "not killed: " + "; ".join(alive) + "\n" + "\n".join(
                proc.stdout.splitlines()[-5:])
    return None


def main(ids: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    if unknown := [i for i in ids if i not in known]:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed, start = 0, time.perf_counter()
    for mutant in MUTANTS:
        if ids and mutant[0] not in ids:
            continue
        t = time.perf_counter()
        why = run(mutant)
        failed += why is not None
        print(f"{'killed' if why is None else 'FAIL'} {mutant[0]} "
              f"({time.perf_counter() - t:.1f} s)"
              + (f": {why}" if why else ""))
    print(f"{failed} of {len(ids) or len(MUTANTS)} mutants not killed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
