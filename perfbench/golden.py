"""Reference outputs for the CLI workloads and the checks against them.

``golden_verify_1e7.json`` holds the 29 ``verify --suite all --limit
10000000`` stdout lines and ``--out`` outcomes recorded from the code the
benchmark was defined on, keyed by check name.
"""

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_verify_1e7.json")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(golden: dict, stdout: str | None, out_text: str | None,
                 exit_code: int | None, threads: int) -> tuple[int, int]:
    """(attempted, failed) for one verify run; one attempt per check.

    A check fails when its stdout line or its ``--out`` outcome is
    missing or differs from the reference. Unexpected extra checks count
    as attempted and failed. A run whose checks all match still fails
    once if it exited nonzero, or if its stdout or outcome list is not
    in the reference order, byte for byte.
    """
    lines = golden["lines"]
    outcomes = golden["outcomes"]
    got_lines = {}
    for line in (stdout or "").splitlines():
        fields = line.split(" ", 2)
        got_lines[fields[1] if len(fields) > 1 else line] = line
    got_outcomes = {}
    config_ok = False
    try:
        payload = json.loads(out_text) if out_text is not None else {}
        expected_config = dict(golden["config"], thread_count=threads)
        config_ok = (payload.get("config") == expected_config
                     and payload.get("rows") == [])
        got_outcomes = {o.get("name"): o for o in payload.get("outcomes", [])}
    except (ValueError, AttributeError, TypeError):
        pass
    failed = sum(got_lines.get(name) != lines[name]
                 or got_outcomes.get(name) != outcomes[name]
                 or not config_ok for name in lines)
    extra = len((set(got_lines) | set(got_outcomes)) - set(lines))
    in_order = (stdout == "".join(line + "\n" for line in lines.values())
                and list(got_outcomes) == list(outcomes))
    if failed + extra == 0 and (exit_code != 0 or not in_order):
        failed = 1
    return len(lines) + extra, failed + extra

