"""Show that every output check of the benchmark fails on a tampered output.

Runs one repeat of each workload at seed 0, checks the real output, then
checks tampered copies of it; each tampered copy must be reported.  Run with
``python3 perfbench/run.py --self-test``.
"""

from __future__ import annotations

import os

from workloads import WORKLOADS, check_results_csv, check_verify, read_reference, results_csv


def _with_field(csv_text: str, column: str, edit) -> str:
    """``csv_text`` with ``edit`` applied to ``column`` of the first data row."""
    lines = csv_text.splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    fields = lines[1].rstrip("\n").split(",")
    fields[col] = edit(fields[col])
    lines[1] = ",".join(fields) + "\n"
    return "".join(lines)


def _bump_last_digit(value: str) -> str:
    return value[:-1] + str((int(value[-1]) + 1) % 10)


def csv_tampers(text: str) -> dict[str, str]:
    return {
        "mean last digit changed": _with_field(text, "mean_utility_per_unit", _bump_last_digit),
        "replications changed": _with_field(text, "replications", lambda v: str(int(v) + 1)),
        "mechanism renamed": _with_field(text, "mechanism", lambda v: v + "x"),
        "row dropped": "".join(text.splitlines(keepends=True)[:-1]),
        "stderr nan": _with_field(text, "stderr", lambda v: "nan"),
        "stderr inf": _with_field(text, "stderr", lambda v: "inf"),
        "stderr negative": _with_field(text, "stderr", lambda v: "-0.5"),
    }


def verify_tampers(runs: list[tuple[int, str]]) -> dict[str, list[tuple[int, str]]]:
    code, text = runs[0]
    first, *rest = text.splitlines(keepends=True)
    return {
        "exit code 1": [(1, text)],
        "one audit failed": [(code, first.replace("status=pass", "status=fail") + "".join(rest))],
        "one audit inconclusive": [
            (code, first.replace("status=pass", "status=inconclusive") + "".join(rest))],
        "no audit lines": [(code, "")],
    }


def _report(workload: str, case: str, problems: list[str], expect_fail: bool) -> bool:
    ok = bool(problems) == expect_fail
    verdict = "fails" if problems else "passes"
    print(f"{workload}: {case}: check {verdict}"
          f"{'' if ok else ' -- UNEXPECTED'}{': ' + problems[0] if problems else ''}")
    return ok


def main(out_root: str) -> int:
    ok = True
    for name in ("trend-grid", "default-column"):
        out_dir = os.path.join(out_root, name)
        os.makedirs(out_dir, exist_ok=True)
        text = results_csv(name, 0, out_dir)
        reference = read_reference(name, 0)
        ok &= _report(name, "real output", check_results_csv(text, reference), False)
        for case, tampered in csv_tampers(text).items():
            ok &= _report(name, case, check_results_csv(tampered, reference), True)

    runs = WORKLOADS["verify"].run([["verify", "--seed", "0"]], out_root)
    ok &= _report("verify", "real output", check_verify(runs), False)
    for case, tampered in verify_tampers(runs).items():
        ok &= _report("verify", case, check_verify(tampered), True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
