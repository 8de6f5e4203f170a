"""Workload definitions and the correctness check on the reports they write.

A workload is a sequence of ``geodiff`` CLI invocations run in one child
process.  The tolerances below are copied from ``geodiff.cli`` at the commit
that defined this benchmark and are deliberately not read from the code
under test: a change that loosens a gate must still meet these.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

THEOREMS_TOL = 1e-9
SCALE_TOL = 1e-10
LAMBDA_TOL = 1e-12
ROOTS_TOL = 1e-6
SENS_TOL = 1e-5
ENDPOINT_TOL = 1e-7
RESIDUAL_TOL = 1e-8
FINEST_H = "h=0.001"  # the derive suite gates only its smallest default step

THEOREMS_OPS = 17        # records per theorems case
SCALE_OPS = 3 * 19       # registry entries x (identity, lam=0.5, lam=2)
ROOTS_OPS = 2            # track + quad_sens per case
DERIVE_RECORDS = 72      # 17 anchored entries x (3 steps + order) + 4 residual


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``geodiff --suite S --cases N --format F``."""

    suite: str
    cases: int
    fmt: str

    def argv(self, seed: int, output: str) -> list[str]:
        return ["--suite", self.suite, "--cases", str(self.cases),
                "--seed", str(seed), "--format", self.fmt, "--output", output]

    @property
    def expected_records(self) -> int:
        if self.suite == "theorems":
            return THEOREMS_OPS * self.cases
        if self.suite == "scale":
            return SCALE_OPS * self.cases
        if self.suite == "roots":
            return ROOTS_OPS * self.cases
        return DERIVE_RECORDS


# Acceptance scale: criterion 1 (10^4 theorem cases), criterion 7 (100 root
# cases), the scale sweep of scripts/verify_all.py (10^3 cases).
WORKLOADS: dict[str, tuple[Step, ...]] = {
    "theorems": (Step("theorems", 10000, "json"),),
    "roots": (Step("roots", 100, "csv"),),
    "calculus": (Step("derive", 1000, "csv"), Step("scale", 1000, "csv")),
}


def expected_records(workload: str) -> int:
    return sum(step.expected_records for step in WORKLOADS[workload])


def gate(suite: str, op: str, rel_err: float, expected: str,
         actual: str) -> bool | None:
    """Whether a record meets its fixed tolerance; None where no gate applies."""
    if suite == "theorems":
        return rel_err < THEOREMS_TOL
    if suite == "scale":
        return rel_err < (LAMBDA_TOL if ":lam=" in op else SCALE_TOL)
    if suite == "roots":
        return rel_err < (ROOTS_TOL if op == "track" else SENS_TOL)
    if op.endswith(":residual"):
        return rel_err < RESIDUAL_TOL
    if op.endswith(":" + FINEST_H):
        return abs(float(actual) - float(expected)) < ENDPOINT_TOL
    return None  # coarse steps and the order fit: only the passed flag


def read_records(path: str, fmt: str) -> list[dict]:
    """Records of a report as dicts with typed rel_err and passed."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)["records"]
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row["rel_err"] = float(row["rel_err"])
            if row["passed"] not in ("True", "False"):
                raise ValueError(f"passed column holds {row['passed']!r}")
            row["passed"] = row["passed"] == "True"
    return rows


@dataclass
class Check:
    """Outcome of checking one report against its step."""

    records: int
    failed: int
    problems: list[str]


def check_report(step: Step, path: str, summary: dict) -> Check:
    """Check one written report and the summary the run returned.

    A record the suite marked failed is a failed operation, not a wrong
    output.  A problem is a wrong output: a missing or extra record, a pass
    the fixed tolerance rejects, or a summary that disagrees with the report.
    """
    problems = []
    try:
        rows = read_records(path, step.fmt)
    except (OSError, ValueError, KeyError) as exc:
        return Check(0, step.expected_records, [f"{path}: unreadable: {exc}"])
    if len(rows) != step.expected_records:
        problems.append(f"{path}: {len(rows)} records, expected "
                        f"{step.expected_records}")
    failed = 0
    for row in rows:
        if row["suite"] != step.suite:
            problems.append(f"{path}: record of suite {row['suite']!r}")
            break
        if not row["passed"]:
            failed += 1
            continue
        ok = gate(step.suite, row["op"], row["rel_err"], row["expected"],
                  row["actual"])
        if ok is False:
            problems.append(f"{path}: case {row['case_id']} {row['op']} passed "
                            f"with rel_err {row['rel_err']!r}")
    if summary.get("records") != len(rows):
        problems.append(f"{path}: summary counts {summary.get('records')} records")
    if summary.get("failures") != failed:
        problems.append(f"{path}: summary counts {summary.get('failures')} "
                        f"failures, the report {failed}")
    finite = [row["rel_err"] for row in rows if math.isfinite(row["rel_err"])
              and not row["op"].endswith(":order")]
    if summary.get("max_rel_err") != (max(finite) if finite else 0.0):
        problems.append(f"{path}: summary max_rel_err "
                        f"{summary.get('max_rel_err')!r} disagrees with the report")
    return Check(len(rows), failed + max(0, step.expected_records - len(rows)),
                 problems)
