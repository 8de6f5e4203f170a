"""Pinned digests of every suite's records at 20 cases, seed 0.

A refactor that moves one byte of one record fails here.  A re-pin needs a
CHANGES.md entry that names the moved records and says why they moved.

Print the digests for the running interpreter (no pytest needed) with

    PYTHONPATH=src:tests python tests/test_report_digest.py
"""

import ast
import hashlib
import pathlib

import geodiff
from geodiff.cli import SUITES, RunConfig, run

DIGESTS = {
    "theorems": "22c1eb4bb8652a87cce75532f92220a6f61d88455dcb02b382410c93f2ba1a5b",
    "derive": "439d1566d091a350d2ecfbf303279a9241f5dd12b08213c43ab8b887ecfd2e26",
    "scale": "6341e9228bbe47d6af412bbf215aeb86d6d90ae4a536a483055f497163573273",
    "roots": "efa293d02fc4de7a108283d89b9fd9b838fe8d019f3e7f8c8f2a11ef8b72149e",
    "all": "91f8be5a6ee4cedec68584e1a8711fad4f8dc89a7ebe55872f11bbec831d4dbc",
}


def record_digest(suite: str) -> str:
    """sha256 over the repr of every record of a 20-case seed-0 run."""
    h = hashlib.sha256()
    for r in run(RunConfig(suite=suite, cases=20, seed=0)).records:
        fields = tuple(getattr(r, name) for name in r.__slots__)
        h.update(repr(fields).encode() + b"\n")
    return h.hexdigest()


def test_record_digests():
    assert {suite: record_digest(suite) for suite in SUITES} == DIGESTS


def test_builtin_sum_counts_failures_only():
    # a builtin sum of floats rounds differently from Python 3.12 on, which
    # would split the digests above by interpreter; math.fsum does not
    found = [(path.name, ast.unparse(node))
             for path in sorted(pathlib.Path(geodiff.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "sum"]
    # cli.run counts failed records in its one summary pass, without a sum
    assert found == []


def test_formulas_kernels_are_plain_arithmetic():
    # libm pow rounds differently from products, so a `**` would move the
    # exact scale records and split a carrier's real part from the float
    # value; a type test would be a second path that one number type skips
    path = pathlib.Path(geodiff.__file__).parent / "formulas.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(getattr(node, "op", None), ast.Pow)
             or isinstance(node, ast.Call)
             and getattr(node.func, "id", "") == "isinstance"]
    assert found == []
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    assert imported == [("dual", "atan"), ("dual", "sin"), ("dual", "sqrt")]


if __name__ == "__main__":
    for suite in SUITES:
        print(f'    "{suite}": "{record_digest(suite)}",')
