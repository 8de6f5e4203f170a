"""Pinned digests of every suite's records at 20 cases, seed 0.

A refactor that moves one byte of one record fails here.  A re-pin needs a
CHANGES.md entry that names the moved records and says why they moved.

Print the digests for the running interpreter (no pytest needed) with

    PYTHONPATH=src:tests python tests/test_report_digest.py
"""

import hashlib
from dataclasses import astuple

from geodiff.cli import SUITES, RunConfig, run

DIGESTS = {
    "theorems": "86960872a65693e358d84b93c31fc6fdf852934b2481c6fe7eab140cb884d66a",
    "derive": "e842414eaace3873bf5f4a953ae552b7c02d71f1867cef41fbca29e52b122be6",
    "scale": "c4796e49bfba9a65bf073862b10469e5abf2caa64e3bebc3523d3e3bba342ed5",
    "roots": "9dfb25e653d560a81cb59d90f214c0e43e7ec1cb8bb3661bcbd382045e88ce4c",
    "all": "b9574f64380a56c0207e6ca5c2b5024a0bc15b5f93c726be5c88eaabaffe7583",
}


def record_digest(suite: str) -> str:
    """sha256 over the repr of every record of a 20-case seed-0 run."""
    h = hashlib.sha256()
    for r in run(RunConfig(suite=suite, cases=20, seed=0)).records:
        h.update(repr(astuple(r)).encode() + b"\n")
    return h.hexdigest()


def test_record_digests():
    assert {suite: record_digest(suite) for suite in SUITES} == DIGESTS


if __name__ == "__main__":
    for suite in SUITES:
        print(f'    "{suite}": "{record_digest(suite)}",')
