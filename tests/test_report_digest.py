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
    "theorems": "a2a796c6476f2f8b8995e9abfc3f90c1f66176010f5e50a1c7731fabc2f5c4a9",
    "derive": "e842414eaace3873bf5f4a953ae552b7c02d71f1867cef41fbca29e52b122be6",
    "scale": "ad5c8e05dfc80e259fcb23e5883ab340ae3d58e55e43ec5b8e498ddb47c50959",
    "roots": "9dfb25e653d560a81cb59d90f214c0e43e7ec1cb8bb3661bcbd382045e88ce4c",
    "all": "158103192ebf4872f16533d3646d80af2e78047223171d2c9764e6a2d2c816cd",
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
