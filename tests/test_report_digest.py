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
    "derive": "5856812033d3fbd3ac73af443e3459597c54b8258da3071db3ab4e89e1ae1a18",
    "scale": "b79065a62f6a06767743dd1cdede6bce696e63197803fdfcf2d0542ad003ca3b",
    "roots": "e14af4f79683be03e797d2be02ac66c9e74fde6e5abb70e6619f693bea8bd0a6",
    "all": "744f825aeb6ab40479a6f4c390de7fa43a13506aeac26511cb5437d8128a97d5",
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
