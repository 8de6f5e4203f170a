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
    "theorems": "158c63d8096d5de84c3f8e21269b70b8a7149578e2c25052c6c45231032955a8",
    "derive": "013023b91c29c696b738654f726b30de7857dd93836aa3a6d4e8147ed011ef29",
    "scale": "faa5157611d46683ba3564b8d33de96a859069a50f13ceca4f7a1dea99ab8a21",
    "roots": "e14af4f79683be03e797d2be02ac66c9e74fde6e5abb70e6619f693bea8bd0a6",
    "all": "dc610ec4795ee622d85419772cd6e68c85bc9b26bff7fcf517dec4830429872f",
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
