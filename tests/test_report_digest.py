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
    "derive": "d772742958e9553af2d85e10b8ee1503c7b7349bec5551ad31f0cd16c54bcd93",
    "scale": "c4796e49bfba9a65bf073862b10469e5abf2caa64e3bebc3523d3e3bba342ed5",
    "roots": "eb8556a3dd4fe75994a671e1279d7a6f7f2cbe74064dc47b914706a3d7b8fef7",
    "all": "014d3fa6f0831d839d547d1cd9d0819dad1ec2263b7846aaf54c97fa75ffdb75",
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
