"""Pinned digests of every suite's records at 20 cases, seed 0.

A refactor that moves one byte of one record fails here.  The theorems,
derive and scale values were taken from the code before the operation table
replaced the per-suite operation lists; roots and all were re-pinned when the
root tracker's predictor became a Dormand-Prince 5(4) pair, which moves the
last bits of tracked roots.  Python 3.12 changed float ``sum()``
(compensated) and ``statistics``, which moves the last ulps of some cyclic
theorems records, scale records and derive ``:order`` records, so it has its
own set.

Print the digests for the running interpreter (no pytest needed) with

    PYTHONPATH=src:tests python tests/test_report_digest.py
"""

import hashlib
import sys
from dataclasses import astuple

from geodiff.cli import SUITES, RunConfig, run

DIGESTS = {
    "theorems": "0e536df5f537f36f6c4edef20876f26cbc116553fe1bf5c27f1b25f2f74e32e3",
    "derive": "060e7ec7b6df3035ad510a210006cfc061dbeb700cee78a10ce5d7e949b7fe1f",
    "scale": "77bec2e6c875a3eeda9b3084100d005c83d217a3e87dded6f8f236559e699336",
    "roots": "a1cd4d9e1f90bc4f738d0b48c0c2e96f2c4d730ab53bd6c717e75fc27ada63fd",
    "all": "d76b62973e5131e0c737e8408ab44b49128bf176b596363d58e8540b2ad48cd0",
}

DIGESTS_PY312 = {
    "theorems": "d40ab213e1828ca6c18f24fb8f74f87d0064c6dcd9da7c71bf37fff60c7d8879",
    "derive": "ddf41f3be673120128ec8a600a60a1cf12395038e7c31241d487648a28b3c0df",
    "scale": "8f38089f11f8d1c40715c22a5fb9e6d910671a518d0645b505088aafd9edea86",
    "roots": "a1cd4d9e1f90bc4f738d0b48c0c2e96f2c4d730ab53bd6c717e75fc27ada63fd",
    "all": "5fdc7812aab7e7bffc06e62b592438ddccef1e6560527ad2c587024cf2419f3e",
}


def record_digest(suite: str) -> str:
    """sha256 over the repr of every record of a 20-case seed-0 run."""
    h = hashlib.sha256()
    for r in run(RunConfig(suite=suite, cases=20, seed=0)).records:
        h.update(repr(astuple(r)).encode() + b"\n")
    return h.hexdigest()


def test_record_digests():
    pinned = DIGESTS_PY312 if sys.version_info >= (3, 12) else DIGESTS
    assert {suite: record_digest(suite) for suite in SUITES} == pinned


if __name__ == "__main__":
    for suite in SUITES:
        print(f'    "{suite}": "{record_digest(suite)}",')
