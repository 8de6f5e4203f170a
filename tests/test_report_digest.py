"""Pinned digests of every suite's records at 20 cases, seed 0.

A refactor that moves one byte of one record fails here.  The theorems,
derive and scale values were pinned when the needle-safe angle became the
``formulas.angle_gamma`` kernel, the bisector cubic's dual root took its
derivative from the root-sensitivity formula, and the cubic's Newton
polish started to stop at its rounding level.  The roots and all
values were re-pinned when the root tracker stopped capping its step at
``1/steps`` (the error estimate alone sets it now, which moves the last bits
of tracked roots) and the ``quad_sens`` reference became a complex-step
derivative (which moves every ``quad_sens`` error).  The scale and all
values were re-pinned when the scale identity of every operation of
dimension >= 1 became one dual pass seeded with n_i x_i instead of a sum
over per-argument partials (same identity, other rounding: the ``rel_err``
of scale identity records moves in its last bits).  The derive and all
values were re-pinned when ``odes.convergence`` started to fit the order
against the step RK4 actually takes (``span/steps``) instead of the nominal
h: only the ``:order`` records of alkashi, terquem, sines and bispart
moved, each still inside ``ORDER_RANGE``.  Python 3.12 changed
float ``sum()`` (compensated) and ``statistics``, which moves the last ulps
of some cyclic theorems records, scale records and derive ``:order``
records, so it has its own set.

Print the digests for the running interpreter (no pytest needed) with

    PYTHONPATH=src:tests python tests/test_report_digest.py
"""

import hashlib
import sys
from dataclasses import astuple

from geodiff.cli import SUITES, RunConfig, run

DIGESTS = {
    "theorems": "1ba7fe00e923fa58f2c7b8d368eb51dbc27eed7a6eb255e6a218ad544c417063",
    "derive": "82c922c366cd437e405ddcf0e46e6a3414f144c776ca90d31fdf47722ff66652",
    "scale": "85e36a7fc8f53d80121731b57cc7bc94c763bcd6ab06e99e2dccb09d2514d608",
    "roots": "5a04b6bdbd3deb18043272e3e8ff4b0791930948d4e4881929dd1e1372f39efe",
    "all": "cc401f528e9a13ff55ae6fbe7c048c6c268d9e8baec82c56507c784a6a8a092d",
}

DIGESTS_PY312 = {
    "theorems": "57bf8a0636e1513687566fc23efe70ce642b0374a0d131ab77b73d92bc58623d",
    "derive": "48223b01554fd1b1f7636a8bf1e09b177db0616ee36aa49d945affcc2fc84021",
    "scale": "dc2960477a22229bcc02786aca5db73390c68b2acdaec5ded6018378b2718951",
    "roots": "5a04b6bdbd3deb18043272e3e8ff4b0791930948d4e4881929dd1e1372f39efe",
    "all": "434200b961f275d0aeae8eb496c673e66a76d50f99dbc27ed87038be575905f2",
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
