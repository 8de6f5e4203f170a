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
moved, each still inside ``ORDER_RANGE``.  The theorems, derive, scale
and all values were re-pinned when ``formulas.bisector_side`` moved to the
cubic in u = z^2 - (a^2 + b^2), whose coefficients do not cancel, and
``oracle.embed_cyclic`` started to stop its Newton climb at the first
iterate that fails to climb: the ``bisector_problem``,
``bisector_problem_z`` and ``bisprob:residual`` records gained accuracy,
and the cyclic ``expected`` values moved by ulps.  The roots and all values
were re-pinned when ``polyroots.track`` started to evaluate P'_t(x) as
(1-t) (gamma S)'(x) + t Q'(x) in one Horner pass over fixed rows instead of
from P'_t's own coefficients: the last bits of ``track`` records moved, the
``quad_sens`` records did not.  Python 3.12 changed
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
    "theorems": "1bfaa11d397020c5c7cbbfab9b89ec0705e88269bebd7962e1c5e3e49794b4d3",
    "derive": "013023b91c29c696b738654f726b30de7857dd93836aa3a6d4e8147ed011ef29",
    "scale": "cc797f03e9d38ec52ff314baa2365fb222c8827462d71ef51cd77a1f686cdd0f",
    "roots": "e14af4f79683be03e797d2be02ac66c9e74fde6e5abb70e6619f693bea8bd0a6",
    "all": "54a55109718f20f0b339764c68232c84572de7712f697b6ea34785c255011438",
}

DIGESTS_PY312 = {
    "theorems": "158c63d8096d5de84c3f8e21269b70b8a7149578e2c25052c6c45231032955a8",
    "derive": "e26eb2b1107b370a13681b5b6625d33946f4f725fc25a2dd3e6d745c8f3ad11a",
    "scale": "faa5157611d46683ba3564b8d33de96a859069a50f13ceca4f7a1dea99ab8a21",
    "roots": "e14af4f79683be03e797d2be02ac66c9e74fde6e5abb70e6619f693bea8bd0a6",
    "all": "f0aeac1876ca07db52fc3823016f6ccf6c707031e57a23af8291148ffad1bcc8",
}


def record_digest(suite: str) -> str:
    """sha256 over the repr of every record of a 20-case seed-0 run."""
    h = hashlib.sha256()
    for r in run(RunConfig(suite=suite, cases=20, seed=0)).records:
        h.update(repr(astuple(r)).encode() + b"\n")
    return h.hexdigest()


def test_roots_records_do_not_depend_on_the_python_version():
    assert DIGESTS["roots"] == DIGESTS_PY312["roots"]


def test_record_digests():
    pinned = DIGESTS_PY312 if sys.version_info >= (3, 12) else DIGESTS
    assert {suite: record_digest(suite) for suite in SUITES} == pinned


if __name__ == "__main__":
    for suite in SUITES:
        print(f'    "{suite}": "{record_digest(suite)}",')
