"""The benchmark's tracer (``perfbench/tracer.py``) wraps geodiff's functions
by attribute name from outside, so a name it reads that ``src/`` drops breaks
``perfbench/run.py --trace 1``.  ``import geodiff.cli`` leaves
``geodiff.polyroots`` unloaded; in a traced run, the tracer's read of
``geodiff.polyroots`` is what loads it."""

import os
import sys

import geodiff
# the tracer reads geodiff.cli, which `import geodiff` alone does not load
import geodiff.cli  # noqa: F401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import tracer  # noqa: E402


def test_tracer_wraps_every_target_and_restores_it():
    targets = [(owner, attr) for owner, attr, _ in
               tracer.span_targets(geodiff) + tracer.count_targets(geodiff)]
    targets += [(geodiff.formulas, name)
                for name in tracer.public_functions(geodiff.formulas)]
    missing = [(owner.__name__, attr) for owner, attr in targets
               if attr not in vars(owner)]
    assert not missing
    before = [vars(owner)[attr] for owner, attr in targets]
    t = tracer.Tracer()
    t.install(geodiff)
    try:
        during = [vars(owner)[attr] for owner, attr in targets]
    finally:
        t.restore()
    assert all(d is not b for d, b in zip(during, before))
    assert all(vars(owner)[attr] is b for (owner, attr), b in zip(targets, before))
