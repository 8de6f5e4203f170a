"""Numerical verification of classical metric identities.

Closed-form theorem kernels (formulas), the triangle test (triangle_sides)
and the inverse bisector problem (geom), an independent coordinate-geometry
oracle (oracle), the RK4 and residual checks of the differential
re-derivations (odes), the complex-step homogeneity checker (homogeneity),
the operation table the theorems, derive and scale suites iterate, each op
with the derivations its closed form solves (ops), and a polynomial root
continuation tracker (polyroots), driven by the ``geodiff`` CLI.

``polyroots`` (with ``cmath``) loads on first use, through ``__getattr__``
(PEP 562): only the roots route reads it, and compiling it is a large share
of every other process's set-up.  ``geodiff.polyroots``, ``from geodiff
import polyroots`` and ``from geodiff import *`` work as for the others.
"""

import importlib

__version__ = "0.1.0"

from . import dual, formulas, geom, homogeneity, odes, ops, oracle, sampling

__all__ = ["dual", "formulas", "geom", "homogeneity", "odes", "ops", "oracle",
           "polyroots", "sampling", "__version__"]


def __getattr__(name):
    if name == "polyroots":
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
