"""Numerical verification of classical metric identities.

Closed-form theorem kernels (formulas), the triangle test (triangle_sides)
and the inverse bisector problem (geom), an independent coordinate-geometry
oracle (oracle), the RK4 and residual checks of the differential
re-derivations (odes), the complex-step homogeneity checker (homogeneity),
the operation table the theorems, derive and scale suites iterate, each op
with the derivations its closed form solves (ops), and a polynomial root
continuation tracker (polyroots), driven by the ``geodiff`` CLI.
"""

__version__ = "0.1.0"

from . import dual, formulas, geom, homogeneity, odes, ops, oracle, polyroots, sampling

__all__ = ["dual", "formulas", "geom", "homogeneity", "odes", "ops", "oracle",
           "polyroots", "sampling", "__version__"]
