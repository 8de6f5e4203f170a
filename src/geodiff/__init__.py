"""Numerical verification of classical metric identities.

Closed-form theorem kernels (formulas), the validated triangle and cyclic
quadrilateral and the inverse bisector problem (geom), an independent
coordinate-geometry oracle (oracle), the differential re-derivations, each
naming the kernel that solves it, with RK4 and residual checks (odes), the
dual-number homogeneity checker (homogeneity), the operation table both
suites iterate (ops), and a polynomial root continuation tracker
(polyroots), driven by the ``geodiff`` CLI.
"""

__version__ = "0.1.0"

from . import dual, formulas, geom, homogeneity, odes, ops, oracle, polyroots, sampling

__all__ = ["dual", "formulas", "geom", "homogeneity", "odes", "ops", "oracle",
           "polyroots", "sampling", "__version__"]
