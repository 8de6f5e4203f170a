"""The validated triangle and cyclic quadrilateral, and the inverse bisector
problem.

Conventions, fixed once for the whole package:

==================  =========================================================
symbol              meaning
==================  =========================================================
x, y, z             triangle side lengths; gamma is the angle between the
                    x- and y-sides, i.e. opposite z
alpha, beta         angles opposite x and y respectively
m, n                z-side split of a cevian; m is adjacent to the x-side
x, y, u, v          cyclic quadrilateral sides in cyclic order
r, R                inradius and circumradius
a, b, c             vertex-to-incenter bisector segments at the alpha, beta
                    and gamma vertices (opposite x, y, z respectively)
==================  =========================================================

All angles are radians.  The median/cevian/bisector kernels in ``formulas``
act on the gamma vertex / the z-side; callers permute sides to reach the
other vertices.  Only the two shapes whose checks other code relies on have
a type here: ``sampling`` draws triangles as ``Triangle`` and cyclic
quadrilaterals as ``CyclicQuad``, ``bisector_problem_solve`` accepts only
sides that form a ``Triangle``, and ``oracle.embed_cyclic`` places a
``CyclicQuad``.  Every other draw is a plain tuple of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import formulas

EPS_DEG = 1e-12          # relative degeneracy margin on strict inequalities
ROUNDTRIP_TOL = 1e-8     # bisector-problem root acceptance


class GeometryError(ValueError):
    """Base class for all domain violations raised by this module."""


class DomainError(GeometryError):
    """Input outside a type's domain."""


class NoTriangleError(GeometryError):
    """The inverse bisector problem has no admissible solution."""


def _require_positive(**named) -> None:
    for name, v in named.items():
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"{name} must be a positive finite length, got {v!r}")


@dataclass(frozen=True)
class Triangle:
    """Side lengths of a nondegenerate triangle."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_positive(x=self.x, y=self.y, z=self.z)
        margin = EPS_DEG * (self.x + self.y + self.z)
        for a, b, c in ((self.x, self.y, self.z), (self.y, self.z, self.x),
                        (self.z, self.x, self.y)):
            if a + b - c <= margin:
                raise DomainError(
                    f"degenerate triangle sides ({self.x}, {self.y}, {self.z})")

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class CyclicQuad:
    """Side lengths of a cyclic quadrilateral, in cyclic order."""

    x: float
    y: float
    u: float
    v: float

    def __post_init__(self):
        _require_positive(x=self.x, y=self.y, u=self.u, v=self.v)
        total = self.x + self.y + self.u + self.v
        margin = EPS_DEG * total
        for s in self.sides:
            if total - 2.0 * s <= margin:
                raise DomainError(
                    f"no circumscribed circle for sides {self.sides}")

    @property
    def sides(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.u, self.v)


def incenter_bisector_lengths(t: Triangle) -> tuple[float, float, float]:
    """Vertex-to-incenter bisector lengths (a, b, c) at the alpha, beta, gamma
    vertices — the forward map inverted by bisector_problem_solve."""
    a = formulas.bisector_to_incenter(t.y, t.z, t.x)
    b = formulas.bisector_to_incenter(t.x, t.z, t.y)
    c = formulas.bisector_to_incenter(t.x, t.y, t.z)
    return (a, b, c)


def bisector_problem_solve(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Recover side lengths (x, y, z) from vertex-to-incenter bisector lengths.

    Each side is the one admissible root of a cubic in its squared length
    (``formulas.bisector_side``; a sign count leaves exactly one).  The sides
    must form a Triangle whose forward map reproduces (a, b, c) to relative
    ROUNDTRIP_TOL; otherwise NoTriangleError.
    """
    _require_positive(a=a, b=b, c=c)
    try:
        sides = (formulas.bisector_side(b, c, a), formulas.bisector_side(a, c, b),
                 formulas.bisector_side(a, b, c))
        t = Triangle(*sides)
    except ValueError as exc:  # no admissible root, or a DomainError
        raise NoTriangleError(
            f"no triangle for bisector lengths ({a}, {b}, {c}): {exc}") from None
    fwd = incenter_bisector_lengths(t)
    if not all(abs(got - want) <= ROUNDTRIP_TOL * want
               for got, want in zip(fwd, (a, b, c))):
        raise NoTriangleError(
            f"sides {sides} do not round-trip to bisector lengths ({a}, {b}, {c})")
    return sides
