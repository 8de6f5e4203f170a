"""The validated triangle and the inverse bisector problem.

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
other vertices.  Only the triangle, whose checks other code relies on, has
a type here: ``sampling`` draws triangles as ``Triangle`` and
``bisector_problem_solve`` accepts only sides that form one.  A cyclic
quadrilateral is drawn as four points on a circle (``sampling.cyclic_quad``,
``oracle.embed_cyclic``), so it is convex and cyclic by construction and
needs no type; every other draw is a plain tuple of floats.
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
    (``formulas.bisector_side``; G(u) in u = z^2 - (a^2 + b^2) has one
    positive root).  The lengths are first divided by 2**e with
    e = frexp(max(a, b, c))[1], which is exact and leaves the largest in
    [1/2, 1); the sides are solved and round-tripped at that scale and then
    multiplied back.  They must form a Triangle whose forward map reproduces
    the rescaled (a, b, c) to relative ROUNDTRIP_TOL.  Otherwise, and on any
    arithmetic error, NoTriangleError: on positive finite input no other
    error escapes.
    """
    _require_positive(a=a, b=b, c=c)
    e = math.frexp(max(a, b, c))[1]
    sa, sb, sc = (math.ldexp(v, -e) for v in (a, b, c))
    try:
        sides = (formulas.bisector_side(sb, sc, sa), formulas.bisector_side(sa, sc, sb),
                 formulas.bisector_side(sa, sb, sc))
        fwd = incenter_bisector_lengths(Triangle(*sides))
        back = tuple(math.ldexp(s, e) for s in sides)
    except (ValueError, ArithmeticError) as exc:
        # no admissible root, a DomainError, or a length out of float range
        raise NoTriangleError(
            f"no triangle for bisector lengths ({a}, {b}, {c}): {exc}") from None
    if not all(abs(got - want) <= ROUNDTRIP_TOL * want
               for got, want in zip(fwd, (sa, sb, sc))):
        raise NoTriangleError(
            f"sides {back} do not round-trip to bisector lengths ({a}, {b}, {c})")
    return back
