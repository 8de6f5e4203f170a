"""The triangle test and the inverse bisector problem.

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
other vertices.  No shape has a type: a triangle is its sides (x, y, z),
and a cyclic quadrilateral is drawn as four points on a circle
(``sampling.cyclic_quad``, ``oracle.embed_cyclic``), convex and cyclic by
construction.  ``triangle_sides`` tests sides no sampler vouches for,
such as the ones ``bisector_problem_solve`` solves for.
"""

from __future__ import annotations

import math

from . import formulas

EPS_DEG = 1e-12          # relative degeneracy margin on strict inequalities
ROUNDTRIP_TOL = 1e-8     # bisector-problem root acceptance


class GeometryError(ValueError):
    """Base class for all domain violations raised by this module."""


class DomainError(GeometryError):
    """Input outside a function's domain."""


class NoTriangleError(GeometryError):
    """The inverse bisector problem has no admissible solution."""


def _require_positive(**named) -> None:
    for name, v in named.items():
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"{name} must be a positive finite length, got {v!r}")


def triangle_sides(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(x, y, z) if each is positive and finite and each pair exceeds the third
    by more than EPS_DEG times the perimeter; otherwise DomainError."""
    _require_positive(x=x, y=y, z=z)
    margin = EPS_DEG * (x + y + z)
    if x + y - z <= margin or y + z - x <= margin or z + x - y <= margin:
        raise DomainError(f"degenerate triangle sides ({x}, {y}, {z})")
    return (x, y, z)


def incenter_bisector_lengths(x: float, y: float,
                              z: float) -> tuple[float, float, float]:
    """Vertex-to-incenter bisector lengths (a, b, c) at the alpha, beta, gamma
    vertices — the forward map inverted by bisector_problem_solve."""
    f = formulas.bisector_to_incenter
    return (f(y, z, x), f(x, z, y), f(x, y, z))


def bisector_problem_solve(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Recover side lengths (x, y, z) from vertex-to-incenter bisector lengths.

    Each side is the one admissible root of a cubic in its squared length
    (``formulas.bisector_side``; G(u) in u = z^2 - (a^2 + b^2) has one
    positive root).  The lengths are first divided by 2**e with
    e = frexp(max(a, b, c))[1], which is exact and leaves the largest in
    [1/2, 1); the sides are solved and round-tripped at that scale and then
    multiplied back.  They must pass triangle_sides, and their forward map
    must reproduce the rescaled (a, b, c) to relative ROUNDTRIP_TOL.
    Otherwise, and on any arithmetic error, NoTriangleError: on positive
    finite input no other error escapes.
    """
    _require_positive(a=a, b=b, c=c)
    e = math.frexp(max(a, b, c))[1]
    sa, sb, sc = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    try:
        x, y, z = (formulas.bisector_side(sb, sc, sa), formulas.bisector_side(sa, sc, sb),
                   formulas.bisector_side(sa, sb, sc))
        fa, fb, fc = incenter_bisector_lengths(*triangle_sides(x, y, z))
        back = (math.ldexp(x, e), math.ldexp(y, e), math.ldexp(z, e))
    except (ValueError, ArithmeticError) as exc:
        # no admissible root, a DomainError, or a length out of float range
        raise NoTriangleError(
            f"no triangle for bisector lengths ({a}, {b}, {c}): {exc}") from None
    if not (abs(fa - sa) <= ROUNDTRIP_TOL * sa and abs(fb - sb) <= ROUNDTRIP_TOL * sb
            and abs(fc - sc) <= ROUNDTRIP_TOL * sc):
        raise NoTriangleError(
            f"sides {back} do not round-trip to bisector lengths ({a}, {b}, {c})")
    return back
