"""Coordinate-geometry ground truth.

Everything here builds explicit vertex coordinates and measures lengths,
areas and angles directly from them — midpoints, section points, shoelace,
perpendicular-bisector intersections, atan2.  No closed-form theorem
expression from ``formulas``/``geom`` is ever used, so agreement between the
two modules is a genuine cross-check.

All measurement helpers are frame-free: they keep working after the embedding
points have been rotated or translated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Point = tuple[float, float]

TOTAL_ANGLE_TOL = 1e-13   # solver target on the central-angle sum
CHORD_TOL = 1e-10         # relative chord-length reproduction


class OracleError(ValueError):
    pass


class NotConstructibleError(OracleError):
    """No circumscribed circle with the center inside the polygon."""


class InvariantViolation(OracleError):
    """A construction failed to reproduce its defining property."""


def dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _lerp(p: Point, q: Point, t: float) -> Point:
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


def _angle_at(apex: Point, p: Point, q: Point) -> float:
    """Unsigned angle p-apex-q in (0, pi), via atan2."""
    v1 = (p[0] - apex[0], p[1] - apex[1])
    v2 = (q[0] - apex[0], q[1] - apex[1])
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    dot = v1[0] * v2[0] + v1[1] * v2[1]
    return math.atan2(abs(cross), dot)


def shoelace(points: list[Point]) -> float:
    acc = 0.0
    for i, (px, py) in enumerate(points):
        qx, qy = points[(i + 1) % len(points)]
        acc += px * qy - qx * py
    return abs(acc) / 2.0


def line_intersection(p1: Point, d1: Point, p2: Point, d2: Point) -> Point:
    """Intersection of the lines p1 + t*d1 and p2 + u*d2 (Cramer's rule)."""
    det = d1[0] * (-d2[1]) - (-d2[0]) * d1[1]
    if det == 0.0:
        raise InvariantViolation("parallel lines do not intersect")
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    t = (rx * (-d2[1]) - (-d2[0]) * ry) / det
    return (p1[0] + t * d1[0], p1[1] + t * d1[1])


@dataclass(frozen=True)
class TriangleEmbedding:
    """Vertices with |AC| = x, |BC| = y, |AB| = z; C is the gamma vertex."""

    a: Point
    b: Point
    c: Point


def embed_triangle(t) -> TriangleEmbedding:
    """Canonical embedding A=(0,0), B=(z,0), C above the z-side.

    The foot offset of the altitude from C follows from equating the two
    right-triangle expressions for its height: t0 = (x^2 - y^2 + z^2)/(2z).
    """
    x, y, z = t.x, t.y, t.z
    t0 = (x * x - y * y + z * z) / (2.0 * z)
    h2 = x * x - t0 * t0
    if h2 <= 0.0:
        raise InvariantViolation(
            f"no positive altitude for sides ({x}, {y}, {z})")
    return TriangleEmbedding((0.0, 0.0), (z, 0.0), (t0, math.sqrt(h2)))


def measure_median(e: TriangleEmbedding) -> float:
    return dist(e.c, _lerp(e.a, e.b, 0.5))


def measure_cevian(e: TriangleEmbedding, m: float, n: float) -> float:
    """Cevian from C to the point of AB at distance n from B."""
    z = dist(e.a, e.b)
    if abs(z - (m + n)) > 1e-9 * max(z, m + n):
        raise OracleError(f"split m+n={m + n} does not match |AB|={z}")
    foot = _lerp(e.b, e.a, n / z)
    return dist(e.c, foot)


def measure_area(e: TriangleEmbedding) -> float:
    return shoelace([e.a, e.b, e.c])


def measure_angle_gamma(e: TriangleEmbedding) -> float:
    return _angle_at(e.c, e.a, e.b)


def measure_bisector_full(e: TriangleEmbedding) -> float:
    """The bisector foot divides AB in the ratio |AC| : |CB| from A."""
    x = dist(e.a, e.c)
    y = dist(e.b, e.c)
    foot = _lerp(e.a, e.b, x / (x + y))
    return dist(e.c, foot)


def incenter(e: TriangleEmbedding) -> Point:
    """Side-opposite-weighted vertex average."""
    wa = dist(e.b, e.c)
    wb = dist(e.a, e.c)
    wc = dist(e.a, e.b)
    s = wa + wb + wc
    return ((wa * e.a[0] + wb * e.b[0] + wc * e.c[0]) / s,
            (wa * e.a[1] + wb * e.b[1] + wc * e.c[1]) / s)


def measure_bisector_to_incenter(e: TriangleEmbedding) -> float:
    return dist(e.c, incenter(e))


def circumcenter(e: TriangleEmbedding) -> Point:
    """Perpendicular-bisector intersection."""
    mid_ab = _lerp(e.a, e.b, 0.5)
    mid_ac = _lerp(e.a, e.c, 0.5)
    perp_ab = (e.a[1] - e.b[1], e.b[0] - e.a[0])
    perp_ac = (e.a[1] - e.c[1], e.c[0] - e.a[0])
    return line_intersection(mid_ab, perp_ab, mid_ac, perp_ac)


def measure_circumradius(e: TriangleEmbedding) -> float:
    return dist(circumcenter(e), e.a)


def measure_inradius(e: TriangleEmbedding) -> float:
    """Distance from the incenter to the AB side line."""
    i = incenter(e)
    ux, uy = e.b[0] - e.a[0], e.b[1] - e.a[1]
    cross = ux * (i[1] - e.a[1]) - uy * (i[0] - e.a[0])
    return abs(cross) / math.hypot(ux, uy)


def measure_euler_distance(e: TriangleEmbedding) -> float:
    return dist(circumcenter(e), incenter(e))


# --- independent constructions for the non-triangle operations -----------------


def right_triangle_hypotenuse(x: float, y: float) -> float:
    """Legs on the axes; the hypotenuse is measured, not computed."""
    return dist((x, 0.0), (0.0, y))


def third_side_by_construction(x: float, beta: float, gamma: float) -> float:
    """Intersect the two rays leaving the x-side at angles gamma and beta."""
    a = (0.0, 0.0)
    b = (x, 0.0)
    dir_a = (math.cos(gamma), math.sin(gamma))
    dir_b = (-math.cos(beta), math.sin(beta))
    c = line_intersection(a, dir_a, b, dir_b)
    return dist(a, c)


def inscribed_angle_by_construction(theta: float, at: float) -> float:
    """Inscribed angle measured at a point of the complementary arc.

    theta must lie strictly inside (0, 2*pi); ``at`` is the position angle
    of the apex on the complementary arc.
    """
    if not 0.0 < theta < 2.0 * math.pi:
        raise OracleError("central angle must be strictly inside (0, 2*pi)")
    p1 = (math.cos(0.0), math.sin(0.0))
    p2 = (math.cos(theta), math.sin(theta))
    apex = (math.cos(at), math.sin(at))
    return _angle_at(apex, p1, p2)


def measure_trirect(x: float, y: float, z: float) -> float:
    """Half the cross-product magnitude of two edges of the slant face, with
    the perpendicular edges x, y, z on the axes."""
    px = (x, 0.0, 0.0)
    py = (0.0, y, 0.0)
    pz = (0.0, 0.0, z)
    u = (py[0] - px[0], py[1] - px[1], py[2] - px[2])
    v = (pz[0] - px[0], pz[1] - px[1], pz[2] - px[2])
    cx = u[1] * v[2] - u[2] * v[1]
    cy = u[2] * v[0] - u[0] * v[2]
    cz = u[0] * v[1] - u[1] * v[0]
    return math.sqrt(cx * cx + cy * cy + cz * cz) / 2.0


# --- cyclic quadrilateral ------------------------------------------------------


@dataclass(frozen=True)
class CyclicEmbedding:
    """Four concyclic vertices; side i runs from vertex i to vertex i+1."""

    radius: float
    thetas: tuple[float, float, float, float]
    points: tuple[Point, Point, Point, Point]


def cyclic_constructible(sides) -> bool:
    """Whether the sides close up on a circle with the center inside.

    With the longest side as a diameter (R = max(sides)/2) the central angles
    2*asin(s/(2R)) must already reach 2*pi; they shrink as R grows.
    """
    lo = max(sides) / 2.0
    return sum(2.0 * math.asin(min(1.0, s / (2.0 * lo))) for s in sides) \
        >= 2.0 * math.pi


def embed_cyclic(q) -> CyclicEmbedding:
    """Place the quadrilateral on its circumcircle.

    The unknown is phi, half the central angle of the longest side s_max.
    On a circle of radius R = s_max / (2 sin phi) side s_i subtends
    2*asin(k_i sin phi) with k_i = s_i / s_max, so the sides close up where

        f(phi) = 2 phi + sum_{i != max} 2 asin(k_i sin phi) - 2 pi = 0.

    f is increasing and concave on [0, pi/2], f(0) = -2 pi, and
    ``cyclic_constructible`` is f(pi/2) >= 0, so Newton's method started
    left of the root climbs to it without overshooting.  The bracket
    [0, pi/2] is kept, and a step that leaves it, or a non-finite one, falls
    back to bisection.  Iteration stops one Newton step after
    |f| < TOTAL_ANGLE_TOL, which leaves f at the rounding level.

    The slope f' = 2 + sum 2 k_i cos phi / sqrt(cos^2 phi + (1 - k_i^2) sin^2 phi)
    stays between 2 and 8, so phi is well conditioned everywhere.  Solving
    for R instead is ill-conditioned near the smallest radius, where s_max is
    almost a diameter and the angle sum has an infinite slope in R.  The
    square root is cos(asin(k sin phi)) without the cancellation of
    1 - k^2 sin^2 phi, and the half angles are atan2 of it and k sin phi.

    Only the all-convex configuration (every central angle < pi, center
    inside) is supported; anything else raises NotConstructibleError.  The
    result must reproduce the angle sum 2 pi to 1e-10 and every side to
    CHORD_TOL, or InvariantViolation is raised.
    """
    sides = q.sides
    if not cyclic_constructible(sides):
        raise NotConstructibleError(
            f"sides {sides} need the center-outside configuration")
    longest = max(range(4), key=sides.__getitem__)
    s_max = sides[longest]
    ks = [s / s_max for i, s in enumerate(sides) if i != longest]
    one_minus_k2 = [(1.0 - k) * (1.0 + k) for k in ks]

    def half_angles(phi: float) -> list[tuple[float, float]]:
        """asin(k_i sin phi) and its derivative in phi, for each k_i."""
        sin, cos = math.sin(phi), math.cos(phi)
        out = []
        for k, c in zip(ks, one_minus_k2):
            root = math.sqrt(cos * cos + c * sin * sin)
            out.append((math.atan2(k * sin, root), k * cos / root))
        return out

    lo, hi = 0.0, 0.5 * math.pi
    # the Newton step from phi = 0, where f = -2 pi and f' = 2 + 2 sum k_i
    phi = min(math.pi / (1.0 + sum(ks)), hi)
    for _ in range(100):
        terms = half_angles(phi)
        err = 2.0 * (phi + sum(a for a, _ in terms)) - 2.0 * math.pi
        if err < 0.0:
            lo = phi
        elif err > 0.0:
            hi = phi
        phi -= err / (2.0 + 2.0 * sum(d for _, d in terms))
        if not lo < phi < hi:  # also catches a non-finite step
            phi = 0.5 * (lo + hi)
        if abs(err) < TOTAL_ANGLE_TOL:
            break  # after one more step, which leaves |f| at rounding level
    terms = half_angles(phi)

    radius = s_max / (2.0 * math.sin(phi))
    halves = iter(terms)
    thetas = tuple(2.0 * phi if i == longest else 2.0 * next(halves)[0]
                   for i in range(4))
    if abs(sum(thetas) - 2.0 * math.pi) > 1e-10:
        raise InvariantViolation(
            f"central angles sum to {sum(thetas)} for sides {sides}")
    at = 0.0
    points = []
    for th in thetas:
        points.append((radius * math.cos(at), radius * math.sin(at)))
        at += th
    for p, pn, s in zip(points, points[1:] + points[:1], sides):
        if abs(dist(p, pn) - s) > CHORD_TOL * s:
            raise InvariantViolation(f"chord {dist(p, pn)} does not match side {s}")
    return CyclicEmbedding(radius, thetas, tuple(points))


def cyclic_diagonal(e: CyclicEmbedding) -> float:
    """Diagonal joining the (v,x) vertex (index 0) and the (y,u) vertex (index 2)."""
    return dist(e.points[0], e.points[2])


def cyclic_area(e: CyclicEmbedding) -> float:
    return shoelace(list(e.points))
