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

Point = tuple[float, float]


class OracleError(ValueError):
    pass


class InvariantViolation(OracleError):
    """A construction failed to reproduce its defining property."""


dist = math.dist


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


def embed_triangle(x: float, y: float, z: float) -> tuple[Point, Point, Point]:
    """Vertices A=(0,0), B=(z,0), C above the z-side, the measurements' input.

    The foot offset of the altitude from C follows from equating the two
    right-triangle expressions for its height: t0 = (x^2 - y^2 + z^2)/(2z).
    """
    t0 = (x * x - y * y + z * z) / (2.0 * z)
    h2 = x * x - t0 * t0
    if h2 <= 0.0:
        raise InvariantViolation(
            f"no positive altitude for sides ({x}, {y}, {z})")
    return (0.0, 0.0), (z, 0.0), (t0, math.sqrt(h2))


def measure_median(a: Point, b: Point, c: Point) -> float:
    return dist(c, _lerp(a, b, 0.5))


def measure_cevian(a: Point, b: Point, c: Point, m: float, n: float) -> float:
    """Cevian from C to the point of AB at distance n from B."""
    z = dist(a, b)
    if abs(z - (m + n)) > 1e-9 * max(z, m + n):
        raise OracleError(f"split m+n={m + n} does not match |AB|={z}")
    foot = _lerp(b, a, n / z)
    return dist(c, foot)


def measure_area(a: Point, b: Point, c: Point) -> float:
    return shoelace([a, b, c])


def measure_angle_gamma(a: Point, b: Point, c: Point) -> float:
    return _angle_at(c, a, b)


def measure_bisector_full(a: Point, b: Point, c: Point) -> float:
    """The bisector foot divides AB in the ratio |AC| : |CB| from A."""
    x, y = dist(a, c), dist(b, c)
    foot = _lerp(a, b, x / (x + y))
    return dist(c, foot)


def incenter(a: Point, b: Point, c: Point) -> Point:
    """Side-opposite-weighted vertex average."""
    wa, wb, wc = dist(b, c), dist(a, c), dist(a, b)
    s = wa + wb + wc
    return ((wa * a[0] + wb * b[0] + wc * c[0]) / s,
            (wa * a[1] + wb * b[1] + wc * c[1]) / s)


def measure_bisector_to_incenter(a: Point, b: Point, c: Point) -> float:
    return dist(c, incenter(a, b, c))


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Perpendicular-bisector intersection."""
    mid_ab = _lerp(a, b, 0.5)
    mid_ac = _lerp(a, c, 0.5)
    perp_ab = (a[1] - b[1], b[0] - a[0])
    perp_ac = (a[1] - c[1], c[0] - a[0])
    return line_intersection(mid_ab, perp_ab, mid_ac, perp_ac)


def measure_circumradius(a: Point, b: Point, c: Point) -> float:
    return dist(circumcenter(a, b, c), a)


def measure_inradius(a: Point, b: Point, c: Point) -> float:
    """Distance from the incenter to the AB side line."""
    i = incenter(a, b, c)
    ux, uy = b[0] - a[0], b[1] - a[1]
    cross = ux * (i[1] - a[1]) - uy * (i[0] - a[0])
    return abs(cross) / math.hypot(ux, uy)


def measure_euler_distance(a: Point, b: Point, c: Point) -> float:
    return dist(circumcenter(a, b, c), incenter(a, b, c))


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


def embed_cyclic(radius: float, a: float, b: float,
                 c: float) -> tuple[Point, Point, Point, Point]:
    """The vertices radius * (cos 2 pi t, sin 2 pi t) at t = 0, a, b, c.

    With 0 < a < b < c < 1 they follow each other counterclockwise within
    one turn of the circle of that radius about the origin, so they span a
    convex cyclic quadrilateral, side i from vertex i to vertex i+1.  The
    circumcenter lies inside it exactly when no arc exceeds half a turn.
    Cuts out of that order raise OracleError.
    """
    if not 0.0 < a < b < c < 1.0:
        raise OracleError(f"cuts ({a}, {b}, {c}) must increase inside (0, 1)")
    tau, cos, sin = 2.0 * math.pi, math.cos, math.sin
    ta, tb, tc = tau * a, tau * b, tau * c
    return ((radius * cos(0.0), radius * sin(0.0)), (radius * cos(ta), radius * sin(ta)),
            (radius * cos(tb), radius * sin(tb)), (radius * cos(tc), radius * sin(tc)))


def cyclic_sides(points) -> tuple[float, float, float, float]:
    """The four consecutive chords of embed_cyclic's vertices, side i from
    vertex i to vertex i+1: the closed forms' inputs, measured."""
    p, q, s, t = points
    return dist(p, q), dist(q, s), dist(s, t), dist(t, p)


def cyclic_diagonal(points) -> float:
    """Diagonal of embed_cyclic's vertices from the (v,x) one to the (y,u) one."""
    return dist(points[0], points[2])


def cyclic_area(points) -> float:
    """Shoelace area of embed_cyclic's vertices."""
    return shoelace(list(points))
