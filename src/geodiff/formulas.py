"""Closed-form metric expressions on raw scalars.

Each function is plain arithmetic, the same on floats and on the complex
derivative carriers of ``dual``: + - * /, comparisons on ``.real``, and
``dual``'s sqrt, sin and atan; no ``**``, no type test, no input validation.
``sampling`` draws valid inputs, and only ``bisector_side`` fails, with
ValueError, when its cubic in u = z^2 - (a^2 + b^2) has no admissible root.
The angle opposite the z-side (between the x- and y-sides) is always gamma,
and all bisector/median/cevian expressions act on that vertex / the z-side.
Each relation is stated once, here: the operation table in ``ops`` names
these functions, and each op's derivations solve with its function.
"""

from __future__ import annotations

import math

from .dual import atan, sin, sqrt

PI = math.pi


def hypotenuse(x, y):
    """Hypotenuse of a right triangle with legs x and y."""
    return sqrt(x * x + y * y)


def median(x, y, z):
    """Median from the gamma vertex to the midpoint of the z-side."""
    return sqrt((x * x + y * y) / 2.0 - z * z / 4.0)


def cevian(x, y, m, n):
    """Cevian to the z-side, splitting it into m (x-adjacent) and n."""
    return sqrt((n * (x * x - m * m) + m * (y * y - n * n)) / (m + n))


def triangle_area(x, y, z):
    s = (x + y + z) / 2.0
    return sqrt(s * (s - x) * (s - y) * (s - z))


def angle_gamma(x, y, z):
    """Angle between the x- and y-sides (opposite z), in (0, pi).

    Kahan's needle-safe form ("Miscalculating Area and Angles of a
    Needle-like Triangle"): acos of the cosine law loses about
    2*log10(1/gamma) digits on thin triangles, this keeps a few ulps.  Both
    forms of mu equal z - (a - b), so the branch taken on the real parts
    leaves the derivative of a complex-step argument alone.
    """
    a, b = (x, y) if x.real >= y.real else (y, x)
    mu = z - (a - b) if b.real >= z.real else b - (a - z)
    return 2.0 * atan(sqrt(((a - b) + z) * mu / ((a + (b + z)) * ((a - z) + b))))


def bisector_full(x, y, z):
    """Internal bisector of gamma, vertex to its foot on the z-side.

    sqrt(x y (1 - w^2)) with w = z/(x + y), and 1 - w^2 factored as
    (s - z)(s + z)/s^2 with s = x + y.  Near a degenerate triangle 1 - w^2
    cancels, while s - z rounds not at all (Sterbenz) and is the x + y - z
    of bisector_to_incenter, so incenter_ratio stays accurate.
    """
    s = x + y
    return sqrt(x * y * (s - z) * (s + z)) / s


def bisector_to_incenter(x, y, z):
    """Distance from the gamma vertex to the incenter along the bisector."""
    return sqrt(x * y * (x + y - z) / (x + y + z))


def incenter_ratio(x, y, z):
    """bisector_to_incenter / bisector_full; kept as that ratio, since its
    identity with (x+y)/(x+y+z) is what the incenter-ratio checks test."""
    return bisector_to_incenter(x, y, z) / bisector_full(x, y, z)


def trirect_face_area(x, y, z):
    """Area of the face opposite the right corner of a trirectangular tetrahedron."""
    xy, xz, yz = x * y / 2.0, x * z / 2.0, y * z / 2.0
    return sqrt(xy * xy + xz * xz + yz * yz)


def inscribed_angle(theta):
    """Inscribed angle subtending the arc of central angle theta."""
    return theta / 2.0


def circumradius(x, y, z):
    return x * y * z / sqrt((x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z))


def inradius(x, y, z):
    return sqrt((-x + y + z) * (x - y + z) * (x + y - z) / (4.0 * (x + y + z)))


def euler_distance(r, big_r):
    """Distance between incenter and circumcenter from the two radii."""
    return sqrt(big_r * (big_r - 2.0 * r))


def third_side(x, beta, gamma):
    """Side opposite beta, given the x-side and its two adjacent angles.
    At frozen angles it is Thales' map x -> kx."""
    return x * sin(beta) / sin(beta + gamma)


def ptolemy_diagonal(x, y, u, v):
    """Diagonal joining the (v,x) and (y,u) vertices of a cyclic quadrilateral."""
    return sqrt((u * x + v * y) * (v * x + u * y) / (u * v + x * y))


def cyclic_quad_area(x, y, u, v):
    s = (x + y + u + v) / 2.0
    return sqrt((s - x) * (s - y) * (s - u) * (s - v))


def circle_area(r):
    return PI * r * r


def sphere_volume(r):
    return 4.0 * PI * r * r * r / 3.0


# --- inverse bisector problem -------------------------------------------------
#
# Squaring sqrt(((a+b)^2 - z^2)(z^2 - (a-b)^2)) = c/(a b) * z (z^2 - a^2 - b^2)
# gives a cubic in z^2.  The positive sign of the 1/(ab) constant is the
# geometric branch (the negative one would force c < 0 on the admissible
# interval); verified by forward evaluation on equilateral and right triangles.
#
# In u = z^2 - (a^2 + b^2) the first factor is 4a^2 b^2 - u^2, and with
# k = c^2/(a^2 b^2) the cubic is G(u) = k u^3 + B u^2 - C, B = 1 + k(a^2 + b^2),
# C = 4a^2 b^2: no coefficient is a difference, so nothing cancels.
# G(0) = -C < 0 < G(2ab), and G is increasing and convex for u > 0, so its
# one positive root is the admissible one, in (0, 2ab).  Newton starts at
# sqrt(C/B), where G = k (C/B)^(3/2) >= 0 (so at or above the root, and below
# cbrt(C/k) since C k^2 < B^3), and descends to it.


def bisector_cubic_coeffs(a, b, c):
    """(k, B, C) of G(u) = k u^3 + B u^2 - C in u = z^2 - (a^2 + b^2), for the
    side z opposite c."""
    a2b2 = a * a * b * b
    k = c * c / a2b2
    return k, 1.0 + k * (a * a + b * b), 4.0 * a2b2


def bisector_side(a, b, c):
    """Side opposite the incenter-bisector segment c; ValueError if none.

    a and b are the vertex-to-incenter bisector lengths at the two endpoints
    of the sought side.  The side is sqrt(a^2 + b^2 + u) for the one positive
    root u of G, admissible only strictly inside (0, 2ab).  Newton runs on
    the real parts from sqrt(C/B) to the first iterate that fails to descend.
    As du/da_k = -u^k / G'(u), one more step by G(u) minus its real part adds
    u's derivative on complex steps and 0.0 on floats, with no branch.
    """
    kd, bd, cd = bisector_cubic_coeffs(a, b, c)
    k, big_b, big_c = kd.real, bd.real, cd.real
    u = math.sqrt(big_c / big_b)
    while True:
        slope = (3.0 * k * u + 2.0 * big_b) * u
        nxt = u - ((k * u + big_b) * u * u - big_c) / slope
        if not nxt < u:  # also stops a non-finite step
            break
        u = nxt
    if not 0.0 < u < 2.0 * a.real * b.real:
        raise ValueError(
            f"no admissible side for bisector lengths ({a.real}, {b.real}, {c.real})")
    g = (kd * u + bd) * u * u - cd
    u -= (g - g.real) / slope
    return sqrt(a * a + b * b + u)
