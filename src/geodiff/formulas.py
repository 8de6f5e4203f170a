"""Closed-form metric expressions on raw scalars.

Every function here accepts plain floats or DualScalar arguments and applies
no input validation: ``sampling`` draws valid inputs, and only
``bisector_side`` fails, with ValueError, when its cubic has no admissible
root.  The angle opposite the z-side (between the x- and y-sides) is always
gamma, and all bisector/median/cevian expressions act on that vertex / the
z-side.  Each relation is stated once, here: the operation table in ``ops``
and the derivation catalog in ``odes`` name these functions.
"""

from __future__ import annotations

import math
import sys

from .dual import DualScalar, atan, sin, sqrt, value

PI = math.pi
F_NOISE = 8.0 * sys.float_info.epsilon  # rounding level of a Horner cubic


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
    forms of mu equal z - (a - b), so the branch taken on the values leaves
    the derivative of a dual argument alone.
    """
    a, b = (x, y) if value(x) >= value(y) else (y, x)
    mu = z - (a - b) if value(b) >= value(z) else b - (a - z)
    return 2.0 * atan(sqrt(((a - b) + z) * mu / ((a + (b + z)) * ((a - z) + b))))


def bisector_full(x, y, z):
    """Internal bisector of gamma, vertex to its foot on the z-side."""
    w = z / (x + y)
    return sqrt(x * y * (1.0 - w * w))


def bisector_to_incenter(x, y, z):
    """Distance from the gamma vertex to the incenter along the bisector."""
    return sqrt(x * y * (x + y - z) / (x + y + z))


def incenter_ratio(x, y, z):
    """bisector_to_incenter / bisector_full; kept as that ratio, since its
    identity with (x+y)/(x+y+z) is what the incenter-ratio checks test."""
    return bisector_to_incenter(x, y, z) / bisector_full(x, y, z)


def trirect_face_area(x, y, z):
    """Area of the face opposite the right corner of a trirectangular tetrahedron."""
    return sqrt((x * y / 2.0) ** 2 + (x * z / 2.0) ** 2 + (y * z / 2.0) ** 2)


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
    """Side opposite beta, given the x-side and its two adjacent angles."""
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
    return 4.0 * PI * r ** 3 / 3.0


# --- inverse bisector problem -------------------------------------------------
#
# Squaring sqrt(((a+b)^2 - z^2)(z^2 - (a-b)^2)) = c/(a b) * z (z^2 - a^2 - b^2)
# gives a cubic in w = z^2.  The positive sign of the 1/(ab) constant is the
# geometric branch (the negative one would force c < 0 on the admissible
# interval); verified by forward evaluation on equilateral and right triangles.
#
# Exactly one root is admissible, and it is the largest.  With
# k = c^2/(a^2 b^2) the monic cubic is P = -g/k, where
# g(w) = ((a+b)^2 - w)(w - (a-b)^2) - k w (w - a^2 - b^2)^2.  P(-inf) < 0,
# P((a-b)^2) >= 0, P(a^2 + b^2) < 0 and P((a+b)^2) > 0, so each of the three
# gaps holds one root and only the largest lies in (a^2 + b^2, (a+b)^2).
# Three real roots make pp < 0 in the depressed form, whose k = 0
# trigonometric term is the largest root: Newton starts there.


def bisector_cubic_coeffs(a, b, c):
    """Monic cubic w^3 + p w^2 + q w + r in w = z^2 for the side opposite c."""
    a2, b2, c2 = a * a, b * b, c * c
    s2 = a2 + b2
    p = (a2 * b2 - 2.0 * c2 * s2) / c2
    q = (c2 * s2 * s2 - 2.0 * a2 * b2 * s2) / c2
    r = a2 * b2 * (a2 - b2) ** 2 / c2
    return p, q, r


def bisector_side(a, b, c):
    """Side opposite the incenter-bisector segment c; ValueError if none.

    a and b are the vertex-to-incenter bisector lengths at the two endpoints
    of the sought side.  The side is sqrt(w) for the largest root w = z^2 of
    the bisector cubic, Newton-polished from its trigonometric start, and
    admissible only strictly inside (a^2 + b^2, (a+b)^2).  Dual arguments are
    supported: a root w of P(w) = w^3 + p w^2 + q w + r moves with the
    coefficients as w' = -(p' w^2 + q' w + r') / P'(w), the root-sensitivity
    formula dw/da_k = -w^k / P'(w), so the float root gets that derivative.
    """
    av, bv, cv = value(a), value(b), value(c)
    p, q, r = bisector_cubic_coeffs(av, bv, cv)
    pp = q - p * p / 3.0
    if not pp < 0.0:
        raise ValueError(f"bisector cubic of ({av}, {bv}, {cv}) lost its real roots")
    qq = 2.0 * p ** 3 / 27.0 - p * q / 3.0 + r
    m = 2.0 * math.sqrt(-pp / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * qq / (pp * m))))
    w = m * math.cos(phi / 3.0) - p / 3.0
    for _ in range(80):
        f = ((w + p) * w + q) * w + r
        fp = (3.0 * w + 2.0 * p) * w + q
        if fp == 0.0:
            w += 1e-9 * max(1.0, abs(w))
            continue
        aw = abs(w)
        noise = F_NOISE * (((aw + abs(p)) * aw + abs(q)) * aw + abs(r))
        w -= f / fp
        if abs(f) <= noise:
            break  # one step after |f| fell to its rounding level
    f = ((w + p) * w + q) * w + r
    scale = max(1.0, abs(p), abs(q), abs(r))
    if abs(f) > 1e-7 * scale * max(1.0, abs(w)) ** 3 \
            or not av * av + bv * bv < w < (av + bv) ** 2:
        raise ValueError(f"no admissible side for bisector lengths ({av}, {bv}, {cv})")
    if not (isinstance(a, DualScalar) or isinstance(b, DualScalar)
            or isinstance(c, DualScalar)):
        return math.sqrt(w)
    pd, qd, rd = bisector_cubic_coeffs(a, b, c)
    return sqrt(DualScalar(w, -((pd.der * w + qd.der) * w + rd.der)
                           / ((3.0 * w + 2.0 * p) * w + q)))
