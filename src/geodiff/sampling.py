"""Seeded generators for valid random inputs.

Lengths are log-uniform in [0.1, 10]; the triangle inequality is enforced by
rejection with a relative degeneracy margin of 1e-3, which keeps conditioning
benign without hiding interesting shapes.  A cyclic quadrilateral is drawn as
its construction, a circle and four points on it, so every draw is convex
and cyclic and needs no test; ``oracle`` places the points and measures the
sides.  Every draw is a plain tuple of floats.
"""

from __future__ import annotations

import math
import random

from . import geom

LENGTH_LO = 0.1
LENGTH_HI = 10.0
MARGIN = 1e-3
_LOG_LO = math.log(LENGTH_LO)
_LOG_SPAN = math.log(LENGTH_HI) - _LOG_LO


def length(rng: random.Random) -> float:
    # the float rng.uniform(_LOG_LO, log(LENGTH_HI)) gives, without its frame
    return math.exp(_LOG_LO + _LOG_SPAN * rng.random())


def triangle(rng: random.Random) -> tuple[float, float, float]:
    while True:
        x, y, z = length(rng), length(rng), length(rng)
        tol = MARGIN * (x + y + z)
        if x + y - z > tol and y + z - x > tol and z + x - y > tol:
            return x, y, z


def cevian_split(rng: random.Random, z: float) -> tuple[float, float]:
    """The z-side segments (m, n) cut by a cevian; m is x-adjacent.

    m + n == z exactly: z - n is exact, by Sterbenz when n >= z/2, and
    otherwise it gives back the drawn product itself.
    """
    n = z - rng.uniform(0.1, 0.9) * z
    return z - n, n


def cyclic_quad(rng: random.Random) -> tuple[float, float, float, float]:
    """A circle's radius and three sorted cuts 0 < a < b < c < 1 of its
    perimeter, in turns: with a cut at 0, the vertices that
    ``oracle.embed_cyclic`` places.  The circumcenter falls outside the
    quadrilateral in half the draws.  rng.random() can return 0.0, and a cut
    at 0.0 or two equal cuts would leave a zero side, so such cuts are drawn
    again before the radius is drawn."""
    while True:
        a, b, c = sorted((rng.random(), rng.random(), rng.random()))
        if 0.0 < a < b < c:
            return length(rng), a, b, c


def trirect(rng: random.Random) -> tuple[float, float, float]:
    """Mutually perpendicular edge lengths at a trirectangular corner."""
    return length(rng), length(rng), length(rng)


def incircle_pair(rng: random.Random) -> tuple[float, float]:
    """Inradius and circumradius (r, R), strictly inside Euler's R >= 2r."""
    big_r = length(rng)
    return rng.uniform(0.02, 0.98) * big_r / 2.0, big_r


def angle_pair(rng: random.Random) -> tuple[float, float]:
    """Angles (beta, gamma) with beta + gamma safely below pi."""
    beta = rng.uniform(0.05, math.pi - 0.15)
    gamma = rng.uniform(0.05, math.pi - beta - 0.05)
    return beta, gamma


def central_angle(rng: random.Random) -> float:
    return rng.uniform(0.05, 2.0 * math.pi - 0.05)


def bisector_lengths(rng: random.Random) -> tuple[float, float, float]:
    """Vertex-to-incenter bisector triple realized by some random triangle."""
    return geom.incenter_bisector_lengths(*triangle(rng))
