"""Seeded generators for valid random inputs.

Lengths are log-uniform in [0.1, 10]; triangle and quadrilateral inequalities
are enforced by rejection with a relative degeneracy margin of 1e-3, which
keeps conditioning benign without hiding interesting shapes.  Cyclic
quadrilaterals are also rejected unless ``oracle.cyclic_constructible`` holds
(circumcenter inside).  That is the test ``oracle.embed_cyclic`` starts
with, so the sampler accepts what it would embed without embedding it.
Triangles and cyclic quadrilaterals come as the validated ``geom`` types;
every other draw is a plain tuple of floats.
"""

from __future__ import annotations

import math
import random

from . import geom, oracle

LENGTH_LO = 0.1
LENGTH_HI = 10.0
MARGIN = 1e-3
_LOG_LO = math.log(LENGTH_LO)
_LOG_SPAN = math.log(LENGTH_HI) - _LOG_LO


def length(rng: random.Random) -> float:
    # the float rng.uniform(_LOG_LO, log(LENGTH_HI)) gives, without its frame
    return math.exp(_LOG_LO + _LOG_SPAN * rng.random())


def triangle(rng: random.Random) -> geom.Triangle:
    while True:
        x, y, z = length(rng), length(rng), length(rng)
        tol = MARGIN * (x + y + z)
        if x + y - z > tol and y + z - x > tol and z + x - y > tol:
            return geom.Triangle(x, y, z)


def cevian_split(rng: random.Random, z: float) -> tuple[float, float]:
    """The z-side segments (m, n) cut by a cevian; m is x-adjacent."""
    m = rng.uniform(0.1, 0.9) * z
    return m, z - m


def cyclic_quad(rng: random.Random) -> geom.CyclicQuad:
    """Cyclic quadrilateral constructible with the circumcenter inside."""
    while True:
        s = [length(rng) for _ in range(4)]
        total = math.fsum(s)
        # total - 2v falls as v grows, also when rounded: the longest side decides
        if total - 2.0 * max(s) <= MARGIN * total \
                or not oracle.cyclic_constructible(s):
            continue
        return geom.CyclicQuad(*s)


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
    return geom.incenter_bisector_lengths(triangle(rng))
