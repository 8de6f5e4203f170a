"""The operation table: every metric relation, stated once.

An ``Op`` holds a closed form from ``formulas`` (floats or duals), its
dimension table, the scale suite's sampler and, for a theorem operation, the
coordinate construction the theorems suite compares it with.  ``table()`` is
built per call, so it sees whatever ``formulas``, ``oracle`` and ``sampling``
hold then (a tracer wraps them); its order fixes the scale suite's rng stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from . import formulas, oracle, sampling

# theorems records come grouped by the draw they read, in this order
FAMILIES = ("triangle", "pair", "third", "theta", "trirect", "quad")


class Case:
    """Every random draw of one theorems case, in stream order, and the four
    triangle measurements that several operations share.  The cyclic
    embedding waits for the first operation that reads it, so that its
    OracleError lands in that operation's record."""

    def __init__(self, rng: random.Random):
        self.t = t = sampling.triangle(rng)
        self.triangle = t.sides
        self.e = e = oracle.embed_triangle(t)
        self.cevian = (t.x, t.y, *sampling.cevian_split(rng, t.z))
        self.pair = (sampling.length(rng), sampling.length(rng))
        self.third = (sampling.length(rng), *sampling.angle_pair(rng))
        theta = sampling.central_angle(rng)
        self.theta = (theta,)
        self.apex = theta + rng.uniform(0.02, 0.98) * (2.0 * math.pi - theta)
        self.trirect = sampling.trirect(rng)
        self.quad = sampling.cyclic_quad(rng)
        self.quad_sides = self.quad.sides
        # the incenter and circumcenter are rebuilt per measurement
        self.full = oracle.measure_bisector_full(e)
        self.to_incenter = oracle.measure_bisector_to_incenter(e)
        self.r = oracle.measure_inradius(e)
        self.big_r = oracle.measure_circumradius(e)
        self._cyclic = None

    def cyclic(self) -> oracle.CyclicEmbedding:
        if self._cyclic is None:
            self._cyclic = oracle.embed_cyclic(self.quad)
        return self._cyclic


@dataclass(frozen=True)
class Op:
    """One metric relation.  ``point`` and ``oracle`` read a ``Case``: the
    closed form's arguments and the measured value it must reproduce.  An
    operation without an oracle takes part in the scale suite only."""

    name: str
    closed: Callable[..., object]
    out_dim: int
    arg_dims: tuple[int, ...]
    sample: Callable[[random.Random], tuple[float, ...]]
    family: str | None = None
    point: Callable[[Case], tuple[float, ...]] | None = None
    oracle: Callable[[Case], float] | None = None


def table() -> list[Op]:
    """Every closed-form operation, plus the circle-area and sphere-volume laws."""
    length = sampling.length

    def on_triangle(name, closed, out_dim, measure):
        return Op(name, closed, out_dim, (1, 1, 1),
                  lambda rng: sampling.triangle(rng).sides,
                  "triangle", lambda c: c.triangle, measure)

    def on_quad(name, closed, out_dim, measure):
        return Op(name, closed, out_dim, (1, 1, 1, 1),
                  lambda rng: sampling.cyclic_quad(rng).sides,
                  "quad", lambda c: c.quad_sides, lambda c: measure(c.cyclic()))

    def cevian(rng):
        t = sampling.triangle(rng)
        return (t.x, t.y, *sampling.cevian_split(rng, t.z))

    def third(rng):
        beta, gamma = sampling.angle_pair(rng)
        return (length(rng), beta, gamma)

    return [
        Op("hypotenuse", formulas.hypotenuse, 1, (1, 1),
           lambda rng: (length(rng), length(rng)), "pair", lambda c: c.pair,
           lambda c: oracle.right_triangle_hypotenuse(*c.pair)),
        on_triangle("median", formulas.median, 1,
                    lambda c: oracle.measure_median(c.e)),
        Op("cevian", formulas.cevian, 1, (1, 1, 1, 1), cevian, "triangle",
           lambda c: c.cevian, lambda c: oracle.measure_cevian(c.e, *c.cevian[2:])),
        on_triangle("triangle_area", formulas.triangle_area, 2,
                    lambda c: oracle.measure_area(c.e)),
        on_triangle("angle_from_sides", formulas.angle_gamma, 0,
                    lambda c: oracle.measure_angle_gamma(c.e)),
        on_triangle("bisector_full", formulas.bisector_full, 1, lambda c: c.full),
        on_triangle("bisector_to_incenter", formulas.bisector_to_incenter, 1,
                    lambda c: c.to_incenter),
        on_triangle("incenter_ratio", formulas.incenter_ratio, 0,
                    lambda c: c.to_incenter / c.full),
        Op("trirect_face_area", formulas.trirect_face_area, 2, (1, 1, 1),
           sampling.trirect, "trirect", lambda c: c.trirect,
           lambda c: oracle.measure_trirect(*c.trirect)),
        Op("inscribed_angle", formulas.inscribed_angle, 0, (0,),
           lambda rng: (sampling.central_angle(rng),), "theta", lambda c: c.theta,
           lambda c: oracle.inscribed_angle_by_construction(*c.theta, c.apex)),
        on_triangle("circumradius", formulas.circumradius, 1, lambda c: c.big_r),
        on_triangle("inradius", formulas.inradius, 1, lambda c: c.r),
        Op("euler_distance", formulas.euler_distance, 1, (1, 1),
           sampling.incircle_pair, "triangle", lambda c: (c.r, c.big_r),
           lambda c: oracle.measure_euler_distance(c.e)),
        Op("third_side", formulas.third_side, 1, (1, 0, 0), third, "third",
           lambda c: c.third, lambda c: oracle.third_side_by_construction(*c.third)),
        on_quad("ptolemy_diagonal", formulas.ptolemy_diagonal, 1,
                oracle.cyclic_diagonal),
        on_quad("cyclic_quad_area", formulas.cyclic_quad_area, 2, oracle.cyclic_area),
        Op("bisector_problem_z", formulas.bisector_side, 1, (1, 1, 1),
           sampling.bisector_lengths),
        Op("circle_area", formulas.circle_area, 2, (1,), lambda rng: (length(rng),)),
        Op("sphere_volume", formulas.sphere_volume, 3, (1,),
           lambda rng: (length(rng),)),
    ]
