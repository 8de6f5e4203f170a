"""The operation table: every metric relation, stated once.

An ``Op`` holds a closed form from ``formulas`` (floats or complex steps), its
dimension table, the scale suite's sampler, the differential re-derivations
the closed form solves and, for a theorem operation, the coordinate
construction the theorems suite compares it with.  ``table()`` is built per
call, so it sees whatever ``formulas``, ``oracle`` and ``sampling`` hold then
(a tracer wraps them).  Its order fixes the theorems suite's record order
within a case, the scale suite's rng stream and, after Thales, the derive
suite's record order.

Two right-hand sides differ by a sign from forms sometimes quoted for them;
the quoted forms fail their gates, as ``tests/test_odes.py::TestSigns``
checks:

* bisector-to-incenter: dc/dz = -c (x+y) / ((x+y+z)(x+y-z)) — without the
  leading minus sign the RK4 endpoint misses the kernel's value;
* inradius: the inhomogeneous numerator term is (z-x)(x^2-y^2+z^2), not
  (x-z)(...); with the latter the kernel leaves a large residual.
"""

from __future__ import annotations

import math
import operator
import random
from functools import cached_property
from typing import Callable, NamedTuple

from . import formulas, odes, oracle, sampling

class _Built(cached_property):
    """cached_property without the lock it takes on each first read up to
    Python 3.11: built on first read, then found in the case's __dict__."""

    def __get__(self, case, owner=None):
        if case is None:
            return self
        built = case.__dict__[self.attrname] = self.func(case)
        return built


class Case:
    """Every random draw of one theorems case, in stream order, and the
    constructions that several operations share.  Each construction is built
    when an operation first reads it and kept once built, so that its
    OracleError lands in the record of each operation that reads it.  The
    triangle is drawn first, as its sides; ``e`` is its three vertices.  The
    cyclic quadrilateral is drawn last, as its construction (a radius and
    three cuts, ``sampling.cyclic_quad``); the quad operations' point is the
    sides measured from its vertices, so a failing construction lands in
    both quad records."""

    def __init__(self, rng: random.Random):
        self.triangle = x, y, z = sampling.triangle(rng)
        self.cevian = (x, y, *sampling.cevian_split(rng, z))
        self.pair = (sampling.length(rng), sampling.length(rng))
        self.third = (sampling.length(rng), *sampling.angle_pair(rng))
        theta = sampling.central_angle(rng)
        self.theta = (theta,)
        self.apex = theta + rng.uniform(0.02, 0.98) * (2.0 * math.pi - theta)
        self.trirect = sampling.trirect(rng)
        self.quad = sampling.cyclic_quad(rng)

    e = _Built(lambda c: oracle.embed_triangle(*c.triangle))
    cyclic = _Built(lambda c: oracle.embed_cyclic(*c.quad))
    quad_sides = _Built(lambda c: oracle.cyclic_sides(c.cyclic))
    # the incenter and circumcenter are rebuilt per measurement
    full = _Built(lambda c: oracle.measure_bisector_full(*c.e))
    to_incenter = _Built(lambda c: oracle.measure_bisector_to_incenter(*c.e))
    r = _Built(lambda c: oracle.measure_inradius(*c.e))
    big_r = _Built(lambda c: oracle.measure_circumradius(*c.e))


def _heron_discriminant(x, y, z):
    """16 * area^2, kept as a polynomial for the linear right-hand sides."""
    return (2.0 * ((y * y) * (z * z) + (x * x) * (z * z) + (x * x) * (y * y))
            - x ** 4 - y ** 4 - z ** 4)


class Op(NamedTuple):
    """One metric relation.  ``point`` and ``oracle`` read a ``Case``: the
    closed form's arguments and the measured value it must reproduce.  An
    operation without an oracle takes no part in the theorems suite.
    ``derive`` holds the derivations that ``closed`` solves, each as
    ``(name, s_range, params, rhs, at, anchor)``; see ``derivations``."""

    name: str
    closed: Callable[..., object]
    out_dim: int
    arg_dims: tuple[int, ...]
    sample: Callable[[random.Random], tuple[float, ...]]
    point: Callable[[Case], tuple[float, ...]] | None = None
    oracle: Callable[[Case], float] | None = None
    derive: tuple[tuple, ...] = ()


# Thales' map s -> k s has a derivation but no op, as an op would add
# theorems and scale records; the parallel-side map sends 0 to 0
THALES = odes.OdeProblem("thales", (0.0, 2.0), {"k": 1.5}, lambda k, s, f: k,
                         operator.mul, 1, 0.0)


def derivations() -> list[odes.OdeProblem]:
    """All twenty-one derivations: Thales, then each op's in table order, each
    solved by its op's closed form with s at argument position ``at``."""
    return [THALES, *(odes.OdeProblem(name, s_range, params, rhs, op.closed, at, anchor)
                      for op in table()
                      for name, s_range, params, rhs, at, anchor in op.derive)]


def table() -> list[Op]:
    """Every closed-form operation, plus the circle-area and sphere-volume laws.
    The comment above each derivation says why its anchor holds."""
    length = sampling.length
    sq13 = math.sqrt(13.0)

    def on_triangle(name, closed, out_dim, measure, *derive):
        return Op(name, closed, out_dim, (1, 1, 1), sampling.triangle,
                  lambda c: c.triangle, measure, derive)

    def on_quad(name, closed, out_dim, measure, *derive):
        return Op(name, closed, out_dim, (1, 1, 1, 1),
                  lambda rng: oracle.cyclic_sides(
                      oracle.embed_cyclic(*sampling.cyclic_quad(rng))),
                  lambda c: c.quad_sides, lambda c: measure(c.cyclic), derive)

    def cevian(rng):
        x, y, z = sampling.triangle(rng)
        return (x, y, *sampling.cevian_split(rng, z))

    def third(rng):
        beta, gamma = sampling.angle_pair(rng)
        return (length(rng), beta, gamma)

    return [
        Op("hypotenuse", formulas.hypotenuse, 1, (1, 1),
           lambda rng: (length(rng), length(rng)), lambda c: c.pair,
           lambda c: oracle.right_triangle_hypotenuse(*c.pair), (
               # a vanishing leg leaves z = y
               ("pythagoras", (0.0, 4.0), {"y": 3.0}, lambda y, s, f: s / f, 0, 3.0),
               # a vanishing leg leaves z = y
               ("pyth_alt", (0.0, 4.0), {"y": 3.0},
                lambda y, s, f: f * s / (s * s + y * y), 0, 3.0))),
        on_triangle("median", formulas.median, 1, lambda c: oracle.measure_median(*c.e),
                    # collapsed side: the median to z is z/2, which presumes y = z
                    ("apollonius", (0.0, 3.0), {"y": 2.0, "z": 2.0},
                     lambda y, z, s, f: s / (2.0 * f), 0, 1.0)),
        Op("cevian", formulas.cevian, 1, (1, 1, 1, 1), cevian, lambda c: c.cevian,
           lambda c: oracle.measure_cevian(*c.e, *c.cevian[2:]), (
               # collapsed x-side: the cevian degenerates to m, which presumes
               # y = m + n
               ("stewart", (0.0, 4.0), {"y": 5.0, "m": 2.0, "n": 3.0},
                lambda y, m, n, s, f: n * s / ((m + n) * f), 0, 2.0),)),
        on_triangle("triangle_area", formulas.triangle_area, 2,
                    lambda c: oracle.measure_area(*c.e),
                    # right angle opposite x: area = yz/2
                    ("heron", (math.sqrt(41.0), 3.0), {"y": 4.0, "z": 5.0},
                     lambda y, z, s, f: (s * (y * y + z * z) - s ** 3) / (8.0 * f),
                     0, 10.0),
                    # heron's solution, by the circumcircle route's rational form
                    ("heron_alt", (1.2, 6.8), {"y": 3.0, "z": 4.0},
                     lambda y, z, s, f: f * 0.5 * (-4.0 * s ** 3
                                                   + 4.0 * s * (y * y + z * z))
                     / _heron_discriminant(s, y, z),
                     0, None)),
        on_triangle("angle_from_sides", formulas.angle_gamma, 0,
                    lambda c: oracle.measure_angle_gamma(*c.e),
                    # z^2 = x^2 + y^2 gives gamma = pi/2
                    ("alkashi", (sq13, 4.5), {"x": 2.0, "y": 3.0},
                     lambda x, y, s, f: s / (x * y * math.sin(f)), 2, math.pi / 2.0)),
        on_triangle("bisector_full", formulas.bisector_full, 1, lambda c: c.full,
                    # right triangle: the bisector is the inscribed square's diagonal
                    ("terquem", (sq13, 4.5), {"x": 2.0, "y": 3.0},
                     lambda x, y, s, f: -s * f / ((x + y) * (x + y) - s * s),
                     2, math.sqrt(2.0) * 6.0 / 5.0)),
        on_triangle("bisector_to_incenter", formulas.bisector_to_incenter, 1,
                    lambda c: c.to_incenter,
                    # right triangle: vertex-to-incenter is sqrt(2) inradii
                    ("bispart", (sq13, 4.5), {"x": 2.0, "y": 3.0},
                     lambda x, y, s, f: -f * (x + y) / ((x + y + s) * (x + y - s)),
                     2, math.sqrt(2.0) * 6.0 / (5.0 + sq13))),
        on_triangle("incenter_ratio", formulas.incenter_ratio, 0,
                    lambda c: c.to_incenter / c.full),
        Op("trirect_face_area", formulas.trirect_face_area, 2, (1, 1, 1),
           sampling.trirect, lambda c: c.trirect,
           lambda c: oracle.measure_trirect(*c.trirect), (
               # collapsed edge: the slant face folds onto the yz face
               ("degua", (0.0, 3.0), {"y": 4.0, "z": 12.0},
                lambda y, z, s, f: (y * y + z * z) * s / (4.0 * f), 0, 24.0),)),
        Op("inscribed_angle", formulas.inscribed_angle, 0, (0,),
           lambda rng: (sampling.central_angle(rng),), lambda c: c.theta,
           lambda c: oracle.inscribed_angle_by_construction(*c.theta, c.apex), (
               # a zero arc subtends a zero angle
               ("inscribed", (0.0, math.pi), {}, lambda s, f: 0.5, 0, 0.0),)),
        on_triangle("circumradius", formulas.circumradius, 1, lambda c: c.big_r,
                    # right angle opposite x: R = x/2
                    ("circumradius", (5.0, 2.0), {"y": 3.0, "z": 4.0},
                     lambda y, z, s, f: f * (s ** 4 - y ** 4 - z ** 4
                                             + 2.0 * (y * y) * (z * z))
                     / (s * _heron_discriminant(s, y, z)),
                     0, 2.5)),
        on_triangle("inradius", formulas.inradius, 1, lambda c: c.r,
                    # linear in r, but no regular anchor with y, z frozen
                    ("inradius", (1.2, 6.8), {"y": 3.0, "z": 4.0},
                     lambda y, z, s, f: (
                         f * (s * s - y * y + z * z) * (s * s + y * y - z * z)
                         / (s * _heron_discriminant(s, y, z))
                         + ((y - s) * (s * s + y * y - z * z)
                            + (z - s) * (s * s - y * y + z * z))
                         / (2.0 * s * math.sqrt(_heron_discriminant(s, y, z)))),
                     0, None)),
        Op("euler_distance", formulas.euler_distance, 1, (1, 1),
           sampling.incircle_pair, lambda c: (c.r, c.big_r),
           lambda c: oracle.measure_euler_distance(*c.e), (
               # point incircle: centers R apart; stop short of the d -> 0 pole
               ("euler", (0.0, 1.0), {"big_r": 2.5},
                lambda big_r, s, f: -big_r / f, 0, 2.5),)),
        Op("third_side", formulas.third_side, 1, (1, 0, 0), third, lambda c: c.third,
           lambda c: oracle.third_side_by_construction(*c.third), (
               # beta + gamma = pi/2: y = x sin(beta)
               ("sines", (math.pi / 2.0 - 0.7, 2.0), {"x": 2.0, "beta": 0.7},
                lambda x, beta, s, f: -f * math.cos(beta + s) / math.sin(beta + s),
                2, 2.0 * math.sin(0.7)),)),
        on_quad("ptolemy_diagonal", formulas.ptolemy_diagonal, 1, oracle.cyclic_diagonal,
                # the natural vertex-merge anchor x -> 0 is a 0/0 right-hand side
                ("ptolemy", (0.5, 2.0), {"y": 2.0, "u": 1.5, "v": 1.8},
                 lambda y, u, v, s, f: u * v * (s * s - y * y + f * f)
                 / (2.0 * f * (u * v + s * y) * s),
                 0, None)),
        on_quad("cyclic_quad_area", formulas.cyclic_quad_area, 2, oracle.cyclic_area,
                # a vanishing side leaves the (y, u, v) triangle
                ("brahmagupta", (0.0, 1.6), {"y": 2.0, "u": 1.5, "v": 1.8},
                 lambda y, u, v, s, f: (-s ** 3 + (y * y + u * u + v * v) * s
                                        + 2.0 * y * u * v) / (8.0 * f),
                 0, formulas.triangle_area(2.0, 1.5, 1.8))),
        Op("bisector_problem_z", formulas.bisector_side, 1, (1, 1, 1),
           sampling.bisector_lengths, derive=(
               # only implicit: the admissible cubic root in z^2 - a^2 - b^2
               ("bisprob", (1.2, 1.6), {"a": math.sqrt(10.0), "b": math.sqrt(5.0)},
                lambda a, b, s, f: (
                    f * (f * f - a * a - b * b)
                    * (-f ** 4 + 2.0 * (a * a + b * b) * (f * f)
                       - (a * a - b * b) * (a * a - b * b))
                    / (s * (f ** 6 - 3.0 * (a * a + b * b) * f ** 4
                            + 3.0 * ((a * a - b * b) * (a * a - b * b)) * (f * f)
                            - (a * a + b * b) * ((a * a - b * b) * (a * a - b * b))))),
                2, None),)),
        Op("circle_area", formulas.circle_area, 2, (1,), lambda rng: (length(rng),),
           derive=(
               # a zero radius encloses zero area
               ("circle_area", (0.0, 1.0), {}, lambda s, f: 2.0 * math.pi * s, 0, 0.0),)),
        Op("sphere_volume", formulas.sphere_volume, 3, (1,), lambda rng: (length(rng),),
           derive=(
               # a zero radius encloses zero volume
               ("sphere_volume", (0.0, 1.0), {},
                lambda s, f: 4.0 * math.pi * (s * s), 0, 0.0),)),
    ]
