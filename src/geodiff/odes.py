"""Differential re-derivations of the closed forms.

Each catalog entry freezes all quantities but one and states the first-order
ODE the varying quantity s obeys.  It names the ``formulas`` kernel that
solves it and the position of s among the kernel's arguments; the frozen
params fill the other positions, in order.  The right-hand side is written
in the kernel's own variables, as ``rhs(*params, s, f)``: the frozen values
first, under the kernel's argument names, then s and the solution f.
Anchored entries start at s_range[0], a degenerate or special configuration
whose value is known independently (the comment above each entry says why),
are integrated with fixed-step RK4 and checked for fourth-order convergence,
or for errors at the rounding floor where RK4 is exact.
Entries whose natural anchor is singular (a 0/0 right-hand side or a
collapsing configuration) are verified in residual mode instead: the kernel
is differentiated by a complex step (``dual``) and compared against the
right-hand side pointwise.

Two right-hand sides differ by a sign from forms sometimes quoted for them;
the quoted forms fail their gates, as ``tests/test_odes.py::TestSigns``
checks:

* bisector-to-incenter: dc/dz = -c (x+y) / ((x+y+z)(x+y-z)) — without the
  leading minus sign the RK4 endpoint misses the kernel's value;
* inradius: the inhomogeneous numerator term is (z-x)(x^2-y^2+z^2), not
  (x-z)(...); with the latter the kernel leaves a large residual.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable

from . import formulas
from .dual import der, seed


class SingularityError(RuntimeError):
    """The right-hand side became non-finite during integration."""


@dataclass(frozen=True)
class OdeProblem:
    """One derivation: F varies with s, everything in params is frozen.

    ``kernel`` is the closed form F, called with s at argument position
    ``at`` and the params, in order, at the others.  ``rhs(*params, s, f)``
    is dF/ds, taking the params' values in order, then s and F.  ``anchor``
    is F(s_range[0]), where RK4 starts; None marks a residual-only entry.
    """

    name: str
    s_range: tuple[float, float]
    params: dict[str, float]
    rhs: Callable[..., float]
    kernel: Callable[..., object]
    at: int
    anchor: float | None

    def closed(self, s):
        """The closed form at s (a float or a complex-step carrier)."""
        args = [*self.params.values()]
        args.insert(self.at, s)
        return self.kernel(*args)

    @property
    def residual_only(self) -> bool:
        return self.anchor is None


@dataclass(frozen=True)
class ResidualResult:
    max_residual: float
    skipped: tuple[float, ...] = ()


@dataclass(frozen=True)
class ConvergenceReport:
    endpoints: tuple[float, ...]
    errors: tuple[float, ...]
    floor: float  # an error at or below it is rounding, not truncation
    fitted_order: float | None  # None: fewer than two errors above the floor


def _grid(problem: OdeProblem, h: float) -> tuple[int, float]:
    """Step count and signed step of the RK4 grid for the nominal step h.

    The count is rounded so that the grid hits the far end of s_range
    exactly, so the step taken differs from h unless h divides the span.
    """
    if problem.anchor is None:
        raise ValueError(f"{problem.name} has no anchor; use residual mode")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    span = problem.s_range[1] - problem.s_range[0]
    steps = max(1, round(abs(span) / h))
    return steps, span / steps


def integrate(problem: OdeProblem, h: float) -> float:
    """Endpoint value of classical RK4 from the anchor to the far end.

    It steps on ``_grid``'s grid; the state update uses compensated summation
    so that small-h runs stay at the truncation-error level instead of
    accumulating roundoff.
    """
    steps, hh = _grid(problem, h)
    half = hh / 2.0
    s0, f = problem.s_range[0], problem.anchor
    rhs = functools.partial(problem.rhs, *problem.params.values())
    comp = 0.0
    for i in range(steps):
        s = s0 + i * hh
        try:
            k1 = rhs(s, f)
            k2 = rhs(s + half, f + half * k1)
            k3 = rhs(s + half, f + half * k2)
            k4 = rhs(s + hh, f + hh * k3)
        except (ValueError, ArithmeticError) as exc:
            raise SingularityError(
                f"{problem.name}: right-hand side failed near s={s!r}: {exc}"
            ) from exc
        if not all(map(math.isfinite, (k1, k2, k3, k4))):
            raise SingularityError(
                f"{problem.name}: non-finite right-hand side near s={s!r}")
        incr = hh * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0 - comp
        t = f + incr
        comp = (t - f) - incr
        f = t
    return f


def residual(problem: OdeProblem, samples: int) -> ResidualResult:
    """Max pointwise defect |d(closed)/ds - rhs| / max(|rhs|, 1e-30).

    The derivative of the closed form is computed by a complex step at evenly
    spaced sample points of s_range; singular points are skipped and reported.
    With every point skipped nothing was checked, and the defect is inf.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    lo, hi = problem.s_range
    rhs = functools.partial(problem.rhs, *problem.params.values())
    worst = 0.0
    skipped = []
    for i in range(samples):
        s = lo + (hi - lo) * i / (samples - 1)
        try:
            out = problem.closed(seed(s))
            f_val, dfds = out.real, der(out)
            r = rhs(s, f_val)
            if not (math.isfinite(dfds) and math.isfinite(r)):
                raise ValueError
        except (ValueError, ArithmeticError):
            skipped.append(s)
            continue
        worst = max(worst, abs(dfds - r) / max(abs(r), 1e-30))
    return ResidualResult(worst if len(skipped) < samples else math.inf,
                          tuple(skipped))


def reference_endpoint(problem: OdeProblem) -> float:
    """Closed-form value at the far end of s_range."""
    return problem.closed(problem.s_range[1])


def _slope(xs, ys) -> float:
    """Least-squares slope of ys on xs: fsum means, centre, fsum products."""
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    dxs = [x - xbar for x in xs]
    return math.fsum(dx * (y - ybar) for dx, y in zip(dxs, ys)) \
        / math.fsum(dx * dx for dx in dxs)


def convergence(problem: OdeProblem, h_values) -> ConvergenceReport:
    """Endpoint errors per nominal step size and the least-squares order fit.

    The order is fitted against the step each run actually takes, on the
    errors above the roundoff floor (50 ulp of the endpoint) only; with fewer
    than two of them it is None.  RK4 is exact on a right-hand side that is a
    polynomial in s of degree three or less, and all its errors sit there.
    """
    h_values = tuple(h_values)
    if len(h_values) < 3:
        raise ValueError("need at least three step sizes to fit an order")
    exact = reference_endpoint(problem)
    endpoints = tuple(integrate(problem, h) for h in h_values)
    errors = tuple(abs(e - exact) for e in endpoints)
    floor = 50.0 * sys.float_info.epsilon * max(1.0, abs(exact))
    fit = [(math.log(abs(_grid(problem, h)[1])), math.log(e))
           for h, e in zip(h_values, errors) if e > floor]
    fitted = _slope(*zip(*fit)) if len(fit) >= 2 else None
    return ConvergenceReport(endpoints, errors, floor, fitted)


# --- the catalog ----------------------------------------------------------------


def _sq(v):
    return v * v


def _heron_discriminant(x, y, z):
    """16 * area^2, kept as a polynomial for the linear right-hand sides."""
    return (2.0 * (_sq(y) * _sq(z) + _sq(x) * _sq(z) + _sq(x) * _sq(y))
            - x ** 4 - y ** 4 - z ** 4)


def catalog() -> list[OdeProblem]:
    """All twenty-one derivations, in their fixed order."""
    sq13 = math.sqrt(13.0)
    return [
        # the parallel-side map sends 0 to 0
        OdeProblem("thales", (0.0, 2.0), {"k": 1.5},
                   lambda k, s, f: k,
                   operator.mul, 1, 0.0),
        # a vanishing leg leaves z = y
        OdeProblem("pythagoras", (0.0, 4.0), {"y": 3.0},
                   lambda y, s, f: s / f,
                   formulas.hypotenuse, 0, 3.0),
        # collapsed side: the median to z is z/2, which presumes y = z
        OdeProblem("apollonius", (0.0, 3.0), {"y": 2.0, "z": 2.0},
                   lambda y, z, s, f: s / (2.0 * f),
                   formulas.median, 0, 1.0),
        # collapsed x-side: the cevian degenerates to m, which presumes y = m + n
        OdeProblem("stewart", (0.0, 4.0), {"y": 5.0, "m": 2.0, "n": 3.0},
                   lambda y, m, n, s, f: n * s / ((m + n) * f),
                   formulas.cevian, 0, 2.0),
        # right angle opposite x: area = yz/2
        OdeProblem("heron", (math.sqrt(41.0), 3.0), {"y": 4.0, "z": 5.0},
                   lambda y, z, s, f: (s * (_sq(y) + _sq(z)) - s ** 3) / (8.0 * f),
                   formulas.triangle_area, 0, 10.0),
        # z^2 = x^2 + y^2 gives gamma = pi/2
        OdeProblem("alkashi", (sq13, 4.5), {"x": 2.0, "y": 3.0},
                   lambda x, y, s, f: s / (x * y * math.sin(f)),
                   formulas.angle_gamma, 2, math.pi / 2.0),
        # right triangle: the bisector is the inscribed square's diagonal
        OdeProblem("terquem", (sq13, 4.5), {"x": 2.0, "y": 3.0},
                   lambda x, y, s, f: -s * f / (_sq(x + y) - _sq(s)),
                   formulas.bisector_full, 2, math.sqrt(2.0) * 6.0 / 5.0),
        # collapsed edge: the slant face folds onto the yz face
        OdeProblem("degua", (0.0, 3.0), {"y": 4.0, "z": 12.0},
                   lambda y, z, s, f: (_sq(y) + _sq(z)) * s / (4.0 * f),
                   formulas.trirect_face_area, 0, 24.0),
        # a zero arc subtends a zero angle
        OdeProblem("inscribed", (0.0, math.pi), {},
                   lambda s, f: 0.5,
                   formulas.inscribed_angle, 0, 0.0),
        # right angle opposite x: R = x/2
        OdeProblem("circumradius", (5.0, 2.0), {"y": 3.0, "z": 4.0},
                   lambda y, z, s, f: f * (s ** 4 - y ** 4 - z ** 4
                                           + 2.0 * _sq(y) * _sq(z))
                   / (s * _heron_discriminant(s, y, z)),
                   formulas.circumradius, 0, 2.5),
        # beta + gamma = pi/2: y = x sin(beta)
        OdeProblem("sines", (math.pi / 2.0 - 0.7, 2.0), {"x": 2.0, "beta": 0.7},
                   lambda x, beta, s, f: -f * math.cos(beta + s) / math.sin(beta + s),
                   formulas.third_side, 2, 2.0 * math.sin(0.7)),
        # the natural vertex-merge anchor x -> 0 is a 0/0 right-hand side
        OdeProblem("ptolemy", (0.5, 2.0), {"y": 2.0, "u": 1.5, "v": 1.8},
                   lambda y, u, v, s, f: u * v * (_sq(s) - _sq(y) + _sq(f))
                   / (2.0 * f * (u * v + s * y) * s),
                   formulas.ptolemy_diagonal, 0, None),
        # a vanishing side leaves the (y, u, v) triangle
        OdeProblem("brahmagupta", (0.0, 1.6), {"y": 2.0, "u": 1.5, "v": 1.8},
                   lambda y, u, v, s, f: (-s ** 3 + (_sq(y) + _sq(u) + _sq(v)) * s
                                          + 2.0 * y * u * v) / (8.0 * f),
                   formulas.cyclic_quad_area, 0,
                   formulas.triangle_area(2.0, 1.5, 1.8)),
        # point incircle: centers R apart; stop short of the d -> 0 pole
        OdeProblem("euler", (0.0, 1.0), {"big_r": 2.5},
                   lambda big_r, s, f: -big_r / f,
                   formulas.euler_distance, 0, 2.5),
        # right triangle: vertex-to-incenter is sqrt(2) inradii
        OdeProblem("bispart", (sq13, 4.5), {"x": 2.0, "y": 3.0},
                   lambda x, y, s, f: -f * (x + y) / ((x + y + s) * (x + y - s)),
                   formulas.bisector_to_incenter, 2,
                   math.sqrt(2.0) * 6.0 / (5.0 + sq13)),
        # linear in r, but no regular anchor with y, z frozen
        OdeProblem("inradius", (1.2, 6.8), {"y": 3.0, "z": 4.0},
                   lambda y, z, s, f: (
                       f * (_sq(s) - _sq(y) + _sq(z)) * (_sq(s) + _sq(y) - _sq(z))
                       / (s * _heron_discriminant(s, y, z))
                       + ((y - s) * (_sq(s) + _sq(y) - _sq(z))
                          + (z - s) * (_sq(s) - _sq(y) + _sq(z)))
                       / (2.0 * s * math.sqrt(_heron_discriminant(s, y, z)))),
                   formulas.inradius, 0, None),
        # only implicit: the admissible cubic root in z^2 - a^2 - b^2
        OdeProblem("bisprob", (1.2, 1.6), {"a": math.sqrt(10.0), "b": math.sqrt(5.0)},
                   lambda a, b, s, f: (
                       f * (_sq(f) - _sq(a) - _sq(b))
                       * (-f ** 4 + 2.0 * (_sq(a) + _sq(b)) * _sq(f)
                          - _sq(_sq(a) - _sq(b)))
                       / (s * (f ** 6 - 3.0 * (_sq(a) + _sq(b)) * f ** 4
                               + 3.0 * _sq(_sq(a) - _sq(b)) * _sq(f)
                               - (_sq(a) + _sq(b)) * _sq(_sq(a) - _sq(b))))),
                   formulas.bisector_side, 2, None),
        # a vanishing leg leaves z = y
        OdeProblem("pyth_alt", (0.0, 4.0), {"y": 3.0},
                   lambda y, s, f: f * s / (_sq(s) + _sq(y)),
                   formulas.hypotenuse, 0, 3.0),
        # heron's solution, by the circumcircle route's rational form
        OdeProblem("heron_alt", (1.2, 6.8), {"y": 3.0, "z": 4.0},
                   lambda y, z, s, f: f * 0.5 * (-4.0 * s ** 3
                                                 + 4.0 * s * (_sq(y) + _sq(z)))
                   / _heron_discriminant(s, y, z),
                   formulas.triangle_area, 0, None),
        # a zero radius encloses zero area
        OdeProblem("circle_area", (0.0, 1.0), {},
                   lambda s, f: 2.0 * math.pi * s,
                   formulas.circle_area, 0, 0.0),
        # a zero radius encloses zero volume
        OdeProblem("sphere_volume", (0.0, 1.0), {},
                   lambda s, f: 4.0 * math.pi * _sq(s),
                   formulas.sphere_volume, 0, 0.0),
    ]
