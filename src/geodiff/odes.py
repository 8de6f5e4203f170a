"""Differential re-derivations of the closed forms.

Each catalog entry freezes all quantities but one and states the first-order
ODE the varying quantity s obeys.  It names the ``formulas`` kernel that
solves it and the position of s among the kernel's arguments; the frozen
params fill the other positions, in order.  Anchored entries start at a
degenerate or special configuration whose value is known independently, are
integrated with fixed-step RK4 and are checked for fourth-order convergence.
Entries whose natural anchor is singular (a 0/0 right-hand side or a
collapsing configuration) are verified in residual mode instead: the kernel
is differentiated with dual numbers and compared against the right-hand side
pointwise.

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
import statistics
import sys
from dataclasses import dataclass
from typing import Callable

from . import formulas
from .dual import DualScalar, value

ERR_FLOOR = 1e-16  # clamp for log-log fitting when RK4 is exact


class SingularityError(RuntimeError):
    """The right-hand side became non-finite during integration."""


@dataclass(frozen=True)
class OdeProblem:
    """One derivation: F varies with s, everything in params is frozen.

    ``kernel`` is the closed form F, called with s at argument position
    ``at`` and the params, in order, at the others.
    """

    name: str
    s_range: tuple[float, float]
    params: dict[str, float]
    rhs: Callable[[float, float, dict], float]
    kernel: Callable[..., object]
    at: int
    anchor: tuple[float, float] | None
    anchor_note: str = ""

    def closed(self, s):
        """The closed form at s (a float or a DualScalar)."""
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
    h_values: tuple[float, ...]
    endpoints: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    rk4_exact: bool = False  # every endpoint error sat at the roundoff floor


def _grid(problem: OdeProblem, h: float) -> tuple[int, float]:
    """Step count and signed step of the RK4 grid for the nominal step h.

    The count is rounded so that the grid hits the far end of s_range
    exactly, so the step taken differs from h unless h divides the span.
    """
    if problem.anchor is None:
        raise ValueError(f"{problem.name} has no anchor; use residual mode")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    span = problem.s_range[1] - problem.anchor[0]
    steps = max(1, round(abs(span) / h))
    return steps, span / steps


def integrate(problem: OdeProblem, h: float) -> float:
    """Endpoint value of classical RK4 from the anchor to the far end.

    It steps on ``_grid``'s grid; the state update uses compensated summation
    so that small-h runs stay at the truncation-error level instead of
    accumulating roundoff.
    """
    steps, hh = _grid(problem, h)
    s0, f0 = problem.anchor
    rhs, params = problem.rhs, problem.params
    f = f0
    comp = 0.0
    for i in range(steps):
        s = s0 + i * hh
        try:
            k1 = rhs(s, f, params)
            k2 = rhs(s + hh / 2.0, f + hh / 2.0 * k1, params)
            k3 = rhs(s + hh / 2.0, f + hh / 2.0 * k2, params)
            k4 = rhs(s + hh, f + hh * k3, params)
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
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

    The derivative of the closed form is computed with dual numbers at evenly
    spaced sample points of s_range; singular points are skipped and reported.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    lo, hi = problem.s_range
    worst = 0.0
    skipped = []
    for i in range(samples):
        s = lo + (hi - lo) * i / (samples - 1)
        try:
            out = problem.closed(DualScalar(s, 1.0))
            f_val, dfds = value(out), out.der
            r = problem.rhs(s, f_val, problem.params)
            if not (math.isfinite(dfds) and math.isfinite(r)):
                raise ValueError
        except (ValueError, ZeroDivisionError):
            skipped.append(s)
            continue
        worst = max(worst, abs(dfds - r) / max(abs(r), 1e-30))
    return ResidualResult(worst, tuple(skipped))


def reference_endpoint(problem: OdeProblem) -> float:
    """Closed-form value at the far end of s_range."""
    return value(problem.closed(problem.s_range[1]))


def convergence(problem: OdeProblem, h_values) -> ConvergenceReport:
    """Endpoint errors per nominal step size and the least-squares order fit.

    The order is fitted against the step each run actually takes, not the
    nominal h.  Errors at the roundoff floor (50 ulp of the endpoint) carry no
    information about the truncation order, so they are dropped from the fit
    when at least two informative points remain; a run whose every error sits
    at the floor is flagged rk4_exact (constant and low-degree polynomial
    right-hand sides integrate exactly).
    """
    h_values = tuple(h_values)
    if len(h_values) < 3:
        raise ValueError("need at least three step sizes to fit an order")
    exact = reference_endpoint(problem)
    endpoints = tuple(integrate(problem, h) for h in h_values)
    errors = tuple(abs(e - exact) for e in endpoints)
    floor = 50.0 * sys.float_info.epsilon * max(1.0, abs(exact))
    taken = [abs(_grid(problem, h)[1]) for h in h_values]
    informative = [(h, e) for h, e in zip(taken, errors) if e > floor]
    if len(informative) >= 2:
        hs, errs = zip(*informative)
    else:
        hs, errs = taken, [max(e, ERR_FLOOR) for e in errors]
    fitted = statistics.linear_regression([math.log(h) for h in hs],
                                         [math.log(e) for e in errs]).slope
    return ConvergenceReport(h_values, endpoints, errors, fitted,
                             rk4_exact=all(e <= floor for e in errors))


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
    entries = [
        OdeProblem(
            "thales", (0.0, 2.0), {"k": 1.5},
            lambda s, f, p: p["k"],
            operator.mul, 1,
            (0.0, 0.0), "parallel-side map sends 0 to 0"),
        OdeProblem(
            "pythagoras", (0.0, 4.0), {"y": 3.0},
            lambda s, f, p: s / f,
            formulas.hypotenuse, 0,
            (0.0, 3.0), "vanishing leg leaves z = y"),
        OdeProblem(
            # the x = 0 anchor d = z/2 presumes the frozen sides satisfy y = z
            "apollonius", (0.0, 3.0), {"y": 2.0, "z": 2.0},
            lambda s, f, p: s / (2.0 * f),
            formulas.median, 0,
            (0.0, 1.0), "collapsed side: median to z equals z/2"),
        OdeProblem(
            # x = 0 with d = m presumes y = m + n
            "stewart", (0.0, 4.0), {"y": 5.0, "m": 2.0, "n": 3.0},
            lambda s, f, p: p["n"] * s / ((p["m"] + p["n"]) * f),
            formulas.cevian, 0,
            (0.0, 2.0), "collapsed x-side: cevian degenerates to m"),
        OdeProblem(
            "heron", (math.sqrt(41.0), 3.0), {"y": 4.0, "z": 5.0},
            lambda s, f, p: (s * (_sq(p["y"]) + _sq(p["z"])) - s ** 3) / (8.0 * f),
            formulas.triangle_area, 0,
            (math.sqrt(41.0), 10.0), "right angle opposite x: area = yz/2"),
        OdeProblem(
            "alkashi", (sq13, 4.5), {"x": 2.0, "y": 3.0},
            lambda s, f, p: s / (p["x"] * p["y"] * math.sin(f)),
            formulas.angle_gamma, 2,
            (sq13, math.pi / 2.0), "z^2 = x^2 + y^2 gives gamma = pi/2"),
        OdeProblem(
            "terquem", (sq13, 4.5), {"x": 2.0, "y": 3.0},
            lambda s, f, p: -s * f / (_sq(p["x"] + p["y"]) - _sq(s)),
            formulas.bisector_full, 2,
            (sq13, math.sqrt(2.0) * 6.0 / 5.0),
            "right triangle: bisector is the inscribed-square diagonal"),
        OdeProblem(
            "degua", (0.0, 3.0), {"y": 4.0, "z": 12.0},
            lambda s, f, p: (_sq(p["y"]) + _sq(p["z"])) * s / (4.0 * f),
            formulas.trirect_face_area, 0,
            (0.0, 24.0), "collapsed edge: slant face folds onto the yz face"),
        OdeProblem(
            "inscribed", (0.0, math.pi), {},
            lambda s, f, p: 0.5,
            formulas.inscribed_angle, 0,
            (0.0, 0.0), "zero arc subtends zero angle"),
        OdeProblem(
            "circumradius", (5.0, 2.0), {"y": 3.0, "z": 4.0},
            lambda s, f, p: f * (s ** 4 - p["y"] ** 4 - p["z"] ** 4
                                 + 2.0 * _sq(p["y"]) * _sq(p["z"]))
            / (s * _heron_discriminant(s, p["y"], p["z"])),
            formulas.circumradius, 0,
            (5.0, 2.5), "right angle opposite x: R = x/2"),
        OdeProblem(
            "sines", (math.pi / 2.0 - 0.7, 2.0), {"x": 2.0, "beta": 0.7},
            lambda s, f, p: -f * math.cos(p["beta"] + s) / math.sin(p["beta"] + s),
            formulas.third_side, 2,
            (math.pi / 2.0 - 0.7, 2.0 * math.sin(0.7)),
            "beta + gamma = pi/2: y = x sin(beta)"),
        OdeProblem(
            # natural anchor x -> 0 is a 0/0 right-hand side; residual mode
            "ptolemy", (0.5, 2.0), {"y": 2.0, "u": 1.5, "v": 1.8},
            lambda s, f, p: p["u"] * p["v"] * (_sq(s) - _sq(p["y"]) + _sq(f))
            / (2.0 * f * (p["u"] * p["v"] + s * p["y"]) * s),
            formulas.ptolemy_diagonal, 0,
            None, "vertex-merge anchor is singular; checked pointwise"),
        OdeProblem(
            "brahmagupta", (0.0, 1.6), {"y": 2.0, "u": 1.5, "v": 1.8},
            lambda s, f, p: (-s ** 3 + (_sq(p["y"]) + _sq(p["u"]) + _sq(p["v"])) * s
                             + 2.0 * p["y"] * p["u"] * p["v"]) / (8.0 * f),
            formulas.cyclic_quad_area, 0,
            (0.0, formulas.triangle_area(2.0, 1.5, 1.8)),
            "vanishing side: quadrilateral degenerates to the (y,u,v) triangle"),
        OdeProblem(
            # integrate upward from r -> 0, stopping before the d -> 0 pole
            "euler", (0.0, 1.0), {"big_r": 2.5},
            lambda s, f, p: -p["big_r"] / f,
            formulas.euler_distance, 0,
            (0.0, 2.5), "point incircle: centers are R apart"),
        OdeProblem(
            "bispart", (sq13, 4.5), {"x": 2.0, "y": 3.0},
            lambda s, f, p: -f * (p["x"] + p["y"])
            / ((p["x"] + p["y"] + s) * (p["x"] + p["y"] - s)),
            formulas.bisector_to_incenter, 2,
            (sq13, math.sqrt(2.0) * 6.0 / (5.0 + sq13)),
            "right triangle: vertex-to-incenter is sqrt(2) inradii"),
        OdeProblem(
            # linear in r; no regular anchor on a frozen-(y,z) slice
            "inradius", (1.2, 6.8), {"y": 3.0, "z": 4.0},
            lambda s, f, p: (
                f * (_sq(s) - _sq(p["y"]) + _sq(p["z"]))
                * (_sq(s) + _sq(p["y"]) - _sq(p["z"]))
                / (s * _heron_discriminant(s, p["y"], p["z"]))
                + ((p["y"] - s) * (_sq(s) + _sq(p["y"]) - _sq(p["z"]))
                   + (p["z"] - s) * (_sq(s) - _sq(p["y"]) + _sq(p["z"])))
                / (2.0 * s * math.sqrt(_heron_discriminant(s, p["y"], p["z"])))),
            formulas.inradius, 0,
            None, "no regular anchor with y, z frozen; checked pointwise"),
        OdeProblem(
            # implicit solution: the admissible cubic root in z^2
            "bisprob", (1.2, 1.6), {"a": math.sqrt(10.0), "b": math.sqrt(5.0)},
            lambda s, f, p: (
                f * (_sq(f) - _sq(p["a"]) - _sq(p["b"]))
                * (-f ** 4 + 2.0 * (_sq(p["a"]) + _sq(p["b"])) * _sq(f)
                   - _sq(_sq(p["a"]) - _sq(p["b"])))
                / (s * (f ** 6 - 3.0 * (_sq(p["a"]) + _sq(p["b"])) * f ** 4
                        + 3.0 * _sq(_sq(p["a"]) - _sq(p["b"])) * _sq(f)
                        - (_sq(p["a"]) + _sq(p["b"]))
                        * _sq(_sq(p["a"]) - _sq(p["b"]))))),
            formulas.bisector_side, 2,
            None, "solution only implicit (cubic root); checked pointwise"),
        OdeProblem(
            "pyth_alt", (0.0, 4.0), {"y": 3.0},
            lambda s, f, p: f * s / (_sq(s) + _sq(p["y"])),
            formulas.hypotenuse, 0,
            (0.0, 3.0), "vanishing leg leaves z = y"),
        OdeProblem(
            # same solution as `heron`, rational right-hand side; residual mode
            "heron_alt", (1.2, 6.8), {"y": 3.0, "z": 4.0},
            lambda s, f, p: f * 0.5 * (-4.0 * s ** 3
                                       + 4.0 * s * (_sq(p["y"]) + _sq(p["z"])))
            / _heron_discriminant(s, p["y"], p["z"]),
            formulas.triangle_area, 0,
            None, "circumcircle-route form of the area equation; checked pointwise"),
        OdeProblem(
            "circle_area", (0.0, 1.0), {},
            lambda s, f, p: 2.0 * math.pi * s,
            formulas.circle_area, 0,
            (0.0, 0.0), "zero radius encloses zero area"),
        OdeProblem(
            "sphere_volume", (0.0, 1.0), {},
            lambda s, f, p: 4.0 * math.pi * _sq(s),
            formulas.sphere_volume, 0,
            (0.0, 0.0), "zero radius encloses zero volume"),
    ]
    return entries
