"""Numerics of the differential re-derivations.

An ``OdeProblem`` freezes all quantities of a closed form but one and states
the first-order ODE the varying quantity s obeys; ``ops`` holds every one,
under the operation whose closed form solves it.  The right-hand side is
written in the kernel's own variables, as ``rhs(*params, s, f)``: the frozen
values first, under the kernel's argument names, then s and the solution f.
Anchored problems start at s_range[0], a degenerate or special configuration
whose value is known independently (the comment above its entry in ``ops``
says why), are integrated with fixed-step RK4 and checked for fourth-order
convergence, or for errors at the rounding floor where RK4 is exact.
Problems whose natural anchor is singular (a 0/0 right-hand side or a
collapsing configuration) are verified in residual mode instead: the kernel
is differentiated by a complex step (``dual``) and compared against the
right-hand side pointwise.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .dual import der, rel, seed


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
        incr = hh * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0 - comp
        if not math.isfinite(incr):  # a non-finite stage always lands here
            raise SingularityError(
                f"{problem.name}: non-finite right-hand side near s={s!r}")
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
        worst = max(worst, rel(dfds - r, r))
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

