"""Polynomial root tracking along coefficient paths.

A root x of P(x) = sum a_k x^k responds to coefficient changes through
dx/da_k = -x^k / P'(x).  Moving the coefficients linearly from the start
system S = x^n - 1, whose roots are the n-th roots of unity, to a target Q,
P_t = (1-t) gamma S + t Q, and chaining these sensitivities gives
dx/dt = -sum_k (q_k - gamma s_k) x^k / P'_t(x) with
P'_t = (1-t) n gamma x^(n-1) + t Q', integrated here with the Dormand-Prince
5(4) pair ("A family of embedded Runge-Kutta formulae", J. Comput. Appl. Math.
6, 1980) and re-converged after every step by one Newton correction.

Paths use complex arithmetic with a random unit twist on the start system:
real coefficient paths generically pass through discriminant zeros, while a
twisted path misses them with probability one.  Twisted paths can still pass
*near* each other, and a predictor that jumps across such an encounter lands
in the Newton basin of the wrong root.  Each root therefore carries its own
step size: FIRST_STEP at the start, then set by the embedded error estimate
of the last attempt and limited only by the rest of the path (adaptive
predictor/corrector control after Bates, Hauenstein, Sommese & Wampler,
"Adaptive multiprecision path tracking", SIAM J. Numer. Anal. 2008): a step
is accepted only when the order-5 and order-4 solutions agree and one Newton
correction converges and stays small, and the step shrinks until it is, down
to a bounded minimum.  A hop that survives all of that would have to produce
a duplicate, which the final pairing check turns into a hard error.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import NamedTuple

LEADING_TOL = 1e-12
FINAL_RESIDUAL_TOL = 1e-8
DERIV_FLOOR = 1e-12
NEWTON_STEPS = 15     # the final polish on the target
LOCAL_TOL = 1e-8      # order-5 vs order-4 agreement, relative to the root scale
MAX_REFINE_DEPTH = 20
FIRST_STEP = 1.0 / 64  # a root's first step; the error estimate sets the rest
ORACLE_MAX_ITER = 1000  # Durand-Kerner sweeps before the stall test


class PathSingularityError(RuntimeError):
    """P'_t vanished along the path; the message carries the t it failed at."""


class TrackingFailureError(RuntimeError):
    """A tracked root failed to converge onto the target polynomial."""


class OracleFailureError(RuntimeError):
    """Simultaneous iteration did not converge."""


class RepeatedRootError(ValueError):
    """Sensitivities are undefined at a repeated root."""


def _horner(coeffs, x: complex) -> complex:
    """The polynomial with coefficients coeffs, leading one first, at x; the
    one Horner loop here besides path_kernels' fused velocity pass."""
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * x + c
    return acc


class _PolyFields(NamedTuple):
    coeffs: tuple[complex, ...]


class Poly(_PolyFields):
    """Coefficients a_0..a_n, low order first, stored as complex; invalid ones
    raise ValueError here, and in ``_replace``, which builds through
    ``_make``."""

    __slots__ = ()

    def __new__(cls, coeffs):
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        self = super().__new__(cls, tuple(complex(c) for c in coeffs))
        if not all(map(cmath.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")
        if abs(self.coeffs[-1]) <= LEADING_TOL * self.scale:
            raise ValueError("leading coefficient is numerically zero")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def scale(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def __call__(self, x: complex) -> complex:
        return _horner(reversed(self.coeffs), x)

    def deriv(self, x: complex) -> complex:
        return _horner((k * self.coeffs[k] for k in range(self.degree, 0, -1)), x)


def unit_roots(n: int) -> tuple[complex, ...]:
    """The roots of x^n - 1: simple roots, uniform conditioning."""
    return tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))


class _PathFields(NamedTuple):
    target: Poly
    gamma: complex = 1.0 + 0.0j


class ContinuationPath(_PathFields):
    """Linear coefficient homotopy (1-t)*gamma*(x^n - 1) + t*target; a gamma
    off the unit circle raises ValueError here and in ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not abs(abs(self.gamma) - 1.0) <= 1e-12:  # a NaN gamma fails too
            raise ValueError("gamma must have unit magnitude")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def at(self, t: float) -> Poly:
        """P_t; PathSingularityError where it drops degree (Poly's ValueError)."""
        g = (1.0 - t) * self.gamma
        coeffs = [t * q for q in self.target.coeffs]
        coeffs[0] -= g
        coeffs[-1] += g
        try:
            return Poly(tuple(coeffs))
        except ValueError as exc:
            raise PathSingularityError(f"P_t at t={t!r}: {exc}") from None


def make_path(target: Poly, rng: random.Random | None = None) -> ContinuationPath:
    """The path to target with a unit twist gamma drawn from rng."""
    u = rng.random() if rng is not None else 0.6180339887498949
    return ContinuationPath(target, gamma=cmath.exp(2j * math.pi * u))


def path_kernels(path: ContinuationPath) -> tuple:
    """(velocity, correct): the two evaluations track makes on a path, with
    every coefficient row, scale and exponent they read bound once per path.

    velocity(t, x) returns dx/dt = -R(x) / P'_t(x), R = Q - gamma S = Q + gamma
    - gamma x^n, from one Horner pass over the rows (k q_k, r_k), k = n..1,
    that also raises n gamma to ds = n gamma x^(n-1): P'_t = (1-t) ds + t Q'.
    velocity(t, x, True) returns (dx/dt, P'_t(x), P_t(x)) from that pass, with
    P_t(x) as the split sum (ds x / n - gamma) + t R(x).  It raises
    PathSingularityError if |P'_t(x)| < DERIV_FLOOR * scale * max(1, |x|)**(n-1)
    for both scales in turn: max(|gamma|, max|q_k|) (1 + 1e-12) >= max|c_k|,
    one constant per path, then, only when that trips, path.at(t).scale, as
    the split sum rounds worse where an end coefficient t q_0 - (1-t) gamma
    or t q_n + (1-t) gamma cancels; every other c_k is t q_k.

    correct(t, x, v, dp, fx), given (v, dp, fx) = velocity(t, x, True),
    returns (x, v) if the residual of x on P_t is at most 1e-13 max|c_k|
    max(1, |x|)**n, or else the point one Newton step on, dividing by dp, and
    dx/dt there if that point's residual is, or else None, so that track
    halves the step.  A residual is a velocity pass's split sum.  It differs
    from a Horner pass over the c_k by less than 8 n eps (2 |gamma| +
    t sum|r_k|) max(1, |x|)**n; within that band of the threshold the test,
    and the Newton step after it, read P_t(x) off path.at(t) instead.
    """
    gamma, q, n = path.gamma, path.target.coeffs, path.target.degree
    (dq0, _), *body = [(k * q[k], q[k]) for k in range(n, 0, -1)]
    ds0, num0, r0 = n * gamma, q[n] - gamma, q[0] + gamma
    body, n1 = tuple(body), n - 1
    floor = DERIV_FLOOR * (max(abs(gamma), max(map(abs, q))) * (1.0 + 1e-12))
    inner = [abs(c) for c in q[1:n]]
    mid = max(inner, default=0.0)
    band0, band1 = (8 * n * 2.0 ** -52 * a  # |r_n| = |num0|, |r_0| = |r0|
                    for a in (2.0 * abs(gamma), math.fsum([abs(num0), abs(r0), *inner])))

    def velocity(t: float, x: complex, full: bool = False):
        g = 1.0 - t
        ds, dq, num = ds0, dq0, num0
        for b, c in body:
            ds = ds * x
            dq = dq * x + b
            num = num * x + c
        dp = g * ds + t * dq
        ax = abs(x)
        m = ax ** n1 if ax > 1.0 else 1.0
        if abs(dp) < floor * m and abs(dp) < DERIV_FLOOR * path.at(t).scale * m:
            raise PathSingularityError(f"P' vanished along the path at t={t!r}")
        r = num * x + r0
        if full:
            return -r / dp, dp, (ds * x / n - gamma) + t * r
        return -r / dp

    def miss(t: float, x: complex, fx: complex) -> complex | None:
        """None if x passes the residual test, else the residual to step by."""
        ax = abs(x)
        mx = ax ** n if ax > 1.0 else 1.0
        a, w = abs(fx), (band0 + t * band1) * mx
        g = (1.0 - t) * gamma
        tol = 1e-13 * max(abs(t * q[n] + g), abs(t * q[0] - g), t * mid) * mx
        if a + w <= tol:
            return None
        if a - w > tol:
            return fx
        p_t = path.at(t)
        fx = p_t(x)
        return None if abs(fx) <= 1e-13 * p_t.scale * mx else fx

    def correct(t: float, x: complex, v: complex, dp: complex,
                fx: complex) -> tuple[complex, complex] | None:
        fx = miss(t, x, fx)
        if fx is None:
            return x, v
        x = x - fx / dp
        v, _, fx = velocity(t, x, True)
        return (x, v) if miss(t, x, fx) is None else None

    return velocity, correct


def track(path: ContinuationPath) -> list[complex]:
    """Advance every root of unity to t = 1 and return the corrected roots.

    The velocity chains dx/da_k = -x^k / P'(x) along the path, dx/dt = -sum_k
    (q_k - gamma s_k) x^k / ((1-t) n gamma x^(n-1) + t Q'(x)), every term
    from one fused Horner pass (path_kernels).  Each root carries its own
    step size h, starting at FIRST_STEP; no cap follows, so only the rest of
    the span, 1 - t, limits a step.  An attempt is one Dormand-Prince 5(4)
    step: seven velocity passes, the first reused from the point the last
    accepted step ended on (first same as last) or after a rejection, the
    last at the order-5 value y5, where the corrector starts.  That pass also
    returns P'_t(y5), by which the corrector's one Newton step divides, and
    P_t(y5), the residual it judges; the residual at the Newton point comes
    from the velocity pass there, which is the next step's first.  After
    every attempt h is scaled by 0.9 * err**-0.2, clipped to [1/4, 2], where
    err is the gap between the order-5 and order-4 values relative to
    LOCAL_TOL (err <= 1 passes); the step advances with the order-5 value.
    An attempt that passes that test but fails the corrector, or that meets a
    vanishing P', halves h instead.  A root whose step falls below
    FIRST_STEP / 2**MAX_REFINE_DEPTH raises PathSingularityError.

    Three tests guard every accepted step against a hop onto a neighbouring
    path: the order-5 and order-4 values agree to LOCAL_TOL; at most one
    Newton step reaches a 1e-13 relative residual; and that Newton correction
    is at most a quarter of the predicted move.  The residual's scale is
    max|c_k| of P_t itself, and so is P''s (path_kernels), as the split sum
    rounds worse where an end coefficient cancels.  After the final polish on
    the target, a non-finite root, a residual of FINAL_RESIDUAL_TOL or more,
    or two paths on one simple root raise TrackingFailureError.
    """
    velocity, correct = path_kernels(path)
    n = path.target.degree
    h_min = FIRST_STEP / 2 ** MAX_REFINE_DEPTH
    out = []
    for x in unit_roots(n):
        t, h = 0.0, FIRST_STEP
        k1 = velocity(t, x)
        while t < 1.0:
            t1 = min(1.0, t + h)
            d = t1 - t
            try:  # one Dormand-Prince 5(4) step, t to t1
                k2 = velocity(t + d / 5.0, x + d * (k1 / 5.0))
                k3 = velocity(t + 0.3 * d, x + d * (3 / 40 * k1 + 9 / 40 * k2))
                k4 = velocity(t + 0.8 * d,
                              x + d * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
                k5 = velocity(t + 8 / 9 * d,
                              x + d * (19372 / 6561 * k1 - 25360 / 2187 * k2
                                       + 64448 / 6561 * k3 - 212 / 729 * k4))
                k6 = velocity(t1, x + d * (9017 / 3168 * k1 - 355 / 33 * k2
                                           + 46732 / 5247 * k3 + 49 / 176 * k4
                                           - 5103 / 18656 * k5))
                y5 = x + d * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                              - 2187 / 6784 * k5 + 11 / 84 * k6)
                k7, dp, fx = velocity(t1, y5, True)
                delta = d * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                             - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)
                err = abs(delta) / (LOCAL_TOL * max(1.0, abs(y5)))
                # the 1e-4 floor only avoids 0 ** -0.2; the cap of 2 binds from 0.02
                factor = min(2.0, max(0.25, 0.9 * max(err, 1e-4) ** -0.2))
                if err <= 1.0:
                    done = correct(t1, y5, k7, dp, fx)
                    if done is not None and abs(done[0] - y5) \
                            <= 0.25 * abs(y5 - x) + 1e-12 * max(1.0, abs(done[0])):
                        t, (x, k1) = t1, done
                        h *= factor
                        continue
                    factor = 0.5
                h *= factor
            except PathSingularityError:
                h /= 2.0
            if h < h_min:
                raise PathSingularityError(
                    f"step size fell below {h_min!r} at t={t!r}")
        for _ in range(NEWTON_STEPS):  # final polish on the exact target
            fx = path.target(x)
            dp = path.target.deriv(x)
            if abs(dp) == 0.0:
                break
            step = fx / dp
            x = x - step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        if not cmath.isfinite(x):
            raise TrackingFailureError("tracked root diverged")
        bound = FINAL_RESIDUAL_TOL * path.target.scale * max(1.0, abs(x)) ** n
        if abs(path.target(x)) >= bound:
            raise TrackingFailureError(
                f"tracked root {x} has residual {abs(path.target(x))} >= {bound}")
        out.append(x)
    for i, a in enumerate(out):  # a silent hop would show up as a duplicate
        for b in out[:i]:
            if abs(a - b) <= 1e-8 * (1.0 + abs(a)) \
                    and abs(path.target.deriv(a)) > 1e-6 * path.target.scale:
                raise TrackingFailureError(
                    f"two paths landed on the same simple root {a}")
    return out


def quadratic_sensitivities(a: float, b: float, c: float,
                            x: complex) -> tuple[complex, complex, complex]:
    """(dx/da, dx/db, dx/dc) for a root x of a x^2 + b x + c."""
    denom = 2.0 * a * x + b
    if abs(denom) < 1e-12 * max(abs(a), abs(b), abs(c), 1.0):
        raise RepeatedRootError(f"2ax + b vanishes at x={x}")
    return (-x * x / denom, -x / denom, -1.0 / denom)


def oracle_roots(p: Poly) -> list[complex]:
    """All roots by simultaneous (Durand-Kerner) iteration.

    Starts are perturbed points on a circle of Cauchy-bound radius, offset
    from the real axis so real-coefficient symmetry cannot stall the sweep.
    A sweep whose largest correction is below 1e-12 * max(1, |x|) ends it.
    A close root pair can hold the correction at its rounding floor above
    that bound for good; a correction still below 1e-8 * max(1, |x|) after
    the last sweep is taken as that floor, since a shrinking one would have
    met the bound long before.
    """
    n = p.degree
    lead = p.coeffs[-1]
    radius = 1.0 + max(abs(c) for c in p.coeffs[:-1]) / abs(lead)
    xs = [radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    others = [[j for j in range(n) if j != i] for i in range(n)]
    for _ in range(ORACLE_MAX_ITER):
        biggest = 0.0
        for i, js in enumerate(others):
            x, prod = xs[i], lead
            for j in js:
                prod *= x - xs[j]
            delta = p(x) / prod
            xs[i] = x - delta
            biggest = max(biggest, abs(delta))
        scale = max(1.0, max(abs(x) for x in xs))
        if biggest < 1e-12 * scale:
            return xs
    if biggest < 1e-8 * scale:
        return xs
    raise OracleFailureError(f"no convergence after {ORACLE_MAX_ITER} iterations")


def match_distance(found: list[complex], reference: list[complex]) -> float:
    """Largest pairing distance under the optimal one-to-one assignment.

    This is the bottleneck assignment, computed by a dynamic program over
    subsets: after pairing the first k found roots, best maps each bit mask
    of k used reference roots to the least largest distance over those
    pairings, so the full mask holds the answer, one of the pairwise
    distances.  It costs n * 2**(n-1) steps; every caller has n <= 8.  A NaN
    or infinite distance is never stored, so a non-finite root reads NaN.
    """
    if len(found) != len(reference):
        raise ValueError("root multisets differ in size")
    best = {0: 0.0}
    for f in found:
        row = [abs(f - r) for r in reference]
        nxt: dict[int, float] = {}
        for used, worst in best.items():
            for j, d in enumerate(row):
                key = used | 1 << j
                if key != used:
                    if d < worst:
                        d = worst
                    if d < nxt.get(key, math.inf):
                        nxt[key] = d
        best = nxt
    return best.get((1 << len(found)) - 1, math.nan)
