"""Polynomial root tracking along coefficient paths.

A root x of P(x) = sum a_k x^k responds to coefficient changes through
dx/da_k = -x^k / P'(x).  Moving the coefficients linearly from a start system
S with known roots to a target Q, P_t = (1-t) gamma S + t Q, and chaining
these sensitivities gives dx/dt = -sum_k (q_k - gamma s_k) x^k / P'_t(x) with
P'_t = (1-t) (gamma S)' + t Q', integrated here with the Dormand-Prince 5(4)
pair ("A family of embedded Runge-Kutta formulae", J. Comput. Appl. Math. 6,
1980) and re-converged after every step by a few Newton corrections.

Paths use complex arithmetic with a random unit twist on the start system:
real coefficient paths generically pass through discriminant zeros, while a
twisted path misses them with probability one.  Twisted paths can still pass
*near* each other, and a predictor that jumps across such an encounter lands
in the Newton basin of the wrong root.  Each root therefore carries its own
step size: FIRST_STEP at the start, then set by the embedded error estimate
of the last attempt and limited only by the rest of the path (adaptive
predictor/corrector control after Bates, Hauenstein, Sommese & Wampler,
"Adaptive multiprecision path tracking", SIAM J. Numer. Anal. 2008): a step
is accepted only when the order-5 and order-4 solutions agree and the Newton
correction stays small, and the step shrinks until it is, down to a bounded
minimum.  A hop that survives all of that would have to produce a duplicate,
which the final pairing check turns into a hard error.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

LEADING_TOL = 1e-12
START_RESIDUAL_TOL = 1e-10
FINAL_RESIDUAL_TOL = 1e-8
DERIV_FLOOR = 1e-12
NEWTON_STEPS = 5
LOCAL_TOL = 1e-8      # order-5 vs order-4 agreement, relative to the root scale
MAX_REFINE_DEPTH = 20
FIRST_STEP = 1.0 / 64  # a root's first step; the error estimate sets the rest
ORACLE_MAX_ITER = 1000  # Durand-Kerner sweeps before the stall test


class PathSingularityError(RuntimeError):
    """P'_t vanished along the path; carries the failing step index."""


class TrackingFailureError(RuntimeError):
    """A tracked root failed to converge onto the target polynomial."""


class OracleFailureError(RuntimeError):
    """Simultaneous iteration did not converge."""


class RepeatedRootError(ValueError):
    """Sensitivities are undefined at a repeated root."""


@dataclass(frozen=True)
class Poly:
    """Coefficients a_0..a_n, low order first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not all(map(cmath.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")
        if abs(self.coeffs[-1]) <= LEADING_TOL * self.scale:
            raise ValueError("leading coefficient is numerically zero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def scale(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def __call__(self, x: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self, x: complex) -> complex:
        acc = 0.0 + 0.0j
        for k in range(self.degree, 0, -1):
            acc = acc * x + k * self.coeffs[k]
        return acc


def unit_circle_start(n: int) -> tuple[Poly, tuple[complex, ...]]:
    """x^n - 1 and its roots of unity: simple roots, uniform conditioning."""
    coeffs = [-1.0 + 0.0j] + [0.0j] * (n - 1) + [1.0 + 0.0j]
    roots = tuple(cmath.exp(2j * math.pi * k / n) for k in range(n))
    return Poly(tuple(coeffs)), roots


@dataclass(frozen=True)
class ContinuationPath:
    """Linear coefficient homotopy (1-t)*gamma*start + t*target."""

    start: Poly
    start_roots: tuple[complex, ...]
    target: Poly
    gamma: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.start.degree != self.target.degree:
            raise ValueError("start and target degrees differ")
        if abs(abs(self.gamma) - 1.0) > 1e-12:
            raise ValueError("gamma must have unit magnitude")
        bound = START_RESIDUAL_TOL * self.start.scale
        for r in self.start_roots:
            if abs(self.start(r)) > bound * max(1.0, abs(r)) ** self.start.degree:
                raise ValueError(f"start root {r} does not satisfy the start system")

    def at(self, t: float) -> Poly:
        g = (1.0 - t) * self.gamma
        return Poly(tuple(g * s + t * q
                          for s, q in zip(self.start.coeffs, self.target.coeffs)))

    def coeff_rate(self) -> tuple[complex, ...]:
        return tuple(q - self.gamma * s
                     for s, q in zip(self.start.coeffs, self.target.coeffs))


def make_path(target: Poly, rng: random.Random | None = None) -> ContinuationPath:
    """Default path from the twisted unit-circle start system."""
    start, roots = unit_circle_start(target.degree)
    u = rng.random() if rng is not None else 0.6180339887498949
    return ContinuationPath(start, roots, target,
                            gamma=cmath.exp(2j * math.pi * u))


def velocity_rows(path: ContinuationPath) -> tuple:
    """Horner rows (k gamma s_k, k q_k, r_k), k = n..1, of (gamma S)', Q' and
    R = Q - gamma S, fixed along the path: the first row, the rest, and r_0."""
    s, q, r = path.start.coeffs, path.target.coeffs, path.coeff_rate()
    rows = [(k * (path.gamma * s[k]), k * q[k], r[k]) for k in range(len(r) - 1, 0, -1)]
    return rows[0], tuple(rows[1:]), r[0]


def velocity_terms(rows: tuple, g: float, t: float,
                   x: complex) -> tuple[complex, complex]:
    """(P'_t(x), R(x)) in one pass over rows, P'_t = g (gamma S)' + t Q', g = 1-t."""
    (ds, dq, num), body, r0 = rows
    for a, b, c in body:
        ds = ds * x + a
        dq = dq * x + b
        num = num * x + c
    return g * ds + t * dq, num * x + r0


def track(path: ContinuationPath) -> list[complex]:
    """Advance every start root to t = 1 and return the corrected roots.

    The velocity chains dx/da_k = -x^k / P'(x) along the path, dx/dt = -sum_k
    (q_k - gamma s_k) x^k / ((1-t) (gamma S)'(x) + t Q'(x)), all three sums
    from one pass over velocity_rows.  Each root carries its own step size h,
    starting at FIRST_STEP; no cap follows, so only the rest of the span,
    1 - t, limits a step.  An attempt is one Dormand-Prince 5(4) step: seven
    velocity evaluations, the first reused after a rejection, the last at the
    order-5 value.  After every attempt h is scaled by 0.9 * err**-0.2,
    clipped to [1/4, 2], where err is the gap between the order-5 and order-4
    values relative to LOCAL_TOL (err <= 1 passes); the step advances with the
    order-5 value.  An attempt that passes that test but fails the corrector,
    or that meets a vanishing P', halves h instead.  A root whose step falls
    below FIRST_STEP / 2**MAX_REFINE_DEPTH raises PathSingularityError.

    Three tests guard every accepted step against a hop onto a neighbouring
    path: the order-5 and order-4 values agree to LOCAL_TOL; Newton reaches a
    1e-13 relative residual without P' dropping under DERIV_FLOOR; and the
    Newton correction is at most a quarter of the predicted move.  Both scales
    are max|c_k| of P_t itself (exact_at), as the split sum rounds worse where
    gamma s_k and q_k cancel; P' is tested first against the bound
    B(t) = ((1-t) max|gamma s_k| + t max|q_k|)(1 + 1e-12) >= max|c_k|.
    After the final polish on the target, a non-finite root, a residual of
    FINAL_RESIDUAL_TOL or more, or two paths on one simple root raise
    TrackingFailureError.
    """
    rows, n = velocity_rows(path), path.target.degree
    h_min = FIRST_STEP / 2 ** MAX_REFINE_DEPTH
    start_p = tuple(path.gamma * s for s in path.start.coeffs)[::-1]
    target_p = path.target.coeffs[::-1]
    start_scale, target_scale = max(map(abs, start_p)), max(map(abs, target_p))

    def exact_at(t: float) -> tuple:
        """P_t coefficients in Horner order and their scale, built on demand."""
        g = 1.0 - t
        c = tuple(g * s + t * q for s, q in zip(start_p, target_p))
        return c, max(map(abs, c))

    def velocity(t: float, x: complex) -> complex:
        g = 1.0 - t
        dp, num = velocity_terms(rows, g, t, x)
        m = max(1.0, abs(x)) ** (n - 1)
        bound = (g * start_scale + t * target_scale) * (1.0 + 1e-12)
        if abs(dp) < DERIV_FLOOR * bound * m \
                and abs(dp) < DERIV_FLOOR * exact_at(t)[1] * m:
            raise PathSingularityError(f"P' vanished along the path at t={t!r}")
        return -num / dp

    def dopri(t1: float, t: float, x: complex, k1: complex) -> tuple[complex, complex]:
        """One Dormand-Prince 5(4) step, t to t1: the order-5 value y5 and y5 - y4."""
        h = t1 - t
        k2 = velocity(t + h / 5.0, x + h * (k1 / 5.0))
        k3 = velocity(t + 0.3 * h, x + h * (3 / 40 * k1 + 9 / 40 * k2))
        k4 = velocity(t + 0.8 * h,
                      x + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
        k5 = velocity(t + 8 / 9 * h,
                      x + h * (19372 / 6561 * k1 - 25360 / 2187 * k2
                               + 64448 / 6561 * k3 - 212 / 729 * k4))
        k6 = velocity(t1, x + h * (9017 / 3168 * k1 - 355 / 33 * k2
                                   + 46732 / 5247 * k3 + 49 / 176 * k4
                                   - 5103 / 18656 * k5))
        y5 = x + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4
                      - 2187 / 6784 * k5 + 11 / 84 * k6)
        k7 = velocity(t1, y5)
        return y5, h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4
                        - 17253 / 339200 * k5 + 22 / 525 * k6 - 1 / 40 * k7)

    def correct(t: float, x: complex) -> complex | None:
        """Newton on P_t from x; None if the residual test is never met."""
        coeffs, scale = exact_at(t)
        for i in range(NEWTON_STEPS + 1):
            fx = 0.0 + 0.0j
            for a in coeffs:
                fx = fx * x + a
            if abs(fx) <= 1e-13 * scale * max(1.0, abs(x)) ** n:
                return x
            if i == NEWTON_STEPS:
                return None
            dp = velocity_terms(rows, 1.0 - t, t, x)[0]
            if abs(dp) < DERIV_FLOOR * scale * max(1.0, abs(x)) ** (n - 1):
                raise PathSingularityError(f"P' vanished in correction at t={t!r}")
            x = x - fx / dp

    out = []
    for x in path.start_roots:
        t, h, k1 = 0.0, FIRST_STEP, None
        while t < 1.0:
            t1 = min(1.0, t + h)
            try:
                if k1 is None:  # x and t are unchanged after a rejection
                    k1 = velocity(t, x)
                y5, delta = dopri(t1, t, x, k1)
                err = abs(delta) / (LOCAL_TOL * max(1.0, abs(y5)))
                # the 1e-4 floor only avoids 0 ** -0.2; the cap of 2 binds from 0.02
                factor = min(2.0, max(0.25, 0.9 * max(err, 1e-4) ** -0.2))
                if err <= 1.0:
                    corrected = correct(t1, y5)
                    if corrected is not None and abs(corrected - y5) \
                            <= 0.25 * abs(y5 - x) + 1e-12 * max(1.0, abs(corrected)):
                        t, x, k1 = t1, corrected, None
                        h *= factor
                        continue
                    factor = 0.5
                h *= factor
            except PathSingularityError:
                h /= 2.0
            if h < h_min:
                raise PathSingularityError(
                    f"step size fell below {h_min!r} at t={t!r}")
        for _ in range(3 * NEWTON_STEPS):  # final polish on the exact target
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
    for _ in range(ORACLE_MAX_ITER):
        biggest = 0.0
        for i in range(n):
            prod = lead
            for j in range(n):
                if j != i:
                    prod *= xs[i] - xs[j]
            delta = p(xs[i]) / prod
            xs[i] -= delta
            biggest = max(biggest, abs(delta))
        scale = max(1.0, max(abs(x) for x in xs))
        if biggest < 1e-12 * scale:
            return xs
    if biggest < 1e-8 * scale:
        return xs
    raise OracleFailureError(f"no convergence after {ORACLE_MAX_ITER} iterations")


def match_distance(found: list[complex], reference: list[complex]) -> float:
    """Largest pairing distance under the optimal one-to-one assignment.

    This is the bottleneck assignment: the smallest d such that every found
    root pairs with its own reference root at distance <= d.  d is one of the
    pairwise distances, so a binary search over them, deciding each candidate
    with Kuhn's augmenting paths, finds it exactly.
    """
    if len(found) != len(reference):
        raise ValueError("root multisets differ in size")
    n = len(found)
    dist = [[abs(f - r) for r in reference] for f in found]
    levels = sorted({d for row in dist for d in row}) or [0.0]
    lo, hi = 0, len(levels) - 1  # the largest distance always admits a pairing
    while lo < hi:
        mid = (lo + hi) // 2
        owner: list[int | None] = [None] * n  # found index paired with each reference
        if all(_augment(i, dist, levels[mid], owner, set()) for i in range(n)):
            hi = mid
        else:
            lo = mid + 1
    return levels[lo]


def _augment(i: int, dist: list[list[float]], limit: float,
             owner: list[int | None], seen: set[int]) -> bool:
    """Kuhn's augmenting path from found root i over pairs within limit.

    A module function taking its state as arguments: a recursive closure
    would tie itself to its cell in a reference cycle on every call.
    """
    for j, d in enumerate(dist[i]):
        if d <= limit and j not in seen:
            seen.add(j)
            if owner[j] is None or _augment(owner[j], dist, limit, owner, seen):
                owner[j] = i
                return True
    return False
