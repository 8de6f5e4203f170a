"""Executable scale-identity checker.

Every metric formula f with output dimension n and input dimensions n_i must
satisfy n*f = sum_i n_i * x_i * d f/d x_i (lengths have n_i = 1, angles 0).
The right-hand side is the derivative of f(lam^n_i x_i) at lam = 1, a single
directional derivative, so one forward dual-number pass seeded with n_i x_i
gives it exactly.

Angle-valued formulas (n = 0) are normalized by sum_i |x_i d_i f| instead of
n*|f|; that normaliser needs every partial, so they take one dual pass per
argument.  That extension beyond dimensions >= 1 is ours.
"""

from __future__ import annotations

import math

from .dual import DualScalar, value
from .ops import Op

TINY = 1e-30


def partials(op: Op, point: tuple[float, ...]):
    """(f(point), [df/dx_i]) via one dual pass per argument."""
    grads = []
    f_val = None
    for i in range(len(point)):
        args = [DualScalar(p, 1.0 if j == i else 0.0)
                for j, p in enumerate(point)]
        out = op.closed(*args)
        f_val = value(out)
        grads.append(out.der if isinstance(out, DualScalar) else 0.0)
    return f_val, grads


def scale_residual(op: Op, point: tuple[float, ...]) -> float:
    """Dimensionless defect of the scale identity at one point."""
    if op.out_dim == 0:
        _, grads = partials(op, point)
        weighted = math.fsum(ni * xi * gi
                             for ni, xi, gi in zip(op.arg_dims, point, grads))
        floor = math.fsum(abs(xi * gi) for xi, gi in zip(point, grads))
        return abs(weighted) / max(floor, TINY)
    out = op.closed(*(DualScalar(xi, ni * xi)
                      for xi, ni in zip(point, op.arg_dims)))
    f_val = value(out)
    weighted = out.der if isinstance(out, DualScalar) else 0.0
    return abs(op.out_dim * f_val - weighted) / max(op.out_dim * abs(f_val), TINY)


def finite_scaling(op: Op, point: tuple[float, ...]):
    """[(lam, lam**n f(x), f(lam x))] for lam = 0.5 and 2.0, where lam x
    multiplies the length-valued arguments by lam and leaves angles alone."""
    f0 = op.closed(*point)
    return [(lam, lam ** op.out_dim * f0,
             op.closed(*(xi * lam if ni == 1 else xi
                         for xi, ni in zip(point, op.arg_dims))))
            for lam in (0.5, 2.0)]
