"""Executable scale-identity checker.

Every metric formula f with output dimension n and input dimensions n_i must
satisfy n*f = sum_i n_i * x_i * d f/d x_i (lengths have n_i = 1, angles 0).
The right-hand side is the derivative of f(lam^n_i x_i) at lam = 1, a single
directional derivative, so one forward complex-step pass (``dual``) seeded
with n_i x_i gives it to rounding.

Angle-valued formulas (n = 0) are normalized by sum_i |x_i d_i f| instead of
n*|f|; that normaliser needs every partial, so they take one pass per
argument.  That extension beyond dimensions >= 1 is ours.
"""

from __future__ import annotations

import math

from .dual import der, seed
from .ops import Op

TINY = 1e-30


def partials(op: Op, point: tuple[float, ...]):
    """[df/dx_i] via one complex-step pass per argument."""
    return [der(op.closed(*(seed(p, float(j == i))
                            for j, p in enumerate(point))))
            for i in range(len(point))]


def scale_residual(op: Op, point: tuple[float, ...]) -> float:
    """Dimensionless defect of the scale identity at one point."""
    if op.out_dim == 0:
        grads = partials(op, point)
        weighted = math.fsum(ni * xi * gi
                             for ni, xi, gi in zip(op.arg_dims, point, grads))
        floor = math.fsum(abs(xi * gi) for xi, gi in zip(point, grads))
        return abs(weighted) / max(floor, TINY)
    out = op.closed(*(seed(xi, ni * xi) for xi, ni in zip(point, op.arg_dims)))
    f_val = out.real
    return abs(op.out_dim * f_val - der(out)) / max(op.out_dim * abs(f_val), TINY)


def finite_scaling(op: Op, point: tuple[float, ...]):
    """[(lam, lam**n f(x), f(lam x))] for lam = 0.5 and 2.0, where lam x
    multiplies the length-valued arguments by lam and leaves angles alone."""
    f0 = op.closed(*point)
    return [(lam, lam ** op.out_dim * f0,
             op.closed(*(xi * lam if ni == 1 else xi
                         for xi, ni in zip(point, op.arg_dims))))
            for lam in (0.5, 2.0)]
