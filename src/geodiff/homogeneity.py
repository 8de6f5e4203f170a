"""Executable scale-identity checker.

Every metric formula f with output dimension n and input dimensions n_i must
satisfy n*f = sum_i n_i * x_i * d f/d x_i (lengths have n_i = 1, angles 0).
The right-hand side is the derivative of f(lam^n_i x_i) at lam = 1, a single
directional derivative, so one forward complex-step pass (``dual``) seeded
with n_i x_i gives it to rounding, and its real part is f(x) itself: the
finite-scaling records lam^n f(x) reuse that value instead of calling f again.

Angle-valued formulas (n = 0) are normalized by sum_i |x_i d_i f| instead of
n*|f|; that normaliser needs every partial, so they take one pass per
argument; the first pass's real part is their f(x).  That extension beyond
dimensions >= 1 is ours.
"""

from __future__ import annotations

import math

from .dual import der, rel, seed
from .ops import Op


def partials(op: Op, point: tuple[float, ...]):
    """(f, [df/dx_i]) via one complex-step pass per argument; f is the real
    part of the first."""
    outs = [op.closed(*(seed(p, float(j == i)) for j, p in enumerate(point)))
            for i in range(len(point))]
    return outs[0].real, [der(out) for out in outs]


def scale_residual(op: Op, point: tuple[float, ...]) -> tuple[float, float]:
    """(dimensionless defect of the scale identity, f) at one point."""
    if op.out_dim == 0:
        f_val, grads = partials(op, point)
        weighted = math.fsum(ni * xi * gi
                             for ni, xi, gi in zip(op.arg_dims, point, grads))
        floor = math.fsum(abs(xi * gi) for xi, gi in zip(point, grads))
        return rel(weighted, floor), f_val
    out = op.closed(*(seed(xi, ni * xi) for xi, ni in zip(point, op.arg_dims)))
    f_val = out.real
    nf = op.out_dim * f_val
    return rel(nf - der(out), nf), f_val


def finite_scaling(op: Op):
    """[(lam, lam**n, factors)] for lam = 0.5 and 2.0: f(x * factors) must be
    lam**n f(x), where the factors multiply the length-valued arguments by
    lam and the angles by 1.0, which leaves them as they are."""
    return [(lam, lam ** op.out_dim,
             tuple(lam if ni == 1 else 1.0 for ni in op.arg_dims))
            for lam in (0.5, 2.0)]
