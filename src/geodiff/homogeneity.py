"""Executable scale-identity checker.

Every metric formula f with output dimension n and input dimensions n_i must
satisfy n*f = sum_i n_i * x_i * d f/d x_i (lengths have n_i = 1, angles 0).
The partial derivatives come from one forward dual-number pass per argument.

Angle-valued formulas (n = 0) are normalized by sum_i |x_i d_i f| instead of
n*|f|; that extension beyond dimensions >= 1 is ours.
"""

from __future__ import annotations

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
    f_val, grads = partials(op, point)
    weighted = sum(ni * xi * gi
                   for ni, xi, gi in zip(op.arg_dims, point, grads))
    if op.out_dim == 0:
        floor = sum(abs(xi * gi) for xi, gi in zip(point, grads))
        return abs(weighted) / max(floor, TINY)
    return abs(op.out_dim * f_val - weighted) / max(op.out_dim * abs(f_val), TINY)


def finite_scaling(op: Op, point: tuple[float, ...]):
    """[(lam, lam**n f(x), f(lam x))] for lam = 0.5 and 2.0, where lam x
    multiplies the length-valued arguments by lam and leaves angles alone."""
    f0 = op.closed(*point)
    return [(lam, lam ** op.out_dim * f0,
             op.closed(*(xi * lam if ni == 1 else xi
                         for xi, ni in zip(point, op.arg_dims))))
            for lam in (0.5, 2.0)]
