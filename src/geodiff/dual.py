"""Forward-mode derivatives carried by Python's built-in complex numbers.

A value x with derivative d along one chosen direction rides as
``seed(x, d) == complex(x, H*d)``: the complex step (Squire & Trapp, SIAM
Review 40, 1998; Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003).  Complex
arithmetic carries H times the derivative in the imaginary part, which
``der`` reads back.  H is a power of two, so scaling by it is exact, and the
H^2 terms that products and quotients add to the real part fall far below
its rounding: the real part is the float kernel's value, unless a real part
on the way is exactly 0 or near H in size (x*x at x = 0 reads -H^2 d^2).
No other module reads or builds a carrier's imaginary part: derivatives go
in through ``seed`` and come out through ``der``.  (The complex roots of
``polyroots`` are not carriers.)

So a kernel compares ``.real`` and never calls ``abs`` (the modulus; ordering
raises TypeError).  Dividing by a carrier whose real part is 0 does not
raise, and ``x ** 0.5`` does not raise; ``sqrt`` below still raises at and
below 0.  ``sqrt``, ``sin`` and ``atan`` apply ``math`` to the real part and
their chain rule to the imaginary part; ``cmath`` would not do, since
``cmath.sqrt(-1)`` is ``1j`` and ``cmath.atan``'s real part is not
``math.atan``'s.  ``rel``, the one floored relative error, lives here because
``cli``, ``odes``, ``homogeneity`` and ``polyroots`` all import this module.
"""

from __future__ import annotations

import math

H = 2.0 ** -300

# the carrier type, read only by the functions below and the tracer
DualScalar = complex


def seed(x: float, d: float = 1.0) -> complex:
    """x carrying the derivative d."""
    return complex(x, H * d)


def der(z) -> float:
    """The derivative z carries; 0.0 for a float."""
    return z.imag / H


def rel(diff: float, scale: float) -> float:
    """|diff| / |scale|, |scale| floored at 1e-30 and a NaN kept: every route's
    relative error (max(scale, 1e-30) without the call)."""
    scale = abs(scale)
    return abs(diff) / (1e-30 if scale < 1e-30 else scale)


def sqrt(x):
    if isinstance(x, DualScalar):
        v = math.sqrt(x.real)
        return complex(v, x.imag / (2.0 * v))
    return math.sqrt(x)


def sin(x):
    if isinstance(x, DualScalar):
        return complex(math.sin(x.real), math.cos(x.real) * x.imag)
    return math.sin(x)


def atan(x):
    if isinstance(x, DualScalar):
        return complex(math.atan(x.real), x.imag / (1.0 + x.real * x.real))
    return math.atan(x)
