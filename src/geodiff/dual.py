"""First-order dual numbers for forward-mode differentiation.

A DualScalar carries a value and the derivative of that value with respect
to one designated input. Seed the input of interest with der=1.0 and every
arithmetic operation propagates the derivative exactly (product/chain rules).
"""

from __future__ import annotations

import math


class DualScalar:
    """Value/derivative pair ``val + der*eps`` with ``eps**2 == 0``."""

    __slots__ = ("val", "der")

    def __init__(self, val: float, der: float = 0.0):
        self.val = float(val)
        self.der = float(der)

    def __repr__(self) -> str:
        return f"DualScalar({self.val!r}, {self.der!r})"

    def __add__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.val + other.val, self.der + other.der)
        return DualScalar(self.val + other, self.der)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.val - other.val, self.der - other.der)
        return DualScalar(self.val - other, self.der)

    def __rsub__(self, other):
        return DualScalar(other - self.val, -self.der)

    def __mul__(self, other):
        if isinstance(other, DualScalar):
            return DualScalar(self.val * other.val,
                              self.val * other.der + self.der * other.val)
        return DualScalar(self.val * other, self.der * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DualScalar):
            inv = 1.0 / other.val
            return DualScalar(self.val * inv,
                              (self.der - self.val * other.der * inv) * inv)
        inv = 1.0 / other
        return DualScalar(self.val * inv, self.der * inv)

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        return DualScalar(other * inv, -other * self.der * inv * inv)

    def __neg__(self):
        return DualScalar(-self.val, -self.der)

    def __pow__(self, exponent):
        """Non-negative integer powers only; any other exponent is a TypeError."""
        if not (isinstance(exponent, int) and exponent >= 0):
            return NotImplemented
        out = DualScalar(1.0, 0.0)
        for _ in range(exponent):
            out = out * self
        return out


def sqrt(x):
    if isinstance(x, DualScalar):
        v = math.sqrt(x.val)
        return DualScalar(v, x.der / (2.0 * v))
    return math.sqrt(x)


def sin(x):
    if isinstance(x, DualScalar):
        return DualScalar(math.sin(x.val), math.cos(x.val) * x.der)
    return math.sin(x)


def atan(x):
    if isinstance(x, DualScalar):
        return DualScalar(math.atan(x.val), x.der / (1.0 + x.val * x.val))
    return math.atan(x)


def value(x) -> float:
    """Plain float value of x, whether x is a float or a DualScalar."""
    return x.val if isinstance(x, DualScalar) else float(x)
