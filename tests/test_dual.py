import cmath

import pytest
from hypothesis import example, given, strategies as st

from geodiff.dual import DualScalar, atan, sin, sqrt

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.1, max_value=10.0,
                     allow_nan=False, allow_infinity=False)


def complex_step(f, x, h=1e-20):
    """f'(x) as Im f(x + ih) / h.

    Unlike a central difference, nothing cancels, so the reference keeps its
    relative accuracy where f' is small: at a = 1.57080078125 below, just past
    pi/2, f' = -1.29e-6 and a central difference with h = 1e-6 is off by
    2.3e-5 relative.
    """
    return f(complex(x, h)).imag / h


@given(finite, finite)
def test_product_rule_exact(a, b):
    x = DualScalar(a, 1.0)
    out = (x * x) * (x + b)
    # d/dx [x^2 (x+b)] = 3x^2 + 2bx, exactly representable
    assert out.der == pytest.approx(3.0 * a * a + 2.0 * b * a, rel=1e-12, abs=1e-12)


@given(finite)
def test_quotient_rule(a):
    x = DualScalar(a, 1.0)
    out = (x * x + 1.0) / (x * x + 2.0)
    expected = 2.0 * a / (a * a + 2.0) ** 2
    assert out.der == pytest.approx(expected, rel=1e-12, abs=1e-14)


@given(positive)
@example(1.57080078125)
def test_chain_rule_vs_finite_difference(a):
    f = lambda x: sqrt(sin(x) + 2.0)
    fc = lambda z: cmath.sqrt(cmath.sin(z) + 2.0)
    got = f(DualScalar(a, 1.0)).der
    assert got == pytest.approx(complex_step(fc, a), rel=1e-6)


@given(st.floats(min_value=-0.9, max_value=0.9,
                 allow_nan=False, allow_infinity=False))
def test_inverse_trig(a):
    got = atan(DualScalar(a, 1.0)).der
    assert got == pytest.approx(1.0 / (1 + a * a), rel=1e-12)


def test_power_and_scalar_mixing():
    x = DualScalar(3.0, 1.0)
    out = 2.0 * x ** 3 - x / 2.0 + 5.0
    assert out.val == pytest.approx(2 * 27 - 1.5 + 5)
    assert out.der == pytest.approx(6.0 * 9.0 - 0.5)
    with pytest.raises(TypeError):
        x ** 0.5
    with pytest.raises(TypeError):
        x ** -1


def test_rsub_rdiv():
    x = DualScalar(2.0, 1.0)
    assert (1.0 - x).der == -1.0
    assert (1.0 / x).der == pytest.approx(-0.25)
