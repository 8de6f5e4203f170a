import cmath
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from conftest import ravi_triangles
from geodiff import dual, homogeneity, sampling
from geodiff.cli import RunConfig, run
from geodiff.dual import atan, der, seed, sin, sqrt
from geodiff.ops import table
from geodiff.polyroots import quad_sens_error

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.1, max_value=10.0,
                     allow_nan=False, allow_infinity=False)


def complex_step(f, x, h=1e-20):
    """f'(x) as Im f(x + ih) / h, through cmath: a reference independent of
    the chain rules in ``dual``.

    Unlike a central difference, nothing cancels, so the reference keeps its
    relative accuracy where f' is small: at a = 1.57080078125 below, just past
    pi/2, f' = -1.29e-6 and a central difference with h = 1e-6 is off by
    2.3e-5 relative.
    """
    return f(complex(x, h)).imag / h


def test_carrier_is_the_builtin_complex():
    assert dual.DualScalar is complex
    assert seed(2.0, 3.0) == complex(2.0, 3.0 * dual.H)
    assert der(seed(2.0, 3.0)) == 3.0
    assert der(2.0) == 0.0


@given(finite, finite)
def test_product_rule_exact(a, b):
    x = seed(a)
    out = (x * x) * (x + b)
    # d/dx [x^2 (x+b)] = 3x^2 + 2bx
    assert der(out) == pytest.approx(3.0 * a * a + 2.0 * b * a, rel=1e-12, abs=1e-12)
    if min(abs(a), abs(a + b)) > 1e-60:  # far above H
        assert out.real == (a * a) * (a + b)


def test_a_zero_product_keeps_its_h_squared_term():
    x = seed(0.0, 2.0)
    assert (x * x).real == -4.0 * dual.H * dual.H
    with pytest.raises(ValueError):
        sqrt(x * x)


@given(finite)
def test_quotient_rule(a):
    x = seed(a)
    out = (x * x + 1.0) / (x * x + 2.0)
    expected = 2.0 * a / (a * a + 2.0) ** 2
    assert der(out) == pytest.approx(expected, rel=1e-12, abs=1e-14)
    assert out.real == (a * a + 1.0) / (a * a + 2.0)


@given(positive)
@example(1.57080078125)
def test_chain_rule_vs_finite_difference(a):
    f = lambda x: sqrt(sin(x) + 2.0)
    fc = lambda z: cmath.sqrt(cmath.sin(z) + 2.0)
    got = f(seed(a))
    assert der(got) == pytest.approx(complex_step(fc, a), rel=1e-6)
    assert got.real == f(a)


@given(positive)
def test_sqrt_and_sin_analytic(a):
    assert der(sqrt(seed(a))) == pytest.approx(0.5 / math.sqrt(a), rel=1e-15)
    assert der(sin(seed(a))) == math.cos(a)
    assert sqrt(seed(a)).real == math.sqrt(a)
    assert sin(seed(a)).real == math.sin(a)


@given(st.floats(min_value=-0.9, max_value=0.9,
                 allow_nan=False, allow_infinity=False))
def test_inverse_trig(a):
    got = atan(seed(a))
    assert der(got) == pytest.approx(1.0 / (1 + a * a), rel=1e-12)
    assert der(got) == pytest.approx(complex_step(cmath.atan, a), rel=1e-12)
    assert got.real == math.atan(a)


def test_sqrt_of_a_seeded_negative_raises():
    with pytest.raises(ValueError):
        sqrt(seed(-1.0))
    with pytest.raises(ZeroDivisionError):
        sqrt(seed(0.0))


def test_power_and_scalar_mixing():
    x = seed(3.0)
    out = 2.0 * x ** 3 - x / 2.0 + 5.0
    assert out.real == pytest.approx(2 * 27 - 1.5 + 5)
    assert der(out) == pytest.approx(6.0 * 9.0 - 0.5)


def test_rsub_rdiv():
    x = seed(2.0)
    assert der(1.0 - x) == -1.0
    assert der(1.0 / x) == pytest.approx(-0.25)


def derivatives(op, point):
    """Every partial of op at point, then the scale-direction derivative."""
    _, grads = homogeneity.partials(op, point)
    out = op.closed(*(seed(xi, ni * xi) for xi, ni in zip(point, op.arg_dims)))
    return [g.hex() for g in grads] + [der(out).hex()]


@pytest.fixture(scope="module")
def quadratics():
    """(a, b, c, r2) of every quad_sens record of a 100-case roots run."""
    return [tuple(map(float, r.inputs.split(";")))
            for r in run(RunConfig(suite="roots", cases=100, seed=0)).records
            if r.op == "quad_sens"]


@pytest.mark.parametrize("step", [2.0 ** -150, 2.0 ** -500])
def test_derivatives_do_not_depend_on_the_step(step, quadratics, monkeypatch):
    """Any power-of-two H small enough that H^2 terms vanish gives the same
    bits, on sampled points, on near-degenerate triangles and in the roots
    suite's quadratic sensitivity check."""
    rng = random.Random(5)
    cases = [(op, op.sample(rng)) for op in table() for _ in range(100)]
    cases += [(op, t) for t in ravi_triangles(random.Random(9), 1000)
              for op in table() if op.sample is sampling.triangle]
    want = [derivatives(op, point) for op, point in cases]
    want += [quad_sens_error(*q).hex() for q in quadratics]
    monkeypatch.setattr(dual, "H", step)
    assert [derivatives(op, point) for op, point in cases] \
        + [quad_sens_error(*q).hex() for q in quadratics] == want
