import math
import random

import pytest
from hypothesis import strategies as st

from geodiff import geom
from geodiff.sampling import MARGIN


def valid_sides(x, y, z):
    peri = x + y + z
    return min(x + y - z, y + z - x, z + x - y) > MARGIN * peri


side = st.floats(min_value=0.1, max_value=10.0,
                 allow_nan=False, allow_infinity=False)

triangles = st.tuples(side, side, side).filter(lambda s: valid_sides(*s)) \
    .map(lambda s: geom.triangle_sides(*s))


def valid_quad(sides):
    total = sum(sides)
    return min(total - 2.0 * s for s in sides) > MARGIN * total


cut = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)

# drawn as sampling.cyclic_quad draws: a radius and three increasing cuts
quads = st.tuples(side, cut, cut, cut) \
    .map(lambda d: (d[0], *sorted(d[1:]))) \
    .filter(lambda d: 0.0 < d[1] < d[2] < d[3])


def ravi_triangles(rng, draws):
    """Near-degenerate triangles by Ravi substitution: sides (q + r, r + p,
    p + q) with p, q log-uniform in [0.1, 10] and r = delta * min(p, q),
    delta log-uniform in [1e-12, 1e-3], so x + y - z = 2r.  Draws that
    geom.triangle_sides rejects are dropped."""

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    out = []
    for _ in range(draws):
        p, q = log_uniform(0.1, 10.0), log_uniform(0.1, 10.0)
        r = log_uniform(1e-12, 1e-3) * min(p, q)
        try:
            out.append(geom.triangle_sides(q + r, r + p, p + q))
        except geom.DomainError:
            pass
    return out


@pytest.fixture
def rng():
    return random.Random(20240811)


def rel_err(actual, expected):
    return abs(actual - expected) / max(abs(expected), 1e-30)


def assert_close(actual, expected, tol, label=""):
    err = rel_err(actual, expected)
    assert err < tol, f"{label}: {actual} vs {expected} (rel err {err:.3e})"


def rotate_translate(point, angle, shift):
    c, s = math.cos(angle), math.sin(angle)
    return (c * point[0] - s * point[1] + shift[0],
            s * point[0] + c * point[1] + shift[1])
