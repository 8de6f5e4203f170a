import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from conftest import assert_close, quads, triangles
from geodiff import formulas, geom, oracle

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


class TestTypes:
    def test_triangle_rejects_nonpositive(self):
        for bad in [(0.0, 1, 1), (-1, 2, 2), (1, math.nan, 1), (1, 2, math.inf)]:
            with pytest.raises(geom.DomainError):
                geom.Triangle(*bad)

    def test_triangle_rejects_degenerate(self):
        with pytest.raises(geom.DomainError):
            geom.Triangle(1.0, 2.0, 3.0)
        with pytest.raises(geom.DomainError):
            geom.Triangle(1.0, 1.0, 2.0 - 1e-15)

    def test_triangle_margin_configurable(self):
        sides = (1.0, 1.0, 1.999999)
        geom.Triangle(*sides)  # fine at the default margin

    def test_quad_needs_circumscribed_circle(self):
        with pytest.raises(geom.DomainError):
            geom.CyclicQuad(10.0, 1.0, 2.0, 3.0)
        geom.CyclicQuad(1.0, 1.0, 1.0, 1.0)


class TestHypotenuse:
    def test_classic(self):
        assert formulas.hypotenuse(3.0, 4.0) == pytest.approx(5.0, rel=1e-15)

    def test_degenerate_leg(self):
        assert_close(formulas.hypotenuse(1.0, 1e-15), 1.0, 1e-12)

    def test_unit_legs(self):
        # frozen from the legs-on-axes construction dist((1,0),(0,1))
        assert_close(formulas.hypotenuse(1.0, 1.0), 1.4142135623730951, 1e-14)


class TestMedian:
    def test_right_triangle(self):
        assert formulas.median(3, 4, 5) == pytest.approx(2.5, rel=1e-15)

    def test_equilateral(self):
        assert_close(formulas.median(1, 1, 1), SQ3 / 2.0, 1e-14)

    def test_2_3_4(self):
        # frozen midpoint-construction value
        assert_close(formulas.median(2, 3, 4), 1.5811388300841898, 1e-12)


class TestCevian:
    def test_midpoint_reduces_to_median(self):
        assert_close(formulas.cevian(4, 3, 2.5, 2.5), formulas.median(4, 3, 5),
                     1e-14)

    def test_collapsed_x_limit_gives_m(self):
        # formula at x -> 0 with y = m + n; geom.Triangle rejects the
        # degenerate triangle itself
        d = formulas.cevian(1e-8, 5.0, 2.0, 3.0)
        assert_close(d, 2.0, 1e-12)

    def test_4_3_5_split_2_3(self):
        # frozen section-point construction value
        assert_close(formulas.cevian(4, 3, 2, 3), 2.6832815729997477, 1e-12)

    def test_split_mismatch(self):
        # the theorems oracle checks the split against the constructed z-side
        e = oracle.embed_triangle(geom.Triangle(4, 3, 5))
        with pytest.raises(oracle.OracleError):
            oracle.measure_cevian(e, 2.0, 2.0)


class TestArea:
    def test_isoceles_right(self):
        assert_close(formulas.triangle_area(1, 1, SQ2), 0.5, 1e-12)

    def test_3_4_5(self):
        assert formulas.triangle_area(3, 4, 5) == pytest.approx(6.0)

    def test_2_3_4(self):
        # frozen shoelace value
        assert_close(formulas.triangle_area(2, 3, 4), 2.9047375096555625, 1e-12)


class TestAngle:
    def test_equilateral(self):
        assert_close(formulas.angle_gamma(1, 1, 1), math.pi / 3.0, 1e-14)

    def test_right_angle(self):
        assert_close(formulas.angle_gamma(2.0, 3.0, math.hypot(2.0, 3.0)),
                     math.pi / 2.0, 1e-12)

    def test_2_3_4(self):
        # frozen dot-product construction value, acos(-1/4)
        assert_close(formulas.angle_gamma(2, 3, 4), 1.8234765819369754, 1e-12)

    def test_needle(self):
        # acos of the cosine law is off by 8e-13 here; reference by mpmath at
        # 40 digits from the same binary sides
        assert_close(formulas.angle_gamma(8.3125, 8.37280547895568, 0.1015625),
                     0.009795572240721471916, 1e-15)


class TestBisectors:
    def test_full_right_triangle_is_square_diagonal(self):
        x, y = 3.0, 4.0
        assert_close(formulas.bisector_full(x, y, math.hypot(x, y)),
                     SQ2 * x * y / (x + y), 1e-12)

    def test_full_equilateral(self):
        assert_close(formulas.bisector_full(1, 1, 1), SQ3 / 2, 1e-14)

    def test_full_2_3_4(self):
        # frozen vertex-to-foot construction value
        assert_close(formulas.bisector_full(2, 3, 4), 1.469693845669907, 1e-12)

    def test_to_incenter_right_triangle(self):
        x, y = 3.0, 4.0
        z = math.hypot(x, y)
        r = x * y / (x + y + z)
        assert_close(formulas.bisector_to_incenter(x, y, z), SQ2 * r, 1e-12)

    def test_to_incenter_equilateral(self):
        assert_close(formulas.bisector_to_incenter(SQ3, SQ3, SQ3), 1.0, 1e-12)

    def test_to_incenter_2_3_4(self):
        # frozen barycentric-incenter construction value
        assert_close(formulas.bisector_to_incenter(2, 3, 4),
                     0.816496580927726, 1e-12)

    def test_ratio(self):
        assert_close(formulas.incenter_ratio(1, 1, 1), 2 / 3, 1e-13)
        assert_close(formulas.incenter_ratio(3, 4, 5), 7 / 12, 1e-12)
        assert_close(formulas.incenter_ratio(2, 3, 4), 5 / 9, 1e-12)


class TestTrirect:
    def test_unit_corner(self):
        assert_close(formulas.trirect_face_area(1, 1, 1), SQ3 / 2.0, 1e-14)

    def test_3_4_12(self):
        # frozen cross-product value
        assert_close(formulas.trirect_face_area(3, 4, 12),
                     30.59411708155671, 1e-12)

    def test_face_collapse(self):
        a = formulas.trirect_face_area(1.0, 1.0, 1e-12)
        assert_close(a, 0.5, 1e-9)


class TestInscribedAngle:
    def test_thales_circle(self):
        assert formulas.inscribed_angle(math.pi) == pytest.approx(math.pi / 2.0)

    def test_zero(self):
        assert formulas.inscribed_angle(0.0) == 0.0

    def test_two_thirds_pi(self):
        assert_close(formulas.inscribed_angle(2.0 * math.pi / 3.0),
                     math.pi / 3.0, 1e-14)


class TestRadii:
    def test_circumradius_equilateral(self):
        assert_close(formulas.circumradius(1, 1, 1), SQ3 / 3.0, 1e-12)

    def test_circumradius_right(self):
        assert formulas.circumradius(3, 4, 5) == pytest.approx(2.5)

    def test_circumradius_2_3_4(self):
        # frozen perpendicular-bisector construction value
        assert_close(formulas.circumradius(2, 3, 4), 2.0655911179772892, 1e-12)

    def test_inradius_equilateral(self):
        s = 2.0 * SQ3
        assert_close(formulas.inradius(s, s, s), 1.0, 1e-12)

    def test_inradius_right(self):
        assert formulas.inradius(3, 4, 5) == pytest.approx(1.0)

    def test_inradius_2_3_4(self):
        # frozen incenter-to-side construction value
        assert_close(formulas.inradius(2, 3, 4), 0.6454972243679028, 1e-12)


class TestEulerDistance:
    def test_equilateral_pair(self):
        assert formulas.euler_distance(1.25, 2.5) == 0.0

    def test_3_4_5_pair(self):
        # frozen center-to-center value of the 3-4-5 triangle
        assert_close(formulas.euler_distance(1.0, 2.5), 1.118033988749895, 1e-12)

    def test_degenerate_incircle(self):
        assert_close(formulas.euler_distance(1e-15, 2.0), 2.0, 1e-9)


class TestThirdSide:
    def test_vanishing_beta(self):
        assert abs(formulas.third_side(1.0, 1e-12, 1.0)) < 1e-9

    def test_isoceles_right(self):
        assert_close(formulas.third_side(1.0, math.pi / 4, math.pi / 4),
                     SQ2 / 2.0, 1e-14)

    def test_frozen_construction(self):
        # frozen ray-intersection value
        assert_close(formulas.third_side(2.0, 0.7, 1.1),
                     1.3230358976316432, 1e-12)


class TestCyclicQuadOps:
    def test_unit_square_diagonal(self):
        assert_close(formulas.ptolemy_diagonal(1, 1, 1, 1), SQ2, 1e-14)

    def test_vertex_merge(self):
        assert_close(formulas.ptolemy_diagonal(1e-10, 2.0, 1.5, 1.8), 2.0, 1e-6)

    def test_diagonal_frozen(self):
        # frozen bisection-construction chord length
        assert_close(formulas.ptolemy_diagonal(1.0, 2.0, 1.5, 1.8),
                     2.282216168179051, 1e-12)

    def test_unit_square_area(self):
        assert_close(formulas.cyclic_quad_area(1, 1, 1, 1), 1.0, 1e-14)

    def test_area_degenerates_to_heron(self):
        heron = formulas.triangle_area(2.0, 1.5, 1.8)
        assert_close(formulas.cyclic_quad_area(2.0, 1.5, 1.8, 1e-10), heron, 1e-6)

    def test_area_frozen(self):
        # frozen shoelace of the constructed cyclic quadrilateral
        assert_close(formulas.cyclic_quad_area(1.0, 2.0, 1.5, 1.8),
                     2.3468050089430093, 1e-12)


class TestBisectorProblem:
    def test_equilateral(self):
        x, y, z = geom.bisector_problem_solve(1.0, 1.0, 1.0)
        for s in (x, y, z):
            assert_close(s, SQ3, 1e-10)

    def test_roundtrip_3_4_5(self):
        abc = geom.incenter_bisector_lengths(geom.Triangle(3, 4, 5))
        assert_close(abc[0], math.sqrt(10.0), 1e-14)
        assert_close(abc[1], math.sqrt(5.0), 1e-14)
        assert_close(abc[2], SQ2, 1e-14)
        sides = geom.bisector_problem_solve(*abc)
        for got, want in zip(sides, (3.0, 4.0, 5.0)):
            assert_close(got, want, 1e-8)

    def test_scaling(self):
        x, y, z = geom.bisector_problem_solve(2.0, 2.0, 2.0)
        assert_close(z, 2.0 * SQ3, 1e-10)

    def test_flat_isoceles_still_solvable(self):
        # every positive triple is realizable in exact arithmetic; this one
        # comes from an extremely obtuse isoceles triangle
        x, y, z = geom.bisector_problem_solve(1.0, 1.0, 100.0)
        abc = geom.incenter_bisector_lengths(geom.Triangle(x, y, z))
        for got, want in zip(abc, (1.0, 1.0, 100.0)):
            assert_close(got, want, 1e-8)

    def test_no_triangle(self):
        # beyond the degeneracy margin the admissible root disappears
        with pytest.raises(geom.NoTriangleError):
            geom.bisector_problem_solve(1.0, 1.0, 1e9)

    def test_rejects_nonpositive(self):
        with pytest.raises(geom.DomainError):
            geom.bisector_problem_solve(1.0, -1.0, 1.0)


# --- invariants -----------------------------------------------------------------


@given(triangles)
@settings(max_examples=150)
def test_symmetric_ops(t):
    perms = list(itertools.permutations(t.sides))
    for op in (formulas.triangle_area, formulas.circumradius, formulas.inradius):
        ref = op(*t.sides)
        for p in perms:
            assert_close(op(*p), ref, 1e-12, op.__name__)
    assert_close(formulas.median(t.y, t.x, t.z), formulas.median(*t.sides),
                 1e-12, "median x<->y")


@given(triangles)
@settings(max_examples=100)
def test_cevian_symmetry(t):
    m, n = 0.3 * t.z, 0.7 * t.z
    d1 = formulas.cevian(t.x, t.y, m, n)
    d2 = formulas.cevian(t.y, t.x, n, m)
    assert_close(d2, d1, 1e-12)


@given(quads)
@settings(max_examples=100)
def test_quad_symmetries(q):
    d1 = formulas.ptolemy_diagonal(*q.sides)
    d2 = formulas.ptolemy_diagonal(q.y, q.x, q.v, q.u)
    assert_close(d2, d1, 1e-12)
    ref = formulas.cyclic_quad_area(*q.sides)
    for p in itertools.permutations(q.sides):
        assert_close(formulas.cyclic_quad_area(*p), ref, 1e-12)


@given(triangles)
@example(geom.Triangle(8.3125, 8.37280547895568, 0.1015625))
@settings(max_examples=150)
def test_homogeneity_of_length_ops(t):
    for lam in (0.5, 2.0, 10.0):
        scaled = (lam * t.x, lam * t.y, lam * t.z)
        assert_close(formulas.median(*scaled), lam * formulas.median(*t.sides),
                     1e-12)
        assert_close(formulas.circumradius(*scaled),
                     lam * formulas.circumradius(*t.sides), 1e-12)
        assert_close(formulas.inradius(*scaled), lam * formulas.inradius(*t.sides),
                     1e-12)
        assert_close(formulas.triangle_area(*scaled),
                     lam * lam * formulas.triangle_area(*t.sides), 1e-12)
        assert_close(formulas.angle_gamma(*scaled), formulas.angle_gamma(*t.sides),
                     1e-12)


@given(triangles)
@settings(max_examples=150)
def test_euler_inequality_and_consistency(t):
    r, big_r = formulas.inradius(*t.sides), formulas.circumradius(*t.sides)
    assert big_r >= 2.0 * r * (1.0 - 1e-12)
    assert big_r * big_r - 2.0 * big_r * r >= -1e-12 * big_r * big_r
    area = formulas.triangle_area(*t.sides)
    s = sum(t.sides) / 2.0
    assert_close(big_r * 4.0 * area, t.x * t.y * t.z, 1e-12)
    assert_close(r * s, area, 1e-12)
    assert_close(formulas.incenter_ratio(*t.sides),
                 (t.x + t.y) / (t.x + t.y + t.z), 1e-12)


@given(triangles)
@settings(max_examples=100, deadline=None)
def test_bisector_problem_roundtrip(t):
    abc = geom.incenter_bisector_lengths(t)
    sides = geom.bisector_problem_solve(*abc)
    for got, want in zip(sides, t.sides):
        assert_close(got, want, 1e-8)


@given(triangles)
@settings(max_examples=100, deadline=None)
def test_bisector_cubic_has_one_admissible_root(t):
    # The sign count behind formulas.bisector_side, in exact arithmetic on
    # each of the three cubics: P = -g/k with k = c^2/(a^2 b^2) and
    # g(w) = ((a+b)^2 - w)(w - (a-b)^2) - k w (w - a^2 - b^2)^2.
    abc = geom.incenter_bisector_lengths(t)
    for a, b, c in ((abc[1], abc[2], abc[0]), (abc[0], abc[2], abc[1]), abc):
        fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
        k = fc * fc / (fa * fa * fb * fb)
        s2, lo, hi = fa * fa + fb * fb, (fa - fb) ** 2, (fa + fb) ** 2
        p, q, r = 1 / k - 2 * s2, s2 * s2 - 2 * s2 / k, lo * hi / k
        for got, want in zip(formulas.bisector_cubic_coeffs(a, b, c), (p, q, r)):
            assert_close(got, float(want), 1e-12)

        def cubic(w):
            return ((w + p) * w + q) * w + r

        assert cubic(lo) >= 0 and cubic(s2) < 0 and cubic(hi) > 0
        w = Fraction(formulas.bisector_side(a, b, c)) ** 2
        assert s2 < w < hi
        assert (3 * w + 2 * p) * w + q > 0
        # P / (v - w) = v^2 + lin v + const: both its roots stay below
        # a^2 + b^2 when it is positive there and its vertex lies to the left
        lin = p + w
        const = q + lin * w
        assert (s2 + lin) * s2 + const > 0 and -lin / 2 < s2


@given(triangles)
@settings(max_examples=100)
def test_right_angle_iff_pythagoras(t):
    gamma = formulas.angle_gamma(*t.sides)
    lhs = t.z * t.z
    rhs = t.x * t.x + t.y * t.y
    if abs(gamma - math.pi / 2.0) < 1e-12:
        assert abs(lhs - rhs) <= 1e-10 * rhs
    if abs(lhs - rhs) <= 1e-14 * rhs:
        assert abs(gamma - math.pi / 2.0) < 1e-10
