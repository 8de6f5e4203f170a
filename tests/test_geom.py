import itertools
import math

import pytest
from hypothesis import example, given, settings

from conftest import assert_close, quads, triangles
from geodiff import formulas, geom, sampling

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

    def test_incircle_pair_euler_inequality(self):
        geom.IncirclePair(1.0, 2.0)  # equality allowed (equilateral)
        with pytest.raises(geom.DomainError):
            geom.IncirclePair(1.0, 1.999)


class TestHypotenuse:
    def test_classic(self):
        assert geom.hypotenuse(3.0, 4.0) == pytest.approx(5.0, rel=1e-15)

    def test_degenerate_leg(self):
        assert_close(geom.hypotenuse(1.0, 1e-15), 1.0, 1e-12)

    def test_unit_legs(self):
        # frozen from the legs-on-axes construction dist((1,0),(0,1))
        assert_close(geom.hypotenuse(1.0, 1.0), 1.4142135623730951, 1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(geom.DomainError):
            geom.hypotenuse(0.0, 1.0)


class TestMedian:
    def test_right_triangle(self):
        assert geom.median(geom.Triangle(3, 4, 5)) == pytest.approx(2.5, rel=1e-15)

    def test_equilateral(self):
        assert_close(geom.median(geom.Triangle(1, 1, 1)), SQ3 / 2.0, 1e-14)

    def test_2_3_4(self):
        # frozen midpoint-construction value
        assert_close(geom.median(geom.Triangle(2, 3, 4)),
                     1.5811388300841898, 1e-12)


class TestCevian:
    def test_midpoint_reduces_to_median(self):
        t = geom.Triangle(4, 3, 5)
        s = geom.CevianSplit(2.5, 2.5)
        assert_close(geom.cevian(t, s), geom.median(t), 1e-14)

    def test_collapsed_x_limit_gives_m(self):
        # raw formula at x -> 0 with y = m + n; the typed op rejects the
        # degenerate triangle itself
        d = formulas.cevian(1e-8, 5.0, 2.0, 3.0)
        assert_close(d, 2.0, 1e-12)

    def test_4_3_5_split_2_3(self):
        # frozen section-point construction value
        t = geom.Triangle(4, 3, 5)
        assert_close(geom.cevian(t, geom.CevianSplit(2, 3)),
                     2.6832815729997477, 1e-12)

    def test_split_mismatch(self):
        with pytest.raises(geom.InconsistentSplitError):
            geom.cevian(geom.Triangle(4, 3, 5), geom.CevianSplit(2.0, 2.0))


class TestArea:
    def test_isoceles_right(self):
        assert_close(geom.triangle_area(geom.Triangle(1, 1, SQ2)), 0.5, 1e-12)

    def test_3_4_5(self):
        assert geom.triangle_area(geom.Triangle(3, 4, 5)) == pytest.approx(6.0)

    def test_2_3_4(self):
        # frozen shoelace value
        assert_close(geom.triangle_area(geom.Triangle(2, 3, 4)),
                     2.9047375096555625, 1e-12)


class TestAngle:
    def test_equilateral(self):
        assert_close(geom.angle_from_sides(geom.Triangle(1, 1, 1)),
                     math.pi / 3.0, 1e-14)

    def test_right_angle(self):
        t = geom.Triangle(2.0, 3.0, math.hypot(2.0, 3.0))
        assert_close(geom.angle_from_sides(t), math.pi / 2.0, 1e-12)

    def test_2_3_4(self):
        # frozen dot-product construction value, acos(-1/4)
        assert_close(geom.angle_from_sides(geom.Triangle(2, 3, 4)),
                     1.8234765819369754, 1e-12)

    def test_needle(self):
        # acos of the cosine law is off by 8e-13 here; reference by mpmath at
        # 40 digits from the same binary sides
        t = geom.Triangle(8.3125, 8.37280547895568, 0.1015625)
        assert_close(geom.angle_from_sides(t), 0.009795572240721471916, 1e-15)
        assert_close(formulas.angle_gamma(*t.sides), 0.009795572240721471916,
                     1e-15)


class TestBisectors:
    def test_full_right_triangle_is_square_diagonal(self):
        x, y = 3.0, 4.0
        t = geom.Triangle(x, y, math.hypot(x, y))
        assert_close(geom.bisector_full(t), SQ2 * x * y / (x + y), 1e-12)

    def test_full_equilateral(self):
        assert_close(geom.bisector_full(geom.Triangle(1, 1, 1)), SQ3 / 2, 1e-14)

    def test_full_2_3_4(self):
        # frozen vertex-to-foot construction value
        assert_close(geom.bisector_full(geom.Triangle(2, 3, 4)),
                     1.469693845669907, 1e-12)

    def test_to_incenter_right_triangle(self):
        x, y = 3.0, 4.0
        z = math.hypot(x, y)
        r = x * y / (x + y + z)
        assert_close(geom.bisector_to_incenter(geom.Triangle(x, y, z)),
                     SQ2 * r, 1e-12)

    def test_to_incenter_equilateral(self):
        t = geom.Triangle(SQ3, SQ3, SQ3)
        assert_close(geom.bisector_to_incenter(t), 1.0, 1e-12)

    def test_to_incenter_2_3_4(self):
        # frozen barycentric-incenter construction value
        assert_close(geom.bisector_to_incenter(geom.Triangle(2, 3, 4)),
                     0.816496580927726, 1e-12)

    def test_ratio(self):
        assert_close(geom.incenter_ratio(geom.Triangle(1, 1, 1)), 2 / 3, 1e-13)
        assert_close(geom.incenter_ratio(geom.Triangle(3, 4, 5)), 7 / 12, 1e-12)
        assert_close(geom.incenter_ratio(geom.Triangle(2, 3, 4)), 5 / 9, 1e-12)


class TestTrirect:
    def test_unit_corner(self):
        assert_close(geom.trirect_face_area(geom.TrirectTetra(1, 1, 1)),
                     SQ3 / 2.0, 1e-14)

    def test_3_4_12(self):
        # frozen cross-product value
        assert_close(geom.trirect_face_area(geom.TrirectTetra(3, 4, 12)),
                     30.59411708155671, 1e-12)

    def test_face_collapse(self):
        a = geom.trirect_face_area(geom.TrirectTetra(1.0, 1.0, 1e-12))
        assert_close(a, 0.5, 1e-9)


class TestInscribedAngle:
    def test_thales_circle(self):
        assert geom.inscribed_angle(math.pi) == pytest.approx(math.pi / 2.0)

    def test_zero(self):
        assert geom.inscribed_angle(0.0) == 0.0

    def test_two_thirds_pi(self):
        assert_close(geom.inscribed_angle(2.0 * math.pi / 3.0),
                     math.pi / 3.0, 1e-14)

    def test_range(self):
        with pytest.raises(geom.DomainError):
            geom.inscribed_angle(-0.1)
        with pytest.raises(geom.DomainError):
            geom.inscribed_angle(2.0 * math.pi + 1e-9)


class TestRadii:
    def test_circumradius_equilateral(self):
        assert_close(geom.circumradius(geom.Triangle(1, 1, 1)), SQ3 / 3.0, 1e-12)

    def test_circumradius_right(self):
        assert geom.circumradius(geom.Triangle(3, 4, 5)) == pytest.approx(2.5)

    def test_circumradius_2_3_4(self):
        # frozen perpendicular-bisector construction value
        assert_close(geom.circumradius(geom.Triangle(2, 3, 4)),
                     2.0655911179772892, 1e-12)

    def test_inradius_equilateral(self):
        s = 2.0 * SQ3
        assert_close(geom.inradius(geom.Triangle(s, s, s)), 1.0, 1e-12)

    def test_inradius_right(self):
        assert geom.inradius(geom.Triangle(3, 4, 5)) == pytest.approx(1.0)

    def test_inradius_2_3_4(self):
        # frozen incenter-to-side construction value
        assert_close(geom.inradius(geom.Triangle(2, 3, 4)),
                     0.6454972243679028, 1e-12)


class TestEulerDistance:
    def test_equilateral_pair(self):
        assert geom.euler_distance(geom.IncirclePair(1.25, 2.5)) == 0.0

    def test_3_4_5_pair(self):
        # frozen center-to-center value of the 3-4-5 triangle
        assert_close(geom.euler_distance(geom.IncirclePair(1.0, 2.5)),
                     1.118033988749895, 1e-12)

    def test_degenerate_incircle(self):
        assert_close(geom.euler_distance(geom.IncirclePair(1e-15, 2.0)), 2.0, 1e-9)


class TestThirdSide:
    def test_vanishing_beta(self):
        assert abs(geom.third_side(1.0, 1e-12, 1.0)) < 1e-9

    def test_isoceles_right(self):
        assert_close(geom.third_side(1.0, math.pi / 4, math.pi / 4),
                     SQ2 / 2.0, 1e-14)

    def test_frozen_construction(self):
        # frozen ray-intersection value
        assert_close(geom.third_side(2.0, 0.7, 1.1),
                     1.3230358976316432, 1e-12)

    def test_angle_sum(self):
        with pytest.raises(geom.DomainError):
            geom.third_side(1.0, 2.0, math.pi - 2.0)


class TestCyclicQuadOps:
    def test_unit_square_diagonal(self):
        q = geom.CyclicQuad(1, 1, 1, 1)
        assert_close(geom.ptolemy_diagonal(q), SQ2, 1e-14)

    def test_vertex_merge(self):
        q = geom.CyclicQuad(1e-10, 2.0, 1.5, 1.8)
        assert_close(geom.ptolemy_diagonal(q), 2.0, 1e-6)

    def test_diagonal_frozen(self):
        # frozen bisection-construction chord length
        q = geom.CyclicQuad(1.0, 2.0, 1.5, 1.8)
        assert_close(geom.ptolemy_diagonal(q), 2.282216168179051, 1e-12)

    def test_unit_square_area(self):
        assert_close(geom.cyclic_quad_area(geom.CyclicQuad(1, 1, 1, 1)), 1.0, 1e-14)

    def test_area_degenerates_to_heron(self):
        q = geom.CyclicQuad(2.0, 1.5, 1.8, 1e-10)
        heron = geom.triangle_area(geom.Triangle(2.0, 1.5, 1.8))
        assert_close(geom.cyclic_quad_area(q), heron, 1e-6)

    def test_area_frozen(self):
        # frozen shoelace of the constructed cyclic quadrilateral
        q = geom.CyclicQuad(1.0, 2.0, 1.5, 1.8)
        assert_close(geom.cyclic_quad_area(q), 2.3468050089430093, 1e-12)


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
    for op in (geom.triangle_area, geom.circumradius, geom.inradius):
        ref = op(t)
        for p in perms:
            assert_close(op(geom.Triangle(*p)), ref, 1e-12, op.__name__)
    assert_close(geom.median(geom.Triangle(t.y, t.x, t.z)), geom.median(t),
                 1e-12, "median x<->y")


@given(triangles)
@settings(max_examples=100)
def test_cevian_symmetry(t):
    s = geom.CevianSplit(0.3 * t.z, 0.7 * t.z)
    d1 = geom.cevian(t, s)
    d2 = geom.cevian(geom.Triangle(t.y, t.x, t.z), geom.CevianSplit(s.n, s.m))
    assert_close(d2, d1, 1e-12)


@given(quads)
@settings(max_examples=100)
def test_quad_symmetries(q):
    d1 = geom.ptolemy_diagonal(q)
    d2 = geom.ptolemy_diagonal(geom.CyclicQuad(q.y, q.x, q.v, q.u))
    assert_close(d2, d1, 1e-12)
    ref = geom.cyclic_quad_area(q)
    for p in itertools.permutations(q.sides):
        assert_close(geom.cyclic_quad_area(geom.CyclicQuad(*p)), ref, 1e-12)


@given(triangles)
@example(geom.Triangle(8.3125, 8.37280547895568, 0.1015625))
@settings(max_examples=150)
def test_homogeneity_of_length_ops(t):
    for lam in (0.5, 2.0, 10.0):
        scaled = geom.Triangle(lam * t.x, lam * t.y, lam * t.z)
        assert_close(geom.median(scaled), lam * geom.median(t), 1e-12)
        assert_close(geom.circumradius(scaled), lam * geom.circumradius(t), 1e-12)
        assert_close(geom.inradius(scaled), lam * geom.inradius(t), 1e-12)
        assert_close(geom.triangle_area(scaled),
                     lam * lam * geom.triangle_area(t), 1e-12)
        assert_close(geom.angle_from_sides(scaled), geom.angle_from_sides(t),
                     1e-12)


@given(triangles)
@settings(max_examples=150)
def test_euler_inequality_and_consistency(t):
    r, big_r = geom.inradius(t), geom.circumradius(t)
    assert big_r >= 2.0 * r * (1.0 - 1e-12)
    assert big_r * big_r - 2.0 * big_r * r >= -1e-12 * big_r * big_r
    area = geom.triangle_area(t)
    s = sum(t.sides) / 2.0
    assert_close(big_r * 4.0 * area, t.x * t.y * t.z, 1e-12)
    assert_close(r * s, area, 1e-12)
    assert_close(geom.incenter_ratio(t), (t.x + t.y) / (t.x + t.y + t.z), 1e-12)


@given(triangles)
@settings(max_examples=100, deadline=None)
def test_bisector_problem_roundtrip(t):
    abc = geom.incenter_bisector_lengths(t)
    sides = geom.bisector_problem_solve(*abc)
    for got, want in zip(sides, t.sides):
        assert_close(got, want, 1e-8)


@given(triangles)
@settings(max_examples=100)
def test_right_angle_iff_pythagoras(t):
    gamma = geom.angle_from_sides(t)
    lhs = t.z * t.z
    rhs = t.x * t.x + t.y * t.y
    if abs(gamma - math.pi / 2.0) < 1e-12:
        assert abs(lhs - rhs) <= 1e-10 * rhs
    if abs(lhs - rhs) <= 1e-14 * rhs:
        assert abs(gamma - math.pi / 2.0) < 1e-10
