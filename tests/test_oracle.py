import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_close, quads, rotate_translate, triangles
from geodiff import formulas, geom, oracle, sampling


class TestEmbedding:
    def test_3_4_5_coordinates(self):
        e = oracle.embed_triangle(geom.Triangle(3, 4, 5))
        assert e.a == (0.0, 0.0)
        assert e.b == (5.0, 0.0)
        assert e.c[0] == pytest.approx(1.8, rel=1e-15)
        assert e.c[1] == pytest.approx(2.4, rel=1e-15)

    def test_equilateral_foot(self):
        e = oracle.embed_triangle(geom.Triangle(1, 1, 1))
        assert e.c[0] == pytest.approx(0.5, rel=1e-14)

    def test_distances_reproduce_sides(self):
        t = geom.Triangle(2, 3, 4)
        e = oracle.embed_triangle(t)
        measured = (oracle.dist(e.a, e.c), oracle.dist(e.b, e.c),
                    oracle.dist(e.a, e.b))
        for got, want in zip(measured, t.sides):
            assert_close(got, want, 1e-12)


class TestMeasurements:
    def test_area_3_4_5(self):
        e = oracle.embed_triangle(geom.Triangle(3, 4, 5))
        assert oracle.measure_area(e) == pytest.approx(6.0, rel=1e-14)

    def test_circumradius_3_4_5(self):
        e = oracle.embed_triangle(geom.Triangle(3, 4, 5))
        assert oracle.measure_circumradius(e) == pytest.approx(2.5, rel=1e-13)

    def test_euler_distance_3_4_5(self):
        e = oracle.embed_triangle(geom.Triangle(3, 4, 5))
        assert_close(oracle.measure_euler_distance(e), math.sqrt(1.25), 1e-13)

    def test_incenter_3_4_5(self):
        # right angle at C; incenter one inradius off both legs
        e = oracle.embed_triangle(geom.Triangle(3, 4, 5))
        i = oracle.incenter(e)
        assert i[0] == pytest.approx(2.0, rel=1e-13)
        assert i[1] == pytest.approx(1.0, rel=1e-13)


@given(triangles, st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=100)
def test_rigid_motion_invariance(t, angle, dx, dy):
    e = oracle.embed_triangle(t)
    moved = oracle.TriangleEmbedding(
        rotate_translate(e.a, angle, (dx, dy)),
        rotate_translate(e.b, angle, (dx, dy)),
        rotate_translate(e.c, angle, (dx, dy)))
    peri = sum(t.sides)
    for measure in (oracle.measure_median, oracle.measure_area,
                    oracle.measure_angle_gamma, oracle.measure_bisector_full,
                    oracle.measure_bisector_to_incenter,
                    oracle.measure_circumradius, oracle.measure_inradius,
                    oracle.measure_euler_distance):
        ref = measure(e)
        # absolute cushion keeps identically-zero quantities comparable
        assert abs(measure(moved) - ref) < 1e-10 * (abs(ref) + peri), \
            measure.__name__
    m, n = 0.4 * t.z, 0.6 * t.z
    ref = oracle.measure_cevian(e, m, n)
    assert abs(oracle.measure_cevian(moved, m, n) - ref) < 1e-10 * (ref + peri)


class TestIndependentConstructions:
    def test_hypotenuse(self):
        assert_close(oracle.right_triangle_hypotenuse(1.0, 1.0),
                     math.sqrt(2.0), 1e-14)

    def test_third_side(self):
        got = oracle.third_side_by_construction(2.0, 0.7, 1.1)
        assert_close(got, 1.3230358976316432, 1e-12)

    def test_inscribed_angle_examples(self):
        theta = 2.0 * math.pi / 3.0
        got = oracle.inscribed_angle_by_construction(theta, theta / 2.0 + math.pi)
        assert_close(got, math.pi / 3.0, 1e-12)
        # apex position on the complementary arc does not matter
        got = oracle.inscribed_angle_by_construction(1.1, at=1.1 + 0.3)
        assert_close(got, 0.55, 1e-12)

    def test_trirect(self):
        assert_close(oracle.measure_trirect(1, 1, 1),
                     math.sqrt(3.0) / 2.0, 1e-13)
        assert_close(oracle.measure_trirect(3, 4, 12),
                     formulas.trirect_face_area(3, 4, 12), 1e-12)
        assert_close(oracle.measure_trirect(1.0, 1e-12, 1.0),
                     0.5, 1e-9)


def central_angles(pts):
    """Angle at the origin between consecutive vertices, each in (0, pi)."""
    return [math.atan2(abs(p[0] * pn[1] - p[1] * pn[0]), p[0] * pn[0] + p[1] * pn[1])
            for p, pn in zip(pts, pts[1:] + pts[:1])]


class TestCyclicEmbedding:
    def test_unit_square(self):
        pts = oracle.embed_cyclic(geom.CyclicQuad(1, 1, 1, 1))
        for p in pts:
            assert_close(math.hypot(*p), math.sqrt(2.0) / 2.0, 1e-10)
        for th in central_angles(pts):
            assert_close(th, math.pi / 2.0, 1e-10)

    def test_angle_sum_converges(self):
        pts = oracle.embed_cyclic(geom.CyclicQuad(1.0, 1.0, 1.0, 1.5))
        assert abs(math.fsum(central_angles(pts)) - 2.0 * math.pi) < 1e-10

    def test_chords_reproduce_sides(self):
        q = geom.CyclicQuad(1.0, 2.0, 1.5, 1.8)
        pts = oracle.embed_cyclic(q)
        for p, pn, s in zip(pts, pts[1:] + pts[:1], q.sides):
            assert_close(oracle.dist(p, pn), s, 1e-10)

    def test_diagonal_cross_validates_closed_form(self):
        q = geom.CyclicQuad(1.0, 2.0, 1.5, 1.8)
        pts = oracle.embed_cyclic(q)
        assert_close(oracle.cyclic_diagonal(pts), formulas.ptolemy_diagonal(*q.sides),
                     1e-9)
        assert_close(oracle.cyclic_area(pts), formulas.cyclic_quad_area(*q.sides),
                     1e-9)

    def test_center_outside_rejected(self):
        with pytest.raises(oracle.NotConstructibleError):
            oracle.embed_cyclic(geom.CyclicQuad(5.0, 2.0, 2.0, 1.5))
        assert not oracle.cyclic_constructible((5.0, 2.0, 2.0, 1.5))
        assert oracle.cyclic_constructible((1.0, 2.0, 1.5, 1.8))

    @pytest.mark.parametrize("sides", [
        # the longest side is almost a diameter, where the angle sum has an
        # infinite slope in R; a solve in R missed the invariant checks here
        (0.2568794086862331, 0.9214384736617623, 3.8792933398741476,
         3.698985011552588),
        (8.467865052524978, 8.47112434120543, 0.11261593162077684,
         0.12251407906999023),
    ])
    def test_near_diameter_quads_embed(self, sides):
        pts = oracle.embed_cyclic(geom.CyclicQuad(*sides))
        assert abs(math.fsum(central_angles(pts)) - 2.0 * math.pi) < 1e-10
        for p, pn, s in zip(pts, pts[1:] + pts[:1], sides):
            assert abs(oracle.dist(p, pn) - s) <= oracle.CHORD_TOL * s
        assert_close(oracle.cyclic_diagonal(pts), formulas.ptolemy_diagonal(*sides),
                     1e-12)


def test_cyclic_sampler_stream_is_pinned():
    # the constructibility test must accept exactly the quads a full
    # embedding accepts: these are the quads an embedding sampler drew
    rng = random.Random(2024)
    got = [sampling.cyclic_quad(rng).sides for _ in range(3)]
    assert got == [
        (0.6034093998931805, 0.49044781883185823, 0.2525196317146418,
         0.7138611387303806),
        (7.312520601755827, 1.225516150537341, 7.451843759812566,
         2.7600990876815654),
        (1.318458054304633, 1.2262258188168071, 0.42606818902599025,
         0.17608763256048615),
    ]
    assert rng.random() == 0.028919720517454617


def test_triangle_sampler_and_length_streams_are_pinned():
    # the rng stream is pinned: reports replay only if these draws stay put
    rng = random.Random(2025)
    got = [sampling.triangle(rng).sides for _ in range(3)]
    assert got == [
        (1.3046810082496507, 1.9574461604105935, 0.9020122349398435),
        (0.15801435037750783, 0.1254469530095909, 0.11369440628063213),
        (7.59642398155375, 1.894086263666822, 6.959230990583738),
    ]
    assert rng.random() == 0.3544707560519317
    assert sampling.length(random.Random(3)) == 0.29917772415989785


def test_cevian_split_adds_up_to_its_side():
    # closed form and oracle describe one triangle only if m + n == z
    rng = random.Random(0)
    for _ in range(3000):
        z = sampling.triangle(rng).z
        m, n = sampling.cevian_split(rng, z)
        assert Fraction(m) + Fraction(n) == Fraction(z), (m, n, z)


@given(quads)
@settings(max_examples=60, deadline=None)
def test_cyclic_vertices_concyclic(q):
    try:
        pts = oracle.embed_cyclic(q)
    except oracle.NotConstructibleError:
        return
    for p in pts[1:]:
        assert_close(math.hypot(*p), math.hypot(*pts[0]), 1e-10)
