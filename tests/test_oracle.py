import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_close, quads, rotate_translate, triangles
from geodiff import formulas, ops, oracle, sampling


class TestEmbedding:
    def test_3_4_5_coordinates(self):
        a, b, c = oracle.embed_triangle(3, 4, 5)
        assert a == (0.0, 0.0)
        assert b == (5.0, 0.0)
        assert c[0] == pytest.approx(1.8, rel=1e-15)
        assert c[1] == pytest.approx(2.4, rel=1e-15)

    def test_equilateral_foot(self):
        a, b, c = oracle.embed_triangle(1, 1, 1)
        assert c[0] == pytest.approx(0.5, rel=1e-14)

    def test_distances_reproduce_sides(self):
        t = (2, 3, 4)
        a, b, c = oracle.embed_triangle(*t)
        measured = (oracle.dist(a, c), oracle.dist(b, c), oracle.dist(a, b))
        for got, want in zip(measured, t):
            assert_close(got, want, 1e-12)

    def test_degenerate_sides_raise_invariant_violation(self):
        # t0 = 1 and h^2 = 0: the altitude check is the only one in front
        with pytest.raises(oracle.InvariantViolation):
            oracle.embed_triangle(1.0, 2.0, 3.0)


class TestMeasurements:
    def test_area_3_4_5(self):
        e = oracle.embed_triangle(3, 4, 5)
        assert oracle.measure_area(*e) == pytest.approx(6.0, rel=1e-14)

    def test_circumradius_3_4_5(self):
        e = oracle.embed_triangle(3, 4, 5)
        assert oracle.measure_circumradius(*e) == pytest.approx(2.5, rel=1e-13)

    def test_euler_distance_3_4_5(self):
        e = oracle.embed_triangle(3, 4, 5)
        assert_close(oracle.measure_euler_distance(*e), math.sqrt(1.25), 1e-13)

    def test_incenter_3_4_5(self):
        # right angle at C; incenter one inradius off both legs
        i = oracle.incenter(*oracle.embed_triangle(3, 4, 5))
        assert i[0] == pytest.approx(2.0, rel=1e-13)
        assert i[1] == pytest.approx(1.0, rel=1e-13)


@given(triangles, st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=100)
def test_rigid_motion_invariance(t, angle, dx, dy):
    e = oracle.embed_triangle(*t)
    moved = tuple(rotate_translate(p, angle, (dx, dy)) for p in e)
    peri = sum(t)
    for measure in (oracle.measure_median, oracle.measure_area,
                    oracle.measure_angle_gamma, oracle.measure_bisector_full,
                    oracle.measure_bisector_to_incenter,
                    oracle.measure_circumradius, oracle.measure_inradius,
                    oracle.measure_euler_distance):
        ref = measure(*e)
        # absolute cushion keeps identically-zero quantities comparable
        assert abs(measure(*moved) - ref) < 1e-10 * (abs(ref) + peri), \
            measure.__name__
    m, n = 0.4 * t[2], 0.6 * t[2]
    ref = oracle.measure_cevian(*e, m, n)
    assert abs(oracle.measure_cevian(*moved, m, n) - ref) < 1e-10 * (ref + peri)


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


def arcs(pts):
    """Counterclockwise angle at the origin from each vertex to the next, in
    turns, each in (0, 1)."""
    return [math.atan2(p[0] * pn[1] - p[1] * pn[0], p[0] * pn[0] + p[1] * pn[1])
            / (2.0 * math.pi) % 1.0 for p, pn in zip(pts, pts[1:] + pts[:1])]


class TestCyclicEmbedding:
    def test_unit_square(self):
        pts = oracle.embed_cyclic(math.sqrt(2.0) / 2.0, 0.25, 0.5, 0.75)
        for p in pts:
            assert_close(math.hypot(*p), math.sqrt(2.0) / 2.0, 1e-15)
        sides = oracle.cyclic_sides(pts)
        for side in sides:
            assert_close(side, 1.0, 1e-15)
        assert_close(oracle.cyclic_diagonal(pts), math.sqrt(2.0), 1e-15)
        assert_close(oracle.cyclic_diagonal(pts), formulas.ptolemy_diagonal(*sides),
                     1e-15)
        assert_close(oracle.cyclic_area(pts), 1.0, 1e-15)
        assert_close(oracle.cyclic_area(pts), formulas.cyclic_quad_area(*sides),
                     1e-15)

    def test_arcs_follow_the_cuts(self):
        # the last arc is 0.7 of a turn: the circumcenter lies outside
        pts = oracle.embed_cyclic(1.3, 0.1, 0.15, 0.3)
        for got, want in zip(arcs(pts), (0.1, 0.05, 0.15, 0.7)):
            assert_close(got, want, 1e-14)

    def test_chords_reproduce_sides(self):
        # a chord subtending t turns of a circle of radius R is 2 R sin(pi t)
        radius, cuts = 2.5, (0.1, 0.15, 0.3)
        pts = oracle.embed_cyclic(radius, *cuts)
        bounds = (0.0, *cuts, 1.0)
        for side, t0, t1 in zip(oracle.cyclic_sides(pts), bounds, bounds[1:]):
            assert_close(side, 2.0 * radius * math.sin(math.pi * (t1 - t0)), 1e-14)

    def test_diagonal_cross_validates_closed_form(self):
        # the circumcenter inside, then outside
        for draw in ((1.0, 0.2, 0.45, 0.7), (1.3, 0.1, 0.15, 0.3)):
            pts = oracle.embed_cyclic(*draw)
            sides = oracle.cyclic_sides(pts)
            assert_close(oracle.cyclic_diagonal(pts),
                         formulas.ptolemy_diagonal(*sides), 1e-14)
            assert_close(oracle.cyclic_area(pts), formulas.cyclic_quad_area(*sides),
                         1e-14)

    @pytest.mark.parametrize("draw", [
        # side 0 is a diameter to 1e-12 of a turn, with the circumcenter just
        # inside and just outside: the boundary between the two configurations
        (3.0, 0.5 - 1e-12, 0.6, 0.9),
        (3.0, 0.5 + 1e-12, 0.6, 0.9),
    ], ids=["inside", "outside"])
    def test_near_diameter_quads_embed(self, draw):
        pts = oracle.embed_cyclic(*draw)
        sides = oracle.cyclic_sides(pts)
        assert_close(sides[0], 2.0 * draw[0], 1e-15)
        assert_close(oracle.cyclic_diagonal(pts), formulas.ptolemy_diagonal(*sides),
                     1e-14)
        assert_close(oracle.cyclic_area(pts), formulas.cyclic_quad_area(*sides),
                     1e-14)

    @pytest.mark.parametrize("cuts", [(0.0, 0.2, 0.3), (0.2, 0.2, 0.3),
                                      (0.3, 0.2, 0.4), (0.2, 0.3, 1.0)])
    def test_cuts_must_increase_inside_the_turn(self, cuts):
        with pytest.raises(oracle.OracleError):
            oracle.embed_cyclic(1.0, *cuts)


def test_cyclic_sampler_stream_is_pinned():
    # the rng stream is pinned: reports replay only if these draws stay put
    rng = random.Random(2024)
    got = [sampling.cyclic_quad(rng) for _ in range(3)]
    assert got == [
        (5.951090270338124, 0.3037513583913575, 0.47009071843107064,
         0.7282642914232076),
        (0.30926679835363596, 0.26522113780066725, 0.41008858946872573,
         0.7166143935816427),
        (2.8544225902680656, 0.4158721009442904, 0.49830138202139995,
         0.8125816265884215),
    ]
    assert rng.random() == 0.9632496477523979


def test_cyclic_sampler_redraws_a_zero_cut():
    # rng.random() can return 0.0; a cut there would leave a zero side
    class ZeroFirst(random.Random):
        first = True

        def random(self):
            if self.first:
                self.first = False
                return 0.0
            return super().random()

    rng, ref = ZeroFirst(7), random.Random(7)
    draw = sampling.cyclic_quad(rng)
    ref.random(), ref.random()  # the other two cuts of the rejected draw
    assert draw == sampling.cyclic_quad(ref)
    assert 0.0 < draw[1]
    assert rng.random() == ref.random()


def test_cyclic_draws_are_convex_cyclic_quads():
    rng = random.Random(31)
    outside = 0
    for _ in range(10_000):
        radius, a, b, c = draw = sampling.cyclic_quad(rng)
        pts = oracle.embed_cyclic(*draw)
        for p in pts:
            assert abs(math.hypot(*p) - radius) <= 1e-12 * radius, (draw, p)
        sides = oracle.cyclic_sides(pts)
        assert math.fsum(sides) - 2.0 * max(sides) > 0.0, draw
        # the center lies outside when some arc is longer than half a turn
        outside += max(a, b - a, c - b, 1.0 - c) > 0.5
    assert outside == 5022  # of 10^4; four uniform points leave it out half the time


def test_triangle_sampler_and_length_streams_are_pinned():
    # the rng stream is pinned: reports replay only if these draws stay put
    rng = random.Random(2025)
    got = [sampling.triangle(rng) for _ in range(3)]
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
        z = sampling.triangle(rng)[2]
        m, n = sampling.cevian_split(rng, z)
        assert Fraction(m) + Fraction(n) == Fraction(z), (m, n, z)


@given(quads)
@settings(max_examples=60, deadline=None)
def test_cyclic_vertices_concyclic(q):
    for p in oracle.embed_cyclic(*q):
        assert_close(math.hypot(*p), q[0], 1e-12)


def _scaled(case, lam):
    """case with every length draw times lam; the angles, the apex and the
    cuts stay."""
    scaled = ops.Case.__new__(ops.Case)
    scaled.triangle = tuple(lam * v for v in case.triangle)
    scaled.cevian = tuple(lam * v for v in case.cevian)
    scaled.pair = tuple(lam * v for v in case.pair)
    length, *angles = case.third
    scaled.third = (lam * length, *angles)
    scaled.theta, scaled.apex = case.theta, case.apex
    scaled.trirect = tuple(lam * v for v in case.trirect)
    radius, *cuts = case.quad
    scaled.quad = (lam * radius, *cuts)
    return scaled


def test_oracle_obeys_the_scale_transformation_exactly():
    """The paper's closing transformation: the figure scaled by lam has every
    length times lam, every area times lam^2 and every angle unchanged.  A
    power-of-two lam scales every float without rounding, so each measured
    value must scale to the bit."""
    theorem_ops = [op for op in ops.table() if op.oracle]
    assert len(theorem_ops) == 16
    draws = set(vars(ops.Case(random.Random(0))))
    rng = random.Random(44)
    for _ in range(300):
        case = ops.Case(rng)
        for lam in (2.0 ** -5, 0.5, 2.0, 2.0 ** 5):
            scaled = _scaled(case, lam)
            assert set(vars(scaled)) == draws
            for op in theorem_ops:
                assert op.oracle(scaled) == lam ** op.out_dim * op.oracle(case), \
                    (op.name, lam, vars(case))
