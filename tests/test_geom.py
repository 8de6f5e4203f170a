import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings

from conftest import assert_close, quads, ravi_triangles, triangles, valid_quad
from geodiff import dual, formulas, geom, ops, oracle, sampling

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
EPS = Fraction(2) ** -52


class TestTypes:
    """geom.triangle_sides, the one test a triangle's sides get."""

    def test_triangle_rejects_nonpositive(self):
        for bad in [(0.0, 1, 1), (-1, 2, 2), (1, math.nan, 1), (1, 2, math.inf)]:
            with pytest.raises(geom.DomainError):
                geom.triangle_sides(*bad)

    def test_triangle_rejects_degenerate(self):
        with pytest.raises(geom.DomainError):
            geom.triangle_sides(1.0, 2.0, 3.0)
        with pytest.raises(geom.DomainError):
            geom.triangle_sides(1.0, 1.0, 2.0 - 1e-15)

    def test_sides_just_inside_the_degenerate_bound_accepted(self):
        sides = (1.0, 1.0, 1.999999)  # 1e-6 short of degenerate
        assert geom.triangle_sides(*sides) == sides

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_triangles_pass_unchanged(self, seed):
        # the sampler's MARGIN test is stricter than EPS_DEG's, so its draws
        # need no second test
        rng = random.Random(seed)
        for _ in range(10_000):
            sides = sampling.triangle(rng)
            assert geom.triangle_sides(*sides) == sides


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
        # formula at x -> 0 with y = m + n; geom.triangle_sides rejects the
        # degenerate triangle itself
        d = formulas.cevian(1e-8, 5.0, 2.0, 3.0)
        assert_close(d, 2.0, 1e-12)

    def test_4_3_5_split_2_3(self):
        # frozen section-point construction value
        assert_close(formulas.cevian(4, 3, 2, 3), 2.6832815729997477, 1e-12)

    def test_split_mismatch(self):
        # the theorems oracle checks the split against the constructed z-side
        e = oracle.embed_triangle(4, 3, 5)
        with pytest.raises(oracle.OracleError):
            oracle.measure_cevian(*e, 2.0, 2.0)


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

    def test_ratio_on_near_degenerate_triangles(self):
        """On Ravi triangles the exact (x+y)/(x+y+z) has condition number 1."""
        checked = ravi_triangles(random.Random(9), 3000)
        for t in checked:
            x, y, z = map(Fraction, t)
            exact = (x + y) / (x + y + z)
            got = Fraction(formulas.incenter_ratio(*t))
            assert abs(got - exact) <= 4 * EPS * exact, t
        assert len(checked) == 2709


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
        abc = geom.incenter_bisector_lengths(3, 4, 5)
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
        abc = geom.incenter_bisector_lengths(*geom.triangle_sides(x, y, z))
        for got, want in zip(abc, (1.0, 1.0, 100.0)):
            assert_close(got, want, 1e-8)

    def test_far_flat_isoceles_solves(self):
        # realizable: mpmath at 50 digits maps these sides back to (1, 1, 1e9)
        # within 1e-16
        sides = geom.bisector_problem_solve(1.0, 1.0, 1e9)
        for got, want in zip(sides, (1000000000.7071068, 1000000000.7071068,
                                     1.414213562873095)):
            assert_close(got, want, 1e-15)

    def test_no_triangle(self):
        # the recovered sides (1e12 + 0.7071, 1e12 + 0.7071, sqrt 2) are
        # inside triangle_sides' EPS_DEG degeneracy margin
        with pytest.raises(geom.NoTriangleError):
            geom.bisector_problem_solve(1.0, 1.0, 1e12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale(self, scale):
        for s in geom.bisector_problem_solve(scale, scale, scale):
            assert_close(s, SQ3 * scale, 1e-15)

    def test_only_no_triangle_on_extreme_log_uniform(self):
        rng = random.Random(5)
        for _ in range(2000):
            abc = [math.exp(rng.uniform(-700.0, 700.0)) for _ in range(3)]
            try:
                geom.bisector_problem_solve(*abc)
            except geom.NoTriangleError:
                pass

    def test_log_uniform_cubics_all_solve(self):
        # the 9000 cubics of 3000 triples log-uniform in e^[-8, 8]; the
        # z^2-form cubic lost the admissible root on 430 of them
        rng = random.Random(9)
        for _ in range(3000):
            a, b, c = (math.exp(rng.uniform(-8.0, 8.0)) for _ in range(3))
            for args in ((b, c, a), (a, c, b), (a, b, c)):
                formulas.bisector_side(*args)

    @pytest.mark.parametrize("c", [0.0, 1e-200])
    def test_vanishing_cubic_term_is_no_admissible_side(self, c):
        # c^2/(a^2 b^2) is 0, so G's one positive root is u = 2ab, the
        # degenerate end of the admissible interval
        with pytest.raises(ValueError):
            formulas.bisector_side(1.0, 1.0, c)

    def test_side_bits_are_pinned(self):
        # the exact bits of the float root and of its derivative step, on
        # floats (where the step adds 0.0) and on complex steps, one with all
        # imaginary parts 0 (where its two cubic values cancel exactly)
        floats = {(1.1, 1.3, 1.2): "2.0790030109577944",
                  (352.47849023531734, 1.0455188619820959,
                   0.0003718428888505927): "353.5240090309796",
                  (0.5, 7.25, 3.0): "7.347718126681653"}
        for args, want in floats.items():
            assert repr(formulas.bisector_side(*args)) == want
        steps = ("(2.951403168291807+3.8137421657721276e-91j)",
                 "(2.3411512809966735+0j)",
                 "(2.3765320279362516-4.362547328562027e-91j)",
                 "(2.2315451583276653+4.4863359824567423e-91j)")
        rng = random.Random("bisector-steps")
        for want in steps:
            args = [rng.uniform(0.5, 2.0) for _ in range(3)]
            ds = [rng.choice((0.0, 1.0, rng.uniform(-1.0, 1.0))) for _ in range(3)]
            assert repr(formulas.bisector_side(*map(dual.seed, args, ds))) == want

    @pytest.mark.parametrize("args", [(1.1, 1.3, 1.2),
                                      (dual.seed(1.1), 1.3, dual.seed(1.2, -0.5))])
    def test_one_call_builds_the_cubic_once(self, monkeypatch, args):
        calls = []
        build = formulas.bisector_cubic_coeffs

        def counted(*abc):
            calls.append(abc)
            return build(*abc)

        monkeypatch.setattr(formulas, "bisector_cubic_coeffs", counted)
        formulas.bisector_side(*args)
        assert calls == [args]

    def test_one_build_keeps_the_two_build_bits(self):
        # the earlier form: Newton on coefficients built from the real parts,
        # then a step by G built again on the arguments minus G on the reals
        def two_build_side(a, b, c):
            k, big_b, big_c = formulas.bisector_cubic_coeffs(a.real, b.real, c.real)
            u = math.sqrt(big_c / big_b)
            while True:
                slope = (3.0 * k * u + 2.0 * big_b) * u
                nxt = u - ((k * u + big_b) * u * u - big_c) / slope
                if not nxt < u:
                    break
                u = nxt
            kd, bd, cd = formulas.bisector_cubic_coeffs(a, b, c)
            u -= ((kd * u + bd) * u * u - cd - ((k * u + big_b) * u * u - big_c)) / slope
            return dual.sqrt(a * a + b * b + u)

        rng = random.Random("one-build")
        for _ in range(5000):
            a, b, c = sampling.bisector_lengths(rng)
            ds = [rng.choice((0.0, 1.0, rng.uniform(-1.0, 1.0))) for _ in range(3)]
            carriers = [*map(dual.seed, (a, b, c), ds)]
            for args in ((b, c, a), (a, c, b), (a, b, c),
                         (carriers[1], carriers[2], carriers[0]),
                         (carriers[0], carriers[2], carriers[1]), carriers):
                assert repr(formulas.bisector_side(*args)) \
                    == repr(two_build_side(*args)), args

    def test_near_degenerate_cubics(self):
        # sides of this triple from mpmath at 50 digits; the forward map
        # cancels in x + y - z on them, so the solve itself still fails the
        # round trip
        a, b, c = 352.47849023531734, 0.0003718428888505927, 1.0455188619820959
        got = (formulas.bisector_side(b, c, a), formulas.bisector_side(a, c, b),
               formulas.bisector_side(a, b, c))
        for g, want in zip(got, (1.0455189284980566, 353.5240090309796,
                                 352.47849036776086)):
            assert_close(g, want, 1e-15)
        with pytest.raises(geom.NoTriangleError):
            geom.bisector_problem_solve(a, b, c)

    def test_rejects_nonpositive(self):
        with pytest.raises(geom.DomainError):
            geom.bisector_problem_solve(1.0, -1.0, 1.0)


# --- invariants -----------------------------------------------------------------


@given(triangles)
@settings(max_examples=150)
def test_symmetric_ops(t):
    x, y, z = t
    perms = list(itertools.permutations(t))
    for op in (formulas.triangle_area, formulas.circumradius, formulas.inradius):
        ref = op(*t)
        for p in perms:
            assert_close(op(*p), ref, 1e-12, op.__name__)
    assert_close(formulas.median(y, x, z), formulas.median(*t),
                 1e-12, "median x<->y")


@given(triangles)
@settings(max_examples=100)
def test_cevian_symmetry(t):
    x, y, z = t
    m, n = 0.3 * z, 0.7 * z
    d1 = formulas.cevian(x, y, m, n)
    d2 = formulas.cevian(y, x, n, m)
    assert_close(d2, d1, 1e-12)


@given(quads)
@settings(max_examples=100)
def test_quad_symmetries(q):
    sides = x, y, u, v = oracle.cyclic_sides(oracle.embed_cyclic(*q))
    # near-degenerate draws cancel in s - x, whatever the order of the sides
    assume(valid_quad(sides))
    d1 = formulas.ptolemy_diagonal(*sides)
    d2 = formulas.ptolemy_diagonal(y, x, v, u)
    assert_close(d2, d1, 1e-12)
    ref = formulas.cyclic_quad_area(*sides)
    for p in itertools.permutations(sides):
        assert_close(formulas.cyclic_quad_area(*p), ref, 1e-12)


def _swap_xy(x, y, *rest):
    return (y, x, *rest)


# argument swaps under which a kernel's bits do not move, per op; the swaps
# above that move them are checked at 1e-12
SWAPS = {
    "hypotenuse": [_swap_xy],
    "median": [_swap_xy],
    "angle_from_sides": [_swap_xy],
    "bisector_full": [_swap_xy],
    "bisector_to_incenter": [_swap_xy],
    "incenter_ratio": [_swap_xy],
    "cevian": [lambda x, y, m, n: (y, x, n, m)],
    "ptolemy_diagonal": [lambda x, y, u, v: (y, x, v, u),
                         lambda x, y, u, v: (v, u, y, x)],
}


@pytest.mark.parametrize("name", list(SWAPS))
def test_symmetric_arguments_give_the_same_bits(name):
    """On floats and on carriers, each seeded with its own derivative, over
    the op's own sampler."""
    [op] = [op for op in ops.table() if op.name == name]
    rng = random.Random(name)
    for i in range(2000):
        point = op.sample(rng)
        for swap in SWAPS[name]:
            assert op.closed(*swap(*point)) == op.closed(*point), point
        if i % 4 == 0:
            carriers = tuple(dual.seed(v, rng.uniform(-1.0, 1.0)) for v in point)
            for swap in SWAPS[name]:
                assert op.closed(*swap(*carriers)) == op.closed(*carriers), carriers


@given(triangles)
@example(geom.triangle_sides(8.3125, 8.37280547895568, 0.1015625))
@settings(max_examples=150)
def test_homogeneity_of_length_ops(t):
    for lam in (0.5, 2.0, 10.0):
        scaled = tuple(lam * s for s in t)
        assert_close(formulas.median(*scaled), lam * formulas.median(*t),
                     1e-12)
        assert_close(formulas.circumradius(*scaled),
                     lam * formulas.circumradius(*t), 1e-12)
        assert_close(formulas.inradius(*scaled), lam * formulas.inradius(*t),
                     1e-12)
        assert_close(formulas.triangle_area(*scaled),
                     lam * lam * formulas.triangle_area(*t), 1e-12)
        assert_close(formulas.angle_gamma(*scaled), formulas.angle_gamma(*t),
                     1e-12)


@given(triangles)
@settings(max_examples=150)
def test_euler_inequality_and_consistency(t):
    x, y, z = t
    r, big_r = formulas.inradius(*t), formulas.circumradius(*t)
    assert big_r >= 2.0 * r * (1.0 - 1e-12)
    assert big_r * big_r - 2.0 * big_r * r >= -1e-12 * big_r * big_r
    area = formulas.triangle_area(*t)
    s = sum(t) / 2.0
    assert_close(big_r * 4.0 * area, x * y * z, 1e-12)
    assert_close(r * s, area, 1e-12)
    assert_close(formulas.incenter_ratio(*t), (x + y) / (x + y + z), 1e-12)


@given(triangles)
@settings(max_examples=100, deadline=None)
def test_bisector_problem_roundtrip(t):
    abc = geom.incenter_bisector_lengths(*t)
    sides = geom.bisector_problem_solve(*abc)
    for got, want in zip(sides, t):
        assert_close(got, want, 1e-8)


@given(triangles)
@settings(max_examples=100, deadline=None)
def test_bisector_cubic_has_one_admissible_root(t):
    # The sign count behind formulas.bisector_side, in exact arithmetic on
    # each of the three cubics G(u) = k u^3 + B u^2 - C in
    # u = z^2 - (a^2 + b^2), with k = c^2/(a^2 b^2), B = 1 + k(a^2 + b^2)
    # and C = 4 a^2 b^2: G(0) < 0 < G(2ab), and G' > 0 at the returned root.
    # C k^2 < B^3 says sqrt(C/B) < cbrt(C/k), so Newton's start is the
    # nearer of the two upper bounds on the root.
    abc = geom.incenter_bisector_lengths(*t)
    for a, b, c in ((abc[1], abc[2], abc[0]), (abc[0], abc[2], abc[1]), abc):
        fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
        k = fc * fc / (fa * fa * fb * fb)
        big_b, big_c = 1 + k * (fa * fa + fb * fb), 4 * fa * fa * fb * fb
        for got, want in zip(formulas.bisector_cubic_coeffs(a, b, c),
                             (k, big_b, big_c)):
            assert_close(got, float(want), 1e-12)

        def cubic(u):
            return (k * u + big_b) * u * u - big_c

        assert cubic(0) < 0 < cubic(2 * fa * fb)
        assert big_c * k * k < big_b ** 3
        u = Fraction(formulas.bisector_side(a, b, c)) ** 2 - fa * fa - fb * fb
        assert 0 < u < 2 * fa * fb
        assert (3 * k * u + 2 * big_b) * u > 0


@given(triangles)
@settings(max_examples=100)
def test_right_angle_iff_pythagoras(t):
    x, y, z = t
    gamma = formulas.angle_gamma(*t)
    lhs = z * z
    rhs = x * x + y * y
    if abs(gamma - math.pi / 2.0) < 1e-12:
        assert abs(lhs - rhs) <= 1e-10 * rhs
    if abs(lhs - rhs) <= 1e-14 * rhs:
        assert abs(gamma - math.pi / 2.0) < 1e-10
