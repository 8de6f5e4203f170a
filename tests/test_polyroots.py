import cmath
import itertools
import math
import random

import pytest

from geodiff import cli, polyroots
from geodiff.polyroots import (ContinuationPath, Poly, make_path, match_distance,
                               oracle_roots, quadratic_sensitivities, track,
                               unit_roots)


def sort_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def coeffs_from_roots(roots):
    """a_0..a_n of the monic polynomial with these roots."""
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs  # multiply by x, then subtract r times the old
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    return coeffs


def start_coeffs(n):
    """s_0..s_n of the start system x^n - 1."""
    return [-1.0] + [0.0] * (n - 1) + [1.0]


def clustered_target(rng):
    """A degree-7 real polynomial with a real root pair 1e-4..1e-2 apart,
    and the roots it was built from."""
    x = rng.uniform(-2.0, 2.0)
    roots = [x, x + 10 ** rng.uniform(-4.0, -2.0), rng.uniform(-2.0, 2.0)]
    for _ in range(2):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0))
        roots += [z, z.conjugate()]
    return Poly(tuple(c.real for c in coeffs_from_roots(roots))), roots


class TestPoly:
    def test_eval_and_deriv(self):
        p = Poly((-6.0, 11.0, -6.0, 1.0))  # (x-1)(x-2)(x-3)
        assert p(2.0) == pytest.approx(0.0, abs=1e-12)
        assert p.deriv(0.0) == pytest.approx(11.0)
        assert p.degree == 3

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            Poly((1.0,))

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            Poly((1.0, 1.0, 1e-20))

    @pytest.mark.parametrize("coeffs", [(math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_non_finite_coefficients(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            Poly(coeffs)

    def test_replace_validates(self):
        p = Poly((-4.0, 0.0, 1.0))
        assert p._replace(coeffs=(1, 2)) == Poly((1.0 + 0j, 2.0 + 0j))
        with pytest.raises(ValueError, match="leading"):
            p._replace(coeffs=(1.0, 1.0, 1e-20))


class TestTrack:
    def test_square_stretch(self):
        path = ContinuationPath(Poly((-4.0, 0.0, 1.0)))
        got = sort_roots(track(path))
        assert got[0].real == pytest.approx(-2.0, abs=1e-10)
        assert got[1].real == pytest.approx(2.0, abs=1e-10)
        assert max(abs(z.imag) for z in got) < 1e-10

    def test_cubic_with_known_factorization(self):
        target = Poly((-6.0, 11.0, -6.0, 1.0))  # roots 1, 2, 3
        got = sort_roots(track(make_path(target)))
        for z, want in zip(got, (1.0, 2.0, 3.0)):
            assert abs(z - want) < 1e-8

    def test_degree_one_target(self):
        # the fused kernel's Horner body is empty: only the first row is read
        target = Poly((3.0, 2.0))
        got = track(make_path(target))
        assert got == [-1.5] == oracle_roots(target)

    def test_identity_path(self):
        # the target is the start system x^4 - 1 itself
        path = ContinuationPath(Poly(tuple(start_coeffs(4))), gamma=cmath.exp(0.7j))
        got = track(path)
        assert max(abs(g - r) for g, r in zip(got, unit_roots(4))) < 1e-12

    def test_gamma_must_be_unit(self):
        with pytest.raises(ValueError):
            ContinuationPath(Poly((-4.0, 0.0, 1.0)), gamma=2.0 + 0j)

    @pytest.mark.parametrize("gamma", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="unit magnitude"):
            ContinuationPath(Poly((-4.0, 0.0, 1.0)), gamma=gamma)

    def test_replace_validates_gamma(self):
        path = ContinuationPath(Poly((-4.0, 0.0, 1.0)))
        assert path._replace(gamma=1j).gamma == 1j
        with pytest.raises(ValueError, match="unit magnitude"):
            path._replace(gamma=2.0 + 0j)

    def test_first_step_does_not_change_the_roots(self, monkeypatch):
        # FIRST_STEP only sets the first step; the error control sets the rest
        rng = random.Random("polyroots-steps")
        for _ in range(4):
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(8)] + [1.0]
            path = make_path(Poly(tuple(complex(c) for c in coeffs)), rng=rng)
            runs = []
            for steps in (8, 64, 256):
                monkeypatch.setattr(polyroots, "FIRST_STEP", 1.0 / steps)
                runs.append(track(path))
            for roots in runs[1:]:
                assert max(abs(a - b) for a, b in zip(runs[0], roots)) < 1e-12

    def test_repeated_target_root_fails_loudly(self):
        # (x-1)^2: the path ends on a double root where P' vanishes
        target = Poly((1.0, -2.0, 1.0))
        with pytest.raises((polyroots.PathSingularityError,
                            polyroots.TrackingFailureError)):
            track(make_path(target))

    def test_untwisted_path_through_a_double_root(self):
        # (1-t)(x^2 - 1) + t(x^2 + 1) = x^2 + 2t - 1 has a double root at t = 1/2
        path = ContinuationPath(Poly((1.0, 0.0, 1.0)))
        with pytest.raises(polyroots.PathSingularityError):
            track(path)

    def test_clustered_roots_fail_loudly_or_match(self):
        # an uncapped step may cross a close root pair; the guards must turn
        # every such crossing into an error, never into a wrong root set
        rng = random.Random("polyroots-cluster")
        checked = 0
        for _ in range(40):
            target, _ = clustered_target(rng)
            try:
                tracked = track(make_path(target, rng=rng))
                reference = oracle_roots(target)
            except (polyroots.PathSingularityError,
                    polyroots.TrackingFailureError,
                    polyroots.OracleFailureError):
                continue
            assert match_distance(tracked, reference) < 1e-10
            checked += 1
        assert checked >= 20

    def test_clustered_split(self):
        # the close real pair still stops 32 of these 200 paths with a step
        # below its floor just before t = 1; every path that ends must end
        # on the oracle's roots.  An endgame may raise the count, never lower it
        rng = random.Random("cluster")
        tracked = 0
        for _ in range(200):
            target, _ = clustered_target(rng)
            path = make_path(target, rng=rng)
            try:
                found = track(path)
            except polyroots.PathSingularityError:
                continue
            assert match_distance(found, oracle_roots(target)) < 1e-10
            tracked += 1
        assert tracked >= 168

    def test_rejected_correction_still_matches_the_oracle(self, monkeypatch):
        # roots suite, seed 18, case 13: one Newton step misses the residual
        # test once, and track halves that step instead of accepting it
        target = Poly((-2.4386731401646635, 4.028433834722684, -4.851233444036143,
                       0.5072865946055138, -0.36789992514202563, 1.6882408748441673,
                       -4.810650183973861, 2.393249440415709, 1.0))
        path = ContinuationPath(target, gamma=complex(0.3276015882802513,
                                                      -0.944815960574469))
        kernels = polyroots.path_kernels
        results = []

        def recording(path):
            velocity, correct = kernels(path)

            def corrector(t, x, v, dp, fx):
                results.append(correct(t, x, v, dp, fx))
                return results[-1]

            return velocity, corrector

        monkeypatch.setattr(polyroots, "path_kernels", recording)
        tracked = track(path)
        assert None in results
        assert match_distance(tracked, oracle_roots(target)) < 1e-12

    def test_repeated_start_root_lands_twice(self, monkeypatch):
        # two paths from one start root end on one simple root of the target
        monkeypatch.setattr(polyroots, "unit_roots",
                            lambda n: (1.0 + 0j,) * 2 + unit_roots(n)[2:])
        with pytest.raises(polyroots.TrackingFailureError,
                           match="two paths landed on the same simple root"):
            track(make_path(Poly((-6.0, 11.0, -6.0, 1.0))))

    def test_final_residual_test_raises(self, monkeypatch):
        monkeypatch.setattr(polyroots, "FINAL_RESIDUAL_TOL", 0.0)
        with pytest.raises(polyroots.TrackingFailureError, match="residual"):
            track(make_path(Poly((-6.0, 11.0, -6.0, 1.0))))

    def test_roots_are_pinned(self):
        # any change to the predictor, the step control or the corrector
        # moves these bits; re-pin them only with a change that explains it.
        # Re-pinned when the corrector began to read P_t(x) off the velocity
        # pass, as gamma S(x) + t R(x) instead of from P_t's coefficients
        # outside the rounding band: same guards and decisions, another
        # Newton step by a few ulps, so the last bits of some roots moved
        rng = random.Random("polyroots-pinned")
        for want in PINNED_ROOTS:
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(8)] + [1.0]
            path = make_path(Poly(tuple(complex(c) for c in coeffs)), rng=rng)
            assert list(map(repr, track(path))) == list(map(repr, want))


PINNED_ROOTS = (
    ((0.9011865741574957+0.5279291537550607j),
     (0.7902675878617381+1.6739397742819586j),
     (-0.5299313793575506+1.0009361596303745j),
     (-0.6078045923491536+0j),
     (-1.2007331672658026+3.0814879110195774e-32j),
     (-0.5299313793575506-1.0009361596303745j),
     (0.7902675878617382-1.6739397742819584j),
     (0.9011865741574957-0.5279291537550607j)),
    ((1.2049156080049943+2.311115933264683e-33j),
     (0.5077735961627002+0.6314923693056981j),
     (-1.1198706044964417+1.0798695850126148j),
     (-0.480481020587589+0.812453838028774j),
     (-1.976044252120233+4.930380657631324e-32j),
     (-1.1198706044964417-1.0798695850126148j),
     (-0.480481020587589-0.812453838028774j),
     (0.5077735961627002-0.6314923693056981j)),
    ((0.9416425432520886-0.38198959677552224j),
     (0.9416425432520886+0.38198959677552224j),
     (0.23822271751162186+0.8178356727355957j),
     (-0.8240590505598272+1.0148722612803647j),
     (-4.413602629344147-5.423418723394456e-31j),
     (-0.8086015581558212-6.162975822039155e-33j),
     (-0.8240590505598272-1.0148722612803647j),
     (0.23822271751162186-0.8178356727355957j)),
)


class TestVelocity:
    def test_one_pass_matches_the_path_polynomial(self):
        # track's velocity -R(x) / P'_t(x) from the fused kernel against the
        # one from P_t itself (ContinuationPath.at): R is the same Horner sum
        # bit for bit, and the two P'_t(x) round differently, by a few eps
        # times the sum of the |terms| of (1-t) (gamma S)'(x) + t Q'(x).  The
        # full pass's split sum P_t(x) = gamma S(x) + t R(x) stays within the
        # corrector's band, 8 n eps (2 |gamma| + t sum|r_k|) max(1, |x|)**n,
        # of the Horner sum over P_t's own coefficients
        rng = random.Random("polyroots-velocity")
        eps = math.ulp(1.0)
        for _ in range(60):
            degree = rng.randint(2, 8)
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(degree)] + [1.0]
            path = make_path(Poly(tuple(complex(c) for c in coeffs)), rng=rng)
            velocity, _ = polyroots.path_kernels(path)
            start = start_coeffs(degree)
            rate = Poly(tuple(q - path.gamma * s
                              for s, q in zip(start, path.target.coeffs)))
            spread = math.fsum(map(abs, rate.coeffs))
            for t in (0.0, rng.random(), 1.0):
                p_t = path.at(t)
                on_path = rng.choice(oracle_roots(p_t))
                off_path = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                            for _ in range(2)]
                for x in [on_path] + off_path:
                    got, dp, fx = velocity(t, x, True)
                    assert repr(velocity(t, x)) == repr(got)
                    assert got == -rate(x) / dp
                    want = -rate(x) / p_t.deriv(x)
                    terms = sum(k * (abs((1.0 - t) * path.gamma * s) + abs(t * q))
                                * abs(x) ** (k - 1) for k, (s, q) in
                                enumerate(zip(start, path.target.coeffs)))
                    cond = 1.0 + terms / abs(p_t.deriv(x))
                    assert abs(got - want) <= 4 * degree * eps * abs(want) * cond
                    band = 8 * degree * eps * (2.0 + t * spread)
                    assert abs(fx - p_t(x)) <= band * max(1.0, abs(x)) ** degree

    def test_corrector_takes_p_prime_from_the_last_stage(self, monkeypatch):
        # every corrector call starts at the last stage's point (t1, y5),
        # whose full pass hands it P' and the residual, and which must equal
        # a fresh kernel evaluation there bit for bit; the velocity it returns
        # is the one at the point it returns, and track makes no pass of its
        # own there: that one is the next step's first stage
        kernels = polyroots.path_kernels
        calls, passes = [], []

        def recording(path):
            velocity, correct = kernels(path)

            def stage(t, x, full=False):
                passes.append((t, x, full))
                return velocity(t, x, full)

            def corrector(t, x, v, dp, fx):
                got = correct(t, x, v, dp, fx)
                calls.append((path, passes[-1], (t, x), (v, dp, fx), got))
                return got

            return stage, corrector

        monkeypatch.setattr(polyroots, "path_kernels", recording)
        rng = random.Random("polyroots-handoff")
        for degree in (1, 3, 8):
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(degree)] + [1.0]
            track(make_path(Poly(tuple(coeffs)), rng=rng))
        assert len(calls) > 100
        ends = set()
        for path, stage_at, (t, x), handed, got in calls:
            velocity = kernels(path)[0]
            assert stage_at == (t, x, True)
            assert repr(handed) == repr(velocity(t, x, True))
            if got is not None:
                assert repr(got[1]) == repr(velocity(t, got[0]))
                ends.add((t, got[0]))
        assert not ends & {(t, x) for t, x, full in passes if not full}

    def test_floor_bound_covers_the_path_scale(self, monkeypatch):
        # the P' floor first tests against one constant per path,
        # max(|gamma|, max|q_k|) (1 + 1e-12), at least the old per-t bound
        # B(t) = ((1-t) |gamma| + t max|q_k|) (1 + 1e-12), which must never
        # fall below max|c_k| of P_t itself
        rng = random.Random("polyroots-bound")
        for _ in range(200):
            degree = rng.randint(1, 8)
            coeffs = [complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                      for _ in range(degree + 1)]
            path = make_path(Poly(tuple(coeffs)), rng=rng)
            floor = max(abs(path.gamma), path.target.scale) * (1.0 + 1e-12)
            for t in (0.0, rng.random(), rng.random(), 1.0):
                bound = ((1.0 - t) * abs(path.gamma) + t * path.target.scale) \
                    * (1.0 + 1e-12)
                assert floor >= bound >= path.at(t).scale
        # so it raises where the B(t) form raised, bit for bit: around the
        # critical points of P_t, where P' crosses DERIV_FLOOR max|c_k| m
        rng = random.Random("polyroots-floor")
        raised = kept = 0
        for _ in range(40):
            degree = rng.randint(2, 8)
            coeffs = [complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                      for _ in range(degree)] + [1.0]
            path = make_path(Poly(tuple(coeffs)), rng=rng)
            t = rng.random()
            p_t = path.at(t)
            bound = ((1.0 - t) * abs(path.gamma) + t * path.target.scale) \
                * (1.0 + 1e-12)
            slope = Poly(tuple(k * c for k, c in enumerate(p_t.coeffs)))
            with monkeypatch.context() as m:  # a floor of 0 never raises
                m.setattr(polyroots, "DERIV_FLOOR", 0.0)
                bare, _ = polyroots.path_kernels(path)
            velocity, _ = polyroots.path_kernels(path)
            for xc in oracle_roots(Poly(slope.coeffs[1:])):
                step = polyroots.DERIV_FLOOR * p_t.scale / abs(slope.deriv(xc))
                turn = cmath.exp(2j * math.pi * rng.random())
                for f in (0.1, 0.5, 0.9, 1.1, 2.0, 4.0):
                    x = xc + f * step * turn * max(1.0, abs(xc)) ** (degree - 1)
                    adp = abs(bare(t, x, True)[1])
                    m = max(1.0, abs(x)) ** (degree - 1)
                    old = adp < polyroots.DERIV_FLOOR * bound * m \
                        and adp < polyroots.DERIV_FLOOR * p_t.scale * m
                    try:
                        velocity(t, x)
                    except polyroots.PathSingularityError:
                        assert old
                        raised += 1
                    else:
                        assert not old
                        kept += 1
        assert raised > 50 and kept > 50

    def test_corrector_takes_one_newton_step(self):
        # on P_1 = x^2 - 4 a root comes back as it is, a point one Newton step
        # from it comes back stepped, and one that one step leaves short, None
        velocity, correct = polyroots.path_kernels(
            ContinuationPath(Poly((-4.0, 0.0, 1.0))))
        assert correct(1.0, 2.0 + 0j, *velocity(1.0, 2.0 + 0j, True))[0] == 2.0
        near = 2.0 + 1e-8 + 0j
        x, v = correct(1.0, near, *velocity(1.0, near, True))
        assert abs(x - 2.0) < 1e-15 and v == velocity(1.0, x)
        assert correct(1.0, 2.1 + 0j, *velocity(1.0, 2.1 + 0j, True)) is None

    def test_corrector_decides_on_p_t_coefficients(self):
        # the split-sum residual, with its band, must pass exactly the points
        # that P_t's own coefficients pass: |P_t(x)| <= 1e-13 max|c_k|
        # max(1, |x|)**n, P_t(x) from a Horner pass over them.  correct keeps
        # x itself only then; otherwise its Newton step moves x, or leaves it
        # where it failed and returns None.  Points sit on the path and at
        # 0.5 to 2 times the threshold's distance from it, so many fall in
        # the band; the cancelling path puts every one of them there
        rng = random.Random("polyroots-decide")
        paths = [(ContinuationPath(Poly((1.0, -1.0 + 2.0 ** -50))), 0.5)]
        for _ in range(150):
            degree = rng.randint(1, 8)
            coeffs = [complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                      for _ in range(degree)] + [complex(rng.uniform(0.5, 2.0))]
            path = make_path(Poly(tuple(coeffs)), rng=rng)
            paths.append((path, rng.choice((0.0, rng.random(), 1.0))))
        decided = {True: 0, False: 0}
        for path, t in paths:
            n = path.target.degree
            velocity, correct = polyroots.path_kernels(path)
            p_t = path.at(t)
            points = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))]
            for root in oracle_roots(p_t):
                points.append(root)
                gap = 1e-13 * p_t.scale * max(1.0, abs(root)) ** n \
                    / abs(p_t.deriv(root))
                turn = cmath.exp(2j * math.pi * rng.random())
                points += [root + f * gap * turn for f in (0.5, 0.9, 1.0, 1.1, 2.0)]
            for x in points:
                try:
                    got = correct(t, x, *velocity(t, x, True))
                except polyroots.PathSingularityError:
                    continue
                want = abs(p_t(x)) <= 1e-13 * p_t.scale * max(1.0, abs(x)) ** n
                assert (got is not None and got[0] == x) == want, (path, t, x)
                decided[want] += 1
        assert min(decided.values()) > 300

    def test_cancelling_coefficients_pass_on_p_t_scale(self):
        # at t = 1/2 gamma s_k and q_k cancel: P_t = 2**-51 x, so P' = 2**-51
        # trips the floor constant 1 but clears P_t's own scale max|c_k| =
        # 2**-51; the split sum gamma (x - 1) + t R(x) cancels too, so the
        # corrector reads P_t(x) off P_t's coefficients, decides on that
        # scale, and steps by that residual
        path = ContinuationPath(Poly((1.0, -1.0 + 2.0 ** -50)))
        velocity, correct = polyroots.path_kernels(path)
        got, dp, fx = velocity(0.5, 0j, True)
        assert dp == 2.0 ** -51 and abs(dp) < polyroots.DERIV_FLOOR
        assert got == -2.0 / 2.0 ** -51 and fx == 0.0
        x = 1e-14 + 0j  # |P_t(x)| = 2**-51 1e-14 <= 1e-13 2**-51
        assert correct(0.5, x, *velocity(0.5, x, True))[0] == x
        x = 1e-12 + 0j  # one exact Newton step lands on the root 0
        assert correct(0.5, x, *velocity(0.5, x, True))[0] == 0.0

    def test_vanishing_p_prime_raises(self):
        # x^2 + 2t - 1 has a double root at x = 0, t = 1/2: P' = 0 trips both
        path = ContinuationPath(Poly((1.0, 0.0, 1.0)))
        velocity, _ = polyroots.path_kernels(path)
        with pytest.raises(polyroots.PathSingularityError):
            velocity(0.5, 0j)
        with pytest.raises(polyroots.PathSingularityError):
            velocity(0.5, 0j, True)


class TestDegreeDrop:
    """With gamma = -1 a monic target's P_t has leading coefficient 2t - 1,
    so at t = 1/2 the path drops degree: a path singularity, not a bad
    argument."""

    def test_at_raises_a_path_singularity(self):
        # P_{1/2} = (-3 + 1)/2 + 0 x + 0 x^2: Poly rejects the vanished x^2
        path = ContinuationPath(Poly((-3.0, 0.0, 1.0)), gamma=-1 + 0j)
        with pytest.raises(polyroots.PathSingularityError, match="t=0.5"):
            path.at(0.5)
        velocity, _ = polyroots.path_kernels(path)
        with pytest.raises(polyroots.PathSingularityError):
            velocity(0.5, 0j)

    def test_track_through_a_degree_drop_raises(self):
        rng = random.Random(37)
        for degree in range(1, 9):
            for _ in range(3):
                coeffs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                          for _ in range(degree)] + [1.0]
                path = ContinuationPath(Poly(tuple(coeffs)), gamma=-1 + 0j)
                with pytest.raises(polyroots.PathSingularityError):
                    track(path)

    def test_the_roots_suite_builds_p_t_through_at(self, monkeypatch):
        # track builds P_t only through ContinuationPath.at (the corrector's
        # in-band residual, the P' floor's fallback); a roots run reaches it
        calls = []
        at = ContinuationPath.at
        monkeypatch.setattr(ContinuationPath, "at",
                            lambda path, t: calls.append(t) or at(path, t))
        cli.run_roots(random.Random("0:roots"), 100)
        assert calls


class TestQuadraticSensitivities:
    def test_unit_parabola_positive_root(self):
        da, db, dc = quadratic_sensitivities(1.0, 0.0, -1.0, 1.0)
        assert (da, db, dc) == (pytest.approx(-0.5), pytest.approx(-0.5),
                                pytest.approx(-0.5))

    def test_unit_parabola_negative_root(self):
        da, db, dc = quadratic_sensitivities(1.0, 0.0, -1.0, -1.0)
        assert (da, db, dc) == (pytest.approx(0.5), pytest.approx(-0.5),
                                pytest.approx(0.5))

    def test_shifted_quadratic(self):
        da, db, dc = quadratic_sensitivities(1.0, -3.0, 2.0, 2.0)
        assert (da, db, dc) == (pytest.approx(-4.0), pytest.approx(-2.0),
                                pytest.approx(-1.0))

    def test_finite_difference_cross_check(self):
        a, b, c, x = 1.0, -3.0, 2.0, 2.0
        sens = quadratic_sensitivities(a, b, c, x)
        h = 1e-7

        def root_near(aa, bb, cc):
            d = math.sqrt(bb * bb - 4 * aa * cc)
            return min(((-bb + d) / (2 * aa), (-bb - d) / (2 * aa)),
                       key=lambda r: abs(r - x))

        fd = ((root_near(a + h, b, c) - root_near(a - h, b, c)) / (2 * h),
              (root_near(a, b + h, c) - root_near(a, b - h, c)) / (2 * h),
              (root_near(a, b, c + h) - root_near(a, b, c - h)) / (2 * h))
        for got, want in zip(sens, fd):
            assert abs(got.real - want) < 1e-5 * max(abs(want), 1.0)

    def test_repeated_root(self):
        with pytest.raises(polyroots.RepeatedRootError):
            quadratic_sensitivities(1.0, -2.0, 1.0, 1.0)


class TestOracle:
    def test_square(self):
        got = sort_roots(oracle_roots(Poly((-4.0, 0.0, 1.0))))
        assert abs(got[0] + 2.0) < 1e-10 and abs(got[1] - 2.0) < 1e-10

    def test_factored_cubic(self):
        got = sort_roots(oracle_roots(Poly((-6.0, 11.0, -6.0, 1.0))))
        for z, want in zip(got, (1.0, 2.0, 3.0)):
            assert abs(z - want) < 1e-10

    def test_pure_imaginary_pair(self):
        got = sort_roots(oracle_roots(Poly((1.0, 0.0, 1.0))))
        assert abs(got[0] + 1j) < 1e-10 and abs(got[1] - 1j) < 1e-10

    def test_close_pair_at_its_rounding_floor(self):
        # on these draws the largest Durand-Kerner correction stalls between
        # 3e-12 and 9e-11 for every sweep, above the 1e-12 stop; the oracle
        # must accept that floor instead of raising OracleFailureError
        stalled = (22, 28, 30, 32, 36, 49, 54, 74, 83, 91, 106, 155, 168, 174, 182)
        rng = random.Random("cluster")
        tracked = 0
        for k in range(stalled[-1] + 1):
            target, roots = clustered_target(rng)
            path = make_path(target, rng=rng)
            if k not in stalled:
                continue
            found = oracle_roots(target)
            # the built-from roots move by up to 2.6e-9 when the
            # coefficients are rounded
            assert match_distance(found, roots) < 1e-8
            try:
                reference = track(path)
            except polyroots.PathSingularityError:
                continue
            assert match_distance(found, reference) < 1e-10
            tracked += 1
        assert tracked == 3


class TestRandomPolynomials:
    def test_track_matches_oracle(self):
        rng = random.Random("polyroots-unit")
        for _ in range(30):
            degree = rng.randint(2, 8)
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(degree)] + [1.0]
            target = Poly(tuple(complex(c) for c in coeffs))
            tracked = track(make_path(target, rng=rng))
            assert match_distance(tracked, oracle_roots(target)) < 1e-6

    def test_residual_bound_and_conjugate_closure(self):
        rng = random.Random("polyroots-unit-2")
        for _ in range(15):
            degree = rng.randint(2, 8)
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(degree)] + [1.0]
            target = Poly(tuple(complex(c) for c in coeffs))
            roots = track(make_path(target, rng=rng))
            scale = target.scale
            for x in roots:
                assert abs(target(x)) < 1e-8 * scale * max(1.0, abs(x)) ** degree
            conj = [x.conjugate() for x in roots]
            assert match_distance(conj, roots) < 1e-8

    def test_match_distance_is_the_bottleneck(self):
        # pairing in order costs 0 + 3, crosswise 2 + 2: the sum prefers the
        # first, the largest distance the second
        far = 2.0 * cmath.exp(2j * math.asin(0.75))
        assert match_distance([0j, 2 + 0j], [0j, far]) == pytest.approx(2.0)

    def test_match_distance_agrees_with_brute_force(self):
        # up to n = 8, the largest degree the roots suite draws
        rng = random.Random("bottleneck")
        sizes = (rng.randint(1, 6) for _ in range(200))
        for n in itertools.chain(sizes, [7] * 10, [8] * 5):
            found, ref = ([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                           for _ in range(n)] for _ in range(2))
            brute = min(max(abs(f - ref[j]) for f, j in zip(found, perm))
                        for perm in itertools.permutations(range(n)))
            assert match_distance(found, ref) == brute

    def test_match_distance_of_a_non_finite_root_is_non_finite(self):
        nan, inf = complex(math.nan, 0.0), complex(math.inf, 0.0)
        cases = [([nan], [1j]), ([1j], [nan]), ([0j, 2 + 0j], [0j, inf]),
                 ([inf, 0j], [0j, 2 + 0j]), ([nan, 0j, 1 + 0j], [0j, 1 + 0j, 2j])]
        for found, ref in cases:
            assert not math.isfinite(match_distance(found, ref)), (found, ref)

    def test_match_distance_of_no_roots_is_zero(self):
        assert match_distance([], []) == 0.0

    def test_match_distance_requires_equal_sizes(self):
        with pytest.raises(ValueError):
            match_distance([1 + 0j], [1 + 0j, 2 + 0j])
