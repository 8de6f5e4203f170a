import dataclasses
import inspect
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from conftest import assert_close
from geodiff import cli, formulas, odes, ops
from geodiff.cli import ENDPOINT_TOL, RESIDUAL_TOL

CATALOG = ops.derivations()
BY_NAME = {p.name: p for p in CATALOG}
ORDER = [p.name for p in CATALOG]


class TestCatalog:
    def test_exactly_21_entries(self):
        assert len(CATALOG) == 21

    def test_expected_names_in_order(self):
        assert ORDER == [
            "thales", "pythagoras", "pyth_alt", "apollonius", "stewart",
            "heron", "heron_alt", "alkashi", "terquem", "bispart", "degua",
            "inscribed", "circumradius", "inradius", "euler", "sines",
            "ptolemy", "brahmagupta", "bisprob", "circle_area", "sphere_volume"]

    def test_residual_only_entries(self):
        assert tuple(p.name for p in CATALOG if p.residual_only) \
            == ("heron_alt", "inradius", "ptolemy", "bisprob")

    def test_pythagoras_anchor_satisfies_closed_form(self):
        p = BY_NAME["pythagoras"]
        assert_close(p.closed(p.s_range[0]), p.anchor, 1e-12)

    def test_brahmagupta_anchor_is_triangle_area(self):
        p = BY_NAME["brahmagupta"]
        want = formulas.triangle_area(p.params["y"], p.params["u"], p.params["v"])
        assert_close(p.anchor, want, 1e-12)

    def test_every_anchor_satisfies_closed_form(self):
        for p in CATALOG:
            if p.residual_only:
                continue
            f0 = p.anchor
            got = p.closed(p.s_range[0])
            assert abs(got - f0) <= 1e-12 * max(abs(f0), 1.0), p.name

    def test_kernels_are_operations(self):
        """Each derivation of an op solves with that op's closed form, and
        its params are the closed form's arguments other than s, by name and
        in order."""
        for op in ops.table():
            names = list(inspect.signature(op.closed).parameters)
            for name, _, params, _, at, _ in op.derive:
                assert BY_NAME[name].kernel is op.closed, name
                assert 0 <= at <= len(params), name
                assert names[:at] + names[at + 1:] == list(params), name

    def test_rhs_takes_the_params_then_s_and_f(self):
        """Every right-hand side, thales' too, is written in its params'
        names, in order, followed by s and f."""
        for p in CATALOG:
            assert list(inspect.signature(p.rhs).parameters) \
                == [*p.params, "s", "f"], p.name


class TestRouteMatrix:
    """Which route checks which identity of ``ops.table()``: theorems where
    the op has a coordinate construction, derive where the op has
    derivations, scale for every op, roots where a roots record names it.
    Every empty cell is pinned by name, so a gap that opens or closes shows
    here as a diff, and the README carries the same matrix."""

    @staticmethod
    def covered(table):
        names = {op.name for op in table}
        return {
            "theorems": {op.name for op in table if op.oracle is not None},
            "derive": {op.name for op in table if op.derive},
            "scale": names,
            "roots": names & {r.op.partition(":")[0]
                              for r in cli.run_roots(random.Random(0), 1)},
        }

    def test_every_empty_cell_is_named(self):
        table = ops.table()
        names = {op.name for op in table}
        assert len(names) == 19
        assert {route: sorted(names - done)
                for route, done in self.covered(table).items()} == {
            "theorems": ["bisector_problem_z", "circle_area", "sphere_volume"],
            "derive": ["incenter_ratio"],
            "scale": [],
            "roots": sorted(names),
        }
        # and one derivation checks an identity that has no op at all
        in_ops = {d[0] for op in table for d in op.derive}
        assert [p.name for p in CATALOG if p.name not in in_ops] == ["thales"]

    def test_readme_carries_the_matrix(self):
        """The README's identity x route table has one row per op, in table
        order, then the Thales row: its derive column names the op's
        derivations and every other column marks the routes above."""
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        head = lines.index("| identity | theorems | derive | scale | roots |")
        rows = []
        for line in lines[head + 2:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        table = ops.table()
        covered = self.covered(table)

        def mark(route, op):
            return "x" if op.name in covered[route] else "-"

        want = [[f"`{op.name}`", mark("theorems", op),
                 ", ".join(d[0] for d in op.derive) or "-",
                 mark("scale", op), mark("roots", op)] for op in table]
        assert rows == want + [["Thales (no op)", "-", "thales", "-", "-"]]


class TestSigns:
    """The signs the ``ops`` module docstring fixes: each quoted alternative
    fails the gate the table's form passes."""

    def test_bispart_needs_the_leading_minus(self):
        p = BY_NAME["bispart"]
        flipped = dataclasses.replace(p, rhs=lambda *a: -p.rhs(*a))
        exact = odes.reference_endpoint(p)
        assert abs(odes.integrate(p, 1e-3) - exact) < ENDPOINT_TOL * exact
        assert abs(odes.integrate(flipped, 1e-3) - exact) > 1.0 * exact

    def test_inradius_numerator_takes_z_minus_x(self):
        p = BY_NAME["inradius"]

        def flipped(y, z, s, f):
            # (x - z)(x^2 - y^2 + z^2) in place of (z - x)(...): subtract the
            # (z - x) term, over its denominator 2 x sqrt(16 area^2), twice
            return p.rhs(y, z, s, f) - (z - s) * (s * s - y * y + z * z) \
                / (s * math.sqrt(ops._heron_discriminant(s, y, z)))

        assert odes.residual(p, 1000).max_residual < RESIDUAL_TOL
        wrong = dataclasses.replace(p, rhs=flipped)
        assert odes.residual(wrong, 1000).max_residual > 1.0


class TestIntegrate:
    def test_pythagoras_endpoint(self):
        assert_close(odes.integrate(BY_NAME["pythagoras"], 1e-3), 5.0, 1e-10)

    def test_circle_area_endpoint(self):
        assert_close(odes.integrate(BY_NAME["circle_area"], 1e-3), math.pi, 1e-10)

    def test_heron_downward_endpoint(self):
        assert_close(odes.integrate(BY_NAME["heron"], 1e-3), 6.0, 1e-8)

    def test_residual_only_has_no_anchor(self):
        with pytest.raises(ValueError):
            odes.integrate(BY_NAME["ptolemy"], 1e-2)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            odes.integrate(BY_NAME["pythagoras"], -0.1)

    def test_singular_rhs_is_reported(self):
        bomb = odes.OdeProblem(
            "bomb", (0.0, 1.0), {},
            lambda s, f: 1.0 / (s - 0.5),
            lambda s: 0.0, 0, 0.0)
        with pytest.raises(odes.SingularityError):
            odes.integrate(bomb, 0.125)

    @pytest.mark.parametrize("stages", [
        (1.0, math.nan, 1.0, 1.0),
        (1.0, 1.0, 1.0, math.inf),
        (1.0, math.inf, -math.inf, 1.0),
    ], ids=["nan", "inf", "inf-and-minus-inf"])
    def test_non_finite_stage_is_reported(self, stages):
        # the second step's four stages return these, whatever s and f
        values = iter((1.0,) * 4 + stages)
        stage = odes.OdeProblem(
            "stage", (0.0, 1.0), {}, lambda s, f: next(values),
            lambda s: 0.0, 0, 0.0)
        with pytest.raises(odes.SingularityError,
                           match=r"^stage: non-finite right-hand side near s=0\.5$"):
            odes.integrate(stage, 0.5)

    def test_alternative_route_agrees(self):
        a = odes.integrate(BY_NAME["pythagoras"], 1e-3)
        b = odes.integrate(BY_NAME["pyth_alt"], 1e-3)
        assert abs(a - b) < 1e-8


class TestResidual:
    def test_pythagoras_wide_range(self):
        p = odes.OdeProblem(
            "pyth_wide", (0.1, 10.0), {"y": 1.0},
            lambda y, s, f: s / f,
            formulas.hypotenuse, 0, (0.0, 1.0))
        assert odes.residual(p, 200).max_residual < 1e-12

    def test_ptolemy(self):
        assert odes.residual(BY_NAME["ptolemy"], 500).max_residual < 1e-10

    def test_inradius(self):
        assert odes.residual(BY_NAME["inradius"], 1000).max_residual < 1e-9

    def test_bisprob(self):
        assert odes.residual(BY_NAME["bisprob"], 500).max_residual < 1e-10

    def test_heron_alt(self):
        assert odes.residual(BY_NAME["heron_alt"], 500).max_residual < 1e-10

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            odes.residual(BY_NAME["ptolemy"], 1)

    def test_singular_samples_are_skipped_and_reported(self):
        spiky = odes.OdeProblem(
            "spiky", (0.0, 1.0), {},
            lambda s, f: 1.0 / s,
            formulas.sqrt, 0, None)
        res = odes.residual(spiky, 11)
        assert 0.0 in res.skipped

    def test_overflowing_samples_are_skipped_and_reported(self):
        # s ** 4 overflows for every sample past s = 1, as in integrate
        ovf = odes.OdeProblem(
            "ovf", (1.0, 1e80), {},
            lambda s, f: s ** 4 / f,
            formulas.circle_area, 0, None)
        res = odes.residual(ovf, 5)
        assert len(res.skipped) == 4 and 1.0 not in res.skipped
        assert math.isfinite(res.max_residual)

    def test_nothing_evaluated_is_an_infinite_defect(self):
        # the median of sides (s, 1, 5) is imaginary for every s in range
        broken = odes.OdeProblem(
            "broken", (0.5, 1.5), {"y": 1.0, "z": 5.0},
            lambda y, z, s, f: s / (2.0 * f),
            formulas.median, 0, None)
        res = odes.residual(broken, 50)
        assert len(res.skipped) == 50
        assert res.max_residual == math.inf
        assert not res.max_residual < RESIDUAL_TOL


class TestConvergence:
    H = (1e-1, 1e-2, 1e-3)

    def test_pythagoras_fourth_order(self):
        rep = odes.convergence(BY_NAME["pythagoras"], self.H)
        assert 3.5 <= rep.fitted_order <= 4.5

    def test_alkashi_fourth_order(self):
        rep = odes.convergence(BY_NAME["alkashi"], self.H)
        assert 3.5 <= rep.fitted_order <= 4.5

    def test_inscribed_is_exact(self):
        rep = odes.convergence(BY_NAME["inscribed"], self.H)
        assert rep.fitted_order is None
        assert all(e <= 1e-14 for e in rep.errors)
        assert rep.floor == 50.0 * sys.float_info.epsilon * math.pi / 2.0

    def test_errors_decrease(self):
        rep = odes.convergence(BY_NAME["terquem"], self.H)
        assert rep.errors[0] > rep.errors[1] > rep.errors[2]

    def test_order_is_fitted_on_the_step_taken(self):
        # alkashi's span sqrt(13) -> 4.5 takes 9 steps of 0.0994 for a
        # nominal 0.1 and for 0.104 alike: same grids, same fit
        p = BY_NAME["alkashi"]
        a = odes.convergence(p, (0.1, 0.01, 0.001))
        b = odes.convergence(p, (0.104, 0.01, 0.001))
        assert b.endpoints == a.endpoints
        assert b.fitted_order == a.fitted_order

    def test_order_fit_is_the_exact_least_squares_slope(self, monkeypatch):
        """For the points each anchored entry fits, the fsum slope is within
        4 ulp of the least-squares slope of the same floats, taken exactly."""
        fits = []
        slope = odes._slope

        def spy(xs, ys):
            fits.append((xs, ys))
            return slope(xs, ys)

        monkeypatch.setattr(odes, "_slope", spy)
        for p in CATALOG:
            if p.residual_only:
                continue
            fits.clear()
            got = odes.convergence(p, self.H).fitted_order
            if got is None:  # RK4 is exact there: nothing was fitted
                assert not fits, p.name
                continue
            [fit] = fits
            xs, ys = ([Fraction(v) for v in vs] for vs in fit)
            xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
            exact = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
                / sum((x - xbar) ** 2 for x in xs)
            assert abs(Fraction(got) - exact) \
                <= 4 * Fraction(math.ulp(float(exact))), p.name

    def test_needs_three_steps(self):
        with pytest.raises(ValueError):
            odes.convergence(BY_NAME["pythagoras"], (1e-1, 1e-2))
