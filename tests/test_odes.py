import math

import pytest

from conftest import assert_close
from geodiff import formulas, odes

CATALOG = odes.catalog()
BY_NAME = {p.name: p for p in CATALOG}
ORDER = [p.name for p in CATALOG]


class TestCatalog:
    def test_exactly_21_entries(self):
        assert len(CATALOG) == 21

    def test_expected_names_in_order(self):
        assert ORDER == [
            "thales", "pythagoras", "apollonius", "stewart", "heron",
            "alkashi", "terquem", "degua", "inscribed", "circumradius",
            "sines", "ptolemy", "brahmagupta", "euler", "bispart",
            "inradius", "bisprob", "pyth_alt", "heron_alt",
            "circle_area", "sphere_volume"]

    def test_residual_only_entries(self):
        assert tuple(p.name for p in CATALOG if p.residual_only) \
            == ("ptolemy", "inradius", "bisprob", "heron_alt")

    def test_pythagoras_anchor_satisfies_closed_form(self):
        p = BY_NAME["pythagoras"]
        s0, f0 = p.anchor
        assert_close(p.closed_form(s0, p.params), f0, 1e-12)

    def test_brahmagupta_anchor_is_triangle_area(self):
        p = BY_NAME["brahmagupta"]
        want = formulas.triangle_area(p.params["y"], p.params["u"], p.params["v"])
        assert_close(p.anchor[1], want, 1e-12)

    def test_every_anchor_satisfies_closed_form(self):
        for p in CATALOG:
            if p.residual_only:
                continue
            s0, f0 = p.anchor
            got = p.closed_form(s0, p.params)
            assert abs(got - f0) <= 1e-12 * max(abs(f0), 1.0), p.name


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
            lambda s, f, p: 1.0 / (s - 0.5),
            lambda s, p: 0.0, (0.0, 0.0), "")
        with pytest.raises(odes.SingularityError):
            odes.integrate(bomb, 0.125)

    def test_alternative_route_agrees(self):
        a = odes.integrate(BY_NAME["pythagoras"], 1e-3)
        b = odes.integrate(BY_NAME["pyth_alt"], 1e-3)
        assert abs(a - b) < 1e-8


class TestResidual:
    def test_pythagoras_wide_range(self):
        p = odes.OdeProblem(
            "pyth_wide", (0.1, 10.0), {"y": 1.0},
            lambda s, f, q: s / f,
            lambda s, q: formulas.hypotenuse(s, q["y"]),
            (0.0, 1.0), "")
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
            lambda s, f, p: 1.0 / s,
            lambda s, p: formulas.sqrt(s),
            None, "")
        res = odes.residual(spiky, 11)
        assert 0.0 in res.skipped


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
        assert rep.rk4_exact
        assert all(e <= 1e-14 for e in rep.errors)

    def test_errors_decrease(self):
        rep = odes.convergence(BY_NAME["terquem"], self.H)
        assert rep.errors[0] > rep.errors[1] > rep.errors[2]

    def test_needs_three_steps(self):
        with pytest.raises(ValueError):
            odes.convergence(BY_NAME["pythagoras"], (1e-1, 1e-2))
