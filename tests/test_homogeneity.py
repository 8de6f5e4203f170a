import dataclasses
import random

import pytest

from conftest import assert_close
from geodiff import dual, homogeneity, ops
from geodiff.cli import run_scale
from geodiff.homogeneity import finite_scaling, scale_residual
from geodiff.ops import table

BY_NAME = {op.name: op for op in table()}


class TestRegistry:
    def test_size(self):
        # 17 closed-form operations plus the circle-area and sphere-volume laws
        assert len(table()) == 19
        # bisector_problem_z is checked by round trip, the laws by nothing
        assert sum(op.oracle is not None for op in table()) == 16

    def test_dimension_table(self):
        assert BY_NAME["euler_distance"].out_dim == 1
        assert BY_NAME["euler_distance"].arg_dims == (1, 1)
        assert BY_NAME["trirect_face_area"].out_dim == 2
        assert BY_NAME["trirect_face_area"].arg_dims == (1, 1, 1)
        assert BY_NAME["third_side"].arg_dims == (1, 0, 0)
        assert BY_NAME["inscribed_angle"].out_dim == 0
        assert BY_NAME["sphere_volume"].out_dim == 3
        assert BY_NAME["incenter_ratio"].out_dim == 0

    def test_every_formula_has_sampler(self):
        rng = random.Random(7)
        for op in table():
            point = op.sample(rng)
            assert len(point) == len(op.arg_dims)
            op.closed(*point)  # must be in-domain


class TestScaleResidual:
    def test_area_identity_at_3_4_5(self):
        # 2A = x dA/dx + y dA/dy + z dA/dz
        assert scale_residual(BY_NAME["triangle_area"], (3.0, 4.0, 5.0))[0] < 1e-12

    def test_third_side_identity(self):
        # y = x dy/dx, the angles do not scale
        assert scale_residual(BY_NAME["third_side"], (2.0, 0.7, 1.1))[0] < 1e-12

    def test_angle_is_degree_zero(self):
        assert scale_residual(BY_NAME["angle_from_sides"], (2.0, 3.0, 4.0))[0] < 1e-12

    def test_one_pass_is_the_weighted_sum_of_partials(self, rng):
        # seeding x_i with n_i x_i gives sum_i n_i x_i df/dx_i in one pass
        for op in table():
            if op.out_dim == 0:
                continue
            for _ in range(50):
                point = op.sample(rng)
                out = op.closed(*(dual.seed(xi, ni * xi)
                                  for xi, ni in zip(point, op.arg_dims)))
                _, grads = homogeneity.partials(op, point)
                weighted = sum(ni * xi * gi
                               for ni, xi, gi in zip(op.arg_dims, point, grads))
                assert_close(dual.der(out), weighted, 1e-12, op.name)

    def test_a_derivative_pass_computes_the_float_value(self, rng):
        # the H^2 terms of complex products and quotients stay below the real
        # part's rounding
        for op in table():
            for _ in range(500):
                point = op.sample(rng)
                want = op.closed(*point)
                got = op.closed(*(dual.seed(xi, ni * xi)
                                  for xi, ni in zip(point, op.arg_dims))).real
                assert got == want, (op.name, point)
                # an angle op's scale records read f off its first partials pass
                assert homogeneity.partials(op, point)[0] == want, (op.name, point)

    def test_dimension_slip_is_caught(self):
        wrong = dataclasses.replace(BY_NAME["median"], out_dim=2)
        assert scale_residual(wrong, (3.0, 4.0, 5.0))[0] > 0.1

    def test_sweep_all_formulas(self, rng):
        for op in table():
            for _ in range(50):
                assert scale_residual(op, op.sample(rng))[0] < 1e-10, op.name


class TestFiniteLambdaScaling:
    # scaling by a power of two is exact, and so is every kernel step on it:
    # + - * / and sqrt round lam^n t as they round t, and sin and atan see
    # only angles and ratios, which do not scale
    def test_direct_scaling(self, rng):
        for op in table():
            for _ in range(25):
                point = op.sample(rng)
                for _, lam_n, factors in finite_scaling(op):
                    scaled = op.closed(*(xi * k for xi, k in zip(point, factors)))
                    assert scaled == lam_n * op.closed(*point), op.name

    @pytest.mark.parametrize("seed", range(5))
    def test_every_lambda_record_is_exact(self, seed):
        records = run_scale(random.Random(f"{seed}:scale"), 200)
        lam = [r for r in records if ":lam=" in r.op]
        assert len(lam) == 2 * 200 * len(table())
        assert [r for r in lam if r.rel_err != 0.0] == []

    def test_a_point_costs_two_float_calls(self, monkeypatch):
        # f(x) comes from the residual's derivative pass(es); the float kernel
        # runs only at the two scaled points
        calls = {}
        original = table

        def counted(op):
            def closed(*args):
                kind = "pass" if any(isinstance(a, complex) for a in args) else "float"
                calls[op.name, kind] = calls.get((op.name, kind), 0) + 1
                return op.closed(*args)
            return dataclasses.replace(op, closed=closed)

        monkeypatch.setattr(ops, "table", lambda: [counted(op) for op in original()])
        cases = 3
        run_scale(random.Random("0:scale"), cases)
        for op in original():
            passes = 1 if op.out_dim >= 1 else len(op.arg_dims)
            assert calls[op.name, "float"] == 2 * cases, op.name
            assert calls[op.name, "pass"] == passes * cases, op.name


class TestDerivativesMatchFiniteDifferences:
    def test_all_formulas(self, rng):
        for op in table():
            for _ in range(10):
                point = op.sample(rng)
                _, grads = homogeneity.partials(op, point)
                for i, g in enumerate(grads):
                    h = 1e-6 * max(abs(point[i]), 1.0)
                    hi = list(point)
                    lo = list(point)
                    hi[i] += h
                    lo[i] -= h
                    try:
                        fd_grad = (op.closed(*hi) - op.closed(*lo)) / (2 * h)
                    except ValueError:
                        continue  # stepped out of the domain
                    if abs(fd_grad) < 1e-10:
                        assert abs(g - fd_grad) < 1e-6, op.name
                    else:
                        assert_close(g, fd_grad, 1e-6, f"{op.name} d/dx_{i}")


def test_out_of_domain_is_an_error():
    with pytest.raises(ValueError):
        homogeneity.scale_residual(BY_NAME["triangle_area"], (1.0, 1.0, 5.0))
