"""Scaling, quadratic classification, and the explicit entire solution."""

import numpy as np
import pytest

from sumhess.fdgrid import Grid, GridField, hessian_field_array, eigh_batch
from sumhess.rigidity import (
    QuadraticCandidate,
    ScaledField,
    entire_solution,
    entire_solution_hessian,
    entire_solution_residual,
    quadratic_residual,
)
from sumhess.solver import ProblemSpec, SolveConfig, isotropic_level, solve
from sumhess.symfun import SumHessianOp


class TestQuadraticResidual:
    def test_isotropic_root(self):
        # c^2 + 2c = 1 at c = -1 + sqrt(2)
        op = SumHessianOp(2, 2, 1.0)
        c = -1.0 + np.sqrt(2.0)
        q = QuadraticCandidate(np.diag([c, c]))
        assert quadratic_residual(op, q) <= 1e-12

    def test_zero_matrix(self):
        op = SumHessianOp(2, 2, 1.0)
        assert quadratic_residual(op, QuadraticCandidate(np.zeros((2, 2)))) == pytest.approx(1.0)

    def test_anisotropic_boundary_case(self):
        # diag(1, 0): sigma_2 = 0, sigma_1 = 1 so S_2 = 1 exactly
        op = SumHessianOp(2, 2, 1.0)
        q = QuadraticCandidate(np.diag([1.0, 0.0]))
        assert quadratic_residual(op, q) <= 1e-12

    def test_linear_case_one_parameter_family(self):
        # k = 1: every quadratic with trace A = 1 - alpha solves S_1 = 1
        op = SumHessianOp(3, 1, 0.25)
        rng = np.random.default_rng(90)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            A = 0.5 * (A + A.T)
            A += np.eye(3) * (1.0 - 0.25 - np.trace(A)) / 3.0
            q = QuadraticCandidate(A, b0=rng.normal(size=3), c0=float(rng.normal()))
            assert quadratic_residual(op, q) <= 1e-12

    @pytest.mark.parametrize("A", [np.ones((2, 3)), np.ones(2)], ids=["2x3", "vector"])
    def test_non_square_rejected(self, A):
        with pytest.raises(ValueError, match="A must be a square matrix"):
            QuadraticCandidate(A)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="candidate dimension 2 does not match operator 3"):
            quadratic_residual(SumHessianOp(3, 2, 1.0), QuadraticCandidate(np.eye(2)))

    def test_nonsymmetric_rejected(self):
        with pytest.raises(ValueError):
            QuadraticCandidate(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_solver_reproduces_classified_quadratic(self):
        # residual 0 implies the grid solver lands on the quadratic itself
        op = SumHessianOp(2, 2, 1.0)
        c = isotropic_level(op, 1.0)
        q = QuadraticCandidate(np.diag([c, c]))
        assert quadratic_residual(op, q) <= 1e-12
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (15, 15))
        spec = ProblemSpec(op, grid, rhs=lambda x, u, p: np.full(len(x), 1.0), boundary=q)
        rep = solve(spec, SolveConfig(rtol=1e-13))
        exact = GridField.from_function(grid, q)
        assert rep.converged
        assert np.abs(rep.final_field.interior - exact.interior).max() <= 1e-11


class TestScaleField:
    def test_quadratic_transforms_to_unit_sublevel(self):
        c = 0.8
        u = lambda x: 0.5 * c * (np.asarray(x) ** 2).sum(axis=-1)
        v = ScaledField(u, R=3.0)
        y = np.array([[0.2, -0.1], [1.0, 1.0]])
        assert np.allclose(v(y), 0.5 * c * (y**2).sum(axis=-1) - 1.0, atol=1e-14)

    def test_r_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            ScaledField(lambda x: x, R=1.0)

    def test_limit_toward_one(self):
        u = lambda x: (np.asarray(x) ** 2).sum(axis=-1)
        v = ScaledField(u, R=1.0 + 1e-12)
        y = np.array([0.3, 0.4])
        assert v(y) == pytest.approx(u(y) - 1.0, abs=1e-9)

    def test_discrete_hessian_spectrum_invariant(self):
        # aligned grids: the v grid on [-1,1]^3 with spacing h matches the
        # u grid on [-R,R]^3 with spacing R*h node for node
        R = 2.0
        cells = 9
        gv = Grid((-1.0,) * 3, (1.0,) * 3, (cells,) * 3)
        gu = Grid((-R,) * 3, (R,) * 3, (cells,) * 3)
        v = ScaledField(entire_solution, R)
        fv = GridField.from_function(gv, v)
        fu = GridField.from_function(gu, entire_solution)
        Hv = hessian_field_array(fv)
        Hu = hessian_field_array(fu)
        scale = 1.0 + np.abs(Hu).max()
        assert np.abs(Hv - Hu).max() <= 1e-10 * scale
        lv, _ = eigh_batch(Hv.reshape(-1, 3, 3))
        lu, _ = eigh_batch(Hu.reshape(-1, 3, 3))
        assert np.abs(lv - lu).max() <= 1e-10 * scale


class TestEntireSolution:
    def test_residual_at_origin(self):
        res, s1 = entire_solution_residual([0.0, 0.0, 0.0])
        assert res == pytest.approx(0.0, abs=1e-15)
        assert s1 == pytest.approx(1.0)

    def test_residual_at_unit_x(self):
        res, s1 = entire_solution_residual([1.0, 0.0, 0.0])
        assert res == pytest.approx(0.0, abs=1e-14)
        assert s1 == pytest.approx(5.0)

    def test_dives_along_the_third_axis(self):
        # along the third axis the solution falls like -e^{4t}/64, so no
        # quadratic minorant c|x|^2 - b with c > 0 holds
        g5 = (7.0 * np.exp(-20.0) / 4.0 - np.exp(20.0) / 4.0 - 100.0) / 16.0
        assert entire_solution(np.array([0.0, 0.0, 5.0])) == pytest.approx(g5, rel=1e-12)
        assert g5 < -7.5e6

    def test_randomized_sweep(self):
        rng = np.random.default_rng(91)
        pts = rng.uniform(-1.0, 1.0, size=(10_000, 3))
        res, s1 = entire_solution_residual(pts)
        assert res.max() <= 1e-9
        assert (s1 > 0).all()

    def test_analytic_hessian_differentiates_the_solution(self):
        # central differences of the scalar formula converge to the
        # closed-form Hessian at second order
        rng = np.random.default_rng(92)
        pts = rng.uniform(-0.8, 0.8, size=(50, 3))
        H = entire_solution_hessian(pts)
        errs = []
        for h in (1e-2, 5e-3):
            fd = np.zeros_like(H)
            for a in range(3):
                for b in range(3):
                    ea, eb = np.zeros(3), np.zeros(3)
                    ea[a], eb[b] = h, h
                    if a == b:
                        fd[:, a, a] = (
                            entire_solution(pts + ea) - 2 * entire_solution(pts) + entire_solution(pts - ea)
                        ) / h**2
                    else:
                        fd[:, a, b] = (
                            entire_solution(pts + ea + eb)
                            - entire_solution(pts + ea - eb)
                            - entire_solution(pts - ea + eb)
                            + entire_solution(pts - ea - eb)
                        ) / (4 * h * h)
            errs.append(np.abs(fd - H).max())
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_discrete_hessian_cross_check_second_order(self):
        # compare at shared physical nodes so the truncation constant is
        # fixed while h halves (cells 9 -> 19 keeps coarse nodes at odd
        # fine interior indices)
        errs = []
        for cells, sl in ((9, slice(None)), (19, slice(1, None, 2))):
            g = Grid((-1.0,) * 3, (1.0,) * 3, (cells,) * 3)
            f = GridField.from_function(g, entire_solution)
            H = hessian_field_array(f)[sl, sl, sl]
            exact = entire_solution_hessian(g.points())[sl, sl, sl]
            errs.append(np.abs(H - exact).max())
        assert np.log2(errs[0] / errs[1]) >= 1.8
