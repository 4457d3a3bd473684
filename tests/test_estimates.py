"""Weighted-quantity and refinement-stability tests."""

from dataclasses import asdict

import numpy as np
import pytest

from sumhess import estimates, solver
from sumhess.estimates import (
    EstimateReport,
    SolveFailure,
    pogorelov_quantity,
    quantity_tag,
    refinement_study,
    rhs_gradient_convexity_probe,
)
from sumhess.fdgrid import Grid, GridField, laplacian_field
from sumhess.solver import ProblemSpec
from sumhess.symfun import SumHessianOp

OP22 = SumHessianOp(2, 2, 1.0)


def paraboloid_field(cells=15, lo=-0.7, hi=0.7):
    # 0.5*(|x|^2 - 1) stays strictly negative on this box
    g = Grid((lo, lo), (hi, hi), (cells, cells))
    return GridField.from_function(g, lambda x: 0.5 * ((x**2).sum(axis=-1) - 1.0))


class TestPogorelovQuantity:
    def test_paraboloid_value_at_origin(self):
        u = paraboloid_field()
        q = pogorelov_quantity(u, 1.0)
        assert q.interior[7, 7] == pytest.approx(1.0, abs=1e-12)

    def test_exponent_zero_is_laplacian_bit_exact(self):
        rng = np.random.default_rng(80)
        g = Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        u = GridField.from_interior(g, -rng.uniform(0.1, 1.0, size=(9, 9)), boundary=0.0)
        q = pogorelov_quantity(u, 0.0)
        assert np.array_equal(q.interior, laplacian_field(u).interior)

    def test_weight_vanishes_toward_boundary(self):
        g = Grid((-1.0, -1.0), (1.0, 1.0), (31, 31))
        u = GridField.from_function(g, lambda x: (x[..., 0] ** 2 - 1) * (x[..., 1] ** 2 - 1) * -0.2)
        q = pogorelov_quantity(u, 2.0)
        assert abs(q.interior[0, 15]) < abs(q.interior[15, 15])

    def test_positive_node_rejected(self):
        g = Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        u = GridField.from_interior(g, np.full((9, 9), 0.3), boundary=0.0)
        with pytest.raises(SolveFailure, match="field must be <= 0 on the interior"):
            pogorelov_quantity(u, 1.0)

    def test_closed_form_supremum_of_quadratic(self):
        # (-u)*Lap(u) = (-u)*n*c, so the sup is n*c*sup(-u)
        c = 0.8
        g = Grid((-0.7, -0.7), (0.7, 0.7), (15, 15))
        u = GridField.from_function(g, lambda x: 0.5 * c * ((x**2).sum(axis=-1) - 1.0))
        q = pogorelov_quantity(u, 1.0)
        expected = 2.0 * c * (-u.interior).max()
        assert q.interior.max() == pytest.approx(expected, abs=1e-12)

    def test_suprema_weakly_decreasing_in_exponent(self):
        u = paraboloid_field()  # sup(-u) = 0.5 < 1
        sups = [pogorelov_quantity(u, b).interior.max() for b in (1.0, 2.0, 4.0)]
        assert sups[0] >= sups[1] >= sups[2]


class TestGradientConvexityProbe:
    def test_convex_declaration_confirmed(self):
        # f = 3 + 0.1|p|^2 has f^{1/2} = |(sqrt3, sqrt0.1 p)|, convex in p
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        spec = ProblemSpec(OP22, grid, rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1))
        margin = rhs_gradient_convexity_probe(spec, np.random.default_rng(0))
        assert margin >= -1e-12

    def test_nonconvex_rhs_disproved(self):
        # sqrt(1 + g2 - 0.04 g2^2) bends concave along rays, and stays
        # positive on the probed cube [-3, 3]^2 (g2 <= 18 gives f >= 1)
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))

        def rhs(x, u, p):
            g2 = (p**2).sum(axis=-1)
            return 1.0 + g2 - 0.04 * g2 * g2

        spec = ProblemSpec(OP22, grid, rhs=rhs)
        margin = rhs_gradient_convexity_probe(spec, np.random.default_rng(1))
        assert margin < -1e-6


    def test_nonpositive_rhs_is_a_domain_error_with_the_exponent(self):
        # f = 3 - 0.2 g2 turns negative inside the probed cube (g2 up to 18)
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (7, 7))
        spec = ProblemSpec(OP22, grid, rhs=lambda x, u, p: 3.0 - 0.2 * (p**2).sum(axis=-1))
        with pytest.raises(SolveFailure, match="^gradient convexity probe: rhs must stay positive") as info:
            rhs_gradient_convexity_probe(spec, np.random.default_rng(0), 1.1)
        assert (info.value.status, info.value.exponent) == ("domain_error", 1.1)


class TestQuantityTag:
    def test_tags(self):
        assert quantity_tag(1.0) == "linear"
        assert quantity_tag(1.1) == "near_linear"
        assert quantity_tag(2.0) == "power"
        assert quantity_tag(8.0) == "power"


class TestRefinementStudy:
    @staticmethod
    def quadratic_problem(cells=9):
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (cells, cells))
        ustar = lambda x: 0.5 * ((x**2).sum(axis=-1) - 2.5)
        return ProblemSpec(
            OP22, grid, rhs=lambda x, u, p: np.full(len(x), 3.0), boundary=ustar
        )

    def test_quadratic_fixture_supremum_level_independent(self):
        # the quadratic solution is stencil-exact at every level, so the
        # core suprema agree to machine precision
        (rep,) = refinement_study(self.quadratic_problem(), [1.0], levels=3)
        sups = [e["sup"] for e in rep.per_refinement]
        assert rep.stable
        # the core region grows with refinement, so suprema are only
        # comparable up to the argmax drift of the exact field
        assert abs(sups[-1] - sups[-2]) <= 0.01 * sups[-1]

    def test_stability_monotone_under_level_extension(self):
        (rep3,) = refinement_study(self.quadratic_problem(), [1.0], levels=3)
        (rep4,) = refinement_study(self.quadratic_problem(), [1.0], levels=4)
        assert not (rep3.stable and not rep4.stable)

    def test_gradient_rhs_study_is_stable(self):
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        spec = ProblemSpec(
            OP22,
            grid,
            rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1),
        )
        (rep,) = refinement_study(spec, [1.0], levels=3)
        assert rep.stable
        assert len(rep.per_refinement) == 3

    def test_each_level_solved_once_for_all_exponents(self, monkeypatch):
        # every Newton solve, the direct attempt of continuation_solve too
        calls = []
        real_solve = solver.solve

        def counting_solve(*args, **kwargs):
            calls.append(args[0].grid.cells)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(solver, "solve", counting_solve)
        exponents = [1.0, 1.1, 2.0, 4.0, 8.0]
        reports = refinement_study(self.quadratic_problem(), exponents, levels=3)
        assert calls == [(9, 9), (19, 19), (39, 39)]
        assert [r.beta_or_delta for r in reports] == exponents
        assert all(len(r.per_refinement) == 3 for r in reports)

    def test_every_level_starts_cold(self, monkeypatch):
        # one initial guess per level and no prolonged coarse solution;
        # both modules are patched so that neither can reach them unseen
        guesses, prolonged = [], []
        real_guess, real_prolong = solver.initial_guess, solver.prolong

        def counting_guess(spec):
            guesses.append(spec.grid.cells)
            return real_guess(spec)

        def counting_prolong(*args, **kwargs):
            prolonged.append(args)
            return real_prolong(*args, **kwargs)

        for module in (solver, estimates):
            monkeypatch.setattr(module, "initial_guess", counting_guess, raising=False)
            monkeypatch.setattr(module, "prolong", counting_prolong, raising=False)
        (rep,) = refinement_study(self.quadratic_problem(), [1.0], levels=3)
        assert guesses == [(9, 9), (19, 19), (39, 39)]
        assert prolonged == []
        assert len(rep.per_refinement) == 3

    @pytest.mark.parametrize(
        "k, alpha, box, exponents, level, exponent, message",
        [
            (2, 1.0, 1e30, [1.0, 8.0], 0, 8.0, "weighted quantity (-u)^8.0 * Laplacian is not finite"),
            (2, 1.0, 1.0, [-400.0], 1, -400.0, "weighted quantity (-u)^-400.0 * Laplacian is not finite"),
            (1, 10.0, 1.0, [1.0], 0, 1.0, "field must be <= 0 on the interior"),
        ],
        ids=["huge-box", "negative-beta", "positive-solution"],
    )
    def test_weight_failure_is_a_domain_error_status(self, k, alpha, box, exponents, level, exponent,
                                                     message):
        # the level solves; then (-u)^8 overflows where -u is near 1e60,
        # (-u)^-400 next to the boundary of the finer level, or, for k = 1
        # and alpha = 10 > f = 3, u is superharmonic and positive
        grid = Grid((-box, -box), (box, box), (5, 5))
        spec = ProblemSpec(SumHessianOp(2, k, alpha), grid, rhs=lambda x, u, p: np.full(len(x), 3.0))
        with pytest.raises(SolveFailure) as info:
            refinement_study(spec, exponents, levels=2)
        exc = info.value
        assert (exc.status, exc.exponent) == ("domain_error", exponent)
        assert str(exc).startswith(f"refinement level {level}: {message}")

    def test_report_round_trips_to_dict(self):
        (rep,) = refinement_study(self.quadratic_problem(), [2.0], levels=2)
        d = asdict(rep)
        assert d["quantity"] == "power"
        assert isinstance(d["per_refinement"], list)
        assert asdict(EstimateReport(**d)) == d
