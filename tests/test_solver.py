"""Solver tests: initializer, assembly, Newton loop, continuation."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from sumhess import cli, fdgrid, solver
from sumhess.cones import gamma_tilde_margins
from sumhess.estimates import refinement_study
from sumhess.fdgrid import (
    Grid,
    GridField,
    eigh_batch,
    gradient_field_array,
    hessian_field_array,
    laplacian_field,
)
from sumhess.solver import (
    CONE_FRACTION,
    LINEAR_MAXITER,
    LINEAR_RTOL,
    ProblemSpec,
    SolveConfig,
    SolveFailure,
    SolveReport,
    _harmonic_lift,
    _laplacian_inverse,
    _linear_solve,
    _NodeState,
    assemble_newton,
    continuation_solve,
    initial_guess,
    isotropic_level,
    prolong,
    solve,
)
from sumhess.symfun import SumHessianOp, _adjugate3, s_gradient, s_tensor, s_value, sigma_all, sigma_all_matrix


def grid2(cells):
    return Grid((-1.0, -1.0), (1.0, 1.0), (cells, cells))


def const_rhs(value):
    return lambda x, u, p: np.full(len(x), value)


def _load_case_matrix():
    """scripts/case_matrix.py, the one table of the solver's case matrix."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "case_matrix.py"
    module_spec = importlib.util.spec_from_file_location("case_matrix", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


CASE_MATRIX = _load_case_matrix()
U_STAR = staticmethod(lambda x: 0.5 * ((x**2).sum(axis=-1) - 1.0))
TRACES = list(CASE_MATRIX.TRACES.values())  # zero, xy, saddle


class TestIsotropicLevel:
    def test_quadratic_root(self):
        # c^2 + 2c = 6 has root -1 + sqrt(7)
        op = SumHessianOp(2, 2, 1.0)
        assert isotropic_level(op, 6.0) == pytest.approx(-1.0 + np.sqrt(7.0), abs=1e-10)

    def test_cubic_root(self):
        # c^3 + 3c^2 = 2 by bisection
        op = SumHessianOp(3, 3, 1.0)
        c = isotropic_level(op, 2.0)
        assert c**3 + 3 * c**2 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("n, k, alpha", [(2, 2, 1e12), (2, 2, 1e20), (2, 2, 1e308), (3, 3, 1e300)])
    def test_tiny_root_is_relatively_accurate(self, n, k, alpha):
        # a large alpha makes the root tiny (3e-308 to 3e-12 here), far
        # below an absolute bracket width of 1e-12
        c = isotropic_level(SumHessianOp(n, k, alpha), 6.0)
        assert 0.0 < c < 1e-11
        assert abs(float(s_value(np.full(n, c), k, alpha)) / 6.0 - 1.0) <= 1e-11

    def test_k1_closed_form_may_be_negative(self):
        # S_1(cI) = n c + alpha is above the target for every c > 0, yet
        # c = (1 - 2) / 2 solves S_1 = 1 and S_1 = 1 > 0 is admissible
        assert isotropic_level(SumHessianOp(2, 1, 2.0), 1.0) == -0.5

    def test_residual_is_within_a_few_ulps(self):
        # bisected to adjacent floats, |S_k(c I) - t| / t stays within a few
        # ulps (a relative bracket width of 1e-12 gives up to 2.6e-12)
        worst = 0.0
        for n in range(2, 7):
            for k in range(2, n + 1):
                for alpha in np.geomspace(1e-6, 1e6, 13):
                    for target in (1.0, 6.0):
                        c = isotropic_level(SumHessianOp(n, k, float(alpha)), target)
                        s = float(s_value(np.full(n, c), k, float(alpha)))
                        worst = max(worst, abs(s - target) / target)
        assert worst <= 8 * np.finfo(float).eps

    @staticmethod
    def scalar_level(op, target):
        """The scalar bisection isotropic_level ran before it shared
        symfun.bisect_roots: one S_k evaluation per step, halved until
        the midpoint rounds to an end, and that midpoint returned."""

        def val(c):
            with np.errstate(over="ignore"):
                return float(s_value(np.full(op.n, c), op.k, op.alpha)) - target

        hi = 1.0
        while val(hi) < 0:
            hi *= 2.0
        lo, mid = 0.0, 0.5 * hi
        while lo < mid < hi:
            lo, hi = (mid, hi) if val(mid) < 0 else (lo, mid)
            mid = 0.5 * (lo + hi)
        return mid

    def test_level_is_the_scalar_bisection_bit_for_bit(self):
        # every solve starts from this level, so it may not move by an ulp;
        # returning the bracket's upper end instead would move 25 of the 48
        cases = [(SumHessianOp(n, k, alpha), target) for n in (2, 3) for k in range(2, n + 1)
                 for alpha in (0.1, 0.5, 1.0, 10.0) for target in (1.0, 6.0, 7.2, 12.0)]
        cases.append((SumHessianOp(2, 2, 1e308), 1e-300))
        for op, target in cases:
            got = isotropic_level(op, target)
            assert type(got) is float
            assert got == self.scalar_level(op, target), (op, target)

    def test_underflowing_root_terminates(self):
        # the root, about 1e-608, is below the smallest subnormal: the
        # bracket shrinks to [0, 5e-324] and the bisection stops there
        c = isotropic_level(SumHessianOp(2, 2, 1e308), 1e-300)
        assert 0.0 <= c <= 5e-324


class TestInitialGuess:
    def test_admissible_for_constant_rhs_zero_boundary(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(15), rhs=const_rhs(3.0))
        u0 = initial_guess(spec)
        state = _NodeState(spec, u0)
        assert state.worst_margin > 0
        # boundary data reproduced exactly
        assert np.abs(u0.values[0, :]).max() == 0.0

    def test_matches_boundary_trace(self):
        op = SumHessianOp(2, 2, 1.0)
        ustar = lambda x: 0.5 * ((x**2).sum(axis=-1) - 1.0)
        spec = ProblemSpec(op, grid2(15), rhs=const_rhs(3.0), boundary=ustar)
        u0 = initial_guess(spec)
        bc = GridField.from_function(grid2(15), ustar)
        assert u0.values[0, 3] == pytest.approx(bc.values[0, 3], abs=1e-14)
        assert _NodeState(spec, u0).worst_margin > 0

    @pytest.mark.parametrize("trace", TRACES, ids=["zero", "x0x1", "saddle"])
    def test_barrier_start_for_n_equals_k_equals_3(self, trace):
        # the lift minus a multiple of the concave barrier
        # (prod_a (1 - xi_a^2))^(1/3) is admissible at 9^3 for n = k = 3,
        # and the solve converges
        op = SumHessianOp(3, 3, 1.0)
        grid = Grid((-1.0,) * 3, (1.0,) * 3, (9, 9, 9))
        spec = ProblemSpec(op, grid, rhs=const_rhs(3.0), boundary=trace)
        lift = _harmonic_lift(grid, trace, _laplacian_inverse(grid))
        u0 = initial_guess(spec)
        assert _NodeState(spec, u0).worst_margin > 0
        assert np.array_equal(u0.values[0], lift.values[0])  # the trace, exactly
        assert (u0.interior_flat < lift.interior_flat).all()
        assert solve(spec, u0=u0).converged

    @pytest.mark.parametrize("trace", TRACES, ids=["zero", "x0x1", "saddle"])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize(
        "n, k, f, cells",
        [(2, 1, 3.0, 9), (2, 2, 3.0, 9), (3, 1, 3.0, 9), (3, 2, 3.0, 9), (3, 3, 3.0, 9), (2, 1, 0.5, 33)],
        ids=["n2k1", "n2k2", "n3k1", "n3k2", "n3k3", "n2k1-f0.5-33"],
    )
    def test_every_start_is_admissible(self, n, k, f, cells, alpha, trace):
        # for k = 1 and alpha > 2 f the isotropic root c_root is negative;
        # its absolute value keeps the barrier start convex, so S_1 >= alpha
        spec = ProblemSpec(SumHessianOp(n, k, alpha), Grid((-1.0,) * n, (1.0,) * n, (cells,) * n),
                           rhs=const_rhs(f), boundary=trace)
        u0 = initial_guess(spec)
        assert _NodeState(spec, u0).worst_margin > 0
        trace_values = spec.boundary_field().values
        on_boundary = np.ones(u0.values.shape, bool)
        on_boundary[(slice(1, -1),) * n] = False
        assert np.array_equal(u0.values[on_boundary], trace_values[on_boundary])

    def test_rejects_nonpositive_rhs(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(15), rhs=const_rhs(-1.0))
        with pytest.raises(SolveFailure) as info:
            initial_guess(spec)
        assert info.value.status == "domain_error"


class TestBowl:
    @pytest.mark.parametrize("grid", [grid2(17), Grid((-1.0,) * 3, (1.0,) * 3, (9, 9, 9))], ids=["2d", "3d"])
    def test_torsion_bowl_matches_quadratic_minus_its_lift(self, grid):
        # oracle: the centered quadratic minus its harmonic lift, whose
        # discrete Laplacian is exactly n; initial_guess scales its start
        # by the depth of this bowl, n L^{-1} 1
        x0 = 0.5 * (np.asarray(grid.lo) + np.asarray(grid.hi))
        quad = lambda x: 0.5 * ((x - x0) ** 2).sum(axis=-1)
        oracle = (GridField.from_function(grid, quad).values
                  - _harmonic_lift(grid, quad, _laplacian_inverse(grid)).values)
        bowl = _laplacian_inverse(grid)(np.full(grid.n_interior, float(grid.dim)))
        assert np.abs(GridField.from_interior(grid, bowl).values - oracle).max() <= 1e-13


class TestHarmonicLifts:
    @pytest.mark.parametrize(
        "grid, trace",
        [
            (grid2(15), lambda x: 1.0 + x[..., 0] - 2.0 * x[..., 1]),
            (Grid((-1.0,) * 3, (1.0,) * 3, (7, 7, 7)), lambda x: x[..., 0] + x[..., 1] - x[..., 2]),
        ],
        ids=["2d", "3d"],
    )
    def test_affine_traces_reproduced(self, grid, trace):
        # affine functions are discrete-harmonic, so each lift is exact
        exact = GridField.from_function(grid, trace)
        laplacian_inverse = _laplacian_inverse(grid)
        lift = _harmonic_lift(grid, trace, laplacian_inverse)
        assert np.abs(lift.interior - exact.interior).max() <= 1e-13
        lift = _harmonic_lift(grid, lambda x: 2.0 * trace(x) - 0.5, laplacian_inverse)
        assert np.abs(lift.interior - (2.0 * exact.interior - 0.5)).max() <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
    def test_sine_transform_inverts_the_fdgrid_laplacian(self, dim):
        # the DST eigenvalues restate fdgrid's stencil exactly, also on an
        # anisotropic grid with unequal spacings and node counts
        g = Grid((-1.0,) * dim, (1.0, 0.5, 2.0)[:dim], (9, 7, 8)[:dim])
        v = np.random.default_rng(72).normal(size=g.n_interior)
        r = laplacian_field(GridField.from_interior(g, v)).interior_flat
        assert np.abs(_laplacian_inverse(g)(r) - v).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize(
        "cells",
        [(145, 145), (17, 17, 17), (72, 9), (5, 72, 11)],
        ids=["145^2", "17^3", "72x9", "5x72x11"],
    )
    def test_sine_matrices_match_scipy_dst(self, cells):
        # oracle: scipy's FFT-based DST-I; 72 nodes give the FFT length
        # 2*73, a large prime factor
        dim = len(cells)
        g = Grid((-1.0,) * dim, (1.0, 0.5, 2.0)[:dim], cells)
        eig = sum(np.ix_(*(-4.0 / h**2 * np.sin(np.pi * np.arange(1, m + 1) / (2 * m + 2)) ** 2
                           for m, h in zip(g.cells, g.h))))
        r = np.random.default_rng(73).normal(size=g.n_interior)
        want = idstn(dstn(r.reshape(g.shape), type=1) / eig, type=1).ravel()
        assert np.abs(_laplacian_inverse(g)(r) - want).max() <= 1e-12 * np.abs(want).max()

    def test_sine_matrices_are_built_once_per_grid(self):
        # an estimate run builds one inverse per refinement level, and an
        # equal grid gets that object back; the box is one no other test
        # uses, so earlier builds do not count
        g = Grid((-1.0, -1.0), (1.25, 1.25), (7, 7))
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), g, rhs=const_rhs(3.0))
        misses = _laplacian_inverse.cache_info().misses
        refinement_study(spec, [1.0], levels=3)
        assert _laplacian_inverse.cache_info().misses == misses + 3
        levels = [g, g.refine(), g.refine().refine()]
        inverses = [_laplacian_inverse(Grid(lv.lo, lv.hi, lv.cells)) for lv in levels]
        assert all(_laplacian_inverse(lv) is inverse for lv, inverse in zip(levels, inverses))
        assert len({id(inverse) for inverse in inverses}) == len(levels)
        assert _laplacian_inverse.cache_info().misses == misses + 3


class TestFirstAdmissible:
    """initial_guess tries its factors in order and stops at the first
    field whose worst margin is positive."""

    def _recorded(self, monkeypatch, spec):
        fields, margins = [], []
        real_state = solver._NodeState

        def recording_state(spec_, u):
            state = real_state(spec_, u)
            fields.append(u)
            margins.append(state.worst_margin)
            return state

        monkeypatch.setattr(solver, "_NodeState", recording_state)
        return fields, margins

    def test_returns_first_admissible_unchanged_and_stops(self, monkeypatch):
        # the saddle trace at alpha = 0.1 needs the fourth factor
        spec = ProblemSpec(SumHessianOp(2, 2, 0.1), grid2(9), rhs=const_rhs(3.0), boundary=TRACES[2])
        fields, margins = self._recorded(monkeypatch, spec)
        u0 = initial_guess(spec)
        assert len(fields) == 4 and u0 is fields[-1]
        assert max(margins[:-1]) <= 0 < margins[-1]

    def test_none_admissible_reports_best_margin(self, monkeypatch):
        # n = k = 3, alpha = 10 with the saddle trace has no admissible factor at 17^3
        grid = Grid((-1.0,) * 3, (1.0,) * 3, (17, 17, 17))
        spec = ProblemSpec(SumHessianOp(3, 3, 10.0), grid, rhs=const_rhs(0.5), boundary=TRACES[2])
        fields, margins = self._recorded(monkeypatch, spec)
        with pytest.raises(SolveFailure) as info:
            initial_guess(spec)
        assert info.value.status == "cone_breach"
        assert len(margins) == 7 and max(margins) <= 0
        # the best margin is the first candidate's, not the last one's
        assert margins[0] == max(margins) > margins[-1]
        assert str(info.value) == (
            f"no admissible initial guess found (best worst-margin {margins[0]:.3e}); "
            "try a coarser grid or continuation"
        )


def _eigen_s_tensor(H, k, alpha):
    """The oracle F = Q diag(dS_k/dlambda) Q^T from the eigenvalue path."""
    lams, Q = eigh_batch(H)
    return np.einsum("nij,nj,nkj->nik", Q, s_gradient(lams, k, alpha), Q)


class TestEigenFreeNodeState:
    @pytest.mark.parametrize("n", [2, 3])
    def test_entries_match_the_eigenvalue_path(self, n):
        # sigma_1..sigma_n, S_1..S_k, F = dS_k/dH and d = tr F / n from the
        # entries against eigh_batch + sigma_all + s_gradient
        def rel_err(got, ref):
            return np.abs(got - ref).max() / np.abs(ref).max()

        H = np.random.default_rng(72 + n).normal(size=(2000, n, n)) * 3.0
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        lams, _ = eigh_batch(H)
        sig, sig_ref = sigma_all_matrix(H), sigma_all(lams)
        for m in range(1, n + 1):
            assert rel_err(sig[:, m], sig_ref[:, m]) <= 1e-13, m
        g = Grid((-1.0,) * n, (1.0,) * n, (5,) * n)
        u = GridField(g, np.random.default_rng(74).normal(size=g.padded_shape))
        for k in range(1, n + 1):
            for alpha in (0.01, 1.0, 100.0):
                spec = ProblemSpec(SumHessianOp(n, k, alpha), g, rhs=const_rhs(3.0))
                state = _NodeState(spec, u)
                s_ref = gamma_tilde_margins(spec.op, eigh_batch(state.H)[0])
                assert rel_err(state.margins, s_ref.min(axis=-1)) <= 1e-13, (k, alpha)
                assert rel_err(state.residual + 3.0, s_ref[:, -1]) <= 1e-13, (k, alpha)
                F, F_ref = s_tensor(H, sig, k, alpha), _eigen_s_tensor(H, k, alpha)
                assert rel_err(F, F_ref) <= 1e-13, (k, alpha)
                d_ref = s_gradient(lams, k, alpha).mean(axis=1)
                assert rel_err(np.trace(F, axis1=1, axis2=2) / n, d_ref) <= 1e-13, (k, alpha)

    @pytest.mark.parametrize("n", [2, 3])
    def test_traces_are_np_trace_bit_for_bit(self, n):
        # tr H and tr adj H in sigma_all_matrix, and d = tr F / n in the
        # preconditioner, sum the diagonal from 0 as np.trace does, so a
        # diagonal of -0.0 gives +0.0 (where -0.0 + -0.0 would give -0.0)
        H = np.random.default_rng(76).normal(size=(500, n, n))
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        H[:2] = 0.0
        H[0] = np.diag([-0.0] * n)
        H[1, 0, 0] = -0.0
        sig = sigma_all_matrix(H)
        assert not np.signbit(sig[0, 1])  # where H_00 + H_11 (+ H_22) gives -0.0
        assert sig[:, 1].tobytes() == np.trace(H, axis1=1, axis2=2).tobytes()
        if n == 3:
            assert sig[:, 2].tobytes() == np.trace(_adjugate3(H), axis1=1, axis2=2).tobytes()
        g = Grid((-1.0,) * n, (1.0,) * n, (7,) * n)
        spec = ProblemSpec(SumHessianOp(n, 2, 1.0), g, rhs=const_rhs(3.0))
        state = _NodeState(spec, initial_guess(spec))
        _, M = assemble_newton(spec, state)
        F = s_tensor(state.H, state.sigma, 2, 1.0)
        r = np.random.default_rng(77).normal(size=state.residual.size)
        d = np.trace(F, axis1=1, axis2=2) / n
        assert M(r).tobytes() == _laplacian_inverse(g)(r / d).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_margins_are_the_row_minimum_bit_for_bit(self, n):
        # the margins reduce S_1..S_k column by column with np.minimum; the
        # reference is the row minimum, NaN from an overflowing Hessian included
        g = Grid((-1.0,) * n, (1.0,) * n, (5,) * n)
        rng = np.random.default_rng(75)
        saw_nan = False
        for scale in (1.0, 1e300):
            u = GridField(g, scale * rng.normal(size=g.padded_shape))
            for k in range(1, n + 1):
                op = SumHessianOp(n, k, 0.5)
                state = _NodeState(ProblemSpec(op, g, rhs=const_rhs(3.0)), u)
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = (state.sigma[:, 1 : k + 1] + op.alpha * state.sigma[:, :k]).min(axis=-1)
                assert np.array_equal(state.margins, ref, equal_nan=True), (scale, k)
                saw_nan |= bool(np.isnan(ref).any())
        assert saw_nan

    @pytest.mark.parametrize("n", [2, 3])
    def test_solve_runs_no_eigendecomposition(self, n, tmp_path, monkeypatch):
        # the Newton loop takes S_1..S_k and F from the Hessian entries;
        # an eigendecomposition on its hot path would raise here
        argv = ["solve", "--n", str(n), "--k", "2", "--rhs", "3", "--cells", "5", "--out"]

        def iterations(out):
            assert cli.main([*argv, str(out)]) == cli.EXIT_OK
            return json.loads((out / "solve_report.json").read_text())["iterations"]

        expected = iterations(tmp_path / "plain")

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on the solver path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for module in (fdgrid, solver, cli):  # and wherever it is imported by name
            monkeypatch.setattr(module, "eigh_batch", refuse, raising=False)
        assert iterations(tmp_path / "refused") == expected


class TestFault:
    """_NodeState.fault names the first rule an iterate breaks: f finite and
    positive, then S_k finite, then every margin strictly above the floor."""

    def _state(self, rhs=3.0, alpha=1.0, c=1.3):
        g = grid2(7)
        spec = ProblemSpec(SumHessianOp(2, 2, alpha), g, rhs=rhs if callable(rhs) else const_rhs(rhs))
        return _NodeState(spec, GridField.from_function(g, lambda x: 0.5 * c * (x**2).sum(axis=-1)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_state_per_status(self):
        def inf_at_one_node(x, u, p):
            f = np.full(len(x), 3.0)
            f[len(x) // 2] = np.inf
            return f

        passing = self._state()
        assert passing.worst_margin > 0 and passing.fault(0.0) is None
        assert passing.fault(CONE_FRACTION * passing.margins) is None
        assert self._state(rhs=-1.0).fault(0.0) == "domain_error"
        assert self._state(rhs=inf_at_one_node).fault(0.0) == "domain_error"
        # alpha * sigma_1 overflows, so S_2 is inf while S_1 stays finite
        stalled = self._state(alpha=1e308, c=10.0)
        assert np.isfinite(stalled.margins).all() and stalled.fault(0.0) == "stalled"
        assert self._state(c=-1.0).fault(0.0) == "cone_breach"

    def test_margin_at_the_floor_is_a_breach(self):
        state = self._state()
        floor = CONE_FRACTION * state.margins
        floor[3] = state.margins[3]
        assert state.fault(floor) == "cone_breach"
        floor[3] = np.nextafter(state.margins[3], -np.inf)
        assert state.fault(floor) is None


class TestAssembly:
    @staticmethod
    def _check_k1_laplacian(dim):
        # S_1 linearizes to the 5-point (7-point in 3-D) Laplacian; it is
        # symmetric, so J applied to the centre unit vector is the centre row
        g = Grid((-1.0,) * dim, (1.0,) * dim, (7,) * dim)
        spec = ProblemSpec(SumHessianOp(dim, 1, 1.0), g, rhs=const_rhs(3.0))
        J, _ = assemble_newton(spec, _NodeState(spec, GridField.from_interior(g, np.zeros(g.shape))))
        center = np.full(dim, 3)
        unit = np.zeros(g.n_interior)
        unit[np.ravel_multi_index(center, g.cells)] = 1.0
        row = J(unit)
        h2 = g.h[0] ** 2
        assert row[np.ravel_multi_index(center, g.cells)] == pytest.approx(-2.0 * dim / h2)
        for e in np.eye(dim, dtype=int):
            assert row[np.ravel_multi_index(center + e, g.cells)] == pytest.approx(1.0 / h2)
            assert row[np.ravel_multi_index(center - e, g.cells)] == pytest.approx(1.0 / h2)
        assert np.abs(row).sum() == pytest.approx(4.0 * dim / h2)

    def test_k1_jacobian_is_laplacian(self):
        self._check_k1_laplacian(2)

    def test_k1_jacobian_is_laplacian_3d(self):
        self._check_k1_laplacian(3)

    @pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
    def test_jacobian_is_the_fdgrid_stencil_operator(self, dim):
        # J v equals sum_ab F^{ab} (D^2 v)_ab - f_u v - f_p . Dv built from
        # fdgrid's stencils, with F formed independently by einsum
        g = Grid((-1.0,) * dim, (1.0, 0.5, 2.0)[:dim], (9, 7, 8)[:dim])

        def rhs(x, u, p):
            return 3.0 + 0.1 * (p**2).sum(axis=-1) + 0.05 * u + 0.2 * x.prod(axis=-1)

        spec = ProblemSpec(SumHessianOp(dim, 2, 1.0), g, rhs=rhs)
        state = _NodeState(spec, initial_guess(spec))
        J, _ = assemble_newton(spec, state)
        F = _eigen_s_tensor(state.H, 2, 1.0)
        fu, fp = solver._fd_partials(spec, state)
        v = np.random.default_rng(71).normal(size=g.n_interior)
        vf = GridField.from_interior(g, v)
        Hv = hessian_field_array(vf).reshape(-1, dim, dim)
        Dv = gradient_field_array(vf).reshape(-1, dim)
        expected = (F * Hv).sum(axis=(1, 2)) - fu * v - (fp * Dv).sum(axis=1)
        assert np.abs(J(v) - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
    def test_products_leave_their_argument_and_earlier_results_alone(self, dim):
        # every product writes its argument into one shared padded buffer,
        # so J(a) must leave a as it was, and a later J(b) must not change
        # the array J(a) returned
        g = Grid((-1.0,) * dim, (1.0, 0.5, 2.0)[:dim], (9, 7, 8)[:dim])
        spec = ProblemSpec(SumHessianOp(dim, 2, 1.0), g, rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1))
        J, _ = assemble_newton(spec, _NodeState(spec, initial_guess(spec)))
        a, b = np.random.default_rng(74).normal(size=(2, g.n_interior))
        a_before = a.copy()
        ja = J(a)
        ja_before = ja.copy()
        jb = J(b)
        assert a.tobytes() == a_before.tobytes()
        assert ja.tobytes() == ja_before.tobytes()
        assert not np.shares_memory(ja, jb)
        assert J(a).tobytes() == ja_before.tobytes()

    def test_residual_constant_at_isotropic_start(self):
        # pure quadratic field (no lift): residual = S_k(cI) - f everywhere
        op = SumHessianOp(2, 2, 1.0)
        g = grid2(9)
        spec = ProblemSpec(
            op, g, rhs=const_rhs(3.0), boundary=lambda x: 0.5 * (x**2).sum(axis=-1)
        )
        c = 1.3
        u = GridField.from_function(g, lambda x: 0.5 * c * (x**2).sum(axis=-1))
        state = _NodeState(spec, u)
        expected = (c * c + 2 * c) - 3.0
        assert np.allclose(state.residual, expected, atol=1e-11)

    def test_cone_breach_raises(self):
        op = SumHessianOp(2, 2, 1.0)
        g = grid2(7)
        spec = ProblemSpec(op, g, rhs=const_rhs(3.0))
        u = GridField.from_function(g, lambda x: -0.5 * (x**2).sum(axis=-1))
        with pytest.raises(SolveFailure) as info:
            assemble_newton(spec, _NodeState(spec, u))
        assert info.value.status == "cone_breach"

    def test_jacobian_matches_directional_differences(self):
        op = SumHessianOp(2, 2, 1.0)
        g = grid2(11)
        spec = ProblemSpec(
            op, g, rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1) + 0.05 * u
        )
        u0 = initial_guess(spec)
        state = _NodeState(spec, u0)
        J, _ = assemble_newton(spec, state)
        rng = np.random.default_rng(70)
        v = rng.normal(size=g.n_interior)
        errs = []
        for t in (1e-6, 1e-7):
            shifted = _NodeState(spec, u0.with_interior(u0.interior_flat + t * v))
            fd = (shifted.residual - state.residual) / t
            errs.append(np.abs(fd - J(v)).max() / (1.0 + np.abs(J(v)).max()))
        assert errs[0] <= 1e-3
        # error is O(t): shrinking t by 10 shrinks the error
        assert errs[1] <= 0.5 * errs[0]


class TestLinearSolve:
    @pytest.mark.parametrize("dim, cells", [(2, 33), (3, 9)], ids=["2d", "3d"])
    def test_true_residual_meets_contract_on_nonsymmetric_jacobian(self, dim, cells):
        g = Grid((-1.0,) * dim, (1.0,) * dim, (cells,) * dim)
        spec = ProblemSpec(
            SumHessianOp(dim, 2, 1.0), g, rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1)
        )
        state = _NodeState(spec, initial_guess(spec))
        J, M = assemble_newton(spec, state)
        rhs = -state.residual
        x = _linear_solve(J, M, rhs)
        assert np.abs(J(x) - rhs).max() <= LINEAR_RTOL * np.abs(rhs).max()
        for eta in (0.1, 1e-4):
            x = _linear_solve(J, M, rhs, eta)
            assert np.abs(J(x) - rhs).max() <= eta * np.abs(rhs).max()

    def test_nan_product_raises(self):
        n = 16
        J = lambda v: np.full(n, np.nan)
        M = lambda r: r
        with pytest.raises(SolveFailure) as info:
            _linear_solve(J, M, np.ones(n))
        assert info.value.status == "stalled"
        with pytest.raises(SolveFailure, match="exceeds 0.1$") as info:
            _linear_solve(J, M, np.ones(n), 0.1)
        assert info.value.status == "stalled"

    @pytest.mark.parametrize("dim, cells", [(2, 33), (3, 9)], ids=["2d", "3d"])
    def test_forcing_term_follows_the_newton_residual(self, dim, cells, monkeypatch):
        etas = []

        def spy(J, M, rhs, eta=None):
            etas.append(eta)
            return _linear_solve(J, M, rhs, eta)

        monkeypatch.setattr(solver, "_linear_solve", spy)
        g = Grid((-1.0,) * dim, (1.0,) * dim, (cells,) * dim)
        spec = ProblemSpec(
            SumHessianOp(dim, 2, 1.0), g, rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1)
        )
        cfg = SolveConfig()
        rep = solve(spec, cfg)
        assert rep.converged
        hist = rep.residual_history
        assert len(etas) == rep.iterations == len(hist) - 1
        # r_k^2 (Dembo, Eisenstat and Steihaug) safeguarded against
        # oversolving (Eisenstat and Walker): the last term asks a step for
        # no more than a tenth of the stop test's bound
        f_scale = rep.extras["f_scale"]
        assert etas == [min(0.1, max(LINEAR_RTOL, r**2, 0.1 * cfg.rtol * f_scale / r)) for r in hist[:-1]]
        assert hist[-1] <= cfg.rtol * f_scale


def _same_bicgstab(J, M, b, eta):
    # the port and scipy must return the same vector, bit for bit
    n = len(b)
    want = spla.bicgstab(
        spla.LinearOperator((n, n), J, dtype=float), b, rtol=eta, atol=eta,
        maxiter=LINEAR_MAXITER, M=spla.LinearOperator((n, n), M, dtype=float),
    )[0]
    assert solver._bicgstab(J, M, b, eta).tobytes() == want.tobytes()


class TestBicgstabPort:
    @pytest.mark.parametrize("dim, cells", [(2, 33), (3, 9)], ids=["2d", "3d"])
    @pytest.mark.parametrize("eta", [0.1, 1e-4, LINEAR_RTOL])
    def test_matches_scipy_on_nonsymmetric_jacobian(self, dim, cells, eta):
        g = Grid((-1.0,) * dim, (1.0,) * dim, (cells,) * dim)
        spec = ProblemSpec(
            SumHessianOp(dim, 2, 1.0), g, rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1)
        )
        state = _NodeState(spec, initial_guess(spec))
        J, M = assemble_newton(spec, state)
        b = -state.residual / np.abs(state.residual).max()  # as _linear_solve scales it
        _same_bicgstab(J, M, b, eta)

    def test_matches_scipy_on_every_call_of_a_solve(self, monkeypatch):
        # record the systems the Newton loop itself hands to the port,
        # restarts included
        calls = []
        port = solver._bicgstab

        def recorder(J, M, b, eta):
            calls.append((J, M, b.copy(), eta))
            return port(J, M, b, eta)

        monkeypatch.setattr(solver, "_bicgstab", recorder)
        spec = ProblemSpec(
            SumHessianOp(2, 2, 1.0), grid2(31), rhs=lambda x, u, p: 0.5 + 13.0 * (p**2).sum(axis=-1)
        )
        rep = solve(spec, SolveConfig(max_iter=10))
        monkeypatch.undo()
        assert len(calls) > rep.iterations == 10  # some steps took a restart
        for call in calls:
            _same_bicgstab(*call)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["zero", "negative-zero"])
    def test_matches_scipy_on_zero_right_side(self, sign):
        _same_bicgstab(lambda v: 2.0 * v, lambda r: r, sign * np.zeros(16), 1e-4)

    def test_matches_scipy_on_nan_operator(self):
        n = 16
        _same_bicgstab(lambda v: np.full(n, np.nan), lambda r: r, np.ones(n), LINEAR_RTOL)

    def test_matches_scipy_on_breakdown_and_aliasing(self):
        # a quarter turn maps b to a vector orthogonal to it: rv = 0 at once
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        _same_bicgstab(lambda v: rot @ v, lambda r: r, np.array([1.0, 0.0]), LINEAR_RTOL)
        # a tiny right side and a tinier tolerance: |rho| falls below eps^2
        rng = np.random.default_rng(5)
        A = 4.0 * np.eye(16) + 0.5 * rng.normal(size=(16, 16))
        _same_bicgstab(lambda v: A @ v, lambda r: r, 1e-9 * rng.normal(size=16), 1e-30)
        # the identity operator returns its input: aliasing must not change the result
        _same_bicgstab(lambda v: v, lambda r: r, np.linspace(-1.0, 2.0, 16), LINEAR_RTOL)


class TestSolve:
    def test_manufactured_quadratic_machine_exact(self):
        op = SumHessianOp(2, 2, 1.0)
        ustar = lambda x: 0.5 * ((x**2).sum(axis=-1) - 1.0)
        for cells in (15, 31):
            g = grid2(cells)
            spec = ProblemSpec(op, g, rhs=const_rhs(3.0), boundary=ustar)
            rep = solve(spec, SolveConfig(rtol=1e-12))
            assert rep.converged
            exact = GridField.from_function(g, ustar)
            assert np.abs(rep.final_field.interior - exact.interior).max() <= 1e-11

    def test_k1_converges_in_one_step(self):
        op = SumHessianOp(2, 1, 1.0)
        spec = ProblemSpec(op, grid2(15), rhs=const_rhs(3.0))
        rep = solve(spec, SolveConfig(rtol=1e-10))
        assert rep.converged
        assert rep.iterations == 1

    def test_gradient_rhs_converges_with_decreasing_residuals(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(
            op,
            grid2(31),
            rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1),
        )
        rep = solve(spec)
        assert rep.converged
        hist = rep.residual_history
        assert all(b < a for a, b in zip(hist[2:], hist[3:]))

    def test_maximum_principle_sign(self):
        # f > 0 with zero boundary data forces u <= 0 inside
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(31), rhs=const_rhs(3.0))
        rep = solve(spec)
        assert rep.converged
        assert rep.final_field.interior.max() < 0

    def test_iterates_stay_admissible(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(15), rhs=const_rhs(3.0))
        rep = solve(spec)
        assert rep.converged
        assert all(m > 0 for m in rep.cone_margin_history)

    def test_converged_invariants(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(15), rhs=const_rhs(3.0))
        cfg = SolveConfig()
        rep = solve(spec, cfg)
        state = _NodeState(spec, rep.final_field)
        assert rep.converged
        assert state.res_norm <= cfg.rtol * np.abs(state.f).max()
        assert state.worst_margin > 0

    def test_three_dim_manufactured(self):
        op = SumHessianOp(3, 3, 1.0)
        g = Grid((-1.0,) * 3, (1.0,) * 3, (7, 7, 7))
        ustar = lambda x: 0.5 * ((x**2).sum(axis=-1) - 1.0)
        spec = ProblemSpec(op, g, rhs=const_rhs(4.0), boundary=ustar)
        rep = solve(spec, SolveConfig(rtol=1e-12))
        assert rep.converged
        exact = GridField.from_function(g, ustar)
        assert np.abs(rep.final_field.interior - exact.interior).max() <= 1e-11

    def test_nonpositive_rhs_at_start_is_domain_error(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(9), rhs=lambda x, u, p: 3.0 + 10.0 * u)
        u0 = initial_guess(ProblemSpec(op, grid2(9), rhs=const_rhs(3.0)))
        u0 = u0.with_interior(u0.interior - 1.0)
        rep = solve(spec, u0=u0)
        assert rep.status == "domain_error"
        assert rep.iterations == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_start_is_stall(self):
        # alpha * sigma_1 overflows at this start field: the solve stops
        # before any linear algebra, without a warning
        g = grid2(7)
        spec = ProblemSpec(SumHessianOp(2, 2, 1e308), g, rhs=const_rhs(3.0))
        rep = solve(spec, u0=GridField.from_function(g, lambda x: 5.0 * (x**2).sum(axis=-1)))
        assert rep.status == "stalled"
        assert rep.iterations == 0
        assert "S_k is not finite" in rep.message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_rhs_at_a_node_is_domain_error(self):
        # f = 3 with one node at +inf has no finite sup f to scale a start
        # or a homotopy by; given a start, the start itself is refused
        def rhs(x, u, p):
            f = np.full(len(x), 3.0)
            f[len(x) // 2] = np.inf
            return f

        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), grid2(9), rhs=rhs)
        rep = solve(spec)
        assert (rep.status, rep.iterations, rep.residual_history) == ("domain_error", 0, [])
        rep = solve(spec, u0=initial_guess(replace(spec, rhs=const_rhs(3.0))))
        assert (rep.status, rep.iterations) == ("domain_error", 0)
        assert rep.message == "rhs must be finite and positive on the sampled domain at the starting field"
        rep = continuation_solve(spec)
        assert rep.status == "domain_error"
        assert rep.extras == {"continuation_ts": [], "rejected_stages": [{"t": 1.0, "status": "domain_error"}]}
        with pytest.raises(SolveFailure) as info:
            refinement_study(spec, [1.0], levels=2)
        assert info.value.status == "domain_error"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_update_is_a_stall_at_iteration_0(self):
        # from this admissible start (worst margin 4e-300) the Newton update
        # overflows when the linear solve scales it back by max|rhs|: the
        # solve stops there and names the update, not the line search
        g = Grid((-1e100,) * 2, (1e100,) * 2, (5, 5))
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), g, rhs=const_rhs(1e300))
        u0 = GridField.from_function(g, lambda x: 1e-100 * ((x / 1e100) ** 2).sum(axis=-1) - 2e-100)
        rep = solve(spec, u0=u0)
        assert rep.status == "stalled" and rep.message.startswith("Newton update overflows")
        assert rep.iterations == 0 and len(rep.residual_history) == 1 and rep.final_field is u0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_update_is_a_rejected_trial(self, monkeypatch):
        # a finite update whose full step overflows next to a start of
        # size 1e306: that trial is rejected, not a ValueError, and the
        # step underflows to a stall
        g = Grid((-1e153,) * 2, (1e153,) * 2, (5, 5))
        spec = ProblemSpec(SumHessianOp(2, 1, 1.0), g, rhs=const_rhs(10.0))
        u0 = GridField.from_function(g, lambda x: 0.5 * ((x**2).sum(axis=-1) - 2e306))
        update = np.full(g.n_interior, -np.finfo(float).max)
        with np.errstate(over="ignore"):
            assert not np.isfinite(u0.interior_flat + update).all()
        monkeypatch.setattr(solver, "_linear_solve", lambda J, M, rhs, eta: update)
        rep = solve(spec, u0=u0)
        assert rep.status == "stalled" and "line search underflow" in rep.message
        assert rep.iterations == 0 and rep.final_field is u0

    def test_non_finite_krylov_vector_is_a_stall(self):
        # on this tiny box |Du| is about 1e-61 and f about 1e259 at the
        # start, so f_p = 2e380 Du overflows to inf; BiCGSTAB then hands
        # the Jacobian a NaN vector, whose product is NaN (not a
        # ValueError from GridField) and fails the linear solve
        L = 1e-60
        g = Grid((-L,) * 2, (L,) * 2, (3, 3))
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), g,
                           rhs=lambda x, u, p: 3.0 + 1e60 * ((p * 1e160) ** 2).sum(axis=-1))
        with np.errstate(over="ignore"):
            J, _ = assemble_newton(spec, _NodeState(spec, initial_guess(spec)))
        assert np.isnan(J(np.full(g.n_interior, np.inf))).all()
        rep = solve(spec)
        assert rep.status == "stalled" and rep.message.startswith("linear solve residual nan")
        assert rep.iterations == 0 and len(rep.residual_history) == 1

    def test_one_node_state_per_evaluated_field(self, monkeypatch):
        # the start field and each line-search trial are evaluated once;
        # the Jacobian reuses the state of the accepted trial
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), grid2(15), rhs=const_rhs(3.0))
        u0 = initial_guess(spec)
        fields = []
        real_state = solver._NodeState

        def recording_state(spec_, u, *args, **kwargs):
            fields.append(u)
            return real_state(spec_, u, *args, **kwargs)

        monkeypatch.setattr(solver, "_NodeState", recording_state)
        rep = solve(spec, u0=u0)
        assert rep.converged and rep.iterations >= 2
        assert fields[0] is u0
        # fields holds every evaluated field alive, so ids are unique
        assert len({id(u) for u in fields}) == len(fields)

    def test_stop_test_is_relative_to_a_tiny_rhs(self):
        # the start field's residual is about f itself (1.1e-12 here), which
        # an absolute floor in the stop test would accept at iteration 0
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), grid2(9), rhs=const_rhs(1e-12))
        cfg = SolveConfig()
        rep = solve(spec, cfg)
        assert rep.converged and rep.iterations >= 1
        assert rep.residual_history[-1] <= cfg.rtol * 1e-12

    @pytest.mark.parametrize(
        "coef, cells, max_iter, message",
        [
            (13.0, 31, 10, "maximum iterations reached"),
            (13.0, 15, 60, "line search underflow"),  # stalled
            (200.0, 9, 60, "line search underflow"),  # cone_breach
        ],
    )
    def test_failed_solve_returns_its_last_accepted_iterate(self, coef, cells, max_iter, message):
        # each accepted step lowers the residual, so the last accepted
        # iterate is the best one, and its residual closes the history
        spec = ProblemSpec(
            SumHessianOp(2, 2, 1.0), grid2(cells), rhs=lambda x, u, p: 0.5 + coef * (p**2).sum(axis=-1)
        )
        rep = solve(spec, SolveConfig(max_iter=max_iter))
        assert not rep.converged and message in rep.message
        hist = rep.residual_history
        assert len(hist) >= 2 and all(b < a for a, b in zip(hist, hist[1:]))
        assert _NodeState(spec, rep.final_field).res_norm == hist[-1]

    def test_subnormal_residual_stalls_instead_of_repeating_the_iterate(self):
        # for a subnormal r the Armijo bound (1 - ARMIJO * step) * r rounds
        # back to r, so only the strict decrease test rejects a step that
        # leaves the residual where it is
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), grid2(9), rhs=const_rhs(1e-320))
        rep = solve(spec)
        assert rep.status == "stalled" and "line search underflow" in rep.message
        hist = rep.residual_history
        assert rep.iterations + 1 == len(hist) == 2 and hist[1] < hist[0]
        assert (1.0 - solver.ARMIJO) * hist[1] == hist[1]

    def test_report_serializes(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(op, grid2(7), rhs=const_rhs(3.0))
        rep = solve(spec)
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert "converged" in text


class TestProlong:
    def test_exact_on_bilinear(self):
        g = grid2(7)
        f = GridField.from_function(g, lambda x: 1.0 + x[..., 0] - 2.0 * x[..., 1])
        fine = g.refine()
        pf = prolong(f, fine)
        exact = GridField.from_function(fine, lambda x: 1.0 + x[..., 0] - 2.0 * x[..., 1])
        assert np.abs(pf.values - exact.values).max() <= 1e-14

    def test_boundary_replacement(self):
        g = grid2(7)
        f = GridField.from_function(g, lambda x: (x**2).sum(axis=-1))
        fine = g.refine()
        pf = prolong(f, fine, boundary=lambda x: (x**2).sum(axis=-1))
        exact = GridField.from_function(fine, lambda x: (x**2).sum(axis=-1))
        assert np.abs(pf.values[0, :] - exact.values[0, :]).max() == 0.0

    def test_wrong_target_grid(self):
        g = grid2(7)
        f = GridField.from_function(g, lambda x: x[..., 0])
        with pytest.raises(ValueError):
            prolong(f, grid2(14))


class TestContinuation:
    def test_default_path_converges(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(
            op,
            grid2(15),
            rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1),
        )
        rep = continuation_solve(spec)
        assert rep.converged
        assert rep.extras["continuation_ts"][-1] == 1.0
        # the direct attempt converges, so no homotopy stage runs
        assert rep.extras["continuation_ts"] == [1.0]
        assert "rejected_stages" not in rep.extras

    def test_rescues_stalled_direct_solve(self):
        # strongly gradient-dependent right side: the Newton path from the
        # admissible start exceeds the iteration budget, the homotopy does not
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(
            op,
            grid2(31),
            rhs=lambda x, u, p: 0.5 + 13.0 * (p**2).sum(axis=-1),
        )
        cfg = SolveConfig(max_iter=10)
        direct = solve(spec, cfg)
        assert direct.status == "stalled"
        cont = continuation_solve(spec, config=cfg)
        assert cont.converged
        assert cont.extras["rejected_stages"][0] == {"t": 1.0, "status": "stalled"}

    def test_failure_records_t(self):
        op = SumHessianOp(2, 2, 1.0)
        spec = ProblemSpec(
            op,
            grid2(15),
            rhs=lambda x, u, p: 0.5 + 40.0 * (p**2).sum(axis=-1),
        )
        rep = continuation_solve(spec, config=SolveConfig(max_iter=12))
        assert rep.status != "converged"
        assert 0.0 < rep.extras["failed_t"] <= 1.0
        assert rep.extras["rejected_stages"][-1] == {"t": rep.extras["failed_t"], "status": rep.status}
        assert rep.extras["rejected_stages"][0]["t"] == 1.0

    def test_step_does_not_regrow_after_a_rejection(self, monkeypatch):
        # f = 1, so stage t solves the constant right side 2 - t; a warm
        # stage converges only when its t-step is at most 1/16
        converged_ts = []

        def stub(spec, config=None, u0=None):
            x = spec.grid.interior_points_flat()
            t = 2.0 - float(spec.rhs(x, np.zeros(len(x)), np.zeros_like(x)).max())
            if t == 0.0 or (u0 is not None and t - converged_ts[-1] <= 1.0 / 16):
                converged_ts.append(t)
                return SolveReport("converged", 1, [], [], spec.boundary_field())
            return SolveReport("stalled", 1, [], [], spec.boundary_field())

        monkeypatch.setattr(solver, "solve", stub)
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), grid2(5), rhs=const_rhs(1.0))
        rep = continuation_solve(spec)
        assert rep.converged
        assert rep.extras["continuation_ts"] == [j / 16 for j in range(17)]
        # one rejection per two accepted stages, not one per stage
        assert [r["t"] for r in rep.extras["rejected_stages"]] == [1.0] + [j / 8 for j in range(1, 9)]

    def test_failure_at_t0_records_the_direct_attempt(self, monkeypatch):
        # every stage fails: the direct attempt comes first, then t = 0
        def failing(spec, config=None, u0=None):
            return SolveReport("stalled", 0, [], [], spec.boundary_field())

        monkeypatch.setattr(solver, "solve", failing)
        spec = ProblemSpec(SumHessianOp(2, 2, 1.0), grid2(5), rhs=const_rhs(3.0))
        rep = continuation_solve(spec)
        assert rep.extras["failed_t"] == 0.0
        assert rep.extras["continuation_ts"] == []
        assert rep.extras["rejected_stages"] == [{"t": 1.0, "status": "stalled"},
                                                 {"t": 0.0, "status": "stalled"}]


# The 9-cell cases of the matrix that do not converge directly in at most 10
# Newton steps: all but two have the gradient-dominated f = 0.5 + 13|Du|^2.
BEYOND_FLOOR = {
    "n=2 k=1 alpha=0.1 rhs=0.5+13*g2 trace=zero cells=9",
    "n=2 k=1 alpha=0.1 rhs=0.5+13*g2 trace=xy cells=9",
    "n=2 k=1 alpha=0.1 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=2 k=1 alpha=1.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=2 k=1 alpha=10.0 rhs=0.5+13*g2 trace=zero cells=9",
    "n=2 k=1 alpha=10.0 rhs=0.5+13*g2 trace=xy cells=9",
    "n=2 k=1 alpha=10.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=2 k=2 alpha=0.1 rhs=0.5+13*g2 trace=zero cells=9",
    "n=2 k=2 alpha=0.1 rhs=0.5+13*g2 trace=xy cells=9",
    "n=2 k=2 alpha=0.1 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=2 k=2 alpha=1.0 rhs=0.5+13*g2 trace=zero cells=9",
    "n=2 k=2 alpha=1.0 rhs=0.5+13*g2 trace=xy cells=9",
    "n=2 k=2 alpha=1.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=1 alpha=0.1 rhs=0.5+13*g2 trace=xy cells=9",
    "n=3 k=1 alpha=0.1 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=1 alpha=1.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=1 alpha=10.0 rhs=0.5+13*g2 trace=zero cells=9",
    "n=3 k=1 alpha=10.0 rhs=0.5+13*g2 trace=xy cells=9",
    "n=3 k=1 alpha=10.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=2 alpha=0.1 rhs=0.5+13*g2 trace=zero cells=9",
    "n=3 k=2 alpha=0.1 rhs=0.5+13*g2 trace=xy cells=9",
    "n=3 k=2 alpha=0.1 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=2 alpha=1.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=3 alpha=0.1 rhs=0.5 trace=saddle cells=9",
    "n=3 k=3 alpha=0.1 rhs=0.5+13*g2 trace=zero cells=9",
    "n=3 k=3 alpha=0.1 rhs=0.5+13*g2 trace=xy cells=9",
    "n=3 k=3 alpha=0.1 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=3 alpha=1.0 rhs=0.5+13*g2 trace=zero cells=9",
    "n=3 k=3 alpha=1.0 rhs=0.5+13*g2 trace=xy cells=9",
    "n=3 k=3 alpha=1.0 rhs=0.5+13*g2 trace=saddle cells=9",
    "n=3 k=3 alpha=10.0 rhs=0.5 trace=saddle cells=9",
}


class TestCaseMatrixFloor:
    def test_nine_cell_cases_converge_directly(self):
        # a floor, not a record: a change that makes more cases converge passes
        floor = [case for case in CASE_MATRIX.cases()
                 if case[-1] == 9 and CASE_MATRIX.label(case) not in BEYOND_FLOOR]
        assert len(floor) == 194
        failed = []
        for case in floor:
            rep = solve(CASE_MATRIX.problem(case))  # the direct attempt of continuation_solve
            if not rep.converged:
                failed.append(f"{CASE_MATRIX.label(case)}: {rep.status} after {rep.iterations}")
        assert failed == []

    def test_case_without_a_solution_is_not_converged(self):
        # k = 1: Lap u + 0.1 = 0.5 + 13|Du|^2.  w = exp(-13 u) > 0 turns it into
        # Lap w + 5.2 w = 0 with w = 1 on the boundary, and 5.2 = 13 (0.5 - 0.1)
        # exceeds the first Dirichlet eigenvalue 2 pi^2 / 4 of [-1, 1]^2, so no
        # solution exists (Cole-Hopf)
        rep = continuation_solve(CASE_MATRIX.problem((2, 1, 0.1, "0.5+13*g2", "zero", 9)))
        assert not rep.converged
