"""The solver's outcome contract under generated problems: solve,
continuation_solve and refinement_study name every outcome (converged,
stalled, cone_breach or domain_error) instead of raising, a converged
field solves the problem when checked independently on eigh spectra, and
the histories hold the start plus one entry per accepted step."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumhess.estimates import SolveFailure, refinement_study
from sumhess.fdgrid import Grid, GridField, gradient_field_array, hessian_field_array
from sumhess.solver import ProblemSpec, SolveConfig, continuation_solve, solve
from sumhess.symfun import SumHessianOp, sigma_all

STATUSES = ("converged", "stalled", "cone_breach", "domain_error")
# f(x, 0, 0) = -1 at every node: initial_guess has no start and no homotopy can begin
NONPOSITIVE = (
    ProblemSpec(SumHessianOp(2, 2, 1.0), Grid((-1.0, -1.0), (1.0, 1.0), (9, 9)),
                rhs=lambda x, u, p: -np.ones(len(x))),
    SolveConfig(),
    None,
)


@st.composite
def problems(draw, max_cells=9):
    """(spec, config, u0) on the box [-L, L]^n, L from 1e-100 to 1e100.  The
    right side f = fs (a + b u/su + c |Du L/su|^2) and the trace are
    written in the natural units of a solution, su = fs^(1/k) L^2; u0 is
    None (initial_guess) or q su (|x/L|^2 - n) with the trace."""
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, n))
    alpha = draw(st.sampled_from([0.1, 1.0, 10.0]))
    L = 10.0 ** draw(st.integers(-100, 100))
    fs = 10.0 ** draw(st.integers(-100, 100))
    su = fs ** (1.0 / k) * L * L
    a = draw(st.floats(0.1, 10.0))
    b = draw(st.sampled_from([0.0, 0.5, -2.0]))
    c = draw(st.sampled_from([0.0, 0.1, 13.0]))

    def rhs(x, u, p):
        val = np.full(len(x), a)
        if b:
            val = val + b * (u / su)
        if c:
            val = val + c * ((p * (L / su)) ** 2).sum(axis=-1)
        return fs * val

    tau = draw(st.sampled_from([0.0, 0.3, -0.5]))
    if draw(st.booleans()):
        trace = lambda x: tau * su * (x[..., 0] / L) * (x[..., 1] / L)
    else:
        trace = lambda x: tau * su * ((x[..., 0] / L) ** 2 - (x[..., 1] / L) ** 2)
    grid = Grid((-L,) * n, (L,) * n, (draw(st.integers(3, max_cells)),) * n)
    spec = ProblemSpec(SumHessianOp(n, k, alpha), grid, rhs=rhs, boundary=trace)
    q = draw(st.sampled_from([None, None, -1.0, 0.0, 0.5, 2.0]))
    u0 = None
    if q is not None:
        X = grid.interior_points_flat() / L
        u0 = GridField.from_interior(grid, q * su * ((X * X).sum(axis=-1) - n), boundary=trace)
    config = SolveConfig(max_iter=draw(st.sampled_from([1, 2, 60])))
    return spec, config, u0


def check_outcome(spec, config, report):
    assert report.status in STATUSES
    if report.residual_history:  # a start field was evaluated
        assert len(report.residual_history) == len(report.cone_margin_history) == report.iterations + 1
    if report.converged:
        n, k, alpha = spec.op.n, spec.op.k, spec.op.alpha
        u = report.final_field
        sig = sigma_all(np.linalg.eigvalsh(hessian_field_array(u).reshape(-1, n, n)))
        S = sig[:, 1 : k + 1] + alpha * sig[:, :k]
        assert (S > 0).all()
        x = spec.grid.interior_points_flat()
        f = np.broadcast_to(spec.rhs(x, u.interior_flat, gradient_field_array(u).reshape(-1, n)), len(x))
        assert np.abs(S[:, -1] - f).max() <= config.rtol * np.abs(f).max()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problems())
@example(NONPOSITIVE)
def test_solve_names_its_outcome(case):
    spec, config, u0 = case
    check_outcome(spec, config, solve(spec, config, u0=u0))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(problems())
@example(NONPOSITIVE)
def test_continuation_solve_names_its_outcome(case):
    spec, config, _ = case
    check_outcome(spec, config, continuation_solve(spec, config))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(problems(max_cells=5))
@example(NONPOSITIVE)
def test_refinement_study_names_its_outcome(case):
    spec, config, _ = case
    try:
        reports = refinement_study(spec, [0.0, 1.0], levels=2, config=config)
    except SolveFailure as exc:  # a failed solve, or a solved level that is positive somewhere
        assert exc.status in STATUSES[1:]
    else:
        assert all(len(rep.per_refinement) == 2 for rep in reports)


def test_nonpositive_rhs_everywhere_is_a_named_domain_error():
    spec, config, _ = NONPOSITIVE
    report = solve(spec, config)
    assert (report.status, report.iterations, report.residual_history) == ("domain_error", 0, [])
    report = continuation_solve(spec, config)
    assert report.status == "domain_error"
    assert report.extras == {"continuation_ts": [], "rejected_stages": [{"t": 1.0, "status": "domain_error"}]}
    with pytest.raises(SolveFailure) as info:
        refinement_study(spec, [1.0], levels=2, config=config)
    assert info.value.status == "domain_error"
