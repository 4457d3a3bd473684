"""Acceptance suite: each test is one gate criterion at its stated
tolerance and prints one ACCEPTANCE pass/fail line (visible with -s).

Expected values are produced by independent oracles: subset enumeration
for the symmetric-function identities, LAPACK eigenvalues plus central
differences for the matrix-direction second derivative, and analytic
operator application for the manufactured solutions.
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest

from sumhess.cli import EXIT_CONFIG, EXIT_PROPERTY, main
from sumhess.estimates import refinement_study
from sumhess.fdgrid import Grid, GridField, hessian_field_array
from sumhess.inequalities import directional_second_derivative, run_inequality_suite
from sumhess.rigidity import (
    QuadraticCandidate,
    ScaledField,
    entire_solution,
    entire_solution_hessian,
    entire_solution_residual,
    quadratic_residual,
)
from sumhess.solver import ProblemSpec, SolveConfig, isotropic_level, solve
from sumhess.symfun import SumHessianOp, identity_residuals, s_gradient, s_hessian, s_value


def criterion(cid, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {cid} {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {cid} {label}: PASS")

        return wrapper

    return deco


def brute_sigma_batch(lams: np.ndarray, j: int) -> np.ndarray:
    """Subset-enumeration oracle for sigma_j, batched over rows."""
    m, n = lams.shape
    if j == 0:
        return np.ones(m)
    if j < 0 or j > n:
        return np.zeros(m)
    total = np.zeros(m)
    for combo in itertools.combinations(range(n), j):
        total += np.prod(lams[:, combo], axis=1)
    return total


@criterion(1, "identity suite")
def test_criterion_1_identities():
    start = time.time()
    rng = np.random.default_rng(1001)
    for n in range(2, 7):
        lams = rng.uniform(-5.0, 5.0, size=(2000, n))
        # enumeration oracle for every deletion order, shared across (k, alpha)
        brute_single = {}  # sigma_j(lam|p)
        brute_double = {}  # sigma_j(lam|pq)
        for p in range(n):
            reduced = np.delete(lams, p, axis=1)
            for j in range(n):
                brute_single[(p, j)] = brute_sigma_batch(reduced, j)
        for p in range(n):
            for q in range(p + 1, n):
                reduced = np.delete(lams, (p, q), axis=1)
                for j in range(n - 1):
                    brute_double[(p, q, j)] = brute_sigma_batch(reduced, j)
        for k in range(1, n + 1):
            for alpha in (0.1, 1.0, 10.0):
                op = SumHessianOp(n, k, alpha)
                scale = 1.0 + np.abs(np.asarray(s_value(lams, k, alpha)))
                # (iii)-(v): deletion identities
                res = identity_residuals(op, lams)
                assert (res <= 1e-9 * scale[:, None]).all(), (n, k, alpha)
                # (i): first derivative equals the deleted polynomial
                grad = s_gradient(lams, k, alpha)
                for p in range(n):
                    want = brute_single[(p, k - 1)] + alpha * (
                        brute_single[(p, k - 2)] if k >= 2 else np.zeros(len(lams))
                    )
                    err = np.abs(grad[:, p] - want)
                    assert (err <= 1e-9 * (1.0 + np.abs(want))).all(), (n, k, alpha, p)
                # (ii): second derivative equals the doubly deleted polynomial
                hess = s_hessian(lams, k, alpha)
                assert (hess[:, range(n), range(n)] == 0).all()
                for p in range(n):
                    for q in range(p + 1, n):
                        want = np.zeros(len(lams))
                        if k >= 2:
                            want = brute_double[(p, q, k - 2)].copy()
                        if k >= 3:
                            want += alpha * brute_double[(p, q, k - 3)]
                        err = np.abs(hess[:, p, q] - want)
                        assert (err <= 1e-9 * (1.0 + np.abs(want))).all(), (n, k, alpha, p, q)
    elapsed = time.time() - start
    assert elapsed <= 30.0, f"identity suite took {elapsed:.1f}s"


@criterion(2, "inequality lemma suite")
def test_criterion_2_lemma_suite():
    reports = run_inequality_suite(samples=170, seed=31415)
    by_name = {r.name: r for r in reports}
    assert len(reports) == 8
    for name, rep in by_name.items():
        assert rep.worst_margin >= -1e-9, (name, rep.worst_margin, rep.witnesses[:1])
        assert rep.passed, name
    thresholds = by_name["capped_bounds"].extras["conditional_thresholds"]
    assert thresholds, "no conditional thresholds reported"
    assert all(v["finite"] for v in thresholds.values()), thresholds


@criterion(3, "matrix-direction second derivative vs finite differences")
def test_criterion_3_directional_second_derivative():
    rng = np.random.default_rng(2718)
    h = 1e-4
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 7))
        kap = np.sort(rng.uniform(-3.0, 3.0, size=n))[::-1]
        if np.abs(np.diff(kap)).min() < 0.1:
            continue
        alpha = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        k = int(rng.integers(1, n + 1))
        B = rng.uniform(-1.0, 1.0, size=(n, n))
        B = 0.5 * (B + B.T)
        A = np.diag(kap)

        def g(t):
            return s_value(np.linalg.eigvalsh(A + t * B), k, alpha)

        fd = (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)
        got = directional_second_derivative(k, alpha, A, B)
        assert got == pytest.approx(fd, rel=1e-4, abs=1e-4), (n, k, alpha)
        checked += 1


def _perturbed_star():
    w = np.pi

    def ustar(x):
        return 0.5 * ((x**2).sum(axis=-1) - 1.0) + 0.05 * np.sin(w * x[..., 0]) * np.sin(
            w * x[..., 1]
        )

    def rhs(x, u, p):
        s = 0.05 * w * w * np.sin(w * x[..., 0]) * np.sin(w * x[..., 1])
        c = 0.05 * w * w * np.cos(w * x[..., 0]) * np.cos(w * x[..., 1])
        uxx = 1.0 - s
        uyy = 1.0 - s
        uxy = c
        return (uxx * uyy - uxy * uxy) + (uxx + uyy)

    return ustar, rhs


@criterion(4, "solver convergence on manufactured solutions")
def test_criterion_4_solver_convergence():
    start = time.time()
    op = SumHessianOp(2, 2, 1.0)
    quad = lambda x: 0.5 * ((x**2).sum(axis=-1) - 1.0)
    for cells in (15, 31, 63):
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (cells, cells))
        spec = ProblemSpec(op, grid, rhs=lambda x, u, p: np.full(len(x), 3.0), boundary=quad)
        rep = solve(spec, SolveConfig(rtol=1e-12))
        assert rep.converged, cells
        exact = GridField.from_function(grid, quad)
        assert np.abs(rep.final_field.interior - exact.interior).max() <= 1e-11, cells

    ustar, rhs = _perturbed_star()
    errors = []
    for cells in (15, 31, 63):
        grid = Grid((-1.0, -1.0), (1.0, 1.0), (cells, cells))
        spec = ProblemSpec(op, grid, rhs=rhs, boundary=ustar)
        rep = solve(spec, SolveConfig(rtol=1e-11))
        assert rep.converged, cells
        exact = GridField.from_function(grid, ustar)
        errors.append(np.abs(rep.final_field.interior - exact.interior).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert (orders >= 1.8).all(), (errors, orders)
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"solver criterion took {elapsed:.1f}s"


@criterion(5, "estimate harness refinement stability")
def test_criterion_5_estimate_stability():
    op = SumHessianOp(2, 2, 1.0)
    grid = Grid((-1.0, -1.0), (1.0, 1.0), (15, 15))
    spec = ProblemSpec(
        op,
        grid,
        rhs=lambda x, u, p: 3.0 + 0.1 * (p**2).sum(axis=-1),
    )
    exponents = (1.0, 1.1, 2.0)
    for exponent, rep in zip(exponents, refinement_study(spec, exponents, levels=3)):
        assert rep.stable, (exponent, [e["sup"] for e in rep.per_refinement])
        assert len(rep.per_refinement) == 3


@criterion(6, "explicit entire solution")
def test_criterion_6_entire_solution():
    rng = np.random.default_rng(1618)
    pts = rng.uniform(-1.0, 1.0, size=(10_000, 3))
    residual, sigma1 = entire_solution_residual(pts)
    assert residual.max() <= 1e-9
    assert (sigma1 > 0).all()
    # discrete Hessian agrees at second order on shared nodes
    errs = []
    for cells, sl in ((9, slice(None)), (19, slice(1, None, 2))):
        g = Grid((-1.0,) * 3, (1.0,) * 3, (cells,) * 3)
        f = GridField.from_function(g, entire_solution)
        H = hessian_field_array(f)[sl, sl, sl]
        exact = entire_solution_hessian(g.points())[sl, sl, sl]
        errs.append(np.abs(H - exact).max())
    assert np.log2(errs[0] / errs[1]) >= 1.8, errs


@criterion(7, "rigidity shell")
def test_criterion_7_rigidity_shell():
    from sumhess.fdgrid import eigh_batch

    op = SumHessianOp(2, 2, 1.0)
    c = isotropic_level(op, 1.0)
    q = QuadraticCandidate(np.diag([c, c]))
    assert quadratic_residual(op, q) <= 1e-12
    R = 2.0
    cells = 15
    grid_v = Grid((-1.0, -1.0), (1.0, 1.0), (cells, cells))
    grid_u = Grid((-R, -R), (R, R), (cells, cells))
    fv = GridField.from_function(grid_v, ScaledField(q, R))
    fu = GridField.from_function(grid_u, q)
    lam_v, _ = eigh_batch(hessian_field_array(fv).reshape(-1, 2, 2))
    lam_u, _ = eigh_batch(hessian_field_array(fu).reshape(-1, 2, 2))
    scale = 1.0 + np.abs(lam_u).max()
    assert np.abs(lam_v - lam_u).max() <= 1e-10 * scale


@criterion(8, "negative controls")
def test_criterion_8_negative_controls(tmp_path):
    rc = main(
        ["identities", "--samples", "60", "--seed", "3", "--out", str(tmp_path / "neg"),
         "--negate-oracle", "s_newton"]
    )
    assert rc == EXIT_PROPERTY
    payload = json.loads((tmp_path / "neg" / "s_newton.json").read_text())
    assert payload["passed"] is False
    rc = main(["solve", "--rhs", "-1", "--out", str(tmp_path / "neg2")])
    assert rc == EXIT_CONFIG
