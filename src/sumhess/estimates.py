"""Interior-estimate harness: weighted Hessian quantities on solved
fields and their behaviour under grid refinement.

The theory guarantees bounds of the form (-u)^beta * (trace D^2 u) <= C
with existential constants; nothing numeric is reproducible from them.
The falsifiable desk-scale surrogate implemented here is refinement
stability: the supremum of the weighted quantity is tracked over a
sequence of halved meshes and flagged stable when the last two levels
agree within 5%.

Suprema are taken over nodes at distance >= 2h from the boundary (the
weight vanishes on the boundary analytically but lags by O(h)
discretely); the full-interior supremum is recorded alongside.

The weight needs u <= 0, as the estimates do: a solution positive
somewhere, a non-finite weighted quantity or an f not finite and positive
at a probed gradient raises SolveFailure("domain_error") with the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .fdgrid import GridField, laplacian_field
from .solver import ProblemSpec, SolveConfig, SolveFailure, continuation_solve

STABILITY_RTOL = 0.05
PROBE_SAMPLES, PROBE_RADIUS = 200, 3.0  # the convexity probe's points and gradient-cube half-side


def quantity_tag(exponent: float) -> str:
    """linear for exponent 1, near_linear for 1 < e < 2, power otherwise."""
    if exponent == 1.0:
        return "linear"
    if 1.0 < exponent < 2.0:
        return "near_linear"
    return "power"


@dataclass
class EstimateReport:
    """Refinement-indexed suprema of one weighted quantity."""

    quantity: str
    beta_or_delta: float
    per_refinement: list = field(default_factory=list)
    stable: bool = False


def pogorelov_quantity(u: GridField, exponent: float) -> GridField:
    """Node-wise (-u)^exponent * (Laplacian of u); exponent 0 reproduces the
    Laplacian bit-exactly.  Where u > 0 somewhere on the interior, or the
    product is not finite, raises SolveFailure("domain_error") with the exponent."""
    interior = u.interior
    if (interior > 0).any():
        raise SolveFailure("domain_error", f"field must be <= 0 on the interior (max {interior.max():.3e})", exponent)
    lap = laplacian_field(u)
    with np.errstate(all="ignore"):
        weighted = np.power(-interior, exponent) * lap.interior
    if not np.isfinite(weighted).all():
        raise SolveFailure("domain_error", f"weighted quantity (-u)^{exponent} * Laplacian is not finite", exponent)
    return GridField.from_interior(u.grid, weighted, boundary=0.0)


@np.errstate(over="ignore", invalid="ignore")  # an f that overflows is refused, not warned about
def rhs_gradient_convexity_probe(spec: ProblemSpec, rng: np.random.Generator, exponent: float | None = None) -> float:
    """Worst midpoint-convexity margin of f^{1/k} in the gradient slot.

    The near-linear weight exponent relies on f^{1/k}(x, u, .) being
    convex; that is the caller's declaration, and this probe only spot
    checks it: for random interior points and gradient pairs it returns
    min of (f^{1/k}(p1) + f^{1/k}(p2))/2 - f^{1/k}((p1+p2)/2).  A
    clearly negative value disproves the declaration.  Where f is not
    finite and positive at a probed point, raises SolveFailure("domain_error")
    with `exponent`, the weight exponent whose declaration is checked.
    """
    k = spec.op.k
    x = spec.grid.interior_points_flat()
    pts = x[rng.integers(0, len(x), size=PROBE_SAMPLES)]
    u = np.zeros(PROBE_SAMPLES)
    p1 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=(PROBE_SAMPLES, spec.grid.dim))
    p2 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=(PROBE_SAMPLES, spec.grid.dim))

    def root(p):
        vals = np.asarray(spec.rhs(pts, u, p), dtype=float)
        if not (np.isfinite(vals) & (vals > 0)).all():
            raise SolveFailure("domain_error", "gradient convexity probe: rhs must stay finite and positive "
                               "on the probed set", exponent)
        return vals ** (1.0 / k)

    margin = 0.5 * (root(p1) + root(p2)) - root(0.5 * (p1 + p2))
    return float(margin.min())


def _supremum(vals: np.ndarray, offset: int) -> tuple[float, list[int]]:
    """Largest entry of vals and its index, each coordinate shifted by offset."""
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[idx]), [int(i) + offset for i in idx]


def refinement_study(
    spec: ProblemSpec,
    exponents: Sequence[float],
    levels: int = 3,
    config: SolveConfig | None = None,
) -> list[EstimateReport]:
    """Solve on `levels` halved meshes, once per level and each from the
    cold initial guess, and track the supremum of the weighted quantity
    for every exponent on that level's solution.  One report per
    exponent, stable when its last two core suprema agree within 5%.
    Each level is a continuation_solve, so, as in the solve subcommand, a
    level whose direct solve fails falls back to the homotopy; its
    newton_iterations then count the final stage only.

    The prolonged coarse solution is not used as a start: it lacks the
    fine grid's corner boundary layer and breaches the cone there, and
    the blends that repair it saved at most one Newton iteration.  A level
    that does not converge raises SolveFailure with the solver's status, one
    Grid refuses (halved h^2 not a normal float) raises it as "domain_error",
    and so, with the exponent, do u > 0 somewhere or a non-finite weighted quantity."""
    reports = [EstimateReport(quantity_tag(e), float(e)) for e in exponents]
    for level in range(levels):
        try:  # refined only when a level follows, so the last level's grid is the finest built
            grid = grid.refine() if level else spec.grid
        except ValueError as exc:
            raise SolveFailure("domain_error", f"refinement level {level}: {exc}") from None
        result = continuation_solve(replace(spec, grid=grid), config)
        if not result.converged:
            message = f"solver reported '{result.status}' at refinement level {level}: {result.message}"
            raise SolveFailure(result.status, message)
        u = result.final_field
        for report in reports:
            try:
                vals = pogorelov_quantity(u, report.beta_or_delta).interior
            except SolveFailure as exc:
                exc.args = (f"refinement level {level}: {exc}",)
                raise
            sup_core, arg_core = _supremum(vals[(slice(1, -1),) * vals.ndim], 1)
            sup_full, arg_full = _supremum(vals, 0)
            report.per_refinement.append(
                {
                    "h": list(grid.h),
                    "sup": sup_core,
                    "argmax": arg_core,
                    "sup_full_interior": sup_full,
                    "argmax_full_interior": arg_full,
                    "newton_iterations": result.iterations,
                }
            )
    for report in reports:
        sups = [entry["sup"] for entry in report.per_refinement]
        if len(sups) >= 2:
            a, b = sups[-2], sups[-1]
            report.stable = bool(abs(a - b) <= STABILITY_RTOL * max(abs(a), abs(b), 1e-300))
    return reports
