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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .fdgrid import GridField, eigh_batch, gradient_field_array, hessian_field_array, laplacian_field
from .solver import ProblemSpec, SolveConfig, solve
from .symfun import SumHessianOp

STABILITY_RTOL = 0.05


class SolveFailure(RuntimeError):
    """A refinement level failed to solve; carries the level and status."""

    def __init__(self, level: int, status: str, message: str = ""):
        super().__init__(f"solver reported '{status}' at refinement level {level}: {message}")
        self.level = level
        self.status = status


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

    def to_dict(self) -> dict:
        return asdict(self)


def _require_nonpositive(u: GridField) -> np.ndarray:
    interior = u.interior
    if (interior > 0).any():
        worst = float(interior.max())
        raise DomainError(f"field must be <= 0 on the interior (max {worst:.3e})")
    return interior


def pogorelov_quantity(u: GridField, exponent: float) -> GridField:
    """Node-wise (-u)^exponent * (Laplacian of u); exponent 0 reproduces
    the plain Laplacian field bit-exactly."""
    interior = _require_nonpositive(u)
    lap = laplacian_field(u)
    weighted = np.power(-interior, exponent) * lap.interior
    return GridField.from_interior(u.grid, weighted, boundary=0.0)


def eigenvalue_test_function(
    u: GridField, beta: float, eps: float, a: float
) -> tuple[GridField, tuple[int, ...]]:
    """The weighted top-eigenvalue diagnostic
        lam_1 * (-u)^beta * exp(eps/2 |Du|^2 + a/2 |x|^2)
    evaluated node-wise; returns the field and its interior argmax."""
    interior = _require_nonpositive(u)
    grid = u.grid
    lams, _ = eigh_batch(hessian_field_array(u).reshape(-1, grid.dim, grid.dim))
    lam1 = lams[:, 0].reshape(grid.shape)
    grad2 = (gradient_field_array(u) ** 2).sum(axis=-1)
    x2 = (grid.points() ** 2).sum(axis=-1)
    phi = lam1 * np.power(-interior, beta) * np.exp(0.5 * eps * grad2 + 0.5 * a * x2)
    argmax = np.unravel_index(int(np.argmax(phi)), grid.shape)
    return GridField.from_interior(grid, phi, boundary=0.0), tuple(int(i) for i in argmax)


class LogPowerResult(NamedTuple):
    field: GridField
    argmax: tuple[int, ...]
    flagged: list[tuple[int, ...]]
    k0: float


def log_power_test_function(
    u: GridField, op: SumHessianOp, m: int, big_n: float, f_sup: float
) -> LogPowerResult:
    """The shifted-eigenvalue diagnostic
        m log(-u) + log(sum_j kap_j^m) + m*N/2 |Du|^2,
    with kap_j = lam_j + K0 and K0 = n (f_sup / alpha)^{1/(k-1)}.

    Nodes where some kap_j dips below -tol are flagged (the cap bound
    guarantees kap_j >= 0 for spectra under it), never silently clamped;
    flagged nodes are excluded from the argmax.  Requires u < 0 strictly
    on the interior and k >= 2 (K0 is undefined for k = 1).
    """
    if op.k < 2:
        raise ValueError("the shift K0 needs k >= 2")
    if m < 1:
        raise ValueError("m must be a positive integer")
    interior = _require_nonpositive(u)
    if (interior == 0).any():
        raise DomainError("log(-u) needs u < 0 strictly on the interior")
    grid = u.grid
    k0 = op.n * (f_sup / op.alpha) ** (1.0 / (op.k - 1))
    lams, _ = eigh_batch(hessian_field_array(u).reshape(-1, grid.dim, grid.dim))
    kap = lams.reshape(grid.shape + (grid.dim,)) + k0
    tol = 1e-9 * (1.0 + k0)
    flag_mask = (kap < -tol).any(axis=-1)
    p_m = (kap**m).sum(axis=-1)
    grad2 = (gradient_field_array(u) ** 2).sum(axis=-1)
    phi = m * np.log(-interior) + np.log(np.maximum(p_m, 1e-300)) + 0.5 * m * big_n * grad2
    masked = np.where(flag_mask, -np.inf, phi)
    argmax = np.unravel_index(int(np.argmax(masked)), grid.shape)
    flagged = [tuple(int(i) for i in idx) for idx in np.argwhere(flag_mask)]
    field_ = GridField.from_interior(grid, phi, boundary=0.0)
    return LogPowerResult(field_, tuple(int(i) for i in argmax), flagged, k0)


def rhs_gradient_convexity_probe(
    spec: ProblemSpec,
    rng: np.random.Generator,
    samples: int = 200,
    radius: float = 3.0,
) -> float:
    """Worst midpoint-convexity margin of f^{1/k} in the gradient slot.

    The near-linear weight exponent relies on f^{1/k}(x, u, .) being
    convex; that is the caller's declaration, and this probe only spot
    checks it: for random interior points and gradient pairs it returns
    min of (f^{1/k}(p1) + f^{1/k}(p2))/2 - f^{1/k}((p1+p2)/2).  A
    clearly negative value disproves the declaration.
    """
    k = spec.op.k
    x = spec.grid.interior_points_flat()
    idx = rng.integers(0, len(x), size=samples)
    pts = x[idx]
    u = np.zeros(samples)
    p1 = rng.uniform(-radius, radius, size=(samples, spec.grid.dim))
    p2 = rng.uniform(-radius, radius, size=(samples, spec.grid.dim))

    def root(p):
        vals = np.asarray(spec.rhs(pts, u, p), dtype=float)
        if (vals <= 0).any():
            raise DomainError("rhs must stay positive on the probed set")
        return vals ** (1.0 / k)

    margin = 0.5 * (root(p1) + root(p2)) - root(0.5 * (p1 + p2))
    return float(margin.min())


def _core_supremum(q: GridField) -> tuple[float, tuple[int, ...]]:
    """Supremum over interior nodes at distance >= 2h from the boundary."""
    vals = q.interior
    core = vals[tuple(slice(1, -1) for _ in vals.shape)]
    flat = int(np.argmax(core))
    idx = np.unravel_index(flat, core.shape)
    return float(core[idx]), tuple(int(i) + 1 for i in idx)


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

    The prolonged coarse solution is not used as a start: it lacks the
    fine grid's corner boundary layer and breaches the cone there, and
    the blends that repair it saved at most one Newton iteration."""
    reports = [EstimateReport(quantity_tag(e), float(e)) for e in exponents]
    grid = spec.grid
    for level in range(levels):
        result = solve(replace(spec, grid=grid), config)
        if not result.converged:
            raise SolveFailure(level, result.status, result.message)
        u = result.final_field
        for report in reports:
            q = pogorelov_quantity(u, report.beta_or_delta)
            sup_core, arg_core = _core_supremum(q)
            full_idx = np.unravel_index(int(np.argmax(q.interior)), grid.shape)
            report.per_refinement.append(
                {
                    "h": list(grid.h),
                    "sup": sup_core,
                    "argmax": [int(i) for i in arg_core],
                    "sup_full_interior": float(q.interior.max()),
                    "argmax_full_interior": [int(i) for i in full_idx],
                    "newton_iterations": result.iterations,
                }
            )
        grid = grid.refine()
    for report in reports:
        sups = [entry["sup"] for entry in report.per_refinement]
        if len(sups) >= 2:
            a, b = sups[-2], sups[-1]
            report.stable = bool(abs(a - b) <= STABILITY_RTOL * max(abs(a), abs(b), 1e-300))
    return reports
