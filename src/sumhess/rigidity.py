"""Scaling construction, quadratic-solution classification, and the
explicit non-polynomial entire solution.

The rigidity statement itself (entire admissible solutions of
S_k(D^2 u) = 1 with quadratic growth are quadratic polynomials) is not
machine-checkable; this module implements its verifiable shell: the
scaling transform and its Hessian invariance, the classification of
quadratic candidates, and an exact check of the known 1-convex
non-polynomial entire solution in three variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symfun import SumHessianOp, s_value, sigma_all_matrix


@dataclass(frozen=True)
class QuadraticCandidate:
    """u(x) = x.A.x/2 + b0.x + c0 with symmetric A."""

    A: np.ndarray
    b0: np.ndarray | None = None
    c0: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be a square matrix")
        if np.abs(A - A.T).max() > 1e-12 * (1.0 + np.abs(A).max()):
            raise ValueError("A must be symmetric")
        object.__setattr__(self, "A", A)
        b0 = np.zeros(A.shape[0]) if self.b0 is None else np.asarray(self.b0, dtype=float)
        object.__setattr__(self, "b0", b0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.A)[::-1]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, self.A, x) + x @ self.b0 + self.c0


def quadratic_residual(op: SumHessianOp, q: QuadraticCandidate) -> float:
    """|S_k(spectrum(A)) - 1|: zero exactly when the quadratic solves the
    unit equation S_k(D^2 u) = 1."""
    if q.n != op.n:
        raise ValueError(f"candidate dimension {q.n} does not match operator {op.n}")
    return abs(float(s_value(q.spectrum(), op.k, op.alpha)) - 1.0)


class ScaledField:
    """v(y) = (u(R y) - R^2) / R^2 on the sublevel set {u(R y) <= R^2}.

    The chain rule gives D^2 v(y) = D^2 u(R y), so the operator value is
    invariant under the transform; discrete Hessians inherit this
    exactly on aligned grids (the v stencil with spacing h reproduces
    the u stencil with spacing R h)."""

    def __init__(self, u, R: float):
        if not R > 1:
            raise ValueError("R must exceed 1")
        self.u = u
        self.R = float(R)

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return (np.asarray(self.u(self.R * y), dtype=float) - self.R**2) / self.R**2


# ---------------------------------------------------------------------------
# the explicit non-polynomial entire solution (three variables, k = 2,
# alpha = 1): 1-convex, solves sigma_2 + sigma_1 = 1
# ---------------------------------------------------------------------------

def entire_solution(points) -> np.ndarray:
    """u(x, y, t) = (e^{4t}-1)/4 (x^2+y^2)
                    + (7 e^{-4t}/4 - e^{4t}/4 - 4 t^2)/16
    for points of shape (..., 3)."""
    pts = np.asarray(points, dtype=float)
    x, y, t = pts[..., 0], pts[..., 1], pts[..., 2]
    e4t = np.exp(4.0 * t)
    return (e4t - 1.0) / 4.0 * (x * x + y * y) + (
        7.0 / (4.0 * e4t) - e4t / 4.0 - 4.0 * t * t
    ) / 16.0


def entire_solution_hessian(points) -> np.ndarray:
    """Closed-form Hessian of the entire solution, shape (..., 3, 3):

        u_xx = u_yy = (e^{4t}-1)/2,  u_xy = 0,
        u_xt = 2 e^{4t} x,  u_yt = 2 e^{4t} y,
        u_tt = 4 e^{4t}(x^2+y^2) + (7 e^{-4t} - e^{4t} - 2)/4.
    """
    pts = np.asarray(points, dtype=float)
    x, y, t = pts[..., 0], pts[..., 1], pts[..., 2]
    e4t = np.exp(4.0 * t)
    H = np.zeros(pts.shape[:-1] + (3, 3))
    H[..., 0, 0] = H[..., 1, 1] = (e4t - 1.0) / 2.0
    H[..., 0, 2] = H[..., 2, 0] = 2.0 * e4t * x
    H[..., 1, 2] = H[..., 2, 1] = 2.0 * e4t * y
    H[..., 2, 2] = 4.0 * e4t * (x * x + y * y) + (7.0 / e4t - e4t - 2.0) / 4.0
    return H


def entire_solution_residual(points) -> tuple[np.ndarray, np.ndarray]:
    """(|sigma_2 + sigma_1 - 1|, sigma_1) of the analytic Hessian at
    points of shape (..., 3); the second value certifies 1-convexity
    pointwise."""
    sig = sigma_all_matrix(entire_solution_hessian(points))
    return np.abs(sig[..., 2] + sig[..., 1] - 1.0), sig[..., 1]
