"""Scaling construction, quadratic-solution classification, quadratic
growth checks, and the explicit non-polynomial entire solution.

The rigidity statement itself (entire admissible solutions of
S_k(D^2 u) = 1 with quadratic growth are quadratic polynomials) is not
machine-checkable; this module implements its verifiable shell: the
scaling transform and its Hessian invariance, the growth condition as a
concrete fit over sampled spheres, the classification of quadratic
candidates, and an exact check of the known 1-convex non-polynomial
entire solution in three variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symfun import SumHessianOp, s_value


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

    def in_domain(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return np.asarray(self.u(self.R * y), dtype=float) <= self.R**2


def _unit_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic, roughly equidistributed unit vectors."""
    if dim == 2:
        ang = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if dim == 3:
        # golden-spiral points on the sphere
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + 5.0**0.5) * i
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
        )
    vecs = np.random.default_rng(0).normal(size=(count, dim))
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def growth_check(
    u, radii, c_min: float, dim: int, directions: int = 64
) -> tuple[float, float, bool]:
    """Fit the tightest minorant u(x) >= c|x|^2 - b over sampled spheres.

    For each radius the infimum of u over `directions` unit directions is
    taken; c is the smallest secant slope of these minima against |x|^2
    over the outer half of the radii (the growth condition only
    constrains large |x|), and b is the smallest constant making the
    minorant valid on every sampled sphere.  Passes iff c >= c_min.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    if (np.diff(radii) <= 0).any():
        raise ValueError("radii must be strictly increasing")
    dirs = _unit_directions(dim, directions)
    mins = np.array([np.min(np.asarray(u(r * dirs), dtype=float)) for r in radii])
    s = radii**2
    secants = np.diff(mins) / np.diff(s)
    tail = secants[max(0, (len(secants) - 1) // 2) :]
    c_fit = float(tail.min())
    b_fit = float(np.max(c_fit * s - mins))
    slack = 1e-12 * (1.0 + abs(c_min))
    return c_fit, b_fit, bool(c_fit >= c_min - slack)


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


def entire_solution_residual(x, y, t) -> tuple[np.ndarray, np.ndarray]:
    """(|sigma_2 + sigma_1 - 1|, sigma_1) of the analytic Hessian at
    (x, y, t); the second value certifies 1-convexity pointwise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    e4t = np.exp(4.0 * t)
    p = (e4t - 1.0) / 2.0
    qx = 2.0 * e4t * x
    qy = 2.0 * e4t * y
    r = 4.0 * e4t * (x * x + y * y) + (7.0 / e4t - e4t - 2.0) / 4.0
    sigma1 = 2.0 * p + r
    sigma2 = p * p + 2.0 * p * r - qx * qx - qy * qy
    return np.abs(sigma2 + sigma1 - 1.0), sigma1
