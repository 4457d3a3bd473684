"""Membership tests for the Garding cone and the admissible cone.

Gamma_k is the open cone {lam : sigma_m(lam) > 0, m = 1..k}.  The
admissible set of the sum operator is

    GammaTilde_k = Gamma_{k-1} intersect {S_k > 0}
                 = {lam : S_m(lam) > 0, m = 1..k},

where the second form is the working characterization used everywhere
in this package.  The cones are open: the samplers and the solver test
strict positivity.  Only in_gamma_k and in_gamma_tilde_k (and through
in_gamma_k the capped-family sweep, whose spectra come from root solves)
allow a relative slack: a margin passes when it exceeds
-DEFAULT_TOL * (1 + max |margin|) of its own spectrum.
"""

from __future__ import annotations

import numpy as np

from .symfun import SumHessianOp, _as_array, s_from_sigma, sigma_all

DEFAULT_TOL = 1e-12


def _members(margins: np.ndarray) -> np.ndarray:
    """Per-spectrum membership for margins of shape (..., m): each margin
    exceeds -DEFAULT_TOL * (1 + max |margin|) of its own spectrum."""
    scale = 1.0 + np.abs(margins).max(axis=-1, keepdims=True)
    return (margins > -DEFAULT_TOL * scale).all(axis=-1)


def gamma_k_margins(lam, k: int) -> np.ndarray:
    """sigma_1..sigma_k of lam, shape (..., k)."""
    arr = _as_array(lam)
    if not 1 <= k <= arr.shape[-1]:
        raise ValueError(f"order k={k} out of range for n={arr.shape[-1]}")
    return sigma_all(arr, k)[..., 1:]


def gamma_tilde_margins(op: SumHessianOp, lam) -> np.ndarray:
    """S_1..S_k of lam, shape (..., k)."""
    return s_from_sigma(sigma_all(lam, op.k), op.alpha)


def in_gamma_k(lam, k: int) -> np.ndarray:
    """Garding cone test, sigma_m(lam) > 0 for m = 1..k: one boolean per spectrum."""
    return _members(gamma_k_margins(lam, k))


def in_gamma_tilde_k(op: SumHessianOp, lam) -> np.ndarray:
    """Admissible cone test, S_m(lam) > 0 for m = 1..k: one boolean per spectrum."""
    return _members(gamma_tilde_margins(op, lam))


def _sample_cone_array(
    n: int,
    count: int,
    radius: float,
    rng: np.random.Generator,
    margins_fn,
) -> np.ndarray:
    """Rejection sampling in batches of 4096 draws; every cone here holds
    the positive orthant, so at least 2^-n of the draws are kept."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    accepted: list[np.ndarray] = []
    total_kept = 0
    while total_kept < count:
        pts = rng.uniform(-radius, radius, size=(4096, n))
        accepted.append(pts[(margins_fn(pts) > 0).all(axis=-1)])
        total_kept += len(accepted[-1])
    return np.concatenate(accepted)[:count]


def sample_cone_array(
    op: SumHessianOp, count: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """`count` spectra in the admissible cone, shape (count, n), by
    rejection sampling on the box [-radius, radius]^n.  Deterministic for
    a seeded generator."""
    return _sample_cone_array(op.n, count, radius, rng, lambda pts: gamma_tilde_margins(op, pts))


def sample_gamma_k_array(
    n: int, k: int, count: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Like sample_cone_array but for the Garding cone Gamma_k."""
    return _sample_cone_array(n, count, radius, rng, lambda pts: gamma_k_margins(pts, k))
