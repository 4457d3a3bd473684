"""Membership tests for the Garding cone and the admissible cone.

Gamma_k is the open cone {lam : sigma_m(lam) > 0, m = 1..k}.  The
admissible set of the sum operator is

    GammaTilde_k = Gamma_{k-1} intersect {S_k > 0}
                 = {lam : S_m(lam) > 0, m = 1..k},

where the second form is the working characterization used everywhere
in this package.  The cones are open, and grid spectra can sit very
close to their boundary during Newton iterations, so strict positivity
is tested with a relative slack: a margin passes when it exceeds
-tol * (1 + max |margin|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symfun import SumHessianOp, _as_array, s_value, sigma_all

DEFAULT_TOL = 1e-12
MAX_DRAWS = 1_000_000  # rejection draws before the positive-orthant fallback


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of a cone test: the tested margins and the slack used."""

    member: bool
    margins: tuple[float, ...]
    tolerance: float

    @property
    def worst(self) -> float:
        return min(self.margins)


def _verdict(margins: np.ndarray) -> ConeVerdict:
    scale = 1.0 + float(np.abs(margins).max())
    member = bool((margins > -DEFAULT_TOL * scale).all())
    return ConeVerdict(member, tuple(float(m) for m in margins), DEFAULT_TOL)


def gamma_k_margins(lam, k: int) -> np.ndarray:
    """sigma_1..sigma_k of lam, shape (..., k)."""
    arr = _as_array(lam)
    if not 1 <= k <= arr.shape[-1]:
        raise ValueError(f"order k={k} out of range for n={arr.shape[-1]}")
    return sigma_all(arr)[..., 1 : k + 1]


def gamma_tilde_margins(op: SumHessianOp, lam) -> np.ndarray:
    """S_1..S_k of lam, shape (..., k)."""
    arr = _as_array(lam)
    sig = sigma_all(arr)
    out = sig[..., 1 : op.k + 1].copy()
    out += op.alpha * sig[..., 0 : op.k]
    return out


def in_gamma_k(lam, k: int) -> ConeVerdict:
    """Garding cone test: sigma_m(lam) > 0 for m = 1..k."""
    return _verdict(gamma_k_margins(lam, k))


def in_gamma_tilde_k(op: SumHessianOp, lam) -> ConeVerdict:
    """Admissible cone test: S_m(lam) > 0 for m = 1..k."""
    return _verdict(gamma_tilde_margins(op, lam))


def equivalence_check(op: SumHessianOp, lam) -> bool:
    """True iff the two characterizations of the admissible cone agree
    on lam: (Gamma_{k-1} and S_k > 0)  <=>  (S_m > 0 for m = 1..k)."""
    arr = _as_array(lam)
    via_gamma = True
    if op.k > 1:
        via_gamma = in_gamma_k(arr, op.k - 1).member
    sk = float(s_value(arr, op.k, op.alpha))
    route_a = via_gamma and sk > -DEFAULT_TOL * (1.0 + abs(sk))
    route_b = in_gamma_tilde_k(op, arr).member
    return route_a == route_b


def _fallback_positive(n: int, count: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Positive-orthant samples, mildly perturbed.  The orthant lies in
    every admissible cone, so this always makes progress."""
    base = rng.uniform(0.05 * radius, radius, size=(count, n))
    jitter = rng.uniform(-0.02 * radius, 0.02 * radius, size=(count, n))
    return np.maximum(base + jitter, 0.01 * radius)


def _sample_cone_array(
    n: int,
    count: int,
    radius: float,
    rng: np.random.Generator,
    margins_fn,
) -> np.ndarray:
    accepted: list[np.ndarray] = []
    total_kept = 0
    drawn = 0
    batch = 4096
    while total_kept < count:
        if drawn < MAX_DRAWS:
            pts = rng.uniform(-radius, radius, size=(batch, n))
            drawn += batch
        else:
            pts = _fallback_positive(n, count - total_kept, radius, rng)
        keep = (margins_fn(pts) > 0).all(axis=-1)
        kept = pts[keep]
        if kept.size:
            accepted.append(kept)
            total_kept += len(kept)
    return np.concatenate(accepted)[:count]


def sample_cone_array(
    op: SumHessianOp, count: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """`count` spectra in the admissible cone, shape (count, n).

    Rejection sampling on the box [-radius, radius]^n; if MAX_DRAWS draws
    fall short of `count`, the rest come from the (always admissible)
    positive orthant.  Deterministic for a seeded generator.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _sample_cone_array(
        op.n, count, radius, rng, lambda pts: gamma_tilde_margins(op, pts)
    )


def sample_gamma_k_array(
    n: int, k: int, count: int, radius: float, rng: np.random.Generator
) -> np.ndarray:
    """Like sample_cone_array but for the Garding cone Gamma_k."""
    if k == 0:
        return rng.uniform(-radius, radius, size=(count, n))
    return _sample_cone_array(n, count, radius, rng, lambda pts: gamma_k_margins(pts, k))

