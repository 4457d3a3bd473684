"""Elementary symmetric polynomials and the Sum Hessian operator.

The operator of interest acts on an eigenvalue vector lam in R^n as

    S_k(lam) = sigma_k(lam) + alpha * sigma_{k-1}(lam),    alpha > 0,

where sigma_j is the j-th elementary symmetric polynomial.  Everything
here is a pure function; all evaluators accept a trailing axis of
eigenvalues, so they broadcast over batches of spectra; sigma_all_matrix
and s_tensor take the grid solver's node Hessians instead.

Boundary conventions, forced by the classical deletion identities:
sigma_j = 0 for j < 0 and for j > (number of entries); sigma_0 = 1.
sigma_all applies the zeros past the vector, s_value those below 0, and
bisect_roots is the one root rule (isotropic level, capped family).
Deleted polynomials sigma_j(lam|p), sigma_j(lam|pq) are computed by
re-running the coefficient recurrence on the reduced vector.  Dividing
the characteristic coefficients by (1 + t*lam_p) is cheaper but unstable
when lam_p is close to zero, so it is never done here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_DIM = 16


@dataclass(frozen=True)
class SumHessianOp:
    """The triple (n, k, alpha) defining S_k = sigma_k + alpha*sigma_{k-1}."""

    n: int
    k: int
    alpha: float

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"order k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")


def _as_array(lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] > MAX_DIM:
        raise ValueError(f"spectrum length exceeds {MAX_DIM}")
    return arr


def sigma_all(lam, order: int | None = None) -> np.ndarray:
    """[sigma_0, ..., sigma_order] of lam, shape (..., order+1), order n when
    None, at least 0: the recurrence of prod_i (1 + t*lam_i) stops at
    t^order, so callers skip the orders they do not read, and sigma_j = 0
    for n < j <= order.  Each sigma_j is one contiguous row of an
    (order+1, ...) buffer, so every update and the callers' reductions over
    the last axis of the returned view run on whole batch rows."""
    arr = _as_array(lam)
    n = arr.shape[-1]
    order = n if order is None else max(0, order)
    buf = np.zeros((order + 1,) + arr.shape[:-1])
    buf[0] = 1.0
    for i in range(n):
        li = arr[..., i]
        for j in range(min(i + 1, order), 0, -1):
            buf[j] += li * buf[j - 1]
    return np.moveaxis(buf, 0, -1)


def s_from_sigma(sig: np.ndarray, alpha: float) -> np.ndarray:
    """S_1..S_m, S_j = sigma_j + alpha*sigma_{j-1}, from sig = sigma_0..sigma_m on the last axis."""
    return sig[..., 1:] + alpha * sig[..., :-1]


def _deleted(arr: np.ndarray, drops: Sequence[Sequence[int]]) -> np.ndarray:
    """arr with the indices of each tuple in `drops` removed, order kept,
    stacked by one gather: shape (..., len(drops), n - len(drops[0]))."""
    n = arr.shape[-1]
    return arr[..., np.array([[i for i in range(n) if i not in d] for d in drops], dtype=int)]


def s_value(lam, m: int, alpha: float) -> np.ndarray | float:
    """sigma_m + alpha*sigma_{m-1} from one coefficient pass, with
    sigma_{j<0} = 0 (sigma_all gives sigma_{j>n} = 0).  alpha=0 gives plain sigma_m."""
    arr = _as_array(lam)
    sig = sigma_all(arr, m)
    val = sig[..., m] if m >= 0 else np.zeros(arr.shape[:-1])
    if alpha != 0.0 and m >= 1:
        val = val + alpha * sig[..., m - 1]
    return float(val) if val.ndim == 0 else val


def s_gradient(lam, k: int, alpha: float) -> np.ndarray:
    """Eigenvalue gradient: component p is S_{k-1}(lam|p).  Shape (..., n)."""
    arr = _as_array(lam)
    return s_value(_deleted(arr, [(p,) for p in range(arr.shape[-1])]), k - 1, alpha)


def s_hessian(lam, k: int, alpha: float) -> np.ndarray:
    """Eigenvalue Hessian: entry (p, q) is S_{k-2}(lam|pq) for p != q,
    zero on the diagonal.  Shape (..., n, n)."""
    arr = _as_array(lam)
    n = arr.shape[-1]
    out = np.zeros(arr.shape[:-1] + (n, n), dtype=float)
    if n > 1:
        p, q = np.triu_indices(n, 1)
        vals = s_value(_deleted(arr, list(zip(p, q))), k - 2, alpha)
        out[..., p, q] = vals
        out[..., q, p] = vals
    return out


def bisect_roots(gap, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where gap (array of points -> values) turns nonnegative, in every
    bracket at once: negative at lo, nonnegative at hi.  Each bracket is
    halved until its ends are adjacent floats and its last midpoint, which
    rounds to one of them, is returned; halving a converged bracket again
    while others go on collapses it onto that midpoint."""
    while True:
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            return mid
        below = gap(mid) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)


def _adjugate3(H: np.ndarray) -> np.ndarray:
    """adj H of a batch of 3x3 matrices, entry by entry: (adj H)_ji is the
    cofactor of H_ij, a 2x2 determinant of cyclically following entries."""
    adj = np.empty(H.shape)
    for i, j in np.ndindex(3, 3):
        i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
        adj[..., j, i] = H[..., i1, j1] * H[..., i2, j2] - H[..., i1, j2] * H[..., i2, j1]
    return adj


def sigma_all_matrix(H: np.ndarray) -> np.ndarray:
    """[sigma_0, ..., sigma_n] of the spectra of symmetric 2x2 or 3x3 H, shape
    (..., n+1), from the sums of principal minors: tr H, tr adj H, det H.
    The traces are sums from 0, as np.trace's, so a diagonal of -0.0 gives +0.0."""
    n = H.shape[-1]
    sig = [np.ones(H.shape[:-2]), sum(H[..., a, a] for a in range(n))]
    if n == 2:
        return np.stack(sig + [H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 0, 1]], axis=-1)
    adj = _adjugate3(H)
    det = (H[..., 0, :] * adj[..., :, 0]).sum(axis=-1)  # Laplace expansion along row 0
    return np.stack(sig + [sum(adj[..., a, a] for a in range(n)), det], axis=-1)


def s_tensor(H: np.ndarray, sig: np.ndarray, k: int, alpha: float) -> np.ndarray:
    """dS_k/dH = T_{k-1}(H) + alpha*T_{k-2}(H), sig = sigma_all_matrix(H), from
    the Newton tensors T_0 = I, T_1 = sigma_1 I - H, T_2 = adj H (n = 3;
    Reilly, 1973): s_gradient of the spectrum on H's eigenvectors."""
    eye = np.eye(H.shape[-1])
    tensors = [0.0, eye, sig[..., 1, None, None] * eye - H]  # T_{-1}, T_0, T_1
    if k == 3:
        tensors.append(_adjugate3(H))
    return np.broadcast_to(tensors[k] + alpha * tensors[k - 1], H.shape)


def identity_residuals(op: SumHessianOp, lam) -> np.ndarray:
    """Absolute residuals of the three deletion identities.

    (iii)  S_k = lam_i*S_{k-1}(lam|i) + S_k(lam|i)          (max over i)
    (iv)   sum_i S_k(lam|i) = (n-k)*S_k + alpha*sigma_{k-1}
    (v)    sum_i lam_i*S_{k-1}(lam|i) = k*S_k - alpha*sigma_{k-1}

    Returns shape (..., 3).  Used only by tests and the CLI suite.
    """
    arr = _as_array(lam)
    n, k, alpha = arr.shape[-1], op.k, op.alpha
    sk = s_value(arr, k, alpha)
    sk1 = s_value(arr, k - 1, 0.0)
    grad = s_gradient(arr, k, alpha)  # S_{k-1}(lam|i)
    deleted_k = s_value(_deleted(arr, [(i,) for i in range(n)]), k, alpha)
    r3 = np.abs(arr * grad + deleted_k - np.asarray(sk)[..., None]).max(axis=-1)
    r4 = np.abs(deleted_k.sum(axis=-1) - ((n - k) * sk + alpha * sk1))
    r5 = np.abs((arr * grad).sum(axis=-1) - (k * sk - alpha * sk1))
    return np.stack([np.asarray(r3), np.asarray(r4), np.asarray(r5)], axis=-1)
