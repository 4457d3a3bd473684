"""Executable oracles for the inequality toolbox of the sum operator.

Every margin kernel returns normalized margins: LHS - RHS of one
inequality (positive means it holds) over 1 + (sum of magnitudes of the
additive terms on both sides), so one tolerance is meaningful across
wildly different eigenvalue magnitudes and cancellation inside a tight
inequality cannot masquerade as a violation; a kernel for several
inequalities returns their minimum, or one column each where the sweep
reads them apart (_partial_product_batch, one per order).

The randomized sweep drivers at the bottom run each inequality over the
fixed operator table OPERATORS and turn the margins into InequalityReport
records, the backbone of the property tests and of the `identities` CLI
subcommand.

Conditional inequalities (those holding only for a sufficiently large
top eigenvalue) are never asserted pointwise; an empirical threshold is
searched and reported instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import (
    gamma_tilde_margins,
    in_gamma_k,
    sample_cone_array,
    sample_gamma_k_array,
)
from .symfun import SumHessianOp, bisect_roots, s_from_sigma, s_gradient, s_hessian, sigma_all

SWEEP_TOL = 1e-9
WITNESSES = 5  # worst samples kept per report
GAP_TOL = 1e-6  # smallest eigenvalue gap the directional derivative accepts
CAPPED_TAILS = 6  # Gamma_{k-1} tails of the capped threshold search
CAPPED_N0 = 10.0  # operator cap S_k <= N0 of the capped threshold search
CAPPED_EPS0 = 0.1  # eps0 of the conditional top bound S_k >= (1-eps0) lam_1 S^{11}
# the swept operators: n = 2..6, every order k, alpha in (0.1, 1, 10)
OPERATORS = tuple(
    SumHessianOp(n, k, alpha) for n in range(2, 7) for k in range(1, n + 1) for alpha in (0.1, 1.0, 10.0)
)


@dataclass
class InequalityReport:
    """Sweep outcome for one inequality: worst normalized margin seen,
    sample count, and up to five witnesses achieving the worst margins."""

    name: str
    samples: int
    worst_margin: float
    tolerance: float
    passed: bool
    witnesses: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


class _WorstTracker:
    """Keeps the WITNESSES smallest margins of one sweep and turns them into
    its InequalityReport.  Ties resolve to the earliest sample index.  A
    non-finite margin (NaN or +-inf) ranks below every finite one, so a
    broken evaluation is never hidden behind a passing worst margin.

    A kept sample j becomes the witness {n, k, alpha, lam, margin}: the
    operator's triple, lam[j] and margins[j], plus one entry per keyword
    field of add_batch, where an ndarray gives its row j as a list, None is
    left out and any other value is kept as given."""

    def __init__(self):
        self.items: list[tuple[float, int, dict]] = []  # rank, index, witness
        self.count = 0

    def add_batch(self, margins: np.ndarray, op: SumHessianOp, lam: np.ndarray, **fields):
        ranks = np.where(np.isfinite(margins), margins, -np.inf)
        for j in np.argsort(ranks, kind="stable")[:WITNESSES]:
            j = int(j)
            witness = {"n": op.n, "k": op.k, "alpha": op.alpha, "lam": lam[j].tolist()}
            for key, val in fields.items():
                if val is not None:
                    witness[key] = val[j].tolist() if isinstance(val, np.ndarray) else val
            witness["margin"] = float(margins[j])
            self.items.append((ranks[j], self.count + j, witness))
        self.count += len(margins)
        self.items.sort(key=lambda t: (t[0], t[1]))
        del self.items[WITNESSES:]

    def report(self, name: str, extras: dict | None = None) -> InequalityReport:
        """The sweep's report: it passes when no sample was drawn or the
        worst margin is finite and at least -SWEEP_TOL."""
        worst = self.items[0][2]["margin"] if self.items else math.inf
        return InequalityReport(
            name=name,
            samples=self.count,
            worst_margin=worst,
            tolerance=SWEEP_TOL,
            passed=not self.count or (math.isfinite(worst) and worst >= -SWEEP_TOL),
            witnesses=[w for _, _, w in self.items],
            extras=extras or {},
        )


# ---------------------------------------------------------------------------
# quotient concavity (second-derivative form)
# ---------------------------------------------------------------------------

def _quotient_concavity_batch(op, l, lams, ws, split_deltas):
    """Normalized margins of the quotient-concavity quadratic-form
    inequality, batched over rows of lams/ws, one array per entry of
    split_deltas (None: the plain form), from one pass over S_k and S_l.

    With theta = 1/(k-l), dotS_m = sum_p S_m^{pp} w_p and
    ddS_m = sum_{pq} S_m^{pp,qq} w_p w_q:

    plain form:
        -ddS_k/S_k + ddS_l/S_l
            >= (x - y) * ((theta-1)x - (theta+1)y),
        x = dotS_k/S_k, y = dotS_l/S_l.

    split form (parameter 0 < delta < 1, from Young's inequality):
        -ddS_k + (1 - theta + theta/delta) * dotS_k^2/S_k
            >= S_k (theta + 1 - delta*theta) y^2 - (S_k/S_l) ddS_l.
    """
    k, alpha = op.k, op.alpha
    theta = 1.0 / (k - l)
    S = gamma_tilde_margins(op, lams)
    sk, sl = S[..., k - 1], S[..., l - 1]
    ddk = np.einsum("...pq,...p,...q->...", s_hessian(lams, k, alpha), ws, ws)
    ddl = np.einsum("...pq,...p,...q->...", s_hessian(lams, l, alpha), ws, ws)
    dotk = (s_gradient(lams, k, alpha) * ws).sum(axis=-1)
    dotl = (s_gradient(lams, l, alpha) * ws).sum(axis=-1)
    x = dotk / sk
    y = dotl / sl
    for d in split_deltas:
        if d is None:
            lhs = -ddk / sk + ddl / sl
            rhs = (x - y) * ((theta - 1.0) * x - (theta + 1.0) * y)
            scale = (
                np.abs(ddk / sk)
                + np.abs(ddl / sl)
                + (abs(theta - 1.0) + theta + 1.0) * (x * x + y * y + np.abs(x * y))
            )
        else:
            lhs = -ddk + (1.0 - theta + theta / d) * dotk * dotk / sk
            rhs = sk * (theta + 1.0 - d * theta) * y * y - (sk / sl) * ddl
            scale = (
                np.abs(ddk)
                + abs(1.0 - theta + theta / d) * dotk * dotk / sk
                + sk * (theta + 1.0 - d * theta) * y * y
                + np.abs(sk / sl * ddl)
            )
        yield (lhs - rhs) / (1.0 + scale)


# ---------------------------------------------------------------------------
# second derivative of a symmetric matrix function in a direction
# ---------------------------------------------------------------------------

def directional_second_derivative(k: int, alpha: float, A, B) -> float:
    """Second derivative of t -> f(eigenvalues(A + t B)) at t = 0, with
    f = sigma_k + alpha*sigma_{k-1} (alpha = 0 gives plain sigma_k), for a
    diagonal A with distinct eigenvalues:

        sum_{jk} f''[j,k] B_jj B_kk
            + 2 sum_{j<k} (f'[j] - f'[k]) / (kap_j - kap_k) * B_jk^2.

    The difference quotient has a removable singularity at equal
    eigenvalues which is deliberately not regularized here: a gap below
    GAP_TOL raises ValueError, like every other bad argument.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise ValueError("A and B must be square matrices of the same size")
    off = A - np.diag(np.diag(A))
    if np.abs(off).max() > 1e-12 * (1.0 + np.abs(A).max()):
        raise ValueError("A must be diagonal")
    if np.abs(B - B.T).max() > 1e-12 * (1.0 + np.abs(B).max()):
        raise ValueError("B must be symmetric")
    kap = np.diag(A)
    gaps = np.abs(kap[:, None] - kap[None, :])[~np.eye(n, dtype=bool)]
    if gaps.size and gaps.min() < GAP_TOL:
        raise ValueError(f"eigenvalue gap {gaps.min():.3e} below threshold {GAP_TOL:.0e}")
    f1 = s_gradient(kap, k, alpha)
    f2 = s_hessian(kap, k, alpha)
    bdiag = np.diag(B)
    total = float(bdiag @ f2 @ bdiag)
    for j in range(n):
        for m in range(j + 1, n):
            total += 2.0 * (f1[j] - f1[m]) / (kap[j] - kap[m]) * B[j, m] ** 2
    return total


# ---------------------------------------------------------------------------
# partial-product bound and the empirical top-share constant
# ---------------------------------------------------------------------------

def _partial_product_batch(op, lams):
    """Normalized margins, for s = 1..k-1, of
        S_s - (lam_1...lam_s + alpha*lam_1...lam_{s-1})
    on descending-sorted spectra, shape (..., k-1) with order s in column
    s-1, plus the empirical constant min_{j<=k-1} lam_j S_k^{jj} / S_k
    (needs k >= 2), from one sort and one pass over S_1..S_k.

    Every term is positive on the Garding cone Gamma_k; on the larger
    admissible cone only s <= k-2 is guaranteed, and s = k-1 can go
    negative (lam = (2, -0.2, -0.3), k = 2, alpha = 1: S_1 = 2.5 < 3)."""
    k, alpha = op.k, op.alpha
    lams = np.sort(np.asarray(lams, float), axis=-1)[..., ::-1]
    S = gamma_tilde_margins(op, lams)
    theta = (lams[..., : k - 1] * s_gradient(lams, k, alpha)[..., : k - 1]).min(axis=-1) / S[..., -1]
    prods = np.cumprod(lams[..., : k - 1], axis=-1)  # lam_1...lam_s at index s-1
    prev = np.concatenate([np.ones_like(prods[..., :1]), prods[..., :-1]], axis=-1)
    ss = S[..., : k - 1]
    scales = 1.0 + np.abs(ss) + np.abs(prods) + alpha * np.abs(prev)
    return (ss - (prods + alpha * prev)) / scales, theta


# ---------------------------------------------------------------------------
# Newton-type inequality for adjacent operator orders
# ---------------------------------------------------------------------------

def _s_newton_batch(op, lams):
    """(S_k^2 - S_{k-1} S_{k+1}) / (1 + S_k^2) from one sigma_all pass (so
    S_{n+1} = alpha*sigma_n), led by sigma_{-1} = 0, so S_0 = 1."""
    sig = np.pad(sigma_all(lams, op.k + 1), [(0, 0)] * (lams.ndim - 1) + [(1, 0)])
    skm, sk, skp = np.moveaxis(s_from_sigma(sig, op.alpha)[..., op.k - 1 :], -1, 0)  # S_{k-1}, S_k, S_{k+1}
    return (sk * sk - skm * skp) / (1.0 + sk * sk)


# ---------------------------------------------------------------------------
# classical Newton-Maclaurin consequences
# ---------------------------------------------------------------------------

def _newton_maclaurin_batch(lams, k):
    """The smaller normalized margin, on Gamma_k with k >= 2, of
        sigma_{k-1} >= sigma_1^{1/(k-1)} sigma_k^{(k-2)/(k-1)}  and
        sigma_k sigma_{k-1} >= sigma_{k-2} sigma_{k+1}."""
    sig = sigma_all(lams, k + 1)
    s1, skm2, skm1, sk, skp1 = sig[..., 1], sig[..., k - 2], sig[..., k - 1], sig[..., k], sig[..., k + 1]
    rhs1 = s1 ** (1.0 / (k - 1)) * sk ** ((k - 2.0) / (k - 1.0))
    m1 = (skm1 - rhs1) / (1.0 + np.abs(skm1) + np.abs(rhs1))
    m2 = (sk * skm1 - skm2 * skp1) / (1.0 + np.abs(sk * skm1) + np.abs(skm2 * skp1))
    return np.minimum(m1, m2)


# ---------------------------------------------------------------------------
# bounds under an operator cap S_k <= N0 (Garding-cone spectra)
# ---------------------------------------------------------------------------

def _capped_bounds_batch(op, lams, n0):
    """(unconditional, conditional) normalized minima for descending
    Gamma_k spectra with S_k <= n0, k >= 2.  With K0 = n*(n0/alpha)^{1/(k-1)},
    kap_i = lam_i + K0: cap (n0/alpha)^{1/(k-1)} - lam_{k-1}, floor
    lam_n + K0 and share min_i C0 S_k - lam_i S^{ii}, C0 = 2 + K0*binom(n,k)/alpha,
    hold unconditionally; weighted min_i 2 kap_1^{k+2} S^{11} - kap_i^{k+2} S^{ii}
    and top S_k - (1-CAPPED_EPS0) lam_1 S^{11} only for large lam_1."""
    n, k, alpha = op.n, op.k, op.alpha
    sk = gamma_tilde_margins(op, lams)[..., -1]
    grad = s_gradient(lams, k, alpha)
    n0 = np.broadcast_to(np.asarray(n0, float), sk.shape)
    k0 = n * (n0 / alpha) ** (1.0 / (k - 1))
    kap = lams + k0[..., None]
    cap = (n0 / alpha) ** (1.0 / (k - 1)) - lams[..., k - 2]
    cap = cap / (1.0 + np.abs(cap) + np.abs(lams[..., k - 2]))
    floor = (lams[..., -1] + k0) / (1.0 + k0 + np.abs(lams[..., -1]))
    lhs_w = 2.0 * kap[..., :1] ** (k + 2) * grad[..., :1]
    rhs_w = kap ** (k + 2) * grad
    weighted = (lhs_w - rhs_w).min(axis=-1) / (1.0 + np.abs(lhs_w[..., 0]) + np.abs(rhs_w).max(axis=-1))
    top_rhs = (1.0 - CAPPED_EPS0) * lams[..., 0] * grad[..., 0]
    top = (sk - top_rhs) / (1.0 + np.abs(sk) + np.abs(top_rhs))
    c0 = 2.0 + k0 * math.comb(n, k) / alpha
    share_rhs = lams * grad
    share = (c0[..., None] * sk[..., None] - share_rhs).min(axis=-1)
    share = share / (1.0 + np.abs(c0 * sk) + np.abs(share_rhs).max(axis=-1))
    return np.minimum(cap, np.minimum(floor, share)), np.minimum(weighted, top)


def _family_coefficients(op, lam1s, tail_sigma):
    """Coefficients (c_{k-2}, c_{k-1}, c_k) of S_k(L, s*nu) as a polynomial
    in s, for every top eigenvalue L in lam1s (rows) and every tail nu
    (columns) given by tail_sigma = [sig_0(nu), ..., sig_n(nu)]:

        S_k = s^k sig_k(nu) + (L+alpha) s^{k-1} sig_{k-1}(nu) + alpha L s^{k-2} sig_{k-2}(nu).
    """
    k, alpha = op.k, op.alpha
    ls = lam1s[:, None]
    coef = (alpha * ls * tail_sigma[:, k - 2], (ls + alpha) * tail_sigma[:, k - 1], tail_sigma[:, k])
    return tuple(np.broadcast_to(c, (len(ls), len(tail_sigma))) for c in coef)


def _family_gap(s, coef, k, target):
    """S_k(L, s*nu) - target from the _family_coefficients, s an array or a float."""
    c_lo, c_mid, c_hi = coef
    val = c_lo + s * (c_mid + s * c_hi)
    for _ in range(k - 2):
        val = val * s
    return val - target


def _capped_family_worst(op, n0, lam1s, tails, tail_sigma):
    """Worst conditional margin over the capped family at each top
    eigenvalue L in lam1s: spectra (L, s*nu), nu a row of tails, with s
    solved so that S_k = 0.9*n0.  +inf where no member is feasible.

    On the family S_k is a polynomial in s (see _family_coefficients;
    tail_sigma is sigma_all(tails, n), so sig_n = 0 on its n-1 entries),
    so every (L, nu) pair is bracketed in one array pass: s_hi is the first
    of 1e-3 * 2^j, j = 0..30, where the gap S_k - 0.9*n0 is nonnegative
    (else j = 30), and a pair is kept when the gap is negative at 1e-9 and
    nonnegative at s_hi.  The kept pairs' roots are bisected together by
    symfun.bisect_roots, the isotropic level's rule too.  The spectra whose
    top entry is still L and that lie in Gamma_k are scored in one batch.
    """
    k = op.k
    target = 0.9 * n0
    coef = _family_coefficients(op, lam1s, tail_sigma)
    s_grid = 1e-3 * 2.0 ** np.arange(31)
    below = _family_gap(s_grid, tuple(c[..., None] for c in coef), k, target) < 0
    s_hi = s_grid[np.where(below.all(axis=-1), 30, np.argmin(below, axis=-1))]
    keep = ~((_family_gap(1e-9, coef, k, target) >= 0) | (_family_gap(s_hi, coef, k, target) < 0))
    li, ti = np.nonzero(keep)
    gap = functools.partial(_family_gap, coef=tuple(c[keep] for c in coef), k=k, target=target)
    roots = bisect_roots(gap, np.full(len(li), 1e-9), s_hi[keep])
    specs = np.concatenate([lam1s[li, None], roots[:, None] * tails[ti]], axis=1)
    specs = np.sort(specs, axis=-1)[:, ::-1]
    ok = (specs[:, 0] == lam1s[li]) & in_gamma_k(specs, k)
    worst = np.full(len(lam1s), math.inf)
    np.minimum.at(worst, li[ok], _capped_bounds_batch(op, specs[ok], n0)[1])
    return worst


def capped_threshold_search(op: SumHessianOp, rng: np.random.Generator) -> dict:
    """Empirical threshold for the two conditional capped-spectrum bounds,
    at the cap N0 = CAPPED_N0 and eps0 = CAPPED_EPS0.

    Builds a family of Gamma_k spectra lam = (L, s*nu), the tail nu one of
    CAPPED_TAILS Gamma_{k-1} samples scaled so that S_k(lam) = 0.9*N0,
    then scans the top eigenvalue L over a geometric grid, one block of L
    values at a time.  On the family S_k is a polynomial in s, so each
    block brackets the scale of every (L, nu) pair in one array pass and
    bisects all bracketed pairs together (see _capped_family_worst).
    The scan stops after the first block whose largest feasible L
    passes, that is whose margin is at least -SWEEP_TOL.  lambda_star
    is the smallest probed L beyond which both conditional margins pass;
    nothing is asserted about it beyond finiteness.

    For k = 2 the cap itself bounds the top eigenvalue (alpha*lam_1 < S_2
    <= N0 on Gamma_2), so "lam_1 sufficiently large" can leave the
    feasible set entirely; in that case the conditional holds vacuously
    above the cap and lambda_star = N0/alpha is reported with
    vacuous = True.
    """
    n, k, alpha = op.n, op.k, op.alpha
    if k < 2:
        raise ValueError("threshold search needs k >= 2")
    target = 0.9 * CAPPED_N0
    tails = sample_gamma_k_array(n - 1, k - 1, CAPPED_TAILS, 1.0, rng)
    tail_sigma = sigma_all(tails, n)
    if k == 2:
        grids = [np.geomspace(0.02 * target / alpha, 0.98 * target / alpha, 12)]
    else:
        grids = [
            np.geomspace(0.5, 100.0, 8),
            np.geomspace(150.0, 1e4, 6),
            np.geomspace(2e4, 1e6, 4),
        ]
    probes = []
    for grid in grids:
        worst = _capped_family_worst(op, CAPPED_N0, grid, tails, tail_sigma)
        probes += [(float(l), float(w)) for l, w in zip(grid, worst) if w < math.inf]
        if probes and probes[-1][1] >= -SWEEP_TOL:
            break
    lambda_star = math.inf
    vacuous = False
    for lam1, worst in reversed(probes):
        if worst >= -SWEEP_TOL:
            lambda_star = lam1
        else:
            break
    if not math.isfinite(lambda_star) and k == 2:
        # every feasible member fails: the condition set above the cap is
        # empty, so the bounds hold vacuously there
        lambda_star = CAPPED_N0 / alpha
        vacuous = True
    return {"lambda_star": lambda_star, "finite": math.isfinite(lambda_star), "vacuous": vacuous,
            "probes": probes}


# ---------------------------------------------------------------------------
# midpoint concavity of S_k^{1/k} and (S_k/S_l)^{1/(k-l)}
# ---------------------------------------------------------------------------

def _concavity_values(op, S, l=None):
    """S_k^{1/k}, or (S_k/S_l)^{1/(k-l)} for an order l, from S = S_1..S_k."""
    k = op.k
    if l is None:
        return S[..., k - 1] ** (1.0 / k)
    return (S[..., k - 1] / S[..., l - 1]) ** (1.0 / (k - l))


# ---------------------------------------------------------------------------
# sweep drivers
# ---------------------------------------------------------------------------

def _report_quotient_concavity(samples, rng, split_deltas=None):
    name = "quotient_concavity" if split_deltas is None else "quotient_concavity_split"
    deltas = split_deltas or [None]
    tracker = _WorstTracker()
    for op in (op for op in OPERATORS if op.k >= 2):
        ells = list(range(1, op.k))
        per = max(1, samples // len(ells))
        for l in ells:
            lams = sample_cone_array(op, per, 5.0, rng)
            ws = rng.uniform(-1.0, 1.0, size=lams.shape)
            for delta, margin in zip(deltas, _quotient_concavity_batch(op, l, lams, ws, deltas)):
                tracker.add_batch(margin, op, lams, l=l, w=ws, delta=delta)
    extras = {} if split_deltas is None else {"deltas": list(split_deltas)}
    return tracker.report(name, extras)


def _report_cone_upgrade(samples, rng):
    """Inside the admissible cone at order k, positivity of S_{k+1}
    upgrades membership to order k+1; equivalently sigma_k > 0."""
    tracker = _WorstTracker()
    promoted_fail = 0
    for op in (op for op in OPERATORS if op.k < op.n):
        lams = sample_cone_array(op, samples, 5.0, rng)
        sig = sigma_all(lams, op.k + 1)
        mtilde = s_from_sigma(sig, op.alpha)  # S_1..S_{k+1}
        keep = mtilde[..., -1] > 0
        lams, mtilde, sig_k = lams[keep], mtilde[keep], sig[keep, op.k]
        if not len(lams):
            continue
        scale = 1.0 + np.abs(mtilde).max(axis=-1)
        promoted_fail += int((mtilde.min(axis=-1) < -SWEEP_TOL * scale).sum())
        tracker.add_batch(sig_k / (1.0 + np.abs(sig_k)), op, lams)
    return tracker.report("cone_upgrade", {"promotion_failures": promoted_fail})


def _report_partial_products(samples, rng):
    """Asserts the partial-product bound where it genuinely holds:
    s = 1..k-2 on admissible-cone samples and the full s = 1..k-1 on
    Garding-cone samples.  The s = k-1 term on merely admissible spectra
    is false in general (see _partial_product_batch); its observed
    worst margin is reported as a diagnostic instead of asserted."""
    tracker = _WorstTracker()
    thetas = {}
    boundary_worst = math.inf
    boundary_violations = 0
    for op in (op for op in OPERATORS if op.k >= 2):
        lams = sample_cone_array(op, samples, 5.0, rng)
        margins, theta = _partial_product_batch(op, lams)
        if op.k >= 3:
            tracker.add_batch(margins[..., :-1].min(axis=-1), op, lams)
        boundary_worst = min(boundary_worst, float(margins[..., -1].min()))
        boundary_violations += int((margins[..., -1] < -SWEEP_TOL).sum())
        thetas[f"n={op.n},k={op.k},alpha={op.alpha}"] = float(theta.min())
        glams = sample_gamma_k_array(op.n, op.k, samples, 5.0, rng)
        tracker.add_batch(_partial_product_batch(op, glams)[0].min(axis=-1), op, glams)
    extras = {
        "empirical_theta_min": thetas,
        "admissible_boundary_term": {
            "worst_margin": boundary_worst,
            "violations": boundary_violations,
            "note": "s = k-1 on admissible (non-Garding) spectra; diagnostic only",
        },
    }
    return tracker.report("partial_products", extras)


def _report_capped_bounds(samples, rng):
    """Unconditional capped-spectrum margins (cap, floor, bounded share
    with the explicit C0) asserted on self-capped Gamma_k samples; the
    two conditional margins go through the threshold search instead."""
    tracker = _WorstTracker()
    thresholds = {}
    for op in (op for op in OPERATORS if op.k >= 2):
        lams = sample_gamma_k_array(op.n, op.k, samples, 5.0, rng)
        n0 = gamma_tilde_margins(op, lams)[..., -1]  # before sorting: sorted, the last bits differ
        lams = np.sort(lams, axis=-1)[..., ::-1]
        tracker.add_batch(_capped_bounds_batch(op, lams, n0)[0], op, lams)
        search = capped_threshold_search(op, rng)
        thresholds[f"n={op.n},k={op.k},alpha={op.alpha}"] = {
            "lambda_star": search["lambda_star"],
            "finite": search["finite"],
        }
    extras = {"eps0": CAPPED_EPS0, "conditional_thresholds": thresholds}
    return tracker.report("capped_bounds", extras)


def _report_s_newton(samples, rng):
    tracker = _WorstTracker()
    for op in OPERATORS:
        lams = sample_cone_array(op, samples, 5.0, rng)
        tracker.add_batch(_s_newton_batch(op, lams), op, lams)
    return tracker.report("s_newton")


def _report_newton_maclaurin(samples, rng):
    tracker = _WorstTracker()
    # alpha does not enter these margins, so only the first alpha is swept
    for op in (op for op in OPERATORS if op.k >= 2 and op.alpha == OPERATORS[0].alpha):
        lams = sample_gamma_k_array(op.n, op.k, samples, 5.0, rng)
        tracker.add_batch(_newton_maclaurin_batch(lams, op.k), op, lams)
    return tracker.report("newton_maclaurin")


def _report_concavity(samples, rng):
    tracker = _WorstTracker()
    skipped = 0
    for op in OPERATORS:
        ells = [None] + list(range(1, op.k))
        per = max(2, samples // len(ells))
        for l in ells:
            a = sample_cone_array(op, per, 5.0, rng)
            b = sample_cone_array(op, per, 5.0, rng)
            s_mid = gamma_tilde_margins(op, 0.5 * (a + b))
            ok = (s_mid > 0).all(axis=-1)
            skipped += int((~ok).sum())
            a, b = a[ok], b[ok]
            if not len(a):
                continue
            gm = _concavity_values(op, s_mid[ok], l)
            ga = _concavity_values(op, gamma_tilde_margins(op, a), l)
            gb = _concavity_values(op, gamma_tilde_margins(op, b), l)
            margins = (gm - 0.5 * (ga + gb)) / (1.0 + np.abs(gm) + np.abs(ga) + np.abs(gb))
            tracker.add_batch(margins, op, a, lam_b=b, l=l)
    return tracker.report("concavity", {"midpoint_skips": skipped})


REPORT_BUILDERS = {
    "quotient_concavity": _report_quotient_concavity,
    "quotient_concavity_split": functools.partial(
        _report_quotient_concavity, split_deltas=(0.5, 0.1, 0.01)
    ),
    "cone_upgrade": _report_cone_upgrade,
    "partial_products": _report_partial_products,
    "capped_bounds": _report_capped_bounds,
    "s_newton": _report_s_newton,
    "newton_maclaurin": _report_newton_maclaurin,
    "concavity": _report_concavity,
}


def run_inequality_suite(samples: int = 1000, seed: int = 2024) -> list[InequalityReport]:
    """Run every report over the operator table OPERATORS, `samples`
    spectra per operator (split over the orders l of the quotient and
    concavity reports), and return one report per inequality.

    Every report holds its worst margin, which passes at -SWEEP_TOL, and
    up to WITNESSES witnesses, each the operator (n, k, alpha), the
    spectrum lam, the report's own fields and the margin (see
    _WorstTracker).  The capped threshold search runs at CAPPED_N0 and
    CAPPED_EPS0.  Deterministic for a fixed seed: every report consumes
    its own child random stream.
    """
    streams = np.random.default_rng(seed).spawn(len(REPORT_BUILDERS))
    return [builder(samples, rng) for builder, rng in zip(REPORT_BUILDERS.values(), streams)]


def __getattr__(name):
    # The benchmark's tracer (perfbench/tracer.py) rebinds `inequalities.brentq`
    # to count root solves and is the name's only user; the roots are now
    # bisected in one batch, so the count reads 0.  ROADMAP item 1a removes
    # the hook, and this bridge with it.
    if name == "brentq":
        return bisect_roots
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
