"""Output checks for the benchmark workloads.

Every check recomputes what it tests with code of its own (exact rational
arithmetic, closed forms, plain finite differences) or tests a property the
method must have.  None of them imports sumhess and none compares against a
stored copy of an earlier output.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction

import mpmath
import numpy as np

REPORTS = (
    "quotient_concavity",
    "quotient_concavity_split",
    "cone_upgrade",
    "partial_products",
    "capped_bounds",
    "s_newton",
    "newton_maclaurin",
    "concavity",
)
# one conditional threshold per operator with k >= 2: n = 2..6, three alphas
CAPPED_OPERATORS = 3 * sum(n - 1 for n in range(2, 7))


# ---------------------------------------------------------------------------
# exact symmetric functions
# ---------------------------------------------------------------------------

def exact_sigmas(lam) -> list[Fraction]:
    """[sigma_0, ..., sigma_n] of lam by subset enumeration, exactly."""
    vals = [Fraction(v) for v in lam]
    out = [Fraction(1)]
    for j in range(1, len(vals) + 1):
        out.append(sum((math.prod(c) for c in itertools.combinations(vals, j)), Fraction(0)))
    return out


def exact_s(sig: list[Fraction], m: int, alpha: Fraction) -> Fraction:
    """S_m = sigma_m + alpha*sigma_{m-1}, with sigma_j = 0 outside 0..n."""

    def s(j):
        return sig[j] if 0 <= j < len(sig) else Fraction(0)

    return s(m) + alpha * s(m - 1)


def admissible(lam, k: int, alpha: float) -> bool:
    sig = exact_sigmas(lam)
    a = Fraction(alpha)
    return all(exact_s(sig, m, a) > 0 for m in range(1, k + 1))


def s_newton_exact(lam, k: int, alpha: float) -> Fraction:
    sig = exact_sigmas(lam)
    a = Fraction(alpha)
    sk = exact_s(sig, k, a)
    return (sk * sk - exact_s(sig, k - 1, a) * exact_s(sig, k + 1, a)) / (1 + sk * sk)


def newton_maclaurin_exact(lam, k: int) -> mpmath.mpf:
    """min of the two normalized Newton-Maclaurin margins, sigma_j exact and
    the fractional power at 50 digits."""
    sig = exact_sigmas(lam)

    def s(j):
        return sig[j] if 0 <= j < len(sig) else Fraction(0)

    with mpmath.workdps(50):
        frac = lambda q: mpmath.mpf(q.numerator) / q.denominator  # noqa: E731
        rhs1 = frac(s(1)) ** (mpmath.mpf(1) / (k - 1)) * frac(s(k)) ** (mpmath.mpf(k - 2) / (k - 1))
        skm1 = frac(s(k - 1))
        m1 = (skm1 - rhs1) / (1 + abs(skm1) + abs(rhs1))
        left, right = s(k) * s(k - 1), s(k - 2) * s(k + 1)
        m2 = frac((left - right) / (1 + abs(left) + abs(right)))
        return min(m1, m2)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def check_identities(out: str, stdout: str) -> list[str]:
    problems = []
    if "PASS deletion identities" not in stdout:
        problems.append("deletion identity sweep did not pass")
    for name in REPORTS:
        path = os.path.join(out, f"{name}.json")
        if not os.path.exists(path):
            problems.append(f"{name}: report missing")
            continue
        with open(path) as fh:
            rep = json.load(fh)
        tol = rep["tolerance"]
        if not rep["passed"] or not rep["worst_margin"] >= -tol:
            problems.append(f"{name}: worst margin {rep['worst_margin']:.3e} below -{tol:.0e}")
        witnesses = rep["witnesses"]
        if not witnesses or rep["samples"] < 1:
            problems.append(f"{name}: no samples or witnesses")
            continue
        if rep["worst_margin"] != min(w["margin"] for w in witnesses):
            problems.append(f"{name}: worst margin is not the smallest witness margin")
        for w in witnesses:
            for key in ("lam", "lam_b"):
                if key in w and not admissible(w[key], w["k"], w["alpha"]):
                    problems.append(f"{name}: witness {key}={w[key]} not admissible for k={w['k']}")
            if name == "s_newton":
                exact = float(s_newton_exact(w["lam"], w["k"], w["alpha"]))
            elif name == "newton_maclaurin":
                exact = float(newton_maclaurin_exact(w["lam"], w["k"]))
            else:
                continue
            if not abs(exact - w["margin"]) <= tol:
                problems.append(f"{name}: witness margin {w['margin']!r} but exactly {exact!r}")
        if name == "capped_bounds":
            thresholds = rep["extras"]["conditional_thresholds"]
            if len(thresholds) != CAPPED_OPERATORS:
                problems.append(f"capped_bounds: {len(thresholds)} thresholds, expected {CAPPED_OPERATORS}")
            for op, th in thresholds.items():
                if not (th["finite"] and math.isfinite(th["lambda_star"])):
                    problems.append(f"capped_bounds: threshold for {op} is not finite")
    return problems


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def read_grid_csv(path: str) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Lattice values of a solution.csv as an array indexed by node, with
    the node coordinates of each axis and the spacings."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    coords, u = data[:, :-1], data[:, -1]
    axes = [np.unique(coords[:, a]) for a in range(coords.shape[1])]
    h = np.array([(ax[-1] - ax[0]) / (len(ax) - 1) for ax in axes])
    idx = np.rint((coords - [ax[0] for ax in axes]) / h).astype(int)
    values = np.full([len(ax) for ax in axes], np.nan)
    values[tuple(idx.T)] = u
    if len(u) != values.size or np.isnan(values).any():
        raise ValueError("solution.csv is not a full tensor lattice")
    return values, axes, h


def _shift(u: np.ndarray, offsets) -> np.ndarray:
    """u at interior node + offsets, for every interior node."""
    return u[tuple(slice(1 + o, u.shape[a] - 1 + o) for a, o in enumerate(offsets))]


def sigmas_from_csv(u: np.ndarray, h: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """sigma_1..sigma_dim of the second-difference Hessian at every interior
    node (trace and determinant closed forms), and |Du|^2 by central
    differences."""
    dim = u.ndim
    e = np.eye(dim, dtype=int)
    c = _shift(u, e[0] * 0)
    H = [[None] * dim for _ in range(dim)]
    g2 = np.zeros_like(c)
    for a in range(dim):
        H[a][a] = (_shift(u, e[a]) - 2.0 * c + _shift(u, -e[a])) / (h[a] * h[a])
        g2 += ((_shift(u, e[a]) - _shift(u, -e[a])) / (2.0 * h[a])) ** 2
        for b in range(a + 1, dim):
            H[a][b] = H[b][a] = (
                _shift(u, e[a] + e[b]) - _shift(u, e[a] - e[b])
                - _shift(u, e[b] - e[a]) + _shift(u, -e[a] - e[b])
            ) / (4.0 * h[a] * h[b])
    tr = sum(H[a][a] for a in range(dim))
    minors2 = sum(H[a][a] * H[b][b] - H[a][b] ** 2 for a in range(dim) for b in range(a + 1, dim))
    if dim == 2:
        return [tr, minors2], g2
    det = (
        H[0][0] * (H[1][1] * H[2][2] - H[1][2] ** 2)
        - H[0][1] * (H[0][1] * H[2][2] - H[1][2] * H[0][2])
        + H[0][2] * (H[0][1] * H[1][2] - H[1][1] * H[0][2])
    )
    return [tr, minors2, det], g2


def check_solution_values(u: np.ndarray, h: np.ndarray, k: int, alpha: float, rhs, rtol: float) -> list[str]:
    problems = []
    inner = u[tuple(slice(1, -1) for _ in range(u.ndim))]
    boundary = u.copy()
    boundary[tuple(slice(1, -1) for _ in range(u.ndim))] = 0.0
    if (boundary != 0.0).any():
        problems.append("boundary values are not exactly 0")
    if not (inner < 0).all():
        problems.append(f"u >= 0 at {int((inner >= 0).sum())} interior nodes")
    sig, g2 = sigmas_from_csv(u, h)
    sig = [np.ones_like(inner)] + sig
    s = [sig[m] + alpha * sig[m - 1] for m in range(1, k + 1)]
    for m, sm in enumerate(s, start=1):
        if not (sm > 0).all():
            problems.append(f"S_{m} <= 0 at {int((sm <= 0).sum())} interior nodes")
    f = rhs(g2)
    res = float(np.abs(s[-1] - f).max())
    bound = rtol * (1.0 + float(f.max()))
    if not res <= bound:
        problems.append(f"max |S_k - f| = {res:.3e} exceeds {bound:.3e}")
    return problems


def check_solve(out: str, stdout: str, k: int, alpha: float, rhs, rtol: float) -> list[str]:
    if "solve: converged" not in stdout:
        return [f"solve did not report convergence: {stdout.strip()!r}"]
    u, _, h = read_grid_csv(os.path.join(out, "solution.csv"))
    return check_solution_values(u, h, k, alpha, rhs, rtol)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

STABILITY_RTOL = 0.05


def load_estimates(out: str, betas) -> dict[float, dict]:
    reports = {}
    for beta in betas:
        with open(os.path.join(out, f"estimate_beta_{float(beta)}.json")) as fh:
            reports[beta] = json.load(fh)
    return reports


def check_estimate_reports(reports: dict[float, dict], levels: int) -> list[str]:
    problems = []
    betas = sorted(reports)
    for beta in betas:
        rows = reports[beta]["per_refinement"]
        if len(rows) != levels:
            problems.append(f"beta={beta}: {len(rows)} levels, expected {levels}")
            continue
        for a, b in zip(rows, rows[1:]):
            if not np.allclose(np.asarray(b["h"]) * 2.0, a["h"], rtol=1e-12, atol=0.0):
                problems.append(f"beta={beta}: h does not halve ({a['h']} -> {b['h']})")
        s1, s2 = rows[-2]["sup"], rows[-1]["sup"]
        stable = abs(s1 - s2) <= STABILITY_RTOL * max(abs(s1), abs(s2))
        if not (stable and reports[beta]["stable"]):
            problems.append(f"beta={beta}: last two suprema {s1!r}, {s2!r} are not stable")
    if problems:
        return problems
    for level in range(levels):
        sups = [reports[b]["per_refinement"][level]["sup"] for b in betas]
        its = {reports[b]["per_refinement"][level]["newton_iterations"] for b in betas}
        if not all(s > 0 for s in sups):
            problems.append(f"level {level}: nonpositive supremum in {sups}")
        # 0 < -u < 1 and Laplacian > 0 make (-u)^beta * Laplacian strictly
        # decreasing in beta at every node, hence also its supremum
        for (b1, s1), (b2, s2) in zip(zip(betas, sups), zip(betas[1:], sups[1:])):
            if not s2 < s1 * (1.0 - 1e-9):
                problems.append(f"level {level}: sup at beta={b2} ({s2!r}) not below beta={b1} ({s1!r})")
        if len(its) != 1:
            problems.append(f"level {level}: Newton iteration counts differ across beta: {sorted(its)}")
    return problems


def check_estimate(out: str, stdout: str, betas, levels: int) -> list[str]:
    return check_estimate_reports(load_estimates(out, betas), levels)
