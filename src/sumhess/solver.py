"""Damped Newton solver for the discrete Dirichlet problem
S_k(lam(D^2 u)) = f(x, u, Du) on a box, with cone-preserving line search.

The residual is assembled node-wise from the principal minors of the
second-difference Hessian H.  The Jacobian v -> sum_ab F^{ab} (D^2 v)_ab
- f_u v - f_p . Dv, with F = dS_k/dH built from the Newton tensors of H,
is one stencil on fdgrid's difference taps, so Newton differentiates
exactly the discrete residual (f_u, f_p enter through forward
differences).  The linearization is elliptic exactly when F is
positive definite, which holds inside the admissible cone; the line
search therefore never accepts an iterate whose worst cone margin drops
below a fraction of its current value.  There the Jacobian is spectrally
equivalent to the Laplacian weighted by tr F / n (Faber, Manteuffel and
Parter, 1990), so BiCGSTAB solves each step inexactly, preconditioned by
that weight and the inverse of fdgrid's Dirichlet Laplacian, applied as
products with dense DST-I matrices, which also gives the lifts.
continuation_solve first solves the target problem directly and follows
a homotopy in the right side only when that attempt fails.  It, solve and
initial_guess silence overflow and NaN warnings (np.errstate): outcomes report them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .fdgrid import Grid, GridField, apply_taps, difference_taps, gradient_field_array, hessian_field_array
from .symfun import SumHessianOp, bisect_roots, s_from_sigma, s_tensor, s_value, sigma_all_matrix

FD_STEP = 1e-6
ARMIJO = 1e-4  # sufficient-decrease factor of the line search
MIN_STEP = 2.0**-20  # line-search underflow
CONE_FRACTION = 0.1  # share of every node's cone margin a step must keep
LINEAR_RTOL = 1e-10  # floor of the forcing term eta, each linear solve's relative tolerance
LINEAR_ROUNDS = 3  # BiCGSTAB rounds per linear solve: a first try and two restarts
LINEAR_MAXITER = 500  # BiCGSTAB iterations per round
CONTINUATION_STEPS = 8


class SolveFailure(RuntimeError):
    """The package's one exception: a solve, one of its helpers, or the
    estimate harness failed with the named status (stalled, cone_breach or
    domain_error).  A weight or convexity-probe failure of the harness is
    domain_error and carries the weight's exponent where it knows one."""

    def __init__(self, status: str, message: str, exponent: float | None = None):
        super().__init__(message)
        self.status = status
        self.exponent = exponent


@dataclass
class ProblemSpec:
    """A discrete Dirichlet problem: operator, grid, right side, boundary.

    rhs maps (x, u, p) -> values with x of shape (N, dim), u (N,) and
    p (N, dim); it must be finite and positive on the sampled domain
    (checked at every evaluated iterate).  boundary is the Dirichlet
    trace: a constant or a callable on coordinate arrays (..., dim).
    """

    op: SumHessianOp
    grid: Grid
    rhs: Callable
    boundary: float | Callable = 0.0

    def __post_init__(self):
        if self.op.n != self.grid.dim:
            raise ValueError(
                f"operator dimension {self.op.n} must match grid dimension {self.grid.dim}"
            )

    def boundary_field(self) -> GridField:
        return GridField.from_interior(self.grid, np.zeros(self.grid.shape), boundary=self.boundary)


@dataclass
class SolveConfig:
    rtol: float = 1e-8
    max_iter: int = 60


@dataclass
class SolveReport:
    """Outcome of one solve: status, histories, and the final field."""

    status: str  # converged | stalled | cone_breach | domain_error
    iterations: int
    residual_history: list[float]
    cone_margin_history: list[float]
    final_field: GridField
    message: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "final_field"}


class _NodeState:
    """Everything the Newton step needs at one iterate, eigenvalue-free."""

    def __init__(self, spec: ProblemSpec, u: GridField):
        grid, n = spec.grid, spec.grid.dim
        self.x = grid.interior_points_flat()
        self.uvals = u.interior_flat
        self.grads = gradient_field_array(u).reshape(-1, n)
        self.f = np.broadcast_to(np.asarray(spec.rhs(self.x, self.uvals, self.grads), dtype=float), self.uvals.shape)
        # an overflowing S_k is judged a stall by fault, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            self.H = hessian_field_array(u).reshape(-1, n, n)
            self.sigma = sigma_all_matrix(self.H)
            s_all = s_from_sigma(self.sigma[:, : spec.op.k + 1], spec.op.alpha)  # S_1..S_k
            self.margins = functools.reduce(np.minimum, s_all.T)
            self.residual = s_all[:, -1] - self.f

    @property
    def res_norm(self) -> float:
        return float(np.abs(self.residual).max())

    @property
    def worst_margin(self) -> float:
        return float(self.margins.min())

    def fault(self, floor) -> str | None:
        """The status that rules this iterate out, None when there is none:
        domain_error where f is not finite and positive, stalled where S_k
        is not finite, cone_breach where a margin is not above `floor`."""
        if not (np.isfinite(self.f) & (self.f > 0)).all():
            return "domain_error"
        if not np.isfinite(self.residual).all():
            return "stalled"
        if not (self.margins > floor).all():
            return "cone_breach"
        return None


def _fd_partials(spec: ProblemSpec, state: _NodeState) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference partials f_u and f_p at the state's iterate, each
    step FD_STEP times the entry plus its field's max-norm (1 if that underflows)."""
    x, uvals, grads, f = state.x, state.uvals, state.grads, state.f
    u_norm, p_norm = (m if FD_STEP * m >= np.finfo(float).tiny else 1.0
                      for m in (np.abs(uvals).max(), np.abs(grads).max()))
    du = FD_STEP * (np.abs(uvals) + u_norm)
    fu = (np.asarray(spec.rhs(x, uvals + du, grads), float) - f) / du
    fp = np.empty_like(grads)
    for a in range(grads.shape[1]):
        dp = FD_STEP * (np.abs(grads[:, a]) + p_norm)
        bumped = grads.copy()
        bumped[:, a] += dp
        fp[:, a] = (np.asarray(spec.rhs(x, uvals, bumped), float) - f) / dp
    return fu, fp


@functools.lru_cache(maxsize=8)
def _laplacian_inverse(grid: Grid) -> Callable:
    """Exact inverse of fdgrid's Dirichlet Laplacian on interior values, cached per grid.

    The DST-I matrix S_a = sqrt(2/(m_a+1)) sin(pi j l / (m_a+1)),
    j, l = 1..m_a, diagonalizes the Laplacian along axis a, with eigenvalues
    -(4/h_a^2) sin^2(pi j / (2(m_a+1))).  S_a is symmetric and orthogonal,
    so one routine is both the forward and the backward transform: a BLAS
    product per axis.  A product costs O(m_a) per node, against O(log m_a)
    for an FFT.  On 2 vCPUs it still beats scipy.fft.dstn up to 513 nodes
    per axis (0.25 against 1.1 ms per transform at 145^2), but at 1023^2,
    an FFT length of 2^11, it is about twice as slow.
    """
    sines, eigs = [], []
    for m, h in zip(grid.cells, grid.h):
        j = np.arange(1, m + 1)
        # j*l reduced mod 2(m+1) keeps every sine argument below 2 pi, so
        # rounding it costs at most an ulp of 2 pi
        angles = np.pi / (m + 1) * (np.outer(j, j) % (2 * m + 2))
        sines.append(np.sqrt(2.0 / (m + 1)) * np.sin(angles))
        eigs.append(-4.0 / h**2 * np.sin(np.pi * j / (2 * m + 2)) ** 2)
    eig = sum(np.ix_(*eigs))

    def transform(x):
        # contracting the leading axis moves it last, so after one product
        # per axis the axes are back in order; BLAS reads the transpose in place
        for sine in sines:
            x = (x.reshape(len(sine), -1).T @ sine).reshape(x.shape[1:] + sine.shape[:1])
        return x

    return lambda r: transform(transform(np.reshape(r, grid.shape)) / eig).ravel()


def assemble_newton(spec: ProblemSpec, state: _NodeState):
    """Jacobian of the discrete problem at the iterate of `state` and its
    preconditioner v -> L^{-1}(v / d), with L the Dirichlet Laplacian and
    d = tr F / n, F = dS_k/dH node-wise, both as callables on interior
    vectors.  The Jacobian is one stencil: F, f_u and f_p folded into a
    coefficient field per offset of fdgrid's difference taps (9 in 2-D, 19 in 3-D).

    Requires a strictly admissible iterate: every node's spectrum must
    sit inside the cone with positive margin, otherwise the linearization
    is not elliptic and a SolveFailure with status cone_breach is raised.
    """
    if state.worst_margin <= 0:
        raise SolveFailure(
            "cone_breach", f"iterate leaves the admissible cone (worst margin {state.worst_margin:.3e})"
        )
    F = s_tensor(state.H, state.sigma, spec.op.k, spec.op.alpha)
    fu, fp = _fd_partials(spec, state)
    grid, n = spec.grid, spec.grid.dim
    terms = [(difference_taps(grid, a), -fp[:, a]) for a in range(n)]
    terms += [(difference_taps(grid, a, b), F[:, a, b]) for a in range(n) for b in range(n)]
    coefficients = {(0,) * n: -fu}
    for (taps, denominator), field_weight in terms:
        for offset, weight in taps:
            coefficients[tuple(offset)] = coefficients.get(tuple(offset), 0.0) + weight / denominator * field_weight
    stencil = [(offset, c.reshape(grid.shape)) for offset, c in coefficients.items()]
    padded = np.zeros(grid.padded_shape)  # the boundary layer stays zero

    def jacobian_times(v):
        if not np.isfinite(v).all():  # an overflowed Krylov vector fails the residual contract
            return np.full_like(v, np.nan)
        padded[(slice(1, -1),) * n] = v.reshape(grid.shape)
        return apply_taps(padded, stencil).ravel()

    d = sum(F[:, a, a] for a in range(n)) / n  # tr F, summed from 0 as np.trace does
    laplacian_inverse = _laplacian_inverse(grid)
    return jacobian_times, lambda r: laplacian_inverse(r / d)


def _bicgstab(J: Callable, M: Callable, b: np.ndarray, eta: float) -> np.ndarray:
    """Right-preconditioned BiCGSTAB (van der Vorst, 1992) from x0 = 0, at
    most LINEAR_MAXITER iterations, stopping once the recursive residual's
    2-norm is below max(eta, eta * ||b||_2).  A step-for-step port of
    scipy.sparse.linalg.bicgstab (1.17) for real float64, breakdown tests
    and update order included, so the iterates are bitwise the same
    without loading scipy."""
    bnrm2 = float(np.linalg.norm(b))
    if bnrm2 == 0:
        return b.copy()
    atol = max(eta, eta * bnrm2)
    tiny = np.finfo(float).eps ** 2  # scipy's rho and omega breakdown bound
    x = np.zeros_like(b)
    r = b.copy()
    for it in range(LINEAR_MAXITER):
        if np.linalg.norm(r) < atol:
            break
        rho = np.dot(b, r)  # the shadow residual is the first residual, b
        if np.abs(rho) < tiny:
            break
        if it > 0:
            if np.abs(omega) < tiny:
                break
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = M(p)
        v = J(phat)
        rv = np.dot(b, v)
        if rv == 0:
            break
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            x += alpha * phat
            break
        shat = M(r)
        t = J(shat)
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x


def _linear_solve(J, M, rhs, eta: float = LINEAR_RTOL) -> np.ndarray:
    """Solve J x = rhs by _bicgstab preconditioned with M, in up to
    LINEAR_ROUNDS rounds restarted on the true residual, until its max-norm,
    relative to max|rhs|, is at most the forcing term eta (a round stops
    once its 2-norm is that small).  J and M are callables on vectors.  The
    system is scaled to max|rhs| = 1, so BiCGSTAB's inner products stay
    finite however large the residual is.  Raises SolveFailure with status
    stalled when no round meets eta (J singular, close to it, or not
    finite) or the solution overflows when scaled back."""
    scale = float(np.abs(rhs).max()) or 1.0
    b = rhs / scale
    x, res = 0.0, b
    for _ in range(LINEAR_ROUNDS):
        x = x + _bicgstab(J, M, res, eta)
        res = b - J(x)
        lin_res = float(np.abs(res).max())
        if lin_res <= eta:
            delta = scale * x
            if np.isfinite(delta).all():
                return delta
            raise SolveFailure("stalled",
                               f"Newton update overflows ({np.abs(x).max():.3e} times max|rhs| {scale:.3e})")
        if not np.isfinite(lin_res):
            break
    raise SolveFailure("stalled", f"linear solve residual {lin_res:.3e} exceeds {eta:.3g}")


def _harmonic_lift(grid: Grid, trace, laplacian_inverse: Callable) -> np.ndarray:
    """Padded values of the discrete harmonic function with Dirichlet trace
    `trace` (not finite where its Laplacian overflows), by `laplacian_inverse`,
    the exact inverse of fdgrid's Laplacian; a non-finite trace raises ValueError."""
    lift = GridField.from_interior(grid, np.zeros(grid.shape), boundary=trace).values.copy()
    laplacian = sum(apply_taps(lift, *difference_taps(grid, a, a)) for a in range(grid.dim))
    lift[(slice(1, -1),) * grid.dim] = laplacian_inverse(-laplacian).reshape(grid.shape)
    return lift


def isotropic_level(op: SumHessianOp, target: float) -> float:
    """The c with S_k(c, ..., c) = target.  For k = 1 it is the closed form
    (target - alpha) / n, negative when alpha > target.  For k >= 2 it is
    the positive root (the map is increasing in c for positive c), by
    symfun.bisect_roots from [0, hi], hi the first power of 2 where S_k
    reaches the target: halved to adjacent floats, so every root, the tiny
    ones of a large alpha included, is accurate to an ulp."""
    if not 0 < target < math.inf:
        raise ValueError(f"target must be finite and positive, got {target}")
    if op.k == 1:
        return (target - op.alpha) / op.n

    def gap(c):
        with np.errstate(over="ignore"):  # S_k = inf for a huge alpha still brackets the root
            return s_value(np.repeat(c[:, None], op.n, axis=1), op.k, op.alpha) - target

    hi = np.ones(1)
    while gap(hi)[0] < 0:
        hi *= 2.0
    return float(bisect_roots(gap, np.zeros(1), hi)[0])


def _twice_sup_rhs(spec: ProblemSpec) -> float:
    """2 sup f(x, 0, 0) over the interior nodes, which must be positive and
    finite (so sup f <= max float / 2); otherwise a SolveFailure with status domain_error."""
    x = spec.grid.interior_points_flat()
    f0 = np.asarray(spec.rhs(x, np.zeros(len(x)), np.zeros_like(x)), dtype=float)
    sup_f = float(np.max(f0))
    if not 0 < 2.0 * sup_f < math.inf:
        raise SolveFailure("domain_error", f"2 sup rhs must be positive and finite on the sampled domain (sup {sup_f:.3e})")
    return 2.0 * sup_f


@np.errstate(over="ignore", invalid="ignore")
def initial_guess(spec: ProblemSpec) -> GridField:
    """Admissible starting field: the discrete harmonic lift of the
    Dirichlet data plus c |c_root| depth g, for the first factor c, from
    0.3 up, whose field is inside the cone.  c_root solves S_k(c_root I) =
    2 sup f (|c_root| keeps the start convex for k = 1 and alpha > 2 sup f,
    where c_root < 0), and depth = min n L^{-1} 1 < 0, one sine-matrix
    product, so the scale follows the box.  g = (prod_a (1 - xi_a^2))^(1/n),
    xi the nodes mapped onto [-1, 1]^n, is 0 on the boundary and, as a
    geometric mean of concave nonnegative functions, concave on the whole
    box (Boyd and Vandenberghe, 2004, sec. 3.2.4): with a zero trace the
    start is a strict convex subsolution (Caffarelli, Nirenberg and
    Spruck, 1985).  A nonzero trace bends the Hessian through the lift, so
    larger factors follow; overflowing candidates are skipped (all, when the
    lift overflows), and none is built after the first admissible one.  Raises
    SolveFailure with status cone_breach and the best worst margin when no
    factor gives an admissible field, and with domain_error from _twice_sup_rhs.
    """
    grid = spec.grid
    c_root = isotropic_level(spec.op, _twice_sup_rhs(spec))
    laplacian_inverse = _laplacian_inverse(grid)
    lift = _harmonic_lift(grid, spec.boundary, laplacian_inverse)
    depth = float(laplacian_inverse(np.full(grid.n_interior, float(grid.dim))).min())
    xis = (np.linspace(-1.0, 1.0, c + 2) for c in grid.cells)
    g = functools.reduce(np.multiply.outer, [1.0 - xi * xi for xi in xis])
    g **= 1.0 / grid.dim
    best_margin = -math.inf
    for factor in (0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0):
        values = factor * (abs(c_root) * depth) * g + lift  # skipped when it overflows (huge box and f)
        if not np.isfinite(values).all():
            continue
        cand = GridField(grid, values)
        margin = _NodeState(spec, cand).worst_margin
        if margin > 0:
            return cand
        best_margin = max(best_margin, margin)
    raise SolveFailure(
        "cone_breach",
        f"no admissible initial guess found (best worst-margin {best_margin:.3e}); "
        "try a coarser grid or continuation"
    )


@np.errstate(over="ignore", invalid="ignore")
def solve(spec: ProblemSpec, config: SolveConfig | None = None, u0: GridField | None = None) -> SolveReport:
    """Damped Newton iteration with cone-preserving backtracking.

    _NodeState.fault judges the start with floor 0 and every line-search
    trial with floor CONE_FRACTION times the current margins.  Steps halve
    until a trial passes and its residual satisfies an Armijo decrease and
    strictly decreases (for a subnormal residual the Armijo bound rounds
    back to it); a trial whose values overflow is rejected like a stall.
    Step underflow reports the status that rejected the last trial, and a
    helper that fails raises SolveFailure with the status to report.  Every
    report keeps the last accepted iterate, the best: the line search
    accepts no equal or larger residual and no NaN.  iterations counts the
    accepted steps, so once a start is evaluated the histories hold
    iterations + 1 entries, the start's first.  The iteration converges
    once max |S_k - f| <= rtol * max |f|, however small f is (a bound that
    underflows to 0 asks for a zero residual).
    Each Newton step is solved inexactly, to a relative max-norm residual
    eta_k = min(0.1, max(LINEAR_RTOL, r_k^2, 0.1 rtol max|f| / r_k)) for
    r_k = max |S_k - f|: r_k^2 keeps quadratic convergence (Dembo, Eisenstat
    and Steihaug, 1982), the last term stops oversolving (Eisenstat and Walker, 1996).
    """
    config = config or SolveConfig()
    res_hist, margin_hist = [], []
    u, it = None, 0
    try:
        u = u0 if u0 is not None else initial_guess(spec)
        state = _NodeState(spec, u)
        res_hist.append(state.res_norm)
        margin_hist.append(state.worst_margin)
        status = state.fault(0.0)
        if status is not None:
            raise SolveFailure(status, {
                "domain_error": "rhs must be finite and positive on the sampled domain at the starting field",
                "stalled": "S_k is not finite at the starting field",
                "cone_breach": "starting field is not admissible"}[status])
        f_scale = float(np.abs(state.f).max())
        for it in range(config.max_iter + 1):
            if state.res_norm <= config.rtol * f_scale:
                return SolveReport("converged", it, res_hist, margin_hist, u, extras={"f_scale": f_scale})
            if it == config.max_iter:
                raise SolveFailure("stalled", "maximum iterations reached")
            r = state.res_norm  # positive here, and r * r overflows to inf where r**2 raises
            eta = min(0.1, max(LINEAR_RTOL, r * r, 0.1 * config.rtol * f_scale / r))
            # an overflowing product fails the linear residual contract
            delta = _linear_solve(*assemble_newton(spec, state), -state.residual, eta)
            step = 1.0
            while True:
                values = u.interior_flat + step * delta
                status = "stalled"  # an overflowing update, or a residual that does not decrease
                if np.isfinite(values).all():
                    trial = u.with_interior(values)
                    tstate = _NodeState(spec, trial)
                    fault = tstate.fault(CONE_FRACTION * state.margins)
                    if fault is None and state.res_norm > tstate.res_norm <= (1.0 - ARMIJO * step) * state.res_norm:
                        break
                    status = fault or status
                    del trial, tstate  # not kept alive while the next trial is built
                step *= 0.5
                if step < MIN_STEP:
                    raise SolveFailure(status, f"line search underflow at iteration {it} (step < {MIN_STEP:.1e})")
            u, state = trial, tstate
            res_hist.append(state.res_norm)
            margin_hist.append(state.worst_margin)
    except SolveFailure as exc:
        u = u if u is not None else spec.boundary_field()
        return SolveReport(exc.status, it, res_hist, margin_hist, u, str(exc))


@np.errstate(over="ignore", invalid="ignore")
def continuation_solve(spec: ProblemSpec, config: SolveConfig | None = None) -> SolveReport:
    """Solve the target problem directly and, only when that fails,
    follow a homotopy from an isotropic constant right side.

    The direct attempt is solve(spec) from initial_guess.  The homotopy
    blends f_t = (1-t)*S_k(cI) + t*f with c chosen as in initial_guess, in
    CONTINUATION_STEPS equal t-steps, warm-starting each stage after t = 0
    from the previous solution; stage failures halve the t-step (down to
    2^-8 of the original, and not at t = 0) before giving up with the
    failing t recorded, and a success doubles it again unless the stage
    before was rejected.  continuation_ts lists the t of every converged
    stage ([1.0] after a direct solve), rejected_stages the t and status
    of every failed one, the direct attempt first, and the only one when
    2 sup f(x, 0, 0) is not positive and finite.
    """
    config = config or SolveConfig()
    report = solve(spec, config)
    if report.converged:
        report.extras["continuation_ts"] = [1.0]
        return report
    rejected = [{"t": 1.0, "status": report.status}]
    try:
        s0 = _twice_sup_rhs(spec)
    except SolveFailure:  # 2 sup f(x, 0, 0) not positive and finite: no level to start a homotopy from
        report.extras.update(continuation_ts=[], rejected_stages=rejected)
        return report

    def path(t: float) -> ProblemSpec:
        def rhs(x, u, p):
            return (1.0 - t) * s0 + t * np.asarray(spec.rhs(x, u, p), dtype=float)

        return replace(spec, rhs=rhs)

    ts: list[float] = []
    u = None  # no stage has converged yet: the next one is t = 0, from initial_guess
    t = 0.0
    dt = 1.0 / CONTINUATION_STEPS
    min_dt = 1.0 / (CONTINUATION_STEPS * 256)
    just_rejected = False
    while t < 1.0:  # exact: t_next clips to 1.0
        t_next = t if u is None else min(1.0, t + dt)
        # path(t) changes only the right side, so u already carries the trace
        stage = solve(path(t_next), config, u0=u)
        if stage.converged:
            t = t_next
            u = stage.final_field
            ts.append(t)
            if not just_rejected:
                dt = min(2.0 * dt, 1.0 / CONTINUATION_STEPS)
        else:
            rejected.append({"t": t_next, "status": stage.status})
            dt *= 0.5
            if u is None or dt < min_dt:
                stage.extras.update(continuation_ts=ts, failed_t=t_next, rejected_stages=rejected)
                return stage
        just_rejected = not stage.converged
    stage.extras.update(continuation_ts=ts, rejected_stages=rejected)
    return stage


def __getattr__(name):
    # perfbench/tracer.py looks up `solver.spla` (scipy.sparse.linalg, imported
    # on first access to keep scipy out of other runs) and `solver.prolong`, which
    # no longer exists: a fresh callable, bound by no module, so the tracer rebinds
    # nothing (None would match every None-valued global), and raising when called
    def missing(*args, **kwargs):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    if name == "prolong":
        return missing
    missing()
