"""Timing and counting wrappers installed around the sumhess module boundaries.

`install(tracer)` replaces, in every sumhess module that looks it up, each
public function that one module calls in the next (a name bound with
`from .x import y` is rebound in each importing module).  The wrappers call
straight through: arguments and results are passed on untouched, so a traced
run writes the same outputs as an untraced one.

Spans (name, start, end, parent) are kept in memory as flat arrays and are
written out once, by `Tracer.dump`, when the traced process ends.  Counts are
kept beside them.  Self times are worked out afterwards by `self_times`.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.context: Counter = Counter()  # depth of open spans by name
        self.problems: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, on_call=None, on_return=None):
        """fn wrapped in a span; on_call(args, kwargs) and on_return(result)
        run outside the timed interval of fn but inside the span."""
        nid = self._id(name)
        stack, context = self.stack, self.context

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            context[name] += 1
            if on_call is not None:
                on_call(args, kwargs)
            self.start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = _clock()
                context[name] -= 1
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapped

    def counter(self, fn, on_call):
        """fn wrapped with a count hook only (no span)."""

        def wrapped(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)

        return wrapped

    def dump(self, path: str) -> None:
        header = {
            "names": self.names,
            "counts": dict(self.counts),
            "distinct_problems": len(self.problems),
            "spans": len(self.start),
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def load(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    raw = open(path + ".bin", "rb").read()
    name_id = np.frombuffer(raw, np.int32, n, 0)
    parent = np.frombuffer(raw, np.int32, n, 4 * n)
    start = np.frombuffer(raw, np.float64, n, 8 * n)
    end = np.frombuffer(raw, np.float64, n, 16 * n)
    return header, {"name_id": name_id, "parent": parent, "start": start, "end": end}


def self_times(header: dict, spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the durations of
    its direct children (children never outlive their parent here, since
    the program is single-threaded)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    n = len(dur)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    own = np.bincount(spans["name_id"], weights=dur - child, minlength=len(header["names"]))
    return {name: float(own[i]) for i, name in enumerate(header["names"])}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def _rows(lam, trailing=1) -> int:
    shape = getattr(lam, "shape", None)
    if shape is None:
        shape = np.shape(lam)
    return int(np.prod(shape[: len(shape) - trailing])) if len(shape) > trailing else 1


def _rebind(modules, original, replacement, skip=()):
    """Point every module-level name bound to `original` at `replacement`."""
    for mod in modules:
        if mod in skip:
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


class _SuperLUProxy:
    """A SuperLU factor whose solve is timed as linear-solver work."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SparseLinalgProxy:
    """Stand-in for `scipy.sparse.linalg` inside sumhess.solver: every call
    made through it is a `solver.linear` span."""

    def __init__(self, tracer: Tracer, spla):
        self._spla = spla
        t = tracer

        def count_factor(args, kwargs):
            t.counts["solver.factorizations"] += 1

        def count_precond(args, kwargs):
            # a factor solve nested in another linear span is lgmres
            # applying its preconditioner: one Krylov iteration
            if t.context["solver.linear"] > 1:
                t.counts["solver.krylov_iterations"] += 1

        def wrap_factor(fn):
            span = t.span("solver.linear", fn, on_call=count_factor)

            @functools.wraps(fn)
            def factor(*args, **kwargs):
                lu = span(*args, **kwargs)
                return _SuperLUProxy(lu, t.span("solver.linear", lu.solve, on_call=count_precond))

            return factor

        self.splu = wrap_factor(spla.splu)
        self.spilu = wrap_factor(spla.spilu)
        self.spsolve = t.span("solver.linear", spla.spsolve)
        self.lgmres = t.span("solver.linear", spla.lgmres)

    def __getattr__(self, name):
        return getattr(self._spla, name)


def install(tracer: Tracer) -> None:
    """Wrap the module boundaries of sumhess in place (call before the CLI)."""
    from sumhess import cli, cones, estimates, fdgrid, inequalities, rigidity, solver, symfun

    modules = [cli, cones, estimates, fdgrid, inequalities, rigidity, solver, symfun]
    t = tracer
    counts = t.counts

    # symfun: the kernels, wrapped where other modules look them up
    def count_spectra(args, kwargs):
        counts["symfun.calls"] += 1
        counts["symfun.spectra"] += _rows(args[0])

    for name in ("sigma_all", "s_value", "s_gradient", "s_hessian"):
        fn = getattr(symfun, name)
        _rebind(modules, fn, t.span("symfun", fn, on_call=count_spectra), skip=(symfun,))

    # cones: membership tests and the rejection samplers
    for name in ("gamma_k_margins", "gamma_tilde_margins", "in_gamma_k", "in_gamma_tilde_k"):
        fn = getattr(cones, name)
        _rebind(modules, fn, t.span("cones.test", fn), skip=(cones,))

    def count_kept(result):
        counts["cones.kept"] += len(result)

    for name in ("sample_cone_array", "sample_gamma_k_array"):
        fn = getattr(cones, name)
        _rebind(modules, fn, t.span("cones.sample", fn, on_return=count_kept), skip=(cones,))

    def count_drawn(pos):
        def hook(args, kwargs):
            if t.context["cones.sample"]:
                counts["cones.drawn"] += _rows(args[pos])

        return hook

    # inside cones, the samplers reach the margins through module globals
    cones.gamma_k_margins = t.counter(cones.gamma_k_margins, count_drawn(0))
    cones.gamma_tilde_margins = t.counter(cones.gamma_tilde_margins, count_drawn(1))

    # inequalities: one span per report builder, the threshold search, brentq
    for name, builder in list(inequalities.REPORT_BUILDERS.items()):
        inequalities.REPORT_BUILDERS[name] = t.span(f"inequalities.{name}", builder)
    inequalities.capped_threshold_search = t.span(
        "inequalities.capped_search", inequalities.capped_threshold_search
    )

    def count_root(args, kwargs):
        counts["inequalities.root_solves"] += 1

    inequalities.brentq = t.counter(inequalities.brentq, count_root)
    fn = inequalities.run_inequality_suite
    _rebind(modules, fn, t.span("inequalities.suite", fn), skip=(inequalities,))

    # fdgrid: per-node spectra and the batched stencils
    def count_matrices(args, kwargs):
        counts["fdgrid.eigh_matrices"] += _rows(args[0], trailing=2)

    fn = fdgrid.eigh_batch
    _rebind(modules, fn, t.span("fdgrid.eigh", fn, on_call=count_matrices), skip=(fdgrid,))
    for name in ("hessian_field_array", "gradient_field_array", "laplacian_field"):
        fn = getattr(fdgrid, name)
        _rebind(modules, fn, t.span("fdgrid.stencil", fn), skip=(fdgrid,))

    # solver: solves, assembly, residual evaluations, start fields, linear algebra
    def on_solve_call(args, kwargs):
        counts["solver.solves"] += 1
        if t.context["estimates.refinement"]:
            spec = args[0]
            counts["estimates.solves"] += 1
            t.problems.add((spec.grid, id(spec.rhs)))

    def on_solve_return(report):
        counts["solver.newton_iterations"] += report.iterations

    def on_guess(args, kwargs):
        if t.context["estimates.refinement"]:
            counts["estimates.cold_guesses"] += 1

    def count_states(args, kwargs):
        counts["solver.node_states"] += 1

    wrapped = {
        "solve": t.span("solver.solve", solver.solve, on_call=on_solve_call, on_return=on_solve_return),
        "continuation_solve": t.span("solver.continuation", solver.continuation_solve),
        "assemble_newton": t.span("solver.assemble", solver.assemble_newton),
        "initial_guess": t.span("solver.initial_guess", solver.initial_guess, on_call=on_guess),
        "prolong": t.span("solver.prolong", solver.prolong),
        "_NodeState": t.counter(solver._NodeState, count_states),
    }
    for name, replacement in wrapped.items():
        _rebind(modules, getattr(solver, name), replacement)
    solver.spla = _SparseLinalgProxy(t, solver.spla)

    def count_rhs(args, kwargs):
        counts["solver.rhs_evals"] += 1

    parse_rhs = cli.parse_rhs
    cli.parse_rhs = lambda text: t.counter(parse_rhs(text), count_rhs)

    # estimates: refinement studies and the weighted quantities
    for name, span_name in (
        ("refinement_study", "estimates.refinement"),
        ("pogorelov_quantity", "estimates.quantity"),
        ("rhs_gradient_convexity_probe", "estimates.convexity_probe"),
    ):
        fn = getattr(estimates, name)
        _rebind(modules, fn, t.span(span_name, fn))

    # cli: report writing (JSON and CSV)
    cli._dump_json = t.span("cli.write", cli._dump_json)
    fdgrid.GridField.to_csv = t.span("cli.write", fdgrid.GridField.to_csv)
