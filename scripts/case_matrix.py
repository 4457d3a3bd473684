"""Run the solver's case matrix and print one line per case.

    PYTHONPATH=ROOT/src python scripts/case_matrix.py [WORKERS]

ROOT is a checkout of this repository.  The matrix is n in {2, 3}, every
order k, alpha in {0.1, 1, 10}, the five right sides in RHS, the three
Dirichlet traces in TRACES, and 9^2, 33^2, 65^2 or 9^3, 17^3 cells on the
box [-1, 1]^n: 540 cases.  Each case runs through continuation_solve at
the default SolveConfig, in a pool of WORKERS processes (default and cap:
os.cpu_count()), each with one BLAS thread.

Each case line reads

    n=2 k=1 alpha=0.1 rhs=3 trace=zero cells=9: converged newton=1 stages=1 rejected=0

with the final status, the Newton steps of the last solve, the converged
stages (len(continuation_ts): 1 for a direct solve) and the rejected ones
(the failed direct attempt included).  A summary follows.  The lines hold
no timings, so the stdout of two trees can be diffed as it is; the wall
time and the slowest cases go to stderr.  Standard library and sumhess only.
tests/test_solver.py imports cases() and problem() for its floor test
over the 9-cell cases.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from collections import Counter, defaultdict

from sumhess.cli import parse_rhs
from sumhess.fdgrid import Grid
from sumhess.solver import ProblemSpec, continuation_solve
from sumhess.symfun import SumHessianOp

RHS = ("3", "0.5", "3+0.1*g2", "0.5+13*g2", "3+x*y-0.5*u")
TRACES = {
    "zero": 0.0,
    "xy": lambda x: 0.3 * x[..., 0] * x[..., 1],
    "saddle": lambda x: 0.5 * (x[..., 0] ** 2 - x[..., 1] ** 2),
}
CELLS = {2: (9, 33, 65), 3: (9, 17)}
ALPHAS = (0.1, 1.0, 10.0)


def cases() -> list[tuple]:
    return [
        (n, k, alpha, rhs, trace, cells)
        for n in (2, 3)
        for k in range(1, n + 1)
        for alpha in ALPHAS
        for rhs in RHS
        for trace in TRACES
        for cells in CELLS[n]
    ]


def problem(case: tuple) -> ProblemSpec:
    """The case's Dirichlet problem on the box [-1, 1]^n."""
    n, k, alpha, rhs, trace, cells = case
    grid = Grid((-1.0,) * n, (1.0,) * n, (cells,) * n)
    return ProblemSpec(SumHessianOp(n, k, alpha), grid, rhs=parse_rhs(rhs), boundary=TRACES[trace])


def run_case(case: tuple) -> tuple:
    """(status, Newton steps, converged stages, rejected stages, seconds)."""
    spec = problem(case)
    start = time.perf_counter()
    try:
        report = continuation_solve(spec)
    except Exception as exc:  # the solver names its outcomes; anything raised is listed as such
        traceback.print_exc()
        return f"raised:{type(exc).__name__}", 0, 0, 0, time.perf_counter() - start
    extras = report.extras
    return (report.status, report.iterations, len(extras.get("continuation_ts", [])),
            len(extras.get("rejected_stages", [])), time.perf_counter() - start)


def label(case: tuple) -> str:
    n, k, alpha, rhs, trace, cells = case
    return f"n={n} k={k} alpha={alpha} rhs={rhs} trace={trace} cells={cells}"


def main(argv: list[str]) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # the spawned workers load numpy with one BLAS thread
    cpus = os.cpu_count() or 1
    workers = max(1, min(int(argv[0]) if argv else cpus, cpus))
    todo = cases()
    start = time.perf_counter()
    results = []
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        for case, (status, newton, stages, rejected, seconds) in zip(todo, pool.imap(run_case, todo)):
            print(f"{label(case)}: {status} newton={newton} stages={stages} rejected={rejected}", flush=True)
            results.append((case, status, newton, stages, rejected, seconds))
    wall = time.perf_counter() - start

    per_order = defaultdict(Counter)
    for (n, k, *_), status, newton, *_ in results:
        per_order[n, k][status] += 1
        per_order[n, k]["cases"] += 1
        if status == "converged":
            per_order[n, k]["newton"] += newton
    print("summary")
    for (n, k), c in sorted(per_order.items()):
        print(f"  n={n} k={k}: converged {c['converged']} of {c['cases']}, stalled {c['stalled']}, "
              f"cone_breach {c['cone_breach']}, domain_error {c['domain_error']}, "
              f"Newton steps of the converged {c['newton']}")
    converged = [r for r in results if r[1] == "converged"]
    homotopy = [r for r in converged if r[4] > 0]
    print(f"  converged {len(converged)} of {len(results)}: {len(converged) - len(homotopy)} directly, "
          f"{len(homotopy)} through the continuation")
    print(f"  continuation stages of those: {dict(sorted(Counter(r[3] for r in homotopy).items()))}; "
          f"with a rejected stage after the direct attempt: {sum(r[4] > 1 for r in homotopy)}")
    print(f"{len(results)} cases in {wall:.1f} s with {workers} workers; slowest:", file=sys.stderr)
    for case, status, *_, seconds in sorted(results, key=lambda r: -r[-1])[:5]:
        print(f"  {seconds:.2f} s {label(case)}: {status}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
