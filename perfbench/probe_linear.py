"""Time the solver's linear-solve branch on the first Newton Jacobian.

    python3 perfbench/probe_linear.py --cells 257 [--cells 145 ...]

For each grid it builds the `solve-2d` problem (n = k = 2, alpha = 1,
rhs 3 + 0.1*|Du|^2), takes `initial_guess`, assembles the Newton system
there and times `solver._linear_solve` on it: above
`SolveConfig.direct_limit` that is spilu + lgmres, with a fall back to splu
when lgmres does not converge.  It then times splu alone on the same
system.  Run from the repository root with `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import time

import numpy as np
import scipy.sparse.linalg as spla

from sumhess import cli, solver


class _RecordingLinalg:
    """scipy.sparse.linalg, with the outcome of each lgmres call kept."""

    def __init__(self):
        self.lgmres_calls = []

    def __getattr__(self, name):
        return getattr(spla, name)

    def lgmres(self, *args, **kwargs):
        start = time.perf_counter()
        x, info = spla.lgmres(*args, **kwargs)
        self.lgmres_calls.append({"info": int(info), "seconds": round(time.perf_counter() - start, 2)})
        return x, info


def probe(cells: int) -> dict:
    config = cli.RunConfig(subcommand="solve", n=2, k=2, alpha=1.0, rhs="3+0.1*g2", cells=cells)
    spec = cli._build_problem(config)
    state, J = solver.assemble_newton(spec, solver.initial_guess(spec))
    rhs = -state.residual
    recorder = _RecordingLinalg()
    solver.spla = recorder
    try:
        start = time.perf_counter()
        delta = solver._linear_solve(J, rhs, solver.SolveConfig())
        branch_s = time.perf_counter() - start
    finally:
        solver.spla = spla
    start = time.perf_counter()
    direct = spla.splu(J.tocsc()).solve(rhs)
    splu_s = time.perf_counter() - start
    return {
        "cells": cells,
        "unknowns": J.shape[0],
        "linear_solve_s": round(branch_s, 2),
        "lgmres": recorder.lgmres_calls,
        "splu_alone_s": round(splu_s, 2),
        "max_step_difference": float(np.abs(delta - direct).max()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--cells", type=int, action="append", required=True)
    for cells in parser.parse_args().cells:
        print(probe(cells), flush=True)


if __name__ == "__main__":
    main()
