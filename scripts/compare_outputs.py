"""Compare what two source trees of sumhess write, byte for byte.

    python scripts/compare_outputs.py BEFORE_ROOT AFTER_ROOT

Each root is a checkout of this repository; its package is imported from
ROOT/src.  Every run in COMMANDS and SNIPPETS is made once under each
root, in its own process with one BLAS thread (OPENBLAS_NUM_THREADS=1)
and, for a CLI command, its own --out directory.  Every file the run
writes, its stdout, its stderr and its exit code are compared after the
--out path is replaced by "<out>".  The script prints one line per run and
exits 0 when all agree, 1 after naming each output that differs, and 2
when a root does not import its own src.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the CLI commands, each with its own --out
COMMANDS = {
    "identities-seed-0": ["identities", "--samples", "1000", "--seed", "0"],
    "identities-seed-7": ["identities", "--samples", "1000", "--seed", "7"],
    "identities-negated": ["identities", "--samples", "1000", "--negate-oracle", "s_newton"],
    "solve-2d-145": ["solve", "--rhs", "3+0.1*g2", "--cells", "145"],
    "solve-3d-17": ["solve", "--n", "3", "--k", "2", "--rhs", "3", "--cells", "17"],
    "estimate-readme": ["estimate", "--rhs", "3+0.1*g2", "--cells", "15", "--betas", "1,1.1,2,4,8"],
    "estimate-huge-box": ["estimate", "--box=-1e30,1e30", "--cells", "5", "--levels", "2",
                          "--betas", "1,8", "--rhs", "3"],
    "estimate-negative-beta": ["estimate", "--cells", "5", "--levels", "2", "--betas=-400",
                               "--rhs", "3"],
    "estimate-positive-solution": ["estimate", "--k", "1", "--alpha", "10", "--rhs", "3",
                                   "--cells", "5", "--levels", "2", "--betas", "1"],
    "estimate-convexity-probe": ["estimate", "--rhs", "3-0.2*g2", "--cells", "7", "--betas", "1.1",
                                 "--levels", "2"],
    "solve-rhs-overflow": ["solve", "--rhs", "3+0.1*g2+1e-300*g2*1e300*g2*1e300*g2*1e10*g2", "--cells", "5"],
    "rigidity": ["rigidity"],
    "rigidity-3d": ["rigidity", "--n", "3", "--k", "3", "--alpha", "0.5"],
}
# library calls whose results are printed on stdout
SNIPPETS = {
    "inequality-suite-170-31415": (
        "import dataclasses, json\n"
        "from sumhess.inequalities import run_inequality_suite\n"
        "reports = run_inequality_suite(samples=170, seed=31415)\n"
        "print(json.dumps([dataclasses.asdict(r) for r in reports], sort_keys=True, indent=2))\n"
    ),
    # where each capped threshold search stops and which L it probes; the
    # probe margins are left out, as they move with the root solver by ~1e-11
    "capped-thresholds": (
        "import numpy as np\n"
        "from sumhess.inequalities import OPERATORS, capped_threshold_search\n"
        "rng = np.random.default_rng(2718)\n"
        "for op in (op for op in OPERATORS if op.k >= 2):\n"
        "    res = capped_threshold_search(op, rng)\n"
        "    probes = ' '.join(repr(l) for l, _ in res['probes'])\n"
        "    print(f\"{op}: lambda_star={res['lambda_star']!r} vacuous={res['vacuous']} probes: {probes}\")\n"
    ),
    # the failing solves the solver tests pin, so a renamed outcome shows here
    "failed-solve-outcomes": (
        "import numpy as np\n"
        "from sumhess import Grid, GridField, ProblemSpec, SolveConfig, SumHessianOp, initial_guess, solve\n"
        "box = lambda n, cells: Grid((-1.0,) * n, (1.0,) * n, (cells,) * n)\n"
        "const = lambda c: lambda x, u, p: np.full(len(x), c)\n"
        "u0 = initial_guess(ProblemSpec(SumHessianOp(2, 2, 1.0), box(2, 9), const(3.0)))\n"
        "saddle = lambda x: 0.5 * (x[..., 0] ** 2 - x[..., 1] ** 2)\n"
        "runs = {\n"
        "    'nonpositive-rhs-at-start': solve(ProblemSpec(SumHessianOp(2, 2, 1.0), box(2, 9),\n"
        "        lambda x, u, p: 3.0 + 10.0 * u), u0=u0.with_interior(u0.interior - 1.0)),\n"
        "    'overflowing-start': solve(ProblemSpec(SumHessianOp(2, 2, 1e308), box(2, 7), const(3.0)),\n"
        "        u0=GridField.from_function(box(2, 7), lambda x: 5.0 * (x**2).sum(axis=-1))),\n"
        "    'none-admissible': solve(ProblemSpec(SumHessianOp(3, 3, 10.0), box(3, 17), const(0.5), saddle)),\n"
        "    'gradient-rhs-200': solve(ProblemSpec(SumHessianOp(2, 2, 1.0), box(2, 9),\n"
        "        lambda x, u, p: 0.5 + 200.0 * (p**2).sum(axis=-1)), SolveConfig(max_iter=60)),\n"
        "}\n"
        "for name, rep in runs.items():\n"
        "    print(f'{name}: {rep.status} after {rep.iterations} iterations: {rep.message}')\n"
    ),
}


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}


def _imports_own_src(root: Path, cwd: str) -> bool:
    """Whether `import sumhess` under root resolves to root/src."""
    found = subprocess.run(
        [sys.executable, "-c", "import sumhess; print(sumhess.__file__)"],
        cwd=cwd, env=_env(root), capture_output=True, text=True,
    ).stdout.strip()
    if found and Path(found).resolve().is_relative_to((root / "src").resolve()):
        return True
    print(f"sumhess under {root} imports from {found or 'nowhere'}, not {root / 'src'}", file=sys.stderr)
    return False


def _run(root: Path, name: str, work: Path) -> dict[str, bytes]:
    """The outputs of one run under root, keyed by what they are."""
    out = work / name
    out.mkdir(parents=True)
    if name in COMMANDS:
        argv = [sys.executable, "-m", "sumhess.cli", *COMMANDS[name], "--out", str(out)]
    else:
        argv = [sys.executable, "-c", SNIPPETS[name]]
    proc = subprocess.run(argv, cwd=out, env=_env(root), capture_output=True)
    marker = str(out).encode()
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        outputs[f"file {path.relative_to(out)}"] = path.read_bytes()
    return {key: val.replace(marker, b"<out>") for key, val in outputs.items()}


def _first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return "written only " + ("after" if a is None else "before")
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {i}: {x[:120]!r} != {y[:120]!r}"
    return f"{len(a)} bytes against {len(b)} bytes"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        if not all([_imports_own_src(root, tmp) for root in roots]):
            return 2
        for name in (*COMMANDS, *SNIPPETS):
            before, after = (_run(root, name, Path(tmp) / side) for side, root in zip("ab", roots))
            diffs = [key for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key)]
            code = before["exit code"].decode()
            print(f"{'differ' if diffs else 'same  '} {name}: exit {code}, {len(before)} outputs")
            for key in diffs:
                print(f"    {key}: {_first_difference(before.get(key), after.get(key))}")
                differing.append(f"{name}: {key}")
    if differing:
        print("differing outputs: " + ", ".join(differing))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
