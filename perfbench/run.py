"""End-to-end and per-layer benchmark of the sumhess CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --controls

Run from the repository root.  Each operation is one `sumhess <subcommand>`
process, started by this script one at a time (a closed loop with one
client), with BLAS threads capped at the CPU count.  A run repeats whole
rounds until --seconds have passed and checks every output.

--trace 0 reports the end-to-end metrics: the median wall time and peak RSS
of the sumhess processes, and the median set-up time of fresh processes
stopped as their subcommand starts work.

--trace 1 alternates an untraced and a traced process per round and reports
the per-layer metrics of the traced ones (see perfbench/tracer.py), with the
tracing overhead.

--controls feeds deliberately corrupted copies of real outputs to the
checks and exits 0 only if every corruption is rejected.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402

SRC = "src"
OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 3
RUN_LIMIT_S = 170  # every child is killed by then, so a run ends within 180 s
BETAS = (1.0, 1.1, 2.0, 4.0, 8.0)
LEVELS = 3
RTOL = 1e-8  # the solve tolerance the CLI uses by default


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]
    check: Callable[[str, str], list[str]]


WORKLOADS = {
    # the seed is passed to the sweep; the other inputs are fixed
    "identities": Workload(
        lambda seed: ["identities", "--samples", "1000", "--seed", str(seed)],
        checks.check_identities,
    ),
    "solve-2d": Workload(
        lambda seed: ["solve", "--n", "2", "--k", "2", "--alpha", "1",
                      "--rhs", "3+0.1*g2", "--cells", "145"],
        lambda out, stdout: checks.check_solve(out, stdout, 2, 1.0, lambda g2: 3.0 + 0.1 * g2, RTOL),
    ),
    "solve-3d": Workload(
        lambda seed: ["solve", "--n", "3", "--k", "2", "--alpha", "1", "--rhs", "3", "--cells", "17"],
        lambda out, stdout: checks.check_solve(out, stdout, 2, 1.0, lambda g2: 3.0 + 0.0 * g2, RTOL),
    ),
    "estimate": Workload(
        lambda seed: ["estimate", "--rhs", "3+0.1*g2", "--cells", "15",
                      "--betas", ",".join(str(b) for b in BETAS)],
        lambda out, stdout: checks.check_estimate(out, stdout, BETAS, LEVELS),
    ),
}

PER_LAYER = [
    ("symfun.calls", "count"),
    ("symfun.spectra_per_call", "ratio"),
    ("symfun.busy_s", "s"),
    ("cones.sample_busy_s", "s"),
    ("cones.accept_ratio", "ratio"),
    *((f"inequalities.{name}_busy_s", "s") for name in checks.REPORTS),
    ("inequalities.capped_search_busy_s", "s"),
    ("inequalities.root_solves", "count"),
    ("fdgrid.eigh_busy_s", "s"),
    ("fdgrid.eigh_matrices", "count"),
    ("fdgrid.stencil_busy_s", "s"),
    ("solver.solves", "count"),
    ("solver.newton_iterations", "count"),
    ("solver.node_states", "count"),
    ("solver.rhs_evals", "count"),
    ("solver.assemble_busy_s", "s"),
    ("solver.linear_busy_s", "s"),
    ("solver.factorizations", "count"),
    ("solver.krylov_iterations", "count"),
    ("solver.initial_guess_busy_s", "s"),
    ("solver.newton_self_s", "s"),
    ("estimates.refinement_busy_s", "s"),
    ("estimates.distinct_solve_ratio", "ratio"),
    ("estimates.cold_guesses", "count"),
    ("estimates.quantity_busy_s", "s"),
    ("cli.write_busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]
# per-layer busy time -> span name whose self time it is
BUSY_SPANS = {
    "symfun.busy_s": "symfun",
    "cones.sample_busy_s": "cones.sample",
    **{f"inequalities.{name}_busy_s": f"inequalities.{name}" for name in checks.REPORTS},
    "inequalities.capped_search_busy_s": "inequalities.capped_search",
    "fdgrid.eigh_busy_s": "fdgrid.eigh",
    "fdgrid.stencil_busy_s": "fdgrid.stencil",
    "solver.assemble_busy_s": "solver.assemble",
    "solver.linear_busy_s": "solver.linear",
    "solver.initial_guess_busy_s": "solver.initial_guess",
    "solver.newton_self_s": "solver.solve",
    "estimates.refinement_busy_s": "estimates.refinement",
    "estimates.quantity_busy_s": "estimates.quantity",
    "cli.write_busy_s": "cli.write",
}
COUNTS = [
    "symfun.calls", "inequalities.root_solves", "fdgrid.eigh_matrices", "solver.solves",
    "solver.newton_iterations", "solver.node_states", "solver.rhs_evals",
    "solver.factorizations", "solver.krylov_iterations", "estimates.cold_guesses",
]


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


DEADLINE = _clock() + RUN_LIMIT_S


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.abspath(SRC),
        SUMHESS_THREADS="1",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def environment() -> dict:
    import numpy
    import scipy

    env = child_env()
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{key: env[key] for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SUMHESS_THREADS")},
    }


@dataclass
class Process:
    rc: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    started: float


def launch(prefix: list[str], argv: list[str], workdir: str) -> Process:
    """Run one child process to its end and measure it alone: wall time from
    launch to exit, and its peak resident memory from wait4."""
    os.makedirs(workdir, exist_ok=True)
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = _clock()
        proc = subprocess.Popen([sys.executable, *prefix, *argv], env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(DEADLINE - started, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = _clock() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    if proc.returncode != 0:
        with open(err_path) as fh:
            sys.stderr.write(fh.read()[-4000:])
    return Process(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, started)


PLAIN = ["-c", "from sumhess.cli import run; run()"]  # what the `sumhess` script runs
CHILD = os.path.join(HERE, "child.py")


def run_op(workload: Workload, seed: int, workdir: str, prefix=PLAIN) -> tuple[Process, list[str]]:
    """One sumhess invocation and the problems found in its outputs."""
    out = os.path.join(workdir, "out")
    proc = launch(prefix, [*workload.argv(seed), "--out", out], workdir)
    if proc.rc != 0:
        return proc, [f"exit code {proc.rc}"]
    try:
        return proc, workload.check(out, proc.stdout)
    except (OSError, ValueError, KeyError) as exc:
        return proc, [f"unreadable output: {exc!r}"]


def setup_time(workload: Workload, seed: int, workdir: str) -> float | None:
    """Seconds from launch until the subcommand starts its work, or None
    when the process never got there."""
    proc = launch([CHILD, "setup", "--"], [*workload.argv(seed), "--out", os.path.join(workdir, "out")], workdir)
    stamps = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("SETUP_AT ")]
    return float(stamps[0]) - proc.started if proc.rc == 0 and stamps else None


def layer_metrics(header: dict, spans: dict) -> dict[str, float]:
    own = tracer.self_times(header, spans)
    c = header["counts"]
    m = {name: own.get(span, 0.0) for name, span in BUSY_SPANS.items()}
    m.update({name: c.get(name, 0) for name in COUNTS})
    m["symfun.spectra_per_call"] = c.get("symfun.spectra", 0) / max(c.get("symfun.calls", 0), 1)
    m["cones.accept_ratio"] = c.get("cones.kept", 0) / max(c.get("cones.drawn", 0), 1)
    m["estimates.distinct_solve_ratio"] = header["distinct_problems"] / max(c.get("estimates.solves", 0), 1)
    m["trace.spans"] = header["spans"]
    return m


class Run:
    def __init__(self, name: str, seed: int, root: str):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.root = root
        self.attempted = 0
        self.failed = 0

    def op(self, prefix=PLAIN) -> Process:
        self.attempted += 1
        workdir = os.path.join(self.root, f"op{self.attempted}")
        proc, problems = run_op(self.workload, self.seed, workdir, prefix)
        if problems:
            self.failed += 1
            print(f"op {self.attempted} FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
        shutil.rmtree(workdir)
        return proc


def measure(run: Run, seconds: float) -> tuple[bool, dict]:
    setups = []
    for i in range(SETUP_PROBES):
        workdir = os.path.join(run.root, f"setup{i}")
        setups.append(setup_time(run.workload, run.seed, workdir))
        shutil.rmtree(workdir)
    if None in setups:
        print("a set-up probe never reached the subcommand's work", file=sys.stderr)
        return False, {}
    procs = []
    begin = _clock()
    while not procs or _clock() - begin < seconds:
        procs.append(run.op())
    print("wall_s samples: " + " ".join(f"{p.wall_s:.3f}" for p in procs))
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    return True, {
        "wall_s": (statistics.median(p.wall_s for p in procs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in procs), "MB"),
    }


def measure_traced(run: Run, seconds: float) -> tuple[bool, dict]:
    plain, traced, layers = [], [], []
    counts = None
    consistent = True
    begin = _clock()
    while not traced or _clock() - begin < seconds:
        plain.append(run.op())
        path = os.path.join(run.root, f"trace{len(traced)}")
        traced.append(run.op([CHILD, "trace", path, "--"]))
        if not os.path.exists(path + ".json"):
            return False, {}
        layers.append(layer_metrics(*tracer.load(path)))
        these = {name: layers[-1][name] for name in COUNTS}
        if counts is not None and these != counts:
            print(f"traced counts differ between processes: {counts} vs {these}", file=sys.stderr)
            consistent = False
        counts = these
    metrics = {
        name: (statistics.median(layer[name] for layer in layers), unit)
        for name, unit in PER_LAYER if name != "trace.overhead_s"
    }
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return consistent, metrics


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:  # absent, or still used by another run
        pass


def benchmark(args) -> int:
    root = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")
    run = Run(args.workload, args.seed, root)
    try:
        if args.trace:
            ok, metrics = measure_traced(run, args.seconds)
        else:
            ok, metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        _remove_if_empty(OUT_ROOT)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations attempted {run.attempted}, failed {run.failed}")
    result = {
        "correct": bool(ok and run.failed == 0),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def _nudge_node(out: str, dest: str) -> None:
    """Copy out/solution.csv to dest with the middle interior node moved by
    one part in a million of its value."""
    os.makedirs(dest)
    with open(os.path.join(out, "solution.csv")) as fh:
        lines = fh.read().splitlines()
    interior = [i for i, line in enumerate(lines[1:], 1) if float(line.split(",")[-1]) < 0]
    i = interior[len(interior) // 2]
    *coords, u = lines[i].split(",")
    lines[i] = ",".join([*coords, repr(float(u) * (1.0 + 1e-6))])
    with open(os.path.join(dest, "solution.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def controls() -> int:
    """Each real output must pass its check and each corrupted copy must not."""
    root = os.path.join(OUT_ROOT, f"controls-{os.getpid()}")
    verdicts = []

    def expect(label: str, problems: list[str], rejected: bool) -> None:
        ok = bool(problems) == rejected
        verdicts.append(ok)
        what = "rejected" if problems else "accepted"
        print(f"{'OK ' if ok else 'BAD'} {label}: {what}" + (f" ({problems[0]})" if problems else ""))

    try:
        for name in ("solve-2d", "solve-3d"):
            workload = WORKLOADS[name]
            workdir = os.path.join(root, name)
            proc, problems = run_op(workload, 0, workdir)
            expect(f"{name} real output", problems, rejected=False)
            _nudge_node(os.path.join(workdir, "out"), os.path.join(workdir, "nudged"))
            expect(f"{name} one node of solution.csv nudged",
                   workload.check(os.path.join(workdir, "nudged"), proc.stdout), rejected=True)

        workdir = os.path.join(root, "estimate")
        proc, problems = run_op(WORKLOADS["estimate"], 0, workdir)
        expect("estimate real output", problems, rejected=False)
        reports = checks.load_estimates(os.path.join(workdir, "out"), BETAS)
        rows = [reports[b]["per_refinement"][0] for b in (1.1, 2.0)]
        rows[0]["sup"], rows[1]["sup"] = rows[1]["sup"], rows[0]["sup"]
        expect("estimate two beta suprema swapped",
               checks.check_estimate_reports(reports, LEVELS), rejected=True)

        workload = WORKLOADS["identities"]
        workdir = os.path.join(root, "identities")
        proc, problems = run_op(workload, 0, workdir)
        expect("identities real output", problems, rejected=False)
        workdir = os.path.join(root, "identities-negated")
        out = os.path.join(workdir, "out")
        proc = launch(PLAIN, [*workload.argv(0), "--negate-oracle", "s_newton", "--out", out], workdir)
        expect("identities s_newton sweep negated (--negate-oracle)",
               workload.check(out, proc.stdout), rejected=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        _remove_if_empty(OUT_ROOT)
    passed = all(verdicts)
    print(json.dumps({"controls": len(verdicts), "passed": passed}))
    return 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--controls", action="store_true", help="run the negative controls")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sumhess", "cli.py")):
        print(f"no sumhess sources under ./{SRC}: run from the repository root", file=sys.stderr)
        return 2
    if args.controls:
        return controls()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
