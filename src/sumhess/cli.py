"""Command-line driver: reproducible experiments with JSON/CSV reports.

Subcommands: identities (inequality sweep), solve (direct Newton solve,
with continuation only when it fails), estimate (refinement studies over a
weight-exponent sweep), rigidity (entire-solution sweep, quadratic
classification, scaling invariance).

Exit codes: 0 pass, 1 property failure, 2 solver stall or domain error
(in a solve, an estimate weight or the convexity probe), 3 cone breach, 64
configuration error.  A subcommand takes flags only for the settings it
reads; a --config file may set any.  A flag (--max-iter 5) and a --config
line (max_iter=5) take the same text and give the same value; flags
override the file.  All outputs land under --out and are written
atomically (temp file, then rename).  Runs are deterministic for a fixed
(config, seed); every report embeds the resolved config.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .estimates import refinement_study, rhs_gradient_convexity_probe
from .fdgrid import Grid, GridField, hessian_field_array, eigh_batch
from .inequalities import OPERATORS, REPORT_BUILDERS, run_inequality_suite
from .rigidity import QuadraticCandidate, ScaledField, entire_solution_residual, quadratic_residual
from .solver import ProblemSpec, SolveConfig, SolveFailure, continuation_solve, isotropic_level
from .symfun import SumHessianOp, identity_residuals, s_value

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_STALLED = 2
EXIT_CONE_BREACH = 3
EXIT_CONFIG = 64

# Peak-memory growth per unit of run size, rounded down over the subcommands
# that scale with it (measured as peak RSS at two sizes), so a run refused
# for exceeding physical memory could not have fit: rigidity grows by 127 B
# and identities by 2.1 kB per sample; rigidity by 217 B (2-D) and 457 B
# (3-D) and solve by 2.9 kB (2-D) and 11 kB (3-D) per grid node.
BYTES_PER_SAMPLE = 64
BYTES_PER_NODE = 200

_STATUS_EXIT = {"converged": EXIT_OK, "stalled": EXIT_STALLED, "domain_error": EXIT_STALLED,
                "cone_breach": EXIT_CONE_BREACH}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# right-hand-side expressions: a whitelisted subset of Python arithmetic
# ---------------------------------------------------------------------------

_RHS_AXES = {"x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}
_RHS_NAMES = {"u", "g2", *_RHS_AXES}
_RHS_NODES = (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.UnaryOp, ast.USub,
              ast.Name, ast.Load, ast.Constant)


def _compile_rhs(text: str):
    """Compile an rhs expression to a code object.

    The expression is Python arithmetic restricted to real number literals,
    the coordinates x, y, z (or x1, x2, x3), u and g2 = |Du|^2 under binary
    +, -, *, unary - and parentheses.  Literals become floats before
    compiling, so constant folding does float arithmetic only.  The names
    the expression reads are the code's co_names.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(text.strip(), mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _RHS_NODES):
                raise ConfigError(f"{type(node).__name__} is not allowed")
            if isinstance(node, ast.Name) and node.id not in _RHS_NAMES:
                raise ConfigError(f"unknown symbol {node.id!r}")
            if isinstance(node, ast.Constant):
                if type(node.value) not in (int, float):
                    raise ConfigError(f"{node.value!r} is not a real number")
                node.value = float(node.value)
        return compile(tree, "<rhs>", "eval")
    except (SyntaxError, SyntaxWarning, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"bad rhs expression: {exc}") from None


def parse_rhs(text: str):
    """Compile an rhs expression (see _compile_rhs) into a vectorized
    (x, u, p) callable.  Evaluation runs bytecode, so its stack depth does
    not grow with the expression."""
    code = _compile_rhs(text)

    def rhs(x, u, p):
        env = {name: x[..., a] for name, a in _RHS_AXES.items() if a < x.shape[-1]}
        env["u"] = u
        if "g2" in code.co_names:
            env["g2"] = sum(p[..., a] ** 2 for a in range(p.shape[-1]))
        return eval(code, {"__builtins__": {}}, env)

    return rhs


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _floats(text: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"{key} takes comma-separated numbers, got {text!r}") from None


@dataclass
class RunConfig:
    subcommand: str = "identities"
    n: int = 2
    k: int = 2
    alpha: float = 1.0
    cells: int = 33
    box_lo: float = -1.0
    box_hi: float = 1.0
    rhs: str = "3"
    rtol: float = 1e-8
    max_iter: int = 60
    betas: tuple = (1.0, 1.1, 2.0, 4.0, 8.0)
    levels: int = 3
    samples: int = 1000
    seed: int = 0
    scale_ratio: float = 2.0
    out: str = "."
    negate_oracle: str = ""

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        """Read key=value lines (blank lines and # comments skipped)."""
        config = cls()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            config.set(key, val)
        return config

    def set(self, key: str, text: str) -> None:
        """Set one setting from its text, the same for a flag and a config
        line; box sets box_lo and box_hi from lo,hi."""
        types = {f.name: f.type for f in dataclasses.fields(self)}
        if key == "box":
            lo_hi = _floats(text, key)
            if len(lo_hi) != 2:
                raise ConfigError("box must be lo,hi")
            self.box_lo, self.box_hi = lo_hi
        elif key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        elif types[key] == "tuple":
            setattr(self, key, _floats(text, key))
        else:
            try:
                setattr(self, key, {"int": int, "float": float, "str": str}[types[key]](text))
            except ValueError:
                raise ConfigError(f"bad value for {key}: {text!r}") from None

    def validate(self) -> "RunConfig":
        """Raise ConfigError for the first value out of range, whether it
        came from a flag or from a --config file."""
        finite = math.isfinite
        checks = (
            (self.n in (2, 3), "n must be 2 or 3 (the grid dimension)"),
            (1 <= self.k <= self.n, "k must satisfy 1 <= k <= n"),
            (finite(self.alpha) and self.alpha > 0, "alpha must be finite and positive"),
            (self.cells >= 3, "cells must be >= 3"),
            (finite(self.box_lo) and finite(self.box_hi) and self.box_lo < self.box_hi,
             "box must be finite lo,hi with lo < hi"),
            (finite(self.rtol) and self.rtol > 0, "rtol must be finite and positive"),
            (self.max_iter >= 1, "max_iter must be >= 1"),
            (bool(self.betas) and all(finite(b) for b in self.betas),
             "betas must list at least one weight exponent, all finite"),
            (self.levels >= 2, "levels must be >= 2 (stability compares the last two levels)"),
            (self.samples >= 1, "samples must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (finite(self.scale_ratio) and self.scale_ratio > 1,
             "scale_ratio must be finite and exceed 1"),
            (self.negate_oracle in ("", *REPORT_BUILDERS),
             "negate_oracle must be empty or a report name: " + ", ".join(REPORT_BUILDERS)),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        # the solver divides by h^2 (a normal h^2 keeps 1/h^2 finite too);
        # rigidity squares scale_ratio and scale_ratio times box coordinates
        try:
            h = (self.box_hi - self.box_lo) / (self.cells + 1)
        except OverflowError:  # cells too large for a float: h underflows
            h = 0.0
        reach = self.scale_ratio * max(1.0, abs(self.box_lo), abs(self.box_hi))
        if not sys.float_info.min <= h * h < math.inf:
            raise ConfigError("box and cells give a spacing h whose h^2 is not a finite normal float")
        if not reach * reach < math.inf:
            raise ConfigError("scale_ratio times max(1, |box|) overflows when squared")
        memory = _physical_memory()
        if self._run_bytes() > memory:
            raise ConfigError(
                f"samples, cells or levels ask for more than the {memory / 2**30:.3g} GiB "
                "of physical memory"
            )
        return self

    def _run_bytes(self) -> int:
        """Lower bound on the bytes the subcommand allocates, from the
        settings it reads: its samples and the nodes of its (finest) grid.
        Past 64 levels the finest grid exceeds any memory already."""
        reads = _FLAGS[self.subcommand]
        levels = min(self.levels, 64) if "levels" in reads else 1
        side = (self.cells + 1) * 2 ** (levels - 1) - 1
        samples = self.samples if "samples" in reads else 0
        nodes = side**self.n if "cells" in reads else 0
        return max(samples * BYTES_PER_SAMPLE, nodes * BYTES_PER_NODE)

    def op(self) -> SumHessianOp:
        return SumHessianOp(self.n, self.k, self.alpha)

    def grid(self) -> Grid:
        return Grid((self.box_lo,) * self.n, (self.box_hi,) * self.n, (self.cells,) * self.n)


def _physical_memory() -> float:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return math.inf


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _dump_json(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_report(config: RunConfig, name: str, payload: dict) -> None:
    """Write payload, with the resolved config embedded, to <out>/<name>.json."""
    path = os.path.join(config.out, f"{name}.json")
    _dump_json(path, {**payload, "config": dataclasses.asdict(config)})


def _say(line: str) -> None:
    """Print one stdout line, and keep the run going once the reader is gone."""
    try:
        print(line, flush=True)
    except BrokenPipeError:  # `| head` closed the pipe: the Python docs' "Note on SIGPIPE"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _verdict(ok: bool, label: str) -> bool:
    """Print the PASS or FAIL line for label, and return ok."""
    _say(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _identity_sweep_passes(samples: int, seed: int) -> bool:
    rng = np.random.default_rng(seed + 421)
    for n, ops in itertools.groupby(OPERATORS, key=lambda op: op.n):  # one batch per n
        lams = rng.uniform(-5.0, 5.0, size=(max(10, samples // 5), n))
        for op in ops:
            res = identity_residuals(op, lams)
            scale = 1.0 + np.abs(np.asarray(s_value(lams, op.k, op.alpha)))
            if not (res <= 1e-9 * scale[:, None]).all():
                return False
    return True


def cmd_identities(config: RunConfig) -> int:
    reports = run_inequality_suite(samples=config.samples, seed=config.seed)
    all_ok = True
    for rep in reports:
        if rep.name == config.negate_oracle:
            rep.worst_margin = -rep.worst_margin
            rep.passed = bool(rep.worst_margin >= -rep.tolerance)
            rep.extras["negated_for_testing"] = True
        _write_report(config, rep.name, dataclasses.asdict(rep))
        label = f"{rep.name}: worst margin {rep.worst_margin:.3e} over {rep.samples} samples"
        all_ok &= _verdict(rep.passed, label)
    all_ok &= _verdict(_identity_sweep_passes(config.samples, config.seed), "deletion identities")
    return EXIT_OK if all_ok else EXIT_PROPERTY


def _build_problem(config: RunConfig) -> ProblemSpec:
    op = config.op()
    grid = config.grid()
    rhs = parse_rhs(config.rhs)
    x = grid.interior_points_flat()
    try:
        probe = np.asarray(rhs(x, np.zeros(len(x)), np.zeros_like(x)), dtype=float)
    except NameError as exc:
        raise ConfigError(f"rhs {exc} on a {config.n}-D grid") from None
    if not (np.isfinite(probe) & (probe > 0)).all():
        raise ConfigError("rhs must be finite and positive on the domain (sampled at u=0, Du=0)")
    return ProblemSpec(op, grid, rhs=rhs)


def cmd_solve(config: RunConfig) -> int:
    spec = _build_problem(config)
    solve_config = SolveConfig(rtol=config.rtol, max_iter=config.max_iter)
    report = continuation_solve(spec, solve_config)
    payload = report.to_json_dict()
    payload["gradient_dependent_rhs"] = "g2" in _compile_rhs(config.rhs).co_names
    _write_report(config, "solve_report", payload)
    csv_path = os.path.join(config.out, "solution.csv")
    report.final_field.to_csv(csv_path + ".tmp", name="u")
    os.replace(csv_path + ".tmp", csv_path)
    _say(f"solve: {report.status} after {report.iterations} iterations")
    return _STATUS_EXIT[report.status]


def cmd_estimate(config: RunConfig) -> int:
    spec = _build_problem(config)
    solve_config = SolveConfig(rtol=config.rtol, max_iter=config.max_iter)
    try:
        reports = refinement_study(spec, config.betas, levels=config.levels, config=solve_config)
        near_linear = [rep.beta_or_delta for rep in reports if rep.quantity == "near_linear"]
        if near_linear:
            # the near-linear weight presumes f^{1/k} convex in the gradient;
            # spot-check the declaration once and report the margin
            probe = rhs_gradient_convexity_probe(spec, np.random.default_rng(config.seed), near_linear[0])
    except SolveFailure as exc:  # labelled by the exponent it carries, else by the first
        beta = config.betas[0] if exc.exponent is None else exc.exponent
        _verdict(False, f"estimate beta={beta}: {exc}")
        return _STATUS_EXIT[exc.status]
    all_stable = True
    for beta, rep in zip(config.betas, reports):
        payload = dataclasses.asdict(rep)
        if rep.quantity == "near_linear":
            payload["gradient_convexity_worst_margin"] = probe
        _write_report(config, f"estimate_beta_{beta}", payload)
        sups = [e["sup"] for e in rep.per_refinement]
        all_stable &= _verdict(rep.stable, f"estimate beta={beta}: sups={sups}")
    return EXIT_OK if all_stable else EXIT_PROPERTY


def cmd_rigidity(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    pts = rng.uniform(-1.0, 1.0, size=(max(10, config.samples), 3))
    residuals, sigma1 = entire_solution_residual(pts)

    op = config.op()
    level = isotropic_level(op, 1.0)
    cand = QuadraticCandidate(np.diag([level] * config.n))
    quad_res = quadratic_residual(op, cand)

    ratio = config.scale_ratio
    grid_v = config.grid()
    grid_u = dataclasses.replace(config, box_lo=ratio * config.box_lo, box_hi=ratio * config.box_hi).grid()
    v = ScaledField(cand, ratio)
    fv = GridField.from_function(grid_v, v)
    fu = GridField.from_function(grid_u, cand)
    lam_v, _ = eigh_batch(hessian_field_array(fv).reshape(-1, config.n, config.n))
    lam_u, _ = eigh_batch(hessian_field_array(fu).reshape(-1, config.n, config.n))
    scale = 1.0 + float(np.abs(lam_u).max())
    scaling_err = float(np.abs(lam_v - lam_u).max())

    blocks = {
        "entire_solution_sweep": {
            "samples": int(len(pts)),
            "max_residual": float(residuals.max()),
            "min_sigma1": float(sigma1.min()),
            "passed": bool(residuals.max() <= 1e-9 and (sigma1 > 0).all()),
        },
        "quadratic_classification": {
            "isotropic_level": level,
            "residual": quad_res,
            "passed": bool(quad_res <= 1e-12),
        },
        "scaling_invariance": {
            "ratio": ratio,
            "max_spectrum_error": scaling_err,
            "passed": bool(scaling_err <= 1e-10 * scale),
        },
    }
    _write_report(config, "rigidity_report", blocks)
    passed = [_verdict(block["passed"], name) for name, block in blocks.items()]
    return EXIT_OK if all(passed) else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the settings each subcommand reads, and so the flags it takes, spelled out
# in full (--max-iter sets max_iter); box is the pair box_lo,box_hi
_SOLVE = ("n", "k", "alpha", "cells", "box", "rhs", "rtol", "max_iter", "out")
_FLAGS = {
    "identities": ("samples", "seed", "out", "negate_oracle"),
    "solve": _SOLVE,
    "estimate": (*_SOLVE, "seed", "betas", "levels"),
    "rigidity": ("n", "k", "alpha", "seed", "samples", "cells", "box", "scale_ratio", "out"),
}
_SUMMARY = {
    "identities": "inequality sweep",
    "solve": "Newton solve of S_k(D^2 u) = f, u = 0 on the boundary",
    "estimate": "refinement study of (-u)^beta * Laplacian u",
    "rigidity": "entire solutions, quadratics and scaling invariance",
}
_HELP = {"out": "output directory", "box": "lo,hi (applied to every axis)",
         "rhs": "expression over constants, x/y/z, u, g2=|Du|^2",
         "betas": "comma list of weight exponents", "negate_oracle": argparse.SUPPRESS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumhess", description="Sum Hessian operator experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, allow_abbrev=False, help=_SUMMARY[name])
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in flags:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key))
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = RunConfig.parse(fh.read())
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config file is not UTF-8 text: {exc}") from None
    config.subcommand = args.subcommand
    for key in _FLAGS[args.subcommand]:
        text = getattr(args, key)
        if text is not None:
            config.set(key, text)
    return config.validate()


_COMMANDS = {
    "identities": cmd_identities,
    "solve": cmd_solve,
    "estimate": cmd_estimate,
    "rigidity": cmd_rigidity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a config error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        config = _config_from_args(args)
        os.makedirs(config.out, exist_ok=True)
        return _COMMANDS[config.subcommand](config)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
