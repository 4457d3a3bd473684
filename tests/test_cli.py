"""CLI behaviour: exit codes, outputs, determinism, config round-trip."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sumhess
from sumhess import cli
from sumhess.cli import (
    EXIT_CONE_BREACH,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_STALLED,
    ConfigError,
    RunConfig,
    main,
    parse_rhs,
)
from sumhess.inequalities import run_inequality_suite

FAST_IDENTITIES = ["identities", "--samples", "60", "--seed", "3"]


class TestRunConfig:
    def test_round_trip_lossless(self):
        # every field, written as a config file spells it
        text = (
            "subcommand=estimate\nn=3\nk=2\nalpha=0.30000000000000004\ncells=17\n"
            "box_lo=-1.0\nbox_hi=1.0\nrhs=3+0.1*g2\nrtol=1e-08\nmax_iter=60\n"
            "betas=1.0,1.1\nlevels=3\nsamples=1000\nseed=42\nscale_ratio=2.0\n"
            "out=/tmp/somewhere\nnegate_oracle=\n"
        )
        cfg = RunConfig(
            subcommand="estimate",
            n=3,
            k=2,
            alpha=0.30000000000000004,
            cells=17,
            rhs="3+0.1*g2",
            betas=(1.0, 1.1),
            seed=42,
            out="/tmp/somewhere",
        )
        assert RunConfig.parse(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("nope=1\n")

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("subcommand=solve\ncells=9\nrhs=2\n")
        rc = main(
            ["solve", "--config", str(path), "--cells", "11", "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "o" / "solve_report.json").read_text())
        assert report["config"]["cells"] == 11
        assert report["config"]["rhs"] == "2"

    def test_config_file_may_hold_settings_the_subcommand_does_not_read(self, tmp_path):
        # a config file is a report's config block read back, so it may set
        # n for identities, which takes no --n; the value is still recorded
        path = tmp_path / "run.cfg"
        path.write_text("n=3\nk=3\nalpha=7\n")
        rc = main([*FAST_IDENTITIES, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "o" / "s_newton.json").read_text())
        assert (report["config"]["n"], report["config"]["k"], report["config"]["alpha"]) == (3, 3, 7.0)


# one valid value per setting that some subcommand takes as a flag
_AGREEMENT_VALID = {
    "n": "3", "k": "1", "alpha": "0.5", "seed": "7", "samples": "20", "out": "o",
    "negate_oracle": "s_newton", "cells": "9", "box": "0,2", "rhs": "3+0.1*g2",
    "rtol": "1e-6", "max_iter": "5", "betas": "1,1.5", "levels": "2", "scale_ratio": "3",
}
_AGREEMENT_CASES = [
    (sub, key, text)
    for sub in cli._FLAGS
    for key in sorted(set().union(*cli._FLAGS.values()))
    for text in (_AGREEMENT_VALID[key], "", ",", "1,,2", "x", "nan")
]


def _resolved(monkeypatch, argv):
    """Exit code of main(argv) and the config the subcommand would run."""
    seen = []

    def record(config):
        seen.append(dataclasses.asdict(config))
        return EXIT_OK

    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, record))
    return main(argv), seen


@pytest.mark.parametrize("sub,key,text", _AGREEMENT_CASES,
                         ids=[f"{s}-{k}-{t!r}" for s, k, t in _AGREEMENT_CASES])
def test_flag_and_config_line_agree(sub, key, text, tmp_path, monkeypatch, capsys):
    # a flag the subcommand takes gives what its config line gives; any
    # other setting's flag exits 64, while its config line is still read
    # and range-checked, and a valid value is accepted
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(f"{key}={text}\n")
    by_flag = _resolved(monkeypatch, [sub, f"--{key.replace('_', '-')}={text}"])
    by_config = _resolved(monkeypatch, [sub, "--config=run.cfg"])
    assert by_flag == (by_config if key in cli._FLAGS[sub] else (EXIT_CONFIG, []))
    assert by_config[0] in (EXIT_OK, EXIT_CONFIG)
    if text == _AGREEMENT_VALID[key]:
        assert by_config[0] == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_every_setting_has_a_flag():
    flags = set().union(*cli._FLAGS.values())
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert fields - {"subcommand", "box_lo", "box_hi"} <= flags


def test_help_lists_every_subcommand_with_a_summary(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in cli._COMMANDS:
        assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), (name, out)


@pytest.mark.parametrize("sub", sorted(cli._COMMANDS))
def test_every_flag_a_subcommand_takes_is_read(sub, tmp_path, monkeypatch):
    # run the command at a tiny size on a config that logs the settings it
    # reads; copying the config into a report (asdict, replace) reads them
    # all and does not count.  beta 1.5 is near-linear, so estimate runs
    # its convexity probe, which reads seed.
    fields, reads, paused = {f.name for f in dataclasses.fields(RunConfig)}, set(), []

    class LoggedConfig(RunConfig):
        def __getattribute__(self, name):
            if name in fields and not paused:
                reads.add(name)
            return super().__getattribute__(name)

    def unlogged(fn):
        def call(*args, **kwargs):
            paused.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                paused.pop()
        return call

    monkeypatch.setattr(dataclasses, "asdict", unlogged(dataclasses.asdict))
    monkeypatch.setattr(dataclasses, "replace", unlogged(dataclasses.replace))
    monkeypatch.setattr(cli, "run_inequality_suite", _cached_inequality_suite)
    config = LoggedConfig(subcommand=sub, cells=5, samples=20, levels=2, betas=(1.5,),
                          out=str(tmp_path))
    assert cli._COMMANDS[sub](config) in (EXIT_OK, EXIT_PROPERTY)
    settings = {key: {"box_lo", "box_hi"} if key == "box" else {key} for key in cli._FLAGS[sub]}
    assert [key for key, names in settings.items() if not names & reads] == []


class TestRhsParser:
    def check(self, text, x, u, p, expected):
        fn = parse_rhs(text)
        assert np.allclose(fn(x, u, p), expected)

    def test_constant(self):
        x = np.zeros((4, 2))
        self.check("3", x, np.zeros(4), np.zeros((4, 2)), 3.0)

    def test_gradient_square_and_sum(self):
        x = np.zeros((2, 2))
        p = np.array([[1.0, 2.0], [0.0, 3.0]])
        self.check("3+0.1*g2", x, np.zeros(2), p, 3.0 + 0.1 * np.array([5.0, 9.0]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_g2_is_the_squared_norm_bit_for_bit(self, dim):
        # g2 sums the squared components one by one; the reference is the
        # reduction over the trailing axis it replaced
        p = np.random.default_rng(5).normal(size=(1000, dim)) * np.logspace(-150, 150, 1000)[:, None]
        p[:2] = [[-0.0] * dim, [0.0] * dim]
        got = parse_rhs("g2")(np.zeros((1000, dim)), np.zeros(1000), p)
        assert got.tobytes() == (p**2).sum(axis=-1).tobytes()

    def test_coordinates_and_u(self):
        x = np.array([[0.5, -1.0], [2.0, 0.25]])
        u = np.array([1.0, -2.0])
        self.check("x1*x2+u", x, u, np.zeros((2, 2)), x[:, 0] * x[:, 1] + u)
        self.check("x*y+u", x, u, np.zeros((2, 2)), x[:, 0] * x[:, 1] + u)

    def test_unary_minus_and_parens(self):
        x = np.zeros((1, 2))
        self.check("-(2-5)", x, np.zeros(1), np.zeros((1, 2)), 3.0)

    def test_unknown_symbol(self):
        with pytest.raises(ConfigError):
            parse_rhs("3+q")

    def test_trailing_garbage(self):
        with pytest.raises(ConfigError):
            parse_rhs("3 3")

    @pytest.mark.parametrize(
        "text", ["", "3/2", "3**2", "+3", "True", "1j", "'3'", "f(3)", "u.real", "u<3", "01", "9" * 400]
    )
    def test_outside_the_whitelist(self, text):
        with pytest.raises(ConfigError):
            parse_rhs(text)


# rhs grammar properties, checked on three-dimensional points so that every
# coordinate name is defined
RHS_X, RHS_P = np.random.default_rng(5).uniform(-2.0, 2.0, size=(2, 4, 3))
RHS_U = RHS_X.sum(axis=-1)
RHS_ALPHABET = "0123456789.eEjx_+-*/()# \t\nuyzg"
RHS_TREES = st.recursive(
    st.one_of(st.sampled_from(["u", "g2", "x", "y", "z", "x1", "x2", "x3"]),
              st.floats(0.0, 1e3), st.integers(0, 10**6)),
    lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub) | st.tuples(st.just("neg"), sub),
    max_leaves=12,
)


def _render(tree) -> str:
    if not isinstance(tree, tuple):
        return tree if isinstance(tree, str) else repr(tree)
    if tree[0] == "neg":
        return f"-({_render(tree[1])})"
    return f"({_render(tree[1])}){tree[0]}({_render(tree[2])})"


def _reference(tree, env: dict) -> float:
    """Plain-float evaluation of a generated tree."""
    if isinstance(tree, str):
        return env[tree]
    if not isinstance(tree, tuple):
        return float(tree)
    if tree[0] == "neg":
        return -_reference(tree[1], env)
    a, b = _reference(tree[1], env), _reference(tree[2], env)
    return {"+": a + b, "-": a - b, "*": a * b}[tree[0]]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=RHS_ALPHABET, max_size=30))
def test_rhs_text_is_config_error_or_evaluates(text):
    try:
        rhs = parse_rhs(text)
    except ConfigError:
        return
    with np.errstate(all="ignore"):
        rhs(RHS_X, RHS_U, RHS_P)


@settings(max_examples=300, deadline=None)
@given(RHS_TREES)
def test_rhs_matches_plain_float_reference(tree):
    x, u, g2 = RHS_X, RHS_U, (RHS_P**2).sum(axis=-1)
    with np.errstate(all="ignore"):
        got = np.broadcast_to(parse_rhs(_render(tree))(x, u, RHS_P), u.shape)
    for i in range(len(u)):
        env = {"u": u[i], "g2": g2[i], "x": x[i, 0], "y": x[i, 1], "z": x[i, 2]}
        env.update(x1=env["x"], x2=env["y"], x3=env["z"])
        want = _reference(tree, {k: float(v) for k, v in env.items()})
        assert got[i] == want or (np.isnan(got[i]) and np.isnan(want))


class TestIdentitiesCommand:
    def test_default_suite_passes_with_eight_reports(self, tmp_path):
        rc = main(FAST_IDENTITIES + ["--out", str(tmp_path)])
        assert rc == EXIT_OK
        files = sorted(p for p in os.listdir(tmp_path) if p.endswith(".json"))
        assert len(files) == 8
        payload = json.loads((tmp_path / files[0]).read_text())
        assert payload["passed"] is True
        assert payload["config"]["seed"] == 3

    def test_byte_identical_given_seed(self, tmp_path):
        out = str(tmp_path)
        assert main(FAST_IDENTITIES + ["--out", out]) == EXIT_OK
        first = {f: (tmp_path / f).read_bytes() for f in os.listdir(out)}
        assert main(FAST_IDENTITIES + ["--out", out]) == EXIT_OK
        second = {f: (tmp_path / f).read_bytes() for f in os.listdir(out)}
        assert first == second

    def test_closed_stdout_keeps_the_run_and_its_exit_code(self, tmp_path):
        # `sumhess identities | head -1`: the reader goes after the first
        # line, yet the run writes every report and exits with its own code
        env = dict(os.environ, PYTHONPATH=str(Path(sumhess.__file__).parents[1]), PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "sumhess.cli", *FAST_IDENTITIES, "--out", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"PASS ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_OK, err
        assert err == ""
        assert len([p for p in os.listdir(tmp_path) if p.endswith(".json")]) == 8

    def test_sign_flipped_oracle_fails(self, tmp_path):
        rc = main(FAST_IDENTITIES + ["--out", str(tmp_path), "--negate-oracle", "s_newton"])
        assert rc == EXIT_PROPERTY
        payload = json.loads((tmp_path / "s_newton.json").read_text())
        assert payload["passed"] is False
        assert payload["extras"]["negated_for_testing"] is True


class TestSolveCommand:
    def test_manufactured_regression(self, tmp_path):
        rc = main(
            ["solve", "--n", "2", "--k", "2", "--alpha", "1", "--rhs", "3",
             "--cells", "33", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["status"] == "converged"
        assert report["gradient_dependent_rhs"] is False
        assert (tmp_path / "solution.csv").exists()

    def test_negative_rhs_is_config_error(self, tmp_path):
        rc = main(["solve", "--rhs", "-1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_gradient_dependent_mode_flagged(self, tmp_path):
        rc = main(
            ["solve", "--rhs", "3+0.1*g2", "--cells", "17", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["gradient_dependent_rhs"] is True

    def test_gradient_flag_reads_the_compiled_names(self, tmp_path):
        # a comment that mentions g2 leaves the right side independent of Du
        rc = main(["solve", "--cells", "5", "--rhs", "3 # no g2", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["gradient_dependent_rhs"] is False

    def test_cone_breach_exit_code(self, tmp_path, capsys):
        # no start on this box has a representable scale: every candidate
        # of initial_guess overflows
        rc = main(
            ["solve", "--n", "3", "--k", "3", "--rhs", "1e300", "--cells", "5",
             "--box=-1e150,1e150", "--out", str(tmp_path)]
        )
        assert rc == EXIT_CONE_BREACH
        assert "cone_breach after 0 iterations" in capsys.readouterr().out

    def test_non_finite_krylov_vector_is_a_stall(self, tmp_path, capsys):
        # on this tiny box f_p = 2e380 Du overflows at every stage with
        # t > 0, so BiCGSTAB meets a NaN vector: a stall, not a traceback
        # and exit 1
        rc = main(
            ["solve", "--cells", "3", "--box=-1e-60,1e-60", "--rhs", "3+g2*1e160*1e160*1e60",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_STALLED
        assert "stalled after 0 iterations" in capsys.readouterr().out
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["message"].startswith("linear solve residual nan")

    def test_n_equals_k_equals_3_has_an_admissible_start(self, tmp_path):
        # the barrier start is convex up to the edges of the box, so n = k = 3
        # has an admissible start here and the solve converges
        rc = main(
            ["solve", "--n", "3", "--k", "3", "--rhs", "3", "--cells", "17",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        assert json.loads((tmp_path / "solve_report.json").read_text())["status"] == "converged"

    def test_domain_error_during_solve_is_not_config_error(self, tmp_path, capsys):
        # f = 3 + 30u passes the u = 0 probe but is negative at the
        # initial guess, so the direct attempt ends in a domain error,
        # listed first under rejected_stages; the homotopy then halves its
        # t-step past the stages where that recurs
        rc = main(["solve", "--rhs", "3+30*u", "--cells", "17", "--out", str(tmp_path)])
        assert rc != EXIT_CONFIG
        text = (tmp_path / "solve_report.json").read_text()
        assert "domain_error" in text
        assert json.loads(text)["extras"]["rejected_stages"][0]["status"] == "domain_error"
        assert json.loads(text)["extras"]["rejected_stages"][0]["t"] == 1.0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("e", [0, 3, 5, 10, 60])
    def test_gradient_rhs_solves_alike_on_any_box_size(self, e, tmp_path):
        # u_L(x) = L^2 v(x/L) keeps the Hessians and scales Du by L, so this
        # is the unit-box problem f = 3 + 0.1|Dv|^2 for every L = 10^-e; the
        # forward-difference steps scale with the field, not with 1
        rc = main(["solve", "--rhs", f"3+0.1*g2*1e{2 * e}", "--cells", "33",
                   f"--box=-1e-{e},1e-{e}", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert (rc, report["status"], report["iterations"]) == (EXIT_OK, "converged", 5)
        assert report["extras"]["continuation_ts"] == [1.0]

    @pytest.mark.parametrize(
        "argv",
        [["identities", "--n", "3"], ["identities", "--k", "2"], ["identities", "--alpha", "1"],
         ["solve", "--seed", "1"], ["solve", "--samples", "5"], ["estimate", "--samples", "5"]],
        ids=["identities-n", "identities-k", "identities-alpha", "solve-seed", "solve-samples",
             "estimate-samples"],
    )
    def test_flag_the_subcommand_does_not_read_is_refused(self, argv, tmp_path, capsys):
        # refused by argparse as unknown, not taken as an abbreviation
        # (--n of --negate-oracle) and not range-checked
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[1]} {argv[2]}" in err
        assert "Traceback" not in err

    def test_bad_flags_are_config_errors(self, tmp_path):
        assert main(["solve", "--cells"]) == EXIT_CONFIG
        assert main(["frobnicate"]) == EXIT_CONFIG
        assert main(["solve", "--k", "5", "--n", "2", "--rhs", "3"]) == EXIT_CONFIG
        assert main(["solve", "--box", "2,1", "--rhs", "3"]) == EXIT_CONFIG

    def test_long_sum_solves(self, tmp_path):
        # a 985-term sum evaluates as flat bytecode; the CLI runs in its own
        # process because the depth Python's compiler allows shrinks with
        # the caller's stack, and pytest's is deeper than the CLI's
        rhs = "+".join(["3"] * 985)
        env = dict(os.environ, PYTHONPATH=str(Path(sumhess.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sumhess.cli", "solve", "--cells", "5", "--rhs", rhs,
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads((tmp_path / "solve_report.json").read_text())["status"] == "converged"

    def test_overflowing_rhs_is_a_domain_error_without_warnings(self, tmp_path):
        # the right side overflows to inf at the start field: the solve reports
        # domain_error and numpy prints nothing, as the CLI's own process shows
        env = dict(os.environ, PYTHONPATH=str(Path(sumhess.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sumhess.cli", "solve", "--cells", "5",
             "--rhs", "3+0.1*g2+1e-300*g2*1e300*g2*1e300*g2*1e10*g2", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_STALLED, proc.stderr
        assert "solve: domain_error after 0 iterations" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_jacobian_is_stall(self, tmp_path, capsys):
        # alpha = 1e308 overflows the Jacobian's coefficients: the linear
        # solve misses its contract, and the run reports a stall, without a
        # crash or a warning
        rc = main(["solve", "--alpha", "1e308", "--cells", "5", "--out", str(tmp_path)])
        assert rc == EXIT_STALLED
        assert json.loads((tmp_path / "solve_report.json").read_text())["status"] == "stalled"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_too_large_to_square_is_stall(self, tmp_path, capsys):
        # the Newton residual is near 1e157 at the start field, so the
        # forcing term's square overflows to inf and is capped at 0.1;
        # the linear solve then misses even that and the run stalls
        rc = main(["solve", "--rhs", "3+1e160*g2", "--cells", "5", "--out", str(tmp_path)])
        assert rc == EXIT_STALLED
        report = json.loads((tmp_path / "solve_report.json").read_text())
        assert report["status"] == "stalled"
        res = report["residual_history"][0]
        assert res * res == float("inf")
        assert report["message"].endswith("exceeds 0.1")
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--box", "1,a", "--rhs", "3"],
        ["solve", "--config", "{bad_cfg}", "--rhs", "3"],
        ["estimate", "--betas", "1,x"],
        ["estimate", "--config", "{no_betas_cfg}"],
        ["identities", "--samples", "0"],
        ["estimate", "--levels", "0"],
        ["estimate", "--levels", "1"],
        ["rigidity", "--scale-ratio", "0.5"],
        ["identities", "--seed", "-1"],
        ["rigidity", "--box", "0,inf"],
        ["estimate", "--betas", "nan"],
        ["solve", "--alpha", "inf"],
        ["solve", "--rtol", "-1"],
        ["solve", "--rtol", "nan"],
        ["solve", "--max-iter", "-3"],
        ["solve", "--config", "{nan_rtol_cfg}", "--rhs", "3"],
        ["solve", "--rhs", "(" * 300 + "3" + ")" * 300],
        ["solve", "--rhs", "+".join(["3"] * 3000)],
        ["solve", "--cells", "5", "--rhs", "3+z"],
        ["solve", "--cells", "5", "--rhs", "3+x3"],
        ["solve", "--box=-1e200,1e200", "--cells", "5"],
        ["solve", "--box=0,1e-300", "--cells", "5"],
        ["rigidity", "--box=-1e200,1e200"],
        ["rigidity", "--scale-ratio", "1e200"],
        ["rigidity", "--box=0,1e-10", "--scale-ratio", "1e160"],
        ["solve", "--cells", "5", "--rhs", "1e999"],
        ["solve", "--cells", "9" * 400],
        ["solve", "--cells", "5", "--box="],
        ["estimate", "--betas="],
        ["solve", "--cells", "5", "--config="],
        ["identities", "--samples", "10", "--negate-oracle", "bogus"],
        ["identities", "--samples", "10", "--config", "{bogus_oracle_cfg}"],
        ["identities", "--config", "{non_utf8_cfg}"],
    ],
    ids=["box", "config-value", "betas", "betas-empty", "samples", "levels-0", "levels-1",
         "scale-ratio", "seed", "box-inf", "betas-nan", "alpha-inf", "rtol-negative", "rtol-nan",
         "max-iter", "config-range", "rhs-nested", "rhs-long", "rhs-z-on-2d", "rhs-x3-on-2d",
         "box-huge", "box-tiny", "rigidity-box-huge", "scale-ratio-huge", "scale-ratio-squared",
         "rhs-inf", "cells-huge", "box-flag-empty", "betas-flag-empty", "config-flag-empty",
         "negate-oracle-unknown", "config-negate-oracle-unknown", "config-not-utf8"],
)
def test_bad_values_are_config_errors(argv, tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("cells=abc\n")
    no_betas_cfg = tmp_path / "no_betas.cfg"
    no_betas_cfg.write_text("betas=\n")
    nan_rtol_cfg = tmp_path / "nan_rtol.cfg"
    nan_rtol_cfg.write_text("rtol=nan\n")
    bogus_oracle_cfg = tmp_path / "bogus_oracle.cfg"
    bogus_oracle_cfg.write_text("negate_oracle=bogus\n")
    non_utf8_cfg = tmp_path / "non_utf8.cfg"
    non_utf8_cfg.write_bytes(b"samples=\xff\xfe\n")
    names = dict(bad_cfg=bad_cfg, no_betas_cfg=no_betas_cfg, nan_rtol_cfg=nan_rtol_cfg,
                 bogus_oracle_cfg=bogus_oracle_cfg, non_utf8_cfg=non_utf8_cfg)
    argv = [a.format(**names) for a in argv]
    argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--cells", "5", "--box=-1e100,1e100", "--rhs", "1e300"],
        ["estimate", "--cells", "5", "--box=-1e100,1e100", "--rhs", "1e300", "--levels", "2"],
        ["solve", "--n", "3", "--cells", "5", "--box=-1e150,1e150", "--rhs", "1e300"],
    ],
    ids=["solve", "estimate", "solve-3d"],
)
def test_overflowing_initial_guess_is_cone_breach(argv, tmp_path, capsys):
    # every candidate c |c_root| depth g of initial_guess overflows, so
    # none is admissible: a cone breach, without a warning or a traceback
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONE_BREACH
    assert capsys.readouterr().err == ""


# exit-code contract over generated argv: every run ends in a known code
# without a traceback.  Sizes are capped (cells <= 7, samples <= 20,
# levels <= 3, and levels 2 for a 3-D estimate) so that each run is short.
_BAD_INT = ["x", "", "nan", "inf", "1e999", "2.5", "-1", "0"]
_BAD_FLOAT = ["x", "", "nan", "inf", "-inf", "1e999", "-1e999", "0", "-1", "1e308", "1e-300", "5e-324"]
_INT_FLAGS = {
    "--n": ["2", "3", "1", "4"],
    "--k": ["1", "2", "3", "4"],
    "--seed": ["0", "7"],
    "--samples": ["1", "20"],
    "--cells": ["3", "5", "7", "9" * 400],
    "--max-iter": ["1", "5", "30"],
    "--levels": ["2", "3", "9" * 400],
}
_FLOAT_FLAGS = {
    "--alpha": ["1", "0.5", "10", "1e12", "1e308"],
    "--rtol": ["1e-8", "1e-3", "1e-300"],
    "--scale-ratio": ["2", "1.5", "1", "1e200"],
}
_TEXT_FLAGS = {
    "--box": ["-1,1", "0,1", "2,1", "1,a", "1", "1,2,3", ",", "-1e200,1e200", "0,1e-300", "0,inf",
              "nan,1", "-inf,0", "-1e30,1e30"],
    "--rhs": ["3", "3+0.1*g2", "3+x*y-0.5*u", "3+30*u", "3-10*u", "-1", "0", "1e999", "1e-300",
              "3+z", "3+x3", "(", "__import__('os')", "3 # g2", "1e300*g2", "3+1e10*u", ""],
    "--betas": ["1,2", "1,1.1,2", "x", "nan", "inf", "1,,2", "", ",", "1,8", "-400"],
    "--negate-oracle": ["s_newton", "no_such_report"],
}
# the flags each subcommand takes (the operator's for all but identities);
# a --config file may hold any of them
_COMMON = ("--n", "--k", "--alpha")
_SOLVE_FLAGS = (*_COMMON, "--cells", "--box", "--rhs", "--rtol", "--max-iter")
_SUBCOMMAND_FLAGS = {
    "identities": ("--seed", "--samples", "--negate-oracle"),
    "solve": _SOLVE_FLAGS,
    "estimate": (*_SOLVE_FLAGS, "--seed", "--betas", "--levels"),
    "rigidity": (*_COMMON, "--seed", "--samples", "--cells", "--box", "--scale-ratio"),
    "frobnicate": _COMMON,
}
_ALL_FLAGS = sorted(set().union(*_SUBCOMMAND_FLAGS.values()))
# the flags that bound a run's size; each run passes them, and flags
# override --config, so the file cannot lift the caps
_SIZE_FLAGS = {"identities": ("--samples",), "rigidity": ("--samples", "--cells"),
               "solve": ("--cells",), "estimate": ("--cells",)}


# the inequality sweep costs about 1 s even at 20 samples and the
# generated cases ask for it about 30 times, so identities runs one
# valid (samples, seed) pair, cached below
_IDENTITIES_FLAGS = {"--samples": ["20"], "--seed": ["0"]}


def _flag_values(flag, sub, bad):
    """The flag's own values, or bad ones; --box, --rhs and --betas mix both."""
    if flag in _INT_FLAGS:
        valid = _IDENTITIES_FLAGS.get(flag, _INT_FLAGS[flag]) if sub == "identities" else _INT_FLAGS[flag]
        return st.sampled_from(_BAD_INT if bad else valid)
    if flag in _FLOAT_FLAGS:
        return st.sampled_from(_BAD_FLOAT if bad else _FLOAT_FLAGS[flag])
    values = st.sampled_from(_TEXT_FLAGS[flag])
    return values | st.text(RHS_ALPHABET, max_size=12) if flag == "--rhs" else values


@st.composite
def _argv_and_config(draw):
    """A subcommand with up to four flags, at most one of them (or one
    --config key) drawn from the bad values, so most runs get past parsing."""
    sub = draw(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)))
    flags = _SUBCOMMAND_FLAGS[sub]
    chosen = draw(st.lists(st.sampled_from(flags), unique=True, max_size=4))
    chosen += [f for f in _SIZE_FLAGS.get(sub, ()) if f not in chosen]
    keys = draw(st.lists(st.sampled_from(_ALL_FLAGS), max_size=3)) if draw(st.booleans()) else None
    bad = draw(st.sampled_from([None, *chosen, *(keys or ())]))
    argv = [sub] + [f"{flag}={draw(_flag_values(flag, sub, flag == bad))}" for flag in chosen]
    config = None
    if keys is not None:
        lines = [f"{key[2:].replace('-', '_')}={draw(_flag_values(key, sub, key == bad))}" for key in keys]
        lines += draw(st.lists(st.sampled_from(["# note", "garbage", "=3", "unknown=1", ""]),
                               max_size=2))
        config = "\n".join(lines)
    if sub == "estimate" and ("--n=3" in argv or "n=3" in (config or "")):
        argv.append("--levels=2")
    return argv, config


_SWEEPS = {}


def _cached_inequality_suite(samples, seed):
    """The real sweep, run once per (samples, seed), on which alone its
    outcome depends."""
    if (samples, seed) not in _SWEEPS:
        _SWEEPS[samples, seed] = run_inequality_suite(samples=samples, seed=seed)
    return copy.deepcopy(_SWEEPS[samples, seed])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argv_and_config())
# the generated runs seldom pair a solvable estimate with a huge box or beta,
# so the two whose weighted quantity overflows are always run as well
@example((["estimate", "--box=-1e30,1e30", "--cells=5", "--levels=2", "--betas=1,8"], None))
@example((["estimate", "--cells=5", "--levels=2", "--betas=-400"], None))
def test_exit_code_contract_holds_for_generated_argv(case):
    argv, config = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(config)
            argv = argv + [f"--config={path}"]
        with (mock.patch.object(cli, "run_inequality_suite", _cached_inequality_suite),
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            rc = main(argv + [f"--out={os.path.join(tmp, 'out')}"])
    assert rc in (EXIT_OK, EXIT_PROPERTY, EXIT_STALLED, EXIT_CONE_BREACH, EXIT_CONFIG), argv
    assert "Traceback" not in stderr.getvalue(), (argv, stderr.getvalue())


# solve and estimate runs that draw only valid values, so that every run
# gets past validation and solves, plus one extreme but valid value; cells
# <= 7 and levels 2 keep each run short
_VALID_SOLVE_FLAGS = {
    "--alpha": ["1", "0.5", "10"],
    "--box": ["-1,1", "0,1", "-3,2"],
    "--rhs": ["3", "3+0.1*g2", "3-0.5*u", "3+x*x+y*y", "3+30*u"],
    "--rtol": ["1e-8", "1e-3"],
    "--max-iter": ["5", "30"],
}
_VALID_ESTIMATE_FLAGS = {"--betas": ["1", "1,2", "1,1.1,2"], "--seed": ["0", "7"]}
_EXTREME_SOLVE_VALUES = [("--box", "-1e30,1e30"), ("--box", "0,1e30"), ("--box", "-1e15,1e15"),
                         ("--rtol", "1e-300"), ("--alpha", "1e12")]
_EXTREME_ESTIMATE_VALUES = [("--betas", "8"), ("--betas", "1,8"), ("--betas", "-400")]


@st.composite
def _valid_solving_argv(draw):
    sub = draw(st.sampled_from(["solve", "estimate"]))
    n = draw(st.sampled_from([2, 3]))
    valid = {**_VALID_SOLVE_FLAGS, **(_VALID_ESTIMATE_FLAGS if sub == "estimate" else {})}
    extremes = _EXTREME_SOLVE_VALUES + (_EXTREME_ESTIMATE_VALUES if sub == "estimate" else [])
    extreme_flag, extreme = draw(st.sampled_from(extremes))
    chosen = draw(st.lists(st.sampled_from(sorted(set(valid) - {extreme_flag})), unique=True, max_size=4))
    argv = [sub, f"--n={n}", f"--k={draw(st.integers(1, n))}",
            f"--cells={draw(st.sampled_from(['3', '5', '7']))}", f"{extreme_flag}={extreme}"]
    argv += [f"{flag}={draw(st.sampled_from(valid[flag]))}" for flag in chosen]
    return argv + ["--levels=2"] if sub == "estimate" else argv


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_valid_solving_argv())
def test_valid_argv_with_an_extreme_value_solves_without_a_config_error(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
        rc = main(argv + [f"--out={tmp}"])
    assert rc in (EXIT_OK, EXIT_PROPERTY, EXIT_STALLED, EXIT_CONE_BREACH), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), (argv, stderr.getvalue())


class TestRunSizeBound:
    """validate() refuses a run whose arrays cannot fit in physical memory
    before any command starts; nothing large is allocated here."""

    @pytest.fixture(autouse=True)
    def no_commands(self, monkeypatch):
        def refuse(config):
            raise AssertionError(f"{config.subcommand} started")

        monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, refuse))

    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        sizes = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--samples", "100000000000"],
            ["rigidity", "--samples", "100000000000"],
            ["solve", "--cells", "1000000"],
            ["rigidity", "--n", "3", "--cells", "100000"],
            ["estimate", "--cells", "5", "--levels", "40"],
        ],
        ids=["identities-samples", "rigidity-samples", "solve-cells", "rigidity-cells", "estimate-levels"],
    )
    def test_oversized_runs_are_config_errors(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert "physical memory" in capsys.readouterr().err

    def test_node_bound_uses_the_finest_grid(self, monkeypatch):
        self.physical_memory(monkeypatch, cli.BYTES_PER_NODE * 511**2)
        RunConfig(subcommand="solve", cells=511).validate()
        RunConfig(subcommand="solve", n=3, cells=63).validate()
        RunConfig(subcommand="estimate", cells=15, levels=6).validate()  # finest side 511
        RunConfig(subcommand="identities", cells=512).validate()
        for config in (
            RunConfig(subcommand="solve", cells=512),
            RunConfig(subcommand="solve", n=3, cells=64),
            RunConfig(subcommand="rigidity", cells=512, samples=10),
            RunConfig(subcommand="estimate", cells=15, levels=7),
        ):
            with pytest.raises(ConfigError, match="physical memory"):
                config.validate()

    def test_sample_bound_applies_to_sampling_commands(self, monkeypatch):
        self.physical_memory(monkeypatch, cli.BYTES_PER_SAMPLE * 10**6)
        RunConfig(subcommand="identities", samples=10**6).validate()
        RunConfig(subcommand="solve", cells=9, samples=10**6 + 1).validate()
        for sub in ("identities", "rigidity"):
            with pytest.raises(ConfigError, match="physical memory"):
                RunConfig(subcommand=sub, cells=9, samples=10**6 + 1).validate()


class TestEstimateCommand:
    def test_small_study(self, tmp_path):
        rc = main(
            ["estimate", "--rhs", "3+0.1*g2", "--cells", "9", "--betas", "1,1.1",
             "--levels", "2", "--out", str(tmp_path)]
        )
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "estimate_beta_1.0.json").read_text())
        assert payload["stable"] is True
        assert len(payload["per_refinement"]) == 2

    def test_convexity_probe_domain_error_is_not_config_error(self, tmp_path, capsys):
        # both levels converge; then f = 3 - 0.2|Du|^2 turns nonpositive
        # at some of the probe's gradients (|p| up to 3*sqrt(2)), which is
        # a domain error after the solves, not a configuration error
        rc = main(
            ["estimate", "--rhs", "3-0.2*g2", "--cells", "7", "--betas", "1.1",
             "--levels", "2", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_STALLED
        assert captured.err == ""
        assert captured.out.startswith("FAIL estimate beta=1.1: gradient convexity probe")

    def test_positive_solution_is_a_domain_error_not_config_error(self, tmp_path, capsys):
        # k = 1: S_1 = Laplacian + alpha = 0.5 < alpha makes u superharmonic,
        # so the solved u is positive, outside the weight (-u)^beta's domain
        rc = main(
            ["estimate", "--k", "1", "--rhs", "0.5", "--cells", "7", "--levels", "2",
             "--betas", "1", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_STALLED
        assert captured.err == ""
        assert captured.out.startswith("FAIL estimate beta=1.0: refinement level 0: field must be <= 0")
        assert captured.out.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--box=-1e30,1e30", "--betas", "1,8"],
             "FAIL estimate beta=8.0: refinement level 0: weighted quantity (-u)^8.0 * Laplacian is not finite"),
            (["--betas=-400"],
             "FAIL estimate beta=-400.0: refinement level 1: weighted quantity (-u)^-400.0 * Laplacian is not finite"),
        ],
        ids=["huge-box", "negative-beta"],
    )
    def test_non_finite_weighted_quantity_is_a_domain_error(self, argv, line, tmp_path, capsys):
        # (-u)^8 overflows where -u is near 1e60 on the huge box, while the
        # finite beta = 1 before it does not label the failure; (-u)^-400
        # overflows next to the boundary of the finer level, where -u is small
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["estimate", "--cells", "5", "--levels", "2", "--rhs", "3", *argv,
                       "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == EXIT_STALLED
        assert captured.err == ""
        assert captured.out == line + "\n"

    def test_level_falls_back_to_continuation(self, tmp_path):
        # f = 3 + 30u is negative at the initial guess, so each level's
        # direct solve ends in a domain error and the homotopy solves it,
        # as the solve subcommand does; the sups then disagree by 29%
        rc = main(
            ["estimate", "--rhs", "3+30*u", "--cells", "9", "--levels", "2", "--betas", "1",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_PROPERTY
        payload = json.loads((tmp_path / "estimate_beta_1.0.json").read_text())
        assert len(payload["per_refinement"]) == 2
        assert payload["stable"] is False


class TestRigidityCommand:
    def test_default_passes(self, tmp_path):
        rc = main(["rigidity", "--samples", "500", "--cells", "9", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "rigidity_report.json").read_text())
        assert payload["entire_solution_sweep"]["passed"]
        assert payload["quadratic_classification"]["passed"]
        assert payload["scaling_invariance"]["passed"]

    def test_k1_with_large_alpha_passes(self, tmp_path):
        # alpha = 2 exceeds the target 1, so the isotropic level is negative
        rc = main(["rigidity", "--k", "1", "--alpha", "2", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "rigidity_report.json").read_text())
        assert payload["quadratic_classification"]["isotropic_level"] == pytest.approx(-0.5)

    def test_n3_k3_classifies_the_quadratic_over_a_log_grid_of_alpha(self, tmp_path, capsys):
        # every third of 241 log-spaced alpha in [1e-6, 1e6]; the residual
        # bound 1e-12 needs a level accurate to a few ulps: a relative
        # bracket width of 1e-12 gives up to 1.4e-12 here (alpha =
        # 0.004466835921509635 among them)
        for i, alpha in enumerate(np.geomspace(1e-6, 1e6, 241)[::3]):
            out = tmp_path / str(i)
            argv = ["rigidity", "--n", "3", "--k", "3", "--alpha", repr(float(alpha)),
                    "--cells", "3", "--samples", "10", "--out", str(out)]
            assert main(argv) == EXIT_OK, alpha
            report = json.loads((out / "rigidity_report.json").read_text())
            assert report["quadratic_classification"]["passed"]
        assert "FAIL" not in capsys.readouterr().out

