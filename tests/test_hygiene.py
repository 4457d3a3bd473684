"""Source hygiene: every module-level import in the package is used,
every top-level function and class and every method of such a class is
reached, the benchmark's tracer still finds every name it hooks, and the
package stays within its line budget."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sumhess

MODULES = sorted(p for p in Path(sumhess.__file__).parent.glob("*.py") if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
SRC_LINE_BUDGET = 2389  # ratcheted to the package size; a 15% cut from 2,987 lines allowed 2,539


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_src_line_budget():
    # counted as `cat src/sumhess/*.py | wc -l`, __init__.py included
    lines = sum(p.read_bytes().count(b"\n") for p in Path(sumhess.__file__).parent.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET


def _references_outside(tree: ast.Module, skip: range) -> set[str]:
    """Names and attributes read anywhere in tree except on the lines in skip."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and node.lineno not in skip
    }


def _definitions(tree: ast.Module):
    """(label, node) for each top-level function and class, and for each
    method and property of a top-level class; dunder methods are called
    implicitly and left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def test_every_top_level_name_is_reached():
    # a name counts as reached when package code reads it outside its own
    # definition (a re-export in __init__.py does not count), when the
    # benchmark's tracer names it (it hooks names by string), or when an
    # acceptance criterion reads it
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    outside = "\n".join(
        (REPO / rel).read_text() for rel in ("perfbench/tracer.py", "tests/test_acceptance.py")
    )
    unreached = []
    for path, tree in trees.items():
        for label, node in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            used = any(
                node.name in _references_outside(other, own if other is tree else range(0))
                for other in trees.values()
            )
            if not used and not re.search(rf"\b{node.name}\b", outside):
                unreached.append(f"{path.name}:{label}")
    assert unreached == []


def test_benchmark_tracer_installs():
    # install() patches modules in place, so it runs in its own process;
    # the setup stub of perfbench/child.py replaces these three cli names
    code = (
        "import tracer\n"
        "from sumhess import cli\n"
        "tracer.install(tracer.Tracer())\n"
        "names = ('run_inequality_suite', 'continuation_solve', 'refinement_study')\n"
        "missing = [n for n in names if not callable(getattr(cli, n, None))]\n"
        "assert not missing, missing\n"
    )
    paths = [Path(__file__).resolve().parents[1] / "perfbench", Path(sumhess.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_identities_run_writes_its_trace(tmp_path):
    # the benchmark's traced mode, in which the tracer wraps every report
    # builder, runs the suite over forked processes and dumps its spans
    paths = [REPO / "perfbench", Path(sumhess.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in paths))
    argv = ["identities", "--samples", "20", "--seed", "0", "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "trace", str(tmp_path / "t"), "--", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t.json").is_file()


def test_deleted_prolong_is_only_a_name_the_tracer_finds():
    # the tracer wraps `solver.prolong` by name; what it finds must not stand
    # in for the deleted function
    from sumhess import solver

    with pytest.raises(AttributeError, match="has no attribute 'prolong'"):
        solver.prolong(None, None)


def test_cli_runs_without_scipy_fft_or_optimize(tmp_path):
    # the runtime needs numpy only (scipy is a test oracle); a fresh process
    # runs every subcommand at a tiny size and then finds no scipy module
    code = (
        "import sys\n"
        "from sumhess import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "argvs = (['identities', '--samples', '20'], ['solve', '--cells', '5'],\n"
        "         ['estimate', '--cells', '5', '--levels', '2', '--betas', '1'], ['rigidity'])\n"
        "codes = [cli.main(argv + ['--out', out]) for argv in argvs]\n"
        "assert codes == [0, 0, 0, 0], codes\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sumhess.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
