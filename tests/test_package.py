"""Properties of the package as a whole: its sources and its dependencies."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsolitons
from graphsolitons import (
    FamilySpec,
    GraphSolitonsError,
    Permutation,
    SubspaceParam,
    graph_classes,
)
from graphsolitons.rational import inverse, solve_unique
from conftest import F, PAW_TEXT

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(graphsolitons.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a correctness check must raise instead
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_traced_names_exist():
    # perfbench/tracer.py wraps these by name, so --trace 1 breaks when one
    # goes; several have no caller in the package itself
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    assert ("algebra.gram_check", "algebra", "MetricLieAlgebra.__post_init__") in targets
    missing = []
    for _metric, modname, attr in targets:
        scope = importlib.import_module(f"graphsolitons.{modname}")
        *owners, name = attr.split(".")
        for owner in owners:
            scope = getattr(scope, owner, None)
        if name not in vars(scope or object):
            missing.append(f"{modname}.{attr}")
    assert missing == []


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_cli_runs_without_numpy(tmp_path):
    graph = tmp_path / "paw.graph"
    graph.write_text(PAW_TEXT)
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import graphsolitons\n"
        "from graphsolitons.cli import main\n"
        f"sys.exit(main(['analyze', {str(graph)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"soliton": true' in proc.stdout


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Permutation((1, 1, 3)), graphsolitons.NotAPermutation),
        (lambda: FamilySpec((True,), (), (2, 2)), graphsolitons.InvalidFamilySpec),
        (lambda: FamilySpec((True,), (), (0,)), graphsolitons.InvalidFamilySpec),
        (lambda: FamilySpec((True, False), ((0, 2),), (2, 1)), graphsolitons.InvalidFamilySpec),
        (lambda: FamilySpec((True, False), ((0, 1), (1, 0)), (2, 1)),
         graphsolitons.InvalidFamilySpec),
        (lambda: graph_classes(0), graphsolitons.InvalidArgument),
        (lambda: SubspaceParam(2, ((F(0), F(1)), (F(1), F(0)))), graphsolitons.NotReducedEchelon),
        (lambda: solve_unique([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)]),
         graphsolitons.SingularMatrix),
        (lambda: inverse([[F(1), F(2)], [F(2), F(4)]]), graphsolitons.SingularMatrix),
    ],
)
def test_library_errors_raise_both_base_classes(make, error):
    # a library caller catches GraphSolitonsError; older code caught ValueError
    with pytest.raises(error) as info:
        make()
    assert isinstance(info.value, GraphSolitonsError)
    assert isinstance(info.value, ValueError)
