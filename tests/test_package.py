"""Properties of the package as a whole: its sources and its dependencies."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import graphsolitons
from graphsolitons import (
    FamilySpec,
    Graph,
    GraphSolitonsError,
    Permutation,
    SubspaceParam,
    graph_classes,
)
from graphsolitons import positivity
from graphsolitons.rational import inverse, solve_unique
from conftest import F, PAW_EDGES, PAW_TEXT

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


def _perfbench_tracer():
    """perfbench/tracer.py as a fresh module, executed from its source so
    that nothing is written under perfbench/."""
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_hooks_accept_every_traced_result(tmp_path, capsys):
    # perfbench --trace 1 wraps the traced functions and reads their results
    # in hooks; a hook that raises, or a wrapper that changes the output,
    # ends the traced run incorrect
    from graphsolitons import cli

    paw = tmp_path / "paw.graph"
    paw.write_text(PAW_TEXT)
    c4 = tmp_path / "c4.graph"
    c4.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
    s = tmp_path / "s.vec"
    s.write_text("1 0 0 0\n")
    t = tmp_path / "t.vec"
    t.write_text("0 1 0 0\n")
    jsonl = tmp_path / "census.jsonl"
    argvs = [
        ["analyze", str(paw)],
        ["census", "--max-p", "4", "-o", str(jsonl)],
        ["table1", "--max", "3"],
        ["solsoliton", str(c4), "--subspace", str(s)],
        ["solsoliton", str(c4), "--einstein"],
        ["classify", str(c4), str(s), str(t)],
    ]

    def run_all():
        outputs = []
        for argv in argvs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            outputs.append((argv[0], code, captured.out, captured.err))
        outputs.append(jsonl.read_bytes())
        return outputs

    plain = run_all()
    tracer = _perfbench_tracer().Tracer()
    tracer.install()
    try:
        traced = run_all()
        # the solver no longer calls edge_similarity_classes, but the tracer
        # still wraps and hooks it
        classes = positivity.edge_similarity_classes(Graph(p=4, edges=PAW_EDGES))
    finally:
        tracer.uninstall()
    assert classes == ([0, 0, 1, 2], 3)
    assert traced == plain
    assert [code for _, code, _, _ in plain[:-1]] == [0, 0, 0, 0, 0, 0]
    for name in ("cli.main", "positivity.solve_weights", "positivity.edge_similarity_classes",
                 "positivity.family_graph", "census.canonical_form", "graphs.automorphisms",
                 "algebra.check_soliton"):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["edge_classes.edges"] > 0
    assert tracer.maxima["weights.den_bits"] > 0


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
