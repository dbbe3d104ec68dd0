"""tools/same_output.py: the per-checkout runner and the comparison."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "same_output", ROOT / "tools" / "same_output.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_output_finds_the_first_difference(tmp_path):
    tool = _tool()
    jsonl = str(tmp_path / "census.jsonl")
    argvs = [
        ["table1", "--max", "2"],
        ["census", "--max-p", "3", "-o", jsonl],
        ["analyze", str(tmp_path / "missing.graph")],
        ["table1", "--max", "0"],
    ]
    a = tool.run_checkout(str(ROOT), argvs, str(tmp_path), "a")
    b = tool.run_checkout(str(ROOT), argvs, str(tmp_path), "b")
    assert [r["code"] for r in a] == [0, 0, 2, 2]
    assert a[2]["err"].startswith("error: ") and "must be >= 1" in a[3]["err"]
    assert tool.first_difference(a, b) is None

    b[3]["err"] += "x"
    assert tool.first_difference(a, b).startswith("table1 --max 0: err differs")
    b[3]["err"] = a[3]["err"]
    with open(b[1]["jsonl"], "a", encoding="utf-8") as fh:
        fh.write("{}\n")
    assert tool.first_difference(a, b).startswith(f"census --max-p 3 -o {jsonl}: JSONL line 5")
    assert tool.first_difference(a, b[:-1]) == "4 results against 3"


def test_same_output_usage(tmp_path, capsys):
    assert _tool().main([str(ROOT)]) == 2
    assert _tool().main([str(ROOT), str(tmp_path)]) == 2
    assert "usage:" in capsys.readouterr().err
