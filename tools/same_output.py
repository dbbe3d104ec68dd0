"""Compare the CLI output of two source checkouts on a fixed command set.

Usage, from anywhere:

    python3 tools/same_output.py PARENT_DIR CHANGE_DIR

Each checkout runs the whole command set in one interpreter of its own, which
imports that checkout's ``src/graphsolitons`` and calls ``cli.main`` in
process, one command after the other.  The commands are:

- ``table1 --max 1`` .. ``--max 8``;
- ``census --max-p 7`` (plain, ``--all`` and ``--jobs 2``) and
  ``census --max-p 8 --all``;
- ``analyze`` on every input of the benchmark's analyze workload for seeds 1
  and 3, plus K8, K12, K13 and the edgeless graph on 100 vertices;
- ``solsoliton`` and ``classify`` on every op of the benchmark's extensions
  workload for seeds 1 and 2.

The benchmark inputs come from ``perfbench/workloads.py`` next to this tool,
loaded without writing bytecode; they are written once to a temporary
directory that both checkouts read, so paths in the output agree.  The tool
prints the number of commands and the first difference in stdout, stderr,
exit code or census JSONL, and exits 0 iff there is none (1 otherwise, 2 on
bad usage).
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in the checkout's interpreter: argv lists arrive as JSON on stdin, one
# JSON record per command goes to the results file.  A census JSONL is moved
# to a per-checkout copy, so that both sides can write the same path.
CHILD = r"""
import contextlib, io, json, os, sys
src, results, keep = sys.argv[1:4]
sys.path.insert(0, src)
from graphsolitons import cli
if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"imported {cli.__file__}, not the checkout under {src}")
with open(results, "w", encoding="utf-8") as fh:
    for n, argv in enumerate(json.load(sys.stdin)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}
        if "-o" in argv:
            path = argv[argv.index("-o") + 1]
            record["jsonl"] = os.path.join(keep, f"{n}.jsonl")
            os.replace(path, record["jsonl"])
        fh.write(json.dumps(record) + "\n")
"""


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _graph_file(workdir: str, name: str, p: int, edges) -> str:
    path = os.path.join(workdir, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{p}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    return path


def command_set(workdir: str) -> list[list[str]]:
    """The argv lists, with every input file written under ``workdir``."""
    workloads = _load_workloads()
    jsonl = os.path.join(workdir, "census.jsonl")
    argvs = [["table1", "--max", str(m)] for m in range(1, 9)]
    argvs += [
        ["census", "--max-p", "7", "-o", jsonl],
        ["census", "--max-p", "7", "--all", "-o", jsonl],
        ["census", "--max-p", "7", "--jobs", "2", "-o", jsonl],
        ["census", "--max-p", "8", "--all", "-o", jsonl],
    ]
    for workload, seeds in (("analyze", (1, 3)), ("extensions", (1, 2))):
        for seed in seeds:
            sub = os.path.join(workdir, f"{workload}{seed}")
            os.mkdir(sub)
            for ops in workloads.make_inputs(workload, seed, sub, smoke=False):
                argvs += [argv for op in ops for argv in op.argvs]
    for p in (8, 12, 13):
        path = _graph_file(workdir, f"K{p}", p, itertools.combinations(range(1, p + 1), 2))
        argvs.append(["analyze", path])
    argvs.append(["analyze", _graph_file(workdir, "edgeless100", 100, ())])
    return argvs


def run_checkout(checkout: str, argvs, workdir: str, tag: str) -> list[dict]:
    """Run every command in one interpreter on ``checkout``'s sources."""
    keep = os.path.join(workdir, tag)
    os.mkdir(keep)
    results = os.path.join(keep, "results.jsonl")
    src = os.path.join(os.path.abspath(checkout), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "-c", CHILD, src, results, keep],
        input=json.dumps(argvs), text=True, env=env, check=True,
    )
    with open(results, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _first_line_difference(path_a: str, path_b: str) -> str | None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        for n, (a, b) in enumerate(itertools.zip_longest(fa, fb), start=1):
            if a != b:
                return f"line {n}: {a!r:.200} != {b!r:.200}"
    return None


def first_difference(parent: list[dict], change: list[dict]) -> str | None:
    """Describe the first command whose results differ, or return None."""
    if len(parent) != len(change):
        return f"{len(parent)} results against {len(change)}"
    for a, b in zip(parent, change):
        where = " ".join(a["argv"])
        for key in ("code", "out", "err"):
            if a[key] != b[key]:
                return f"{where}: {key} differs: {a[key]!r:.200} != {b[key]!r:.200}"
        if "jsonl" in a:
            line = _first_line_difference(a["jsonl"], b["jsonl"])
            if line:
                return f"{where}: JSONL {line}"
    return None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(os.path.join(d, "src")) for d in args):
        sys.stderr.write("usage: same_output.py PARENT_DIR CHANGE_DIR (source checkouts)\n")
        return 2
    with tempfile.TemporaryDirectory(prefix="same_output_") as workdir:
        argvs = command_set(workdir)
        parent = run_checkout(args[0], argvs, workdir, "parent")
        change = run_checkout(args[1], argvs, workdir, "change")
        diff = first_difference(parent, change)
    print(f"commands: {len(argvs)}")
    print(f"first difference: {diff}" if diff else "identical: stdout, stderr, exit codes, JSONL")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
