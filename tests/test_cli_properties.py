"""Property test of the exit-code contract: any graph and subspace text, fed
through ``cli.main``, ends in exit 0 or 1 with JSON on stdout, or in exit 2
with one ``error:`` line on stderr, and never in an exception."""

import contextlib
import io
import json

import pytest

from graphsolitons.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MAX_P = 6

# Entries of subspace files: what the format documents, then decimals,
# exponents (one with a billion-digit value) and junk.
NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-4, 4), st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
)
TOKENS = st.one_of(
    NUMBERS,
    st.sampled_from(["0.5", "-1.25", ".5", "3.", "1_0", "1/0"]),
    st.sampled_from(["1e3", "2E-2", "1e1000000000", "-1e-1000000000", "1.5e2"]),
    st.sampled_from(["x", "1/", "/2", "--1", "nan", "inf", "\u00bd", "\u0661", "0x1"]),
    st.text(alphabet="0123456789/.-eE+x", min_size=1, max_size=8),
)


@st.composite
def graph_texts(draw):
    """A graph file, valid or with one odd line; returns it with its
    declared vertex count."""
    p = draw(st.integers(1, MAX_P))
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [str(p)] + [f"{j} {i}" if draw(st.booleans()) else f"{i} {j}" for i, j in edges]
    if draw(st.integers(0, 3)) == 0:
        odd = draw(st.sampled_from(["0 1", f"{p} {p}", f"1 {p + 1}", "x", "1 2 3", "1 1.5", "-1", "# c", ""]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return p, "\n".join(lines) + "\n"


def subspace_texts(p):
    """Up to three vectors for R^p: each all numbers, or drawn from every
    kind of token with a length near p."""
    exact = st.lists(NUMBERS, min_size=p, max_size=p)
    noisy = st.sampled_from([p, p, max(p - 1, 1), p + 1]).flatmap(
        lambda n: st.lists(TOKENS, min_size=n, max_size=n)
    )
    rows = st.lists(st.one_of(exact, exact, noisy).map(" ".join), max_size=3)
    return rows.map(lambda rows: "".join(r + "\n" for r in rows))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(code, out, err):
    assert code in (0, 1, 2)
    lines = err.splitlines()
    if code == 2:
        assert out == ""
        assert lines and lines[-1].startswith("error:")
        assert all(line.startswith("warning:") for line in lines[:-1])
    else:
        json.loads(out)
        assert all(line.startswith("warning:") for line in lines)


@pytest.mark.parametrize("command", ["analyze", "solsoliton", "classify"])
def test_cli_exit_contract_on_arbitrary_text(tmp_path_factory, command):
    workdir = tmp_path_factory.mktemp(command)
    files = {name: workdir / name for name in ("g", "a", "b")}

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        p, graph = data.draw(graph_texts())
        files["g"].write_text(graph)
        argv = [command, str(files["g"])]
        if command != "analyze":
            # the graph may declare another p than it parses to; subspaces
            # are drawn for the declared one
            for name in ("a", "b"):
                files[name].write_text(data.draw(subspace_texts(p)))
        if command == "solsoliton":
            einstein = data.draw(st.booleans())
            argv += ["--einstein"] if einstein else ["--subspace", str(files["a"])]
        elif command == "classify":
            argv += [str(files["a"]), str(files["b"])]
        _check_contract(*_run(argv))

    check()
