import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from graphsolitons import (
    FamilySpec,
    Graph,
    SubspaceParam,
    Weighting,
    algebra,
    automorphisms,
    census,
    cli,
    family_graph,
    graphs,
    solve_weights,
    subspaces,
)
from graphsolitons.cli import main
from conftest import PAW_TEXT, p3_and_k3_with_off_diagonal_gram
import reference_graphs

NONPOS_TEXT = "5\n1 4\n1 5\n2 4\n2 5\n3 4\n3 5\n4 5\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze

def test_analyze_paw(tmp_path, capsys):
    path = _write(tmp_path, "paw.graph", PAW_TEXT)
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["p"] == 4 and report["q"] == 4
    assert report["positive"] is True and report["degenerate"] is False
    assert report["edges"] == [[2, 3], [1, 3], [1, 2], [3, 4]]
    assert report["weights"] == ["1/6", "1/6", "1/3", "1/3"]
    assert report["nu"] == "4/3"
    assert report["components"] == [[1, 2], [3], [4]]
    assert report["component_flags"] == ["complete", "discrete", "discrete"]
    assert report["coherence_edges"] == [[1, 2], [2, 3]]
    assert report["aut_order"] == 2
    assert report["sym_derivation_dim"] == 5
    sol = report["soliton"]
    assert sol["soliton"] is True
    assert sol["c"] == "-2/3"
    assert sol["residual"] == "0"
    assert sol["derivation_diagonal"] == [
        "5/12", "5/12", "1/3", "1/2", "3/4", "3/4", "5/6", "5/6",
    ]


def test_analyze_deterministic_output(tmp_path, capsys):
    path = _write(tmp_path, "paw.graph", PAW_TEXT)
    _, out1, _ = _run(capsys, ["analyze", path])
    _, out2, _ = _run(capsys, ["analyze", path])
    assert out1 == out2


def test_analyze_nonpositive(tmp_path, capsys):
    path = _write(tmp_path, "bad.graph", NONPOS_TEXT)
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 1
    report = json.loads(out)
    assert report["positive"] is False
    assert report["failing_edge_indices"] == [7]
    assert report["unnormalized_weights"] == ["1/6"] * 6 + ["0"]
    assert "soliton" not in report


def test_analyze_edgeless(tmp_path, capsys):
    path = _write(tmp_path, "edgeless.graph", "3\n")
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 0
    report = json.loads(out)
    assert report["positive"] is True and report["degenerate"] is True
    assert "weights" not in report
    assert report["soliton"]["soliton"] is True
    assert report["soliton"]["c"] == "0"
    assert report["sym_derivation_dim"] == 6


def test_analyze_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.graph", "3\n2 2\n")
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 2 and out == ""
    assert "error" in err.lower() or "loop" in err.lower()


def test_analyze_missing_file(tmp_path, capsys):
    code, out, err = _run(capsys, ["analyze", str(tmp_path / "nope.graph")])
    assert code == 2 and out == ""
    assert err


def test_usage_error(capsys):
    code, out, err = _run(capsys, [])
    assert code == 2


def test_soliton_mode_env_is_ignored(tmp_path, capsys, monkeypatch):
    # the former float switch: every setting now gives the same exact report
    path = _write(tmp_path, "paw.graph", PAW_TEXT)
    outputs = []
    for value in (None, "float", "symbolic"):
        if value is None:
            monkeypatch.delenv("SOLITON_MODE", raising=False)
        else:
            monkeypatch.setenv("SOLITON_MODE", value)
        code, out, err = _run(capsys, ["analyze", path])
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["soliton"]["c"] == "-2/3"


def test_analyze_rejects_oversized_vertex_count(tmp_path, capsys):
    path = _write(tmp_path, "huge.graph", "100000\n")
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "100000" in errors[0]


def test_analyze_counts_derivations_without_dense_basis(tmp_path, capsys, monkeypatch):
    # the report needs only the dimension, so no basis vector may be
    # unflattened into a dense n x n matrix
    def refuse(vec, n):
        raise AssertionError("dense basis matrix built")

    monkeypatch.setattr(algebra, "_unflatten", refuse)
    for p in (1, 4, 7):
        path = _write(tmp_path, f"edgeless{p}.graph", f"{p}\n")
        code, out, err = _run(capsys, ["analyze", path])
        assert code == 0 and err == ""
        assert json.loads(out)["sym_derivation_dim"] == p * (p + 1) // 2


def test_soliton_check_builds_no_full_leibniz_system(tmp_path, capsys, monkeypatch):
    # the check reads only the Leibniz rows that meet Ric or the diagonal;
    # only a failed check builds the whole system, for the least squares
    built = []
    original = algebra.leibniz_rows

    def counting(L):
        built.append(L.n)
        return original(L)

    monkeypatch.setattr(algebra, "leibniz_rows", counting)
    paw = _write(tmp_path, "paw.graph", PAW_TEXT)
    code, out, err = _run(capsys, ["analyze", paw])
    assert code == 0 and err == ""
    assert json.loads(out)["sym_derivation_dim"] == 5
    k8 = _write(tmp_path, "k8.graph", _complete_graph_text(8))
    code, out, err = _run(capsys, ["analyze", k8])
    assert code == 0 and err == ""
    assert json.loads(out)["soliton"]["residual"] == "0"
    code, out, err = _run(
        capsys, ["solsoliton", paw, "--subspace", _write(tmp_path, "s.vec", "1 0 2 0\n0 1 0 -1\n")]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["soliton"] is True
    assert built == []

    L = next(p3_and_k3_with_off_diagonal_gram())
    result = algebra.check_soliton(L)
    assert isinstance(result, algebra.NotSoliton) and result.residual == Fraction(1, 3)
    assert built == [L.n]


def test_aut_order_is_counted_without_listing_the_group(tmp_path, capsys, monkeypatch):
    out_path = str(tmp_path / "census.jsonl")
    argvs = [
        ["analyze", _write(tmp_path, "paw.graph", PAW_TEXT)],
        ["analyze", _write(tmp_path, "nonpos.graph", NONPOS_TEXT)],
        ["census", "--max-p", "5", "-o", out_path],
    ]
    expected = [_run(capsys, argv) for argv in argvs]
    with open(out_path, encoding="utf-8") as fh:
        records = fh.read()

    def refuse(*args, **kwargs):
        raise AssertionError("automorphism group listed")

    monkeypatch.setattr(graphs, "automorphisms", refuse)
    monkeypatch.setattr(cli, "automorphisms", refuse, raising=False)
    assert [_run(capsys, argv) for argv in argvs] == expected
    with open(out_path, encoding="utf-8") as fh:
        assert fh.read() == records
    monkeypatch.undo()

    assert [code for code, _out, _err in expected] == [0, 1, 0]
    assert json.loads(expected[0][1])["aut_order"] == 2
    assert json.loads(expected[1][1])["aut_order"] == 12
    lines = records.splitlines()
    assert len(lines) == 1 + 1 + 2 + 6 + 21
    for line in lines:
        record = json.loads(line)
        g = Graph(p=record["p"], edges=tuple(tuple(e) for e in record["canonical_edges"]))
        assert record["aut_order"] == len(automorphisms(g))


def _complete_graph_text(n):
    return f"{n}\n" + "".join(f"{i} {j}\n" for i, j in itertools.combinations(range(1, n + 1), 2))


def test_analyze_k12_counts_aut_order(tmp_path, capsys):
    path = _write(tmp_path, "k12.graph", _complete_graph_text(12))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["analyze", path])
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["aut_order"] == math.factorial(12) == 479001600
    assert report["sym_derivation_dim"] == 12 * 13 // 2
    assert elapsed < 30.0


def test_analyze_k13_reports_no_aut_order(tmp_path, capsys):
    path = _write(tmp_path, "k13.graph", _complete_graph_text(13))
    code, out, err = _run(capsys, ["analyze", path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["aut_order"] is None and report["sym_derivation_dim"] == 13 * 14 // 2


def _relabelled_family_text():
    # K3 - discrete 2 - K2 path template, vertex v sent to images[v - 1]
    g = family_graph(FamilySpec((True, False, True), ((0, 1), (1, 2)), (3, 2, 2)))
    images = (5, 2, 7, 1, 6, 3, 4)
    return f"{g.p}\n" + "".join(f"{images[i - 1]} {images[j - 1]}\n" for i, j in g.edges)


def _random_positive_graph_text(seed, p, density):
    # a seeded positive G(p, m) with m = density * C(p, 2) edges
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    while True:
        g = Graph(p=p, edges=tuple(rng.sample(pairs, round(density * len(pairs)))))
        if isinstance(solve_weights(g), Weighting):
            return f"{p}\n" + "".join(f"{i} {j}\n" for i, j in g.edges)


@pytest.mark.parametrize(
    "name, text, sym_dim, digest",
    [
        ("k12", _complete_graph_text(12), 78,
         "00879a302e5b6b801880ffa71a5bd821d05d67c67dfa0e27eb4705397900a6e7"),
        ("edgeless100", "100\n", 5050,
         "71fc51e4361a5279cb844c26a390c2cf94209990d3673607a581db8e4d311ac5"),
        ("family7", _relabelled_family_text(), 12,
         "08d42e806e676e54faf472793f57c430c9cad4fec1d1564d6b98077c4e31f507"),
        ("gnp10", _random_positive_graph_text(10, 10, 0.8), 11,
         "a84654e29a87e4c891ccbc6fa572ae4e72f09b1fc2545d8349d3f69021964f60"),
        ("gnp9", _random_positive_graph_text(9, 9, 0.6), 10,
         "886a28f77a85994e21c93c19b49a9fa0ddfaa8d605b3c99babc507a2cdeb608a"),
    ],
)
def test_analyze_golden(tmp_path, capsys, name, text, sym_dim, digest):
    # sha256 of stdout as written when the symmetric derivations were
    # counted by the Leibniz system plus symmetry rows in n^2 unknowns (the
    # random graphs: when the soliton check read the whole Leibniz system)
    code, out, err = _run(capsys, ["analyze", _write(tmp_path, f"{name}.graph", text)])
    assert code == 0 and err == ""
    assert json.loads(out)["sym_derivation_dim"] == sym_dim
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_long_malformed_line_gives_short_error(tmp_path, capsys):
    for name, text in (
        ("count.graph", "7" * 5000 + "\n"),
        ("edge.graph", "3\n1 " + "2" * 5000 + " 3\n"),
    ):
        path = _write(tmp_path, name, text)
        code, out, err = _run(capsys, ["analyze", path])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert len(lines[0]) < 200


# ---------------------------------------------------------------- solsoliton

def test_solsoliton_einstein(tmp_path, capsys):
    path = _write(tmp_path, "paw.graph", PAW_TEXT)
    code, out, err = _run(capsys, ["solsoliton", path, "--einstein"])
    assert code == 0
    report = json.loads(out)
    assert report["r"] == 1 and report["dim"] == 9
    assert report["soliton"] is True and report["einstein"] is True
    assert report["c"] == "-2/3" and report["residual"] == "0"
    assert report["derivation_is_diagonal"] is True
    assert all(x == "0" for x in report["derivation_diagonal"])
    assert report["canonical_subspace"] == [["1", "1", "4/5", "6/5"]]


def test_solsoliton_subspace_file(tmp_path, capsys):
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    spath = _write(tmp_path, "line.vec", "1 0 0 0\n")
    code, out, err = _run(capsys, ["solsoliton", gpath, "--subspace", spath])
    assert code == 0
    report = json.loads(out)
    assert report["r"] == 1 and report["dim"] == 9
    assert report["subspace"] == [["1", "0", "0", "0"]]
    assert report["soliton"] is True and report["einstein"] is False
    assert report["derivation_is_diagonal"] is True
    assert report["c"] == "-2/3"


def test_solsoliton_rank_warning(tmp_path, capsys):
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    spath = _write(tmp_path, "dep.vec", "1 0 0 0\n2 0 0 0\n")
    code, out, err = _run(capsys, ["solsoliton", gpath, "--subspace", spath])
    assert code == 0
    assert "span only 1" in err
    assert json.loads(out)["r"] == 1


def test_solsoliton_nonpositive(tmp_path, capsys):
    gpath = _write(tmp_path, "bad.graph", NONPOS_TEXT)
    code, out, err = _run(capsys, ["solsoliton", gpath, "--einstein"])
    assert code == 1
    report = json.loads(out)
    assert report["positive"] is False
    assert report["failing_edge_indices"] == [7]


def test_solsoliton_edgeless(tmp_path, capsys):
    gpath = _write(tmp_path, "edgeless.graph", "3\n")
    code, out, err = _run(capsys, ["solsoliton", gpath, "--einstein"])
    assert code == 1
    report = json.loads(out)
    assert report["positive"] is True and report["degenerate"] is True


def test_solsoliton_requires_subspace_choice(tmp_path, capsys):
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    code, out, err = _run(capsys, ["solsoliton", gpath])
    assert code == 2


# ---------------------------------------------------------------- classify

def test_classify_equivalent(tmp_path, capsys):
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    a = _write(tmp_path, "a.vec", "1 0 0 0\n")
    b = _write(tmp_path, "b.vec", "0 1 0 0\n")
    code, out, err = _run(capsys, ["classify", gpath, a, b])
    assert code == 0
    report = json.loads(out)
    assert report["r_a"] == 1 and report["r_b"] == 1
    assert report["equivalent"] is True
    assert report["witness"] == [2, 1, 3, 4]
    assert report["canonical_a"] == report["canonical_b"]


def test_classify_inequivalent(tmp_path, capsys):
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    a = _write(tmp_path, "a.vec", "0 0 1 0\n")
    b = _write(tmp_path, "b.vec", "0 0 0 1\n")
    code, out, err = _run(capsys, ["classify", gpath, a, b])
    assert code == 1
    report = json.loads(out)
    assert report["equivalent"] is False and report["witness"] is None
    assert report["canonical_a"] != report["canonical_b"]


def _counting_automorphisms(monkeypatch):
    """Patch the automorphism listing the subspace walk uses; return its call count."""
    calls = []

    def counting(g, *args, **kwargs):
        calls.append(g)
        return automorphisms(g, *args, **kwargs)

    monkeypatch.setattr(subspaces, "automorphisms", counting)
    return calls


@pytest.mark.parametrize(
    "command, walks",
    [
        (["solsoliton", "{g}", "--subspace", "{e1}"], 1),
        (["solsoliton", "{g}", "--einstein"], 1),
        (["classify", "{g}", "{e1}", "{e2}"], 1),  # equivalent
        (["classify", "{g}", "{zero}", "{zero}"], 1),  # equivalent, rank 0
        (["classify", "{g}", "{e3}", "{e4}"], 2),  # inequivalent
        (["classify", "{g}", "{e1}", "{plane}"], 2),  # rank mismatch
    ],
)
def test_subspace_commands_list_aut_once_per_orbit(tmp_path, capsys, monkeypatch, command, walks):
    paths = {
        "g": _write(tmp_path, "paw.graph", PAW_TEXT),
        "e1": _write(tmp_path, "e1.vec", "1 0 0 0\n"),
        "e2": _write(tmp_path, "e2.vec", "0 1 0 0\n"),
        "e3": _write(tmp_path, "e3.vec", "0 0 1 0\n"),
        "e4": _write(tmp_path, "e4.vec", "0 0 0 1\n"),
        "plane": _write(tmp_path, "plane.vec", "1 0 0 0\n0 1 0 0\n"),
        "zero": _write(tmp_path, "zero.vec", "0 0 0 0\n"),
    }
    calls = _counting_automorphisms(monkeypatch)
    code, _, _ = _run(capsys, [arg.format(**paths) for arg in command])
    assert code in (0, 1)
    assert len(calls) == walks


# The nine graphs of the extensions benchmark workload.
EXTENSION_GRAPHS = (
    (4, ((2, 3), (1, 3), (1, 2), (3, 4))),  # paw
    (4, ((1, 2), (2, 3), (3, 4), (1, 4))),  # C4
    (4, tuple(itertools.combinations(range(1, 5), 2))),  # K4
    (5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),  # C5
    (5, tuple((i, j) for i in (1, 2) for j in (3, 4, 5))),  # K2,3
    (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6))),  # C6
    (6, tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6))),  # K3,3
    (5, tuple(itertools.combinations(range(1, 6), 2))),  # K5
    (6, tuple(itertools.combinations(range(1, 7), 2))),  # K6
)


def _vectors_text(vectors):
    return "".join(" ".join(str(x) for x in v) + "\n" for v in vectors)


def _extension_argvs(tmp_path):
    """Seeded solsoliton and classify calls: each extension graph, randomly
    relabelled, with a random subspace s of rank 1-3 and another basis of
    sigma.s for a random automorphism sigma; then one inequivalent pair, one
    rank mismatch and an all-zero (rank-0) vector file."""
    rng = random.Random(6)
    argvs = []
    for n, (p, edges) in enumerate(EXTENSION_GRAPHS):
        for r in (1, 2, 3):
            labels = list(range(1, p + 1))
            rng.shuffle(labels)
            g = Graph(p=p, edges=tuple((labels[i - 1], labels[j - 1]) for i, j in edges))
            while True:
                s = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(r)]
                if SubspaceParam.from_vectors(p, s).r == r:
                    break
            sigma = rng.choice(reference_graphs.automorphisms(g))
            t = [[0] * p for _ in range(r)]
            for row, moved in zip(s, t):
                for i, x in enumerate(row, start=1):
                    moved[sigma(i) - 1] = x
            for i in range(r):
                for j in range(i + 1, r):
                    f = rng.randint(-2, 2)
                    t[i] = [a + f * b for a, b in zip(t[i], t[j])]
            text = f"{p}\n" + "".join(f"{i} {j}\n" for i, j in g.edges)
            gpath = _write(tmp_path, f"g{n}_{r}.graph", text)
            spath = _write(tmp_path, f"s{n}_{r}.vec", _vectors_text(s))
            tpath = _write(tmp_path, f"t{n}_{r}.vec", _vectors_text(t))
            argvs += [["solsoliton", gpath, "--subspace", spath], ["classify", gpath, spath, tpath]]
    c6 = _write(tmp_path, "c6.graph", "6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    a = _write(tmp_path, "a.vec", "1 2 0 0 -1 0\n0 0 1 1 0 3\n")
    b = _write(tmp_path, "b.vec", "3 0 0 1 0 0\n0 1 0 0 0 1\n")
    line = _write(tmp_path, "line.vec", "1 -1 2 0 0 0\n")
    zero = _write(tmp_path, "zero.vec", "0 0 0 0 0 0\n0 0 0 0 0 0\n")
    argvs += [
        ["classify", c6, a, b],
        ["classify", c6, a, line],
        ["solsoliton", c6, "--subspace", zero],
        ["classify", c6, zero, zero],
        ["classify", c6, zero, line],
    ]
    return argvs


def test_solsoliton_and_classify_golden(tmp_path, capsys):
    # sha256 of every exit code and stdout, as written by the earlier walk
    # that pushed the basis forward and re-reduced it in Fractions.
    digest = hashlib.sha256()
    codes = []
    for argv in _extension_argvs(tmp_path):
        code, out, _ = _run(capsys, argv)
        codes.append(code)
        digest.update(f"{code}\n{out}".encode())
    assert codes.count(1) == 3 and codes.count(2) == 0
    assert digest.hexdigest() == (
        "c91289ea395f3fd0c4ae7cb3696744f52e660d7869684801a3eecad13b7958c0"
    )


def test_classify_refuses_more_than_twelve_vertices(tmp_path, capsys):
    path13 = _write(tmp_path, "p13.graph", "13\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 13)))
    first = _write(tmp_path, "first.vec", " ".join(["1"] + ["0"] * 12) + "\n")
    last = _write(tmp_path, "last.vec", " ".join(["0"] * 12 + ["1"]) + "\n")
    code, out, err = _run(capsys, ["classify", path13, first, last])
    assert code == 2 and out == ""
    assert err == "error: refusing to enumerate Aut for p=13 > 12\n"
    # solsoliton reports the extension and leaves the canonical form out
    code, out, err = _run(capsys, ["solsoliton", path13, "--subspace", first])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["soliton"] is True and report["canonical_subspace"] is None


def test_subspace_commands_refuse_to_list_a_group_above_nine_factorial(tmp_path, capsys):
    # K10 passes the p <= 12 cap, but listing its 10! automorphisms would
    # take gigabytes; the group's order is known before the list is built
    path = _write(tmp_path, "k10.graph", _complete_graph_text(10))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["solsoliton", path, "--einstein"])
    assert time.perf_counter() - start < 30.0
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["soliton"] is True and report["canonical_subspace"] is None
    line = _write(tmp_path, "line.vec", " ".join(["1"] + ["0"] * 9) + "\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["classify", path, line, line])
    assert time.perf_counter() - start < 5.0
    assert code == 2 and out == ""
    assert err == "error: refusing to list Aut of order 3628800 > 9! = 362880\n"


def test_subspace_file_refuses_exponent_entries_at_once(tmp_path, capsys):
    # Fraction("1e1000000000") would build a power of ten with 10^9 digits
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    vec = _write(tmp_path, "huge.vec", "1e1000000000 1 0 0\n")
    start = time.perf_counter()
    code, out, err = _run(capsys, ["solsoliton", gpath, "--subspace", vec])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: line 1: bad entry '1e1000000000'\n"


def test_subspace_file_quotes_a_long_bad_entry_in_part(tmp_path, capsys):
    gpath = _write(tmp_path, "paw.graph", PAW_TEXT)
    vec = _write(tmp_path, "long.vec", "x" * 5000 + " 1 0 0\n")
    code, out, err = _run(capsys, ["solsoliton", gpath, "--subspace", vec])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 200
    assert err == "error: line 1: bad entry " + repr("x" * 40) + "...\n"


def test_analyze_k8_inverts_no_dense_gram(tmp_path, capsys, monkeypatch):
    # the nilsoliton Gram of a graph algebra is diagonal: every block is
    # 1x1, so the Ricci operator never calls the dense inverse
    path = _write(
        tmp_path, "k8.graph",
        "8\n" + "".join(f"{i} {j}\n" for i, j in itertools.combinations(range(1, 9), 2)),
    )
    expected = _run(capsys, ["analyze", path])

    def refuse(a):
        raise AssertionError("dense inverse called")

    monkeypatch.setattr(algebra, "inverse", refuse)
    assert _run(capsys, ["analyze", path]) == expected
    assert expected[0] == 0 and json.loads(expected[1])["soliton"]["residual"] == "0"


# ---------------------------------------------------------------- census

def test_census_small(tmp_path, capsys):
    out_path = tmp_path / "census.jsonl"
    code, out, err = _run(capsys, ["census", "--max-p", "5", "-o", str(out_path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["classes"] == 31
    assert summary["positive"] == 30 and summary["nonpositive"] == 1
    assert summary["per_p"]["5"] == {"classes": 21, "positive": 20, "nonpositive": 1}

    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(records) == 31
    # re-derive each stored weighting from the canonical edges
    for record in records:
        if "weights" not in record:
            continue
        g = Graph(p=record["p"], edges=tuple(tuple(e) for e in record["canonical_edges"]))
        w = solve_weights(g)
        assert [Fraction(x) for x in record["weights"]] == list(w.c)
        assert Fraction(record["nu"]) == w.nu


def test_census_parallel_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    code1, _, _ = _run(capsys, ["census", "--max-p", "4", "-o", str(serial)])
    code2, _, _ = _run(
        capsys, ["census", "--max-p", "4", "--jobs", "2", "-o", str(parallel)]
    )
    assert code1 == code2 == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_census_all_includes_disconnected(tmp_path, capsys):
    out_path = tmp_path / "all.jsonl"
    code, out, err = _run(capsys, ["census", "--max-p", "3", "--all", "-o", str(out_path)])
    assert code == 0
    summary = json.loads(out)
    assert summary["classes"] == 7 and summary["connected_only"] is False


def test_census_all_p6_golden(tmp_path, capsys):
    # sha256 of the JSONL, and of stdout without its output-path line, as
    # written by the exhaustive census that the pruned one replaced.
    out_path = tmp_path / "all6.jsonl"
    code, out, err = _run(capsys, ["census", "--max-p", "6", "--all", "-o", str(out_path)])
    assert code == 0 and err == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "f5aa94693445733da525aeb3152093ff9b456948a282e688b408adb59ddf3280"
    )
    lines = out.splitlines(keepends=True)
    output_line = f"  \"output\": {json.dumps(str(out_path))},\n"
    assert lines.count(output_line) == 1
    lines.remove(output_line)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "df6fd9320527828e16e1bd8c798bcdca15d85fe3033dbe7a023de84000b76df4"
    )


def test_census_p7_golden(tmp_path, capsys):
    # sha256 of the JSONL, and of stdout without its output-path line, of the
    # benchmark's census command, as written by the generate-and-dedupe
    # census that canonical augmentation replaced.
    out_path = tmp_path / "census7.jsonl"
    code, out, err = _run(
        capsys, ["census", "--max-p", "7", "--jobs", "1", "-o", str(out_path)]
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "043e0307b6e76ccd894cb53fd751aab64d53455e3678f986a57431e1b85a0499"
    )
    lines = out.splitlines(keepends=True)
    output_line = f"  \"output\": {json.dumps(str(out_path))},\n"
    assert lines.count(output_line) == 1
    lines.remove(output_line)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "7a48fcad66a9bc95059b73fbf8ee8d38cc8a4c71de4b7f149ba9852d04f47812"
    )


@pytest.mark.parametrize("value", [str(census.MAX_CENSUS_P + 1), "1000000"])
def test_census_rejects_max_p_above_cap(tmp_path, capsys, value):
    out_path = tmp_path / "never.jsonl"
    start = time.perf_counter()
    code, out, err = _run(capsys, ["census", "--max-p", value, "-o", str(out_path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"<= {census.MAX_CENSUS_P}" in errors[0]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--max-p", "0"), ("--max-p", "-3"), ("--jobs", "0"), ("--jobs", "-2")],
)
def test_census_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out_path = tmp_path / "never.jsonl"
    args = {"--max-p": "3", "--jobs": "1", flag: value}
    argv = ["census", "-o", str(out_path)] + [x for item in args.items() for x in item]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0] and ">= 1" in errors[0]
    assert not out_path.exists()


# ---------------------------------------------------------------- table1

def test_table1_small(capsys):
    code, out, err = _run(capsys, ["table1", "--max", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == []
    assert report["max_size"] == 4
    assert report["checked"] == sum(report["per_row"].values())
    assert set(report["per_row"]) == {
        "complete", "bipartite", "split",
        "triangle-ddd", "triangle-ddc",
        "path-ddc", "path-dcc", "path-cdc", "path-ccc",
    }


@pytest.mark.parametrize("value", ["0", "-3"])
def test_table1_rejects_max_below_one(capsys, value):
    code, out, err = _run(capsys, ["table1", "--max", value])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--max" in errors[0] and ">= 1" in errors[0]


@pytest.mark.parametrize(
    "size, digest",
    [
        ("1", "2d0bfe7cec19090e18d047fd0080aed6a66019dabfcaa256c20bb42e7255f90e"),
        ("2", "0f2d0f1ae53bd237d0fc2d3a506134261bc494397b3f3b837bef01c7fc5849f1"),
        ("3", "ee768a017204afef53c6c169b270d71fc3240185e93089c793620a0a3759068f"),
        ("8", "2db01d2904456745f1f355be1e6281935a80cfec4baafb4f449909063cc24a8b"),
    ],
)
def test_table1_golden(capsys, size, digest):
    # sha256 of stdout as written when the positivity solve walked the
    # edges incident to each class representative
    code, out, err = _run(capsys, ["table1", "--max", size])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_searches_each_graph_once(tmp_path, capsys, monkeypatch):
    # aut_order is read off the generators of the canonical search, so the
    # census runs no search besides the one inside each canonical_form call
    searches, forms = [], []
    search, form = graphs._search, census.canonical_form

    def counting_search(g):
        searches.append(g)
        return search(g)

    def counting_form(g, **kwargs):
        forms.append(g)
        return form(g, **kwargs)

    monkeypatch.setattr(graphs, "_search", counting_search)
    monkeypatch.setattr(census, "_search", counting_search)
    monkeypatch.setattr(census, "canonical_form", counting_form)
    code, out, _ = _run(capsys, ["census", "--max-p", "5", "-o", str(tmp_path / "c.jsonl")])
    assert code == 0 and json.loads(out)["classes"] == 31
    assert forms and len(searches) == len(forms)


def test_census_searches_about_once_per_class(tmp_path, capsys, monkeypatch):
    # canonical augmentation searches only candidates that pass the vertex
    # key test: 1 306 searches for 1 252 classes with p <= 7, where the
    # generate-and-dedupe census made 5 758
    forms = []
    form = census.canonical_form

    def counting_form(g, **kwargs):
        forms.append(g)
        return form(g, **kwargs)

    monkeypatch.setattr(census, "canonical_form", counting_form)
    code, out, _ = _run(
        capsys, ["census", "--max-p", "7", "--all", "-o", str(tmp_path / "c.jsonl")]
    )
    classes = json.loads(out)["classes"]
    assert code == 0 and classes == 1252
    assert len(forms) < 1.1 * classes
