"""End-to-end acceptance checks.

One test per advertised guarantee, each a single pass/fail line under
``pytest -v``.  Stated runtime budgets are asserted inside the tests.
"""

import json
import random
import time
from fractions import Fraction

from graphsolitons import (
    Graph,
    NotSoliton,
    SolitonCertificate,
    SubspaceParam,
    apply_vertex_permutation,
    automorphisms,
    build_solsoliton,
    canonical_subspace,
    check_positive_definite,
    check_soliton,
    coherent_components,
    einstein_direction,
    graph_algebra,
    graph_classes,
    graph_ricci_diagonal,
    is_positive,
    positivity_matrix,
    ricci,
    solve_weights,
    subspace_equivalent,
    symmetric_derivation_dimension,
)
from graphsolitons.cli import main
from conftest import F, PAW_TEXT


def _line_regular(g):
    # the line graph is regular iff deg(i) + deg(j) is constant over edges
    sums = {g.degree(i) + g.degree(j) for i, j in g.edges}
    return len(sums) <= 1


def _random_subspace(rng, p, r):
    while True:
        vecs = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p)]
            for _ in range(r)
        ]
        s = SubspaceParam.from_vectors(p, vecs)
        if s.r == r:
            return s


def test_criterion_01_worked_example_exact(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "paw.graph"
    path.write_text(PAW_TEXT)
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0
    weights = [Fraction(x) for x in report["weights"]]
    assert weights == [F(1, 6), F(1, 6), F(1, 3), F(1, 3)]
    assert sum(weights) == 1
    assert Fraction(report["nu"]) == F(4, 3)
    assert report["components"] == [[1, 2], [3], [4]]
    assert report["aut_order"] == 2
    assert report["sym_derivation_dim"] == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: worked example exact ({elapsed:.2f}s)")


def test_criterion_02_family_table_oracle_equivalence(capsys):
    start = time.perf_counter()
    code = main(["table1", "--max", "8"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["mismatches"] == []
    assert report["checked"] == 2662
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 2: closed forms match the solver on "
        f"{report['checked']} family instances ({elapsed:.2f}s)"
    )


def test_criterion_03_census_single_nonpositive_class(tmp_path, capsys):
    start = time.perf_counter()
    out_path = tmp_path / "census5.jsonl"
    code = main(["census", "--max-p", "5", "-o", str(out_path)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["classes"] == 31
    assert summary["nonpositive"] == 1
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    bad = [r for r in records if not r["positive"]]
    assert len(bad) == 1 and bad[0]["p"] == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: 31 connected classes on <= 5 vertices, "
        f"exactly one non-positive ({elapsed:.2f}s)"
    )


def test_criterion_04_nilsoliton_certificates(connected_classes_p5):
    positive_checked = 0
    canonical_checked = 0
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if dec.positive:
            w = dec.weighting
            cert = check_soliton(graph_algebra(g, w))
            assert isinstance(cert, SolitonCertificate)
            assert cert.residual == 0
            assert cert.c == -w.nu / 2
            # the derivation diagonal agrees with the independent closed form
            diag = graph_ricci_diagonal(g, w)
            D = cert.derivation_matrix()
            for a in range(len(D)):
                for b in range(len(D)):
                    assert D[a][b] == ((diag[a] - cert.c) if a == b else 0)
            positive_checked += 1
        # the unweighted metric works exactly for line-regular graphs
        result = check_soliton(graph_algebra(g))
        if _line_regular(g):
            assert isinstance(result, SolitonCertificate)
        else:
            assert isinstance(result, NotSoliton)
            assert result.residual > 0
        canonical_checked += 1
    assert positive_checked == 29 and canonical_checked == 30
    print(
        f"PASS criterion 4: soliton certificates on {positive_checked} weighted "
        f"algebras; canonical metric verdicts on {canonical_checked} graphs"
    )


def test_criterion_05_ricci_double_path_agreement(connected_classes_p5):
    checked = 0
    for g in connected_classes_p5:
        weightings = [None]
        dec = is_positive(g) if g.q else None
        if dec is not None and dec.positive:
            weightings.append(dec.weighting)
        for w in weightings:
            R = ricci(graph_algebra(g, w))
            diag = graph_ricci_diagonal(g, w)
            n = g.p + g.q
            for a in range(n):
                for b in range(n):
                    assert R[a][b] == (diag[a] if a == b else F(0))
            checked += 1
    print(f"PASS criterion 5: general and closed-form Ricci agree on {checked} algebras")


def test_criterion_06_symmetric_derivation_dimension_law(connected_classes_p6):
    checked = 0
    for g in connected_classes_p6:
        if g.q == 0:
            # abelian case: the canonical metric is the soliton metric
            w = None
        else:
            dec = is_positive(g)
            if not dec.positive:
                continue
            w = dec.weighting
        cd = coherent_components(g)
        L = graph_algebra(g, w)
        dim, _ = symmetric_derivation_dimension(L)
        assert dim == sum(m * (m + 1) // 2 for m in cd.sizes)
        checked += 1
    assert checked >= 135
    print(f"PASS criterion 6: dimension law verified on {checked} positive graphs")


def test_criterion_07_solsoliton_certificates(paw):
    start = time.perf_counter()
    w = solve_weights(paw)
    rng = random.Random(20240814)
    for r in (1, 2, 3):
        for _ in range(50):
            s = _random_subspace(rng, 4, r)
            L = build_solsoliton(paw, w, s)
            assert L.n == r + 4 + 4
            cert = check_soliton(L)
            assert isinstance(cert, SolitonCertificate)
            assert cert.residual == 0
            assert cert.c == F(-2, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 7: 150 random solvable extensions certified ({elapsed:.2f}s)")


def test_criterion_08_einstein_element(paw, connected_classes_p5):
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        w = dec.weighting
        s = SubspaceParam.from_vectors(g.p, [einstein_direction(g, w)])
        cert = check_soliton(build_solsoliton(g, w, s))
        assert isinstance(cert, SolitonCertificate)
        D = cert.derivation_matrix()
        assert all(x == 0 for row in D for x in row)
    # away from the Einstein orbit the derivation part is nonzero
    w = solve_weights(paw)
    ein = SubspaceParam.from_vectors(4, [einstein_direction(paw, w)])
    rng = random.Random(97)
    found = 0
    while found < 20:
        s = _random_subspace(rng, 4, 1)
        if subspace_equivalent(paw, s, ein).equivalent:
            continue
        cert = check_soliton(build_solsoliton(paw, w, s))
        D = cert.derivation_matrix()
        assert any(x != 0 for row in D for x in row)
        found += 1
    print(
        "PASS criterion 8: Einstein direction gives D = 0 on every positive "
        "graph (p <= 5); 20 non-equivalent lines give D != 0"
    )


def test_criterion_09_classification_coherence(paw):
    e1 = SubspaceParam.from_vectors(4, [[1, 0, 0, 0]])
    e2 = SubspaceParam.from_vectors(4, [[0, 1, 0, 0]])
    e3 = SubspaceParam.from_vectors(4, [[0, 0, 1, 0]])
    e4 = SubspaceParam.from_vectors(4, [[0, 0, 0, 1]])
    res = subspace_equivalent(paw, e1, e2)
    assert res.equivalent and res.witness.images == (2, 1, 3, 4)
    assert not subspace_equivalent(paw, e3, e4).equivalent
    auts = automorphisms(paw)
    rng = random.Random(123)
    for _ in range(100):
        s = _random_subspace(rng, 4, rng.randint(1, 3))
        sigma = rng.choice(auts)
        moved = apply_vertex_permutation(s, sigma)
        assert canonical_subspace(paw, moved).basis == canonical_subspace(paw, s).basis
    print(
        "PASS criterion 9: coordinate-line orbits classified correctly; "
        "canonical form constant on 100 random translates"
    )


def test_criterion_10_positivity_matrix_definite(connected_classes_p5):
    checked = 0
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        assert check_positive_definite(positivity_matrix(g))
        checked += 1
    assert checked == 30
    print(f"PASS criterion 10: positivity matrix definite on {checked} graphs")
