import random
from fractions import Fraction

import pytest

from graphsolitons import (
    TABLE_ROWS,
    DegenerateGram,
    DimensionMismatch,
    FamilySpec,
    Graph,
    MetricLieAlgebra,
    NotGraphAlgebra,
    NotSoliton,
    SolitonCertificate,
    WeightingMismatch,
    check_soliton,
    coherent_components,
    derivation_space,
    family_graph,
    graph_algebra,
    graph_classes,
    graph_ricci_diagonal,
    is_derivation,
    is_positive,
    leibniz_rows,
    ricci,
    solve_weights,
    symmetric_derivation_dimension,
)
from graphsolitons.algebra import symmetric_derivation_count, symmetric_derivation_nullspace
from graphsolitons.rational import rref
from conftest import F, blown_up_graph, sparse_rank
import reference_algebra
from reference_algebra import bracket, check_jacobi
from reference_rational import mat_mul


def _dense_derivation_dim(L):
    """Independent oracle: build the Leibniz system as a dense matrix using
    only the reference bracket on basis vectors, then count n^2 minus its rank."""
    n = L.n
    basis = [{a: F(1)} for a in range(n)]

    def br(a, b):
        out = bracket(L, basis[a], basis[b])
        return [out.get(t, F(0)) for t in range(n)]

    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = br(i, j)
            for k in range(n):
                row = [F(0)] * (n * n)
                # D[e_i, e_j]_k = sum_u bij_u * D_{ku}
                for u in range(n):
                    row[k * n + u] += bij[u]
                # [D e_i, e_j]_k = sum_u D_{ui} [e_u, e_j]_k
                for u in range(n):
                    row[u * n + i] -= br(u, j)[k]
                # [e_i, D e_j]_k = sum_u D_{uj} [e_i, e_u]_k
                for u in range(n):
                    row[u * n + j] -= br(i, u)[k]
                rows.append(row)
    if not rows:
        return n * n
    _, pivots = rref(rows)
    return n * n - len(pivots)


# ---------------------------------------------------------------- construction

def test_graph_algebra_k2_is_heisenberg(k2):
    L = graph_algebra(k2)
    assert L.n == 3
    assert L.labels == ("v1", "v2", "e1")
    assert L.gram == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    assert bracket(L, {0: F(1)}, {1: F(1)}) == {2: F(1)}
    assert bracket(L, {1: F(1)}, {0: F(1)}) == {2: F(-1)}
    assert bracket(L, {2: F(1)}, {0: F(1)}) == {}


def test_graph_algebra_weighted_gram(paw):
    w = solve_weights(paw)
    L = graph_algebra(paw, w)
    assert L.n == 8
    for a in range(8):
        for b in range(8):
            if a != b:
                assert L.gram[a][b] == 0
    assert [L.gram[a][a] for a in range(4)] == [F(1)] * 4
    assert [L.gram[4 + k][4 + k] for k in range(4)] == list(w.c)


def test_graph_algebra_weighting_mismatch(paw, k2):
    with pytest.raises(WeightingMismatch):
        graph_algebra(paw, solve_weights(k2))


def test_graph_algebra_edgeless_abelian():
    L = graph_algebra(Graph(p=3, edges=()))
    assert L.n == 3 and L.brackets == ()
    assert bracket(L, {0: F(1)}, {1: F(1)}) == {}


def test_metric_lie_algebra_validation():
    with pytest.raises(DegenerateGram):
        MetricLieAlgebra(
            n=2,
            labels=("a", "b"),
            brackets=(),
            gram=((F(1), F(2)), (F(3), F(1))),
        )
    with pytest.raises(DegenerateGram):
        MetricLieAlgebra(
            n=2,
            labels=("a", "b"),
            brackets=(),
            gram=((F(1), F(2)), (F(2), F(1))),
        )
    with pytest.raises(DimensionMismatch):
        MetricLieAlgebra(
            n=2,
            labels=("a",),
            brackets=(),
            gram=((F(1), F(0)), (F(0), F(1))),
        )


def test_zero_dimensional_algebra_is_refused():
    # the traceless choice of c in check_soliton divides by n
    for n in (0, -1):
        with pytest.raises(DimensionMismatch, match="< 1"):
            MetricLieAlgebra(n=n, labels=(), brackets=(), gram=())
    L = MetricLieAlgebra(n=1, labels=("a",), brackets=(), gram=((F(2),),))
    result = check_soliton(L)
    assert isinstance(result, SolitonCertificate) and result.c == 0


def test_jacobi_on_graph_algebras(connected_classes_p5):
    for g in connected_classes_p5[:12]:
        assert check_jacobi(graph_algebra(g))


def test_vertex_edge_split(paw):
    L = graph_algebra(paw)
    assert L.vertex_edge_split() == (4, 4)
    other = MetricLieAlgebra(
        n=2,
        labels=("a", "x"),
        brackets=((0, 1, ((1, F(1)),)),),
        gram=((F(1), F(0)), (F(0), F(1))),
    )
    with pytest.raises(NotGraphAlgebra):
        other.vertex_edge_split()


# ---------------------------------------------------------------- Ricci

def test_ricci_heisenberg(k2):
    L = graph_algebra(k2)
    R = ricci(L)
    assert R == [
        [F(-1, 2), F(0), F(0)],
        [F(0), F(-1, 2), F(0)],
        [F(0), F(0), F(1, 2)],
    ]


def test_ricci_hyperbolic_plane():
    # [a, x] = x with the standard metric: Einstein with Ric = -I.
    # Exercises the Killing-form and mean-curvature terms, which vanish
    # identically on graph algebras.
    L = MetricLieAlgebra(
        n=2,
        labels=("a", "x"),
        brackets=((0, 1, ((1, F(1)),)),),
        gram=((F(1), F(0)), (F(0), F(1))),
    )
    assert ricci(L) == [[F(-1), F(0)], [F(0), F(-1)]]


def test_ricci_matches_closed_form(connected_classes_p5):
    # the general exact engine against the independent diagonal formula,
    # both for the canonical metric and the weighted one
    for g in connected_classes_p5:
        if g.p > 4 or g.q == 0:
            continue
        for use_weights in (False, True):
            w = None
            if use_weights:
                dec = is_positive(g)
                if not dec.positive:
                    continue
                w = dec.weighting
            L = graph_algebra(g, w)
            R = ricci(L)
            diag = graph_ricci_diagonal(g, w)
            n = g.p + g.q
            for a in range(n):
                for b in range(n):
                    assert R[a][b] == (diag[a] if a == b else F(0))


def test_ricci_diagonal_paw_reference(paw):
    w = solve_weights(paw)
    assert graph_ricci_diagonal(paw, w) == [
        F(-1, 4), F(-1, 4), F(-1, 3), F(-1, 6),
        F(1, 12), F(1, 12), F(1, 6), F(1, 6),
    ]


def test_ricci_form_is_symmetric_with_gram():
    # G * Ric must be a symmetric matrix (the Ricci form)
    rng = random.Random(42)
    for _ in range(6):
        p = rng.randint(2, 4)
        edges = [
            (i, j)
            for i in range(1, p + 1)
            for j in range(i + 1, p + 1)
            if rng.random() < 0.6
        ]
        g = Graph(p=p, edges=tuple(edges))
        L = graph_algebra(g)
        R = ricci(L)
        form = mat_mul([list(row) for row in L.gram], R)
        for a in range(L.n):
            for b in range(L.n):
                assert form[a][b] == form[b][a]


# ---------------------------------------------------------------- derivations

def test_derivation_dimensions_reference(paw):
    L = graph_algebra(paw, solve_weights(paw))
    basis = derivation_space(L)
    assert len(basis) == 27

    heis = graph_algebra(Graph(p=2, edges=((1, 2),)))
    assert len(derivation_space(heis)) == 6

    abelian = graph_algebra(Graph(p=3, edges=()))
    assert len(derivation_space(abelian)) == 9


def test_derivation_dimension_matches_dense_oracle():
    graphs = [
        Graph(p=2, edges=((1, 2),)),
        Graph(p=3, edges=((1, 2), (2, 3))),
        Graph(p=3, edges=((1, 2), (1, 3), (2, 3))),
        Graph(p=3, edges=()),
        Graph(p=4, edges=((2, 3), (1, 3), (1, 2), (3, 4))),
    ]
    for g in graphs:
        L = graph_algebra(g)
        basis = derivation_space(L)
        assert len(basis) == _dense_derivation_dim(L)
        for mat in basis:
            assert is_derivation(L, mat)


def test_leibniz_rows_shape(k3):
    L = graph_algebra(k3)
    rows = leibniz_rows(L)
    n = L.n
    assert rows
    for row in rows:
        assert row
        for var in row:
            assert 0 <= var < n * n


def test_is_derivation_rejects_wrong_shape(k2):
    L = graph_algebra(k2)
    with pytest.raises(DimensionMismatch):
        is_derivation(L, [[F(0)] * 2 for _ in range(2)])


def test_symmetric_derivation_dimension_reference(paw, p3):
    L = graph_algebra(paw, solve_weights(paw))
    dim, basis = symmetric_derivation_dimension(L)
    assert dim == 5
    for mat in basis:
        assert is_derivation(L, mat)

    L3 = graph_algebra(p3, solve_weights(p3))
    dim, _ = symmetric_derivation_dimension(L3)
    assert dim == 4


def test_symmetric_derivation_dimension_law(connected_classes_p5):
    # dimension = sum over coherent components of m(m+1)/2
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        cd = coherent_components(g)
        L = graph_algebra(g, dec.weighting)
        dim, _ = symmetric_derivation_dimension(L)
        assert dim == sum(m * (m + 1) // 2 for m in cd.sizes)


def test_symmetric_derivation_rejects_non_graph_algebra():
    L = MetricLieAlgebra(
        n=2,
        labels=("a", "x"),
        brackets=((0, 1, ((1, F(1)),)),),
        gram=((F(1), F(0)), (F(0), F(1))),
    )
    with pytest.raises(NotGraphAlgebra):
        symmetric_derivation_dimension(L)
    with pytest.raises(NotGraphAlgebra):
        symmetric_derivation_count(L)


def test_symmetric_derivation_rejects_non_diagonal_edge_gram(paw):
    # graph labels and graph brackets, but e1 and e2 are not orthogonal
    L = graph_algebra(paw)
    gram = [list(row) for row in L.gram]
    gram[4][5] = gram[5][4] = F(1, 2)
    skewed = MetricLieAlgebra(
        n=L.n, labels=L.labels, brackets=L.brackets, gram=tuple(map(tuple, gram))
    )
    assert skewed.vertex_edge_split() == (4, 4)
    with pytest.raises(NotGraphAlgebra):
        symmetric_derivation_nullspace(skewed)
    with pytest.raises(NotGraphAlgebra):
        symmetric_derivation_dimension(skewed)
    with pytest.raises(NotGraphAlgebra):
        symmetric_derivation_count(skewed)


# ------------------------------------- symmetric derivations against the oracle

def _random_edge_metric(g, rng):
    """The graph algebra of g with seeded, mostly unequal, edge weights: the
    nilsoliton weights agree on the edges that twins make, these need not.
    Its brackets are [v_i, v_j] = c e_k with seeded c, mostly c != 1."""
    L = graph_algebra(g)
    diag = [F(1)] * g.p + [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(g.q)]
    gram = tuple(tuple(diag[i] if i == j else F(0) for j in range(L.n)) for i in range(L.n))
    brackets = tuple(
        (i, j, ((k, rng.choice((F(1), F(2), F(-1, 2), F(3, 4)))),))
        for i, j, ((k, _c),) in L.brackets
    )
    return MetricLieAlgebra(n=L.n, labels=L.labels, brackets=brackets, gram=gram)


def _assert_symmetric_derivations_match_oracle(g):
    """The generator construction against the n^2-unknown oracle, with the
    canonical metric, with seeded edge weights and, when g is positive,
    with its nilsoliton weights: equal dimension, equal span, and every
    basis matrix a G-symmetric derivation.  The basis built from integer
    rows equals the one the Fraction rows gave (same vectors, same key
    order, Fraction values), and the count without a basis is its length."""
    weighting = is_positive(g).weighting
    metrics = [graph_algebra(g), _random_edge_metric(g, random.Random(g.p * 1009 + g.q))]
    if weighting is not None:
        metrics.append(graph_algebra(g, weighting))
    for L in metrics:
        got = symmetric_derivation_nullspace(L)
        old = reference_algebra.generator_symmetric_derivation_nullspace(L)
        assert got == old
        assert [list(vec.items()) for vec in got] == [list(vec.items()) for vec in old]
        assert all(type(x) is Fraction for vec in got for x in vec.values())
        assert symmetric_derivation_count(L) == len(got)
        want = reference_algebra.symmetric_derivation_nullspace(L)
        assert len(got) == len(want) == sparse_rank(got) == sparse_rank(want)
        assert sparse_rank(got + want) == len(want)
        dim, basis = symmetric_derivation_dimension(L)
        assert dim == len(got) and len(basis) == dim
        gram = [list(row) for row in L.gram]
        for mat in basis:
            assert is_derivation(L, mat)
            form = mat_mul(gram, mat)
            assert all(form[a][b] == form[b][a] for a in range(L.n) for b in range(a))


def test_symmetric_derivations_match_oracle_on_every_graph_up_to_p6():
    classes = graph_classes(6, connected_only=False)
    assert len(classes) == 1 + 2 + 4 + 11 + 34 + 156
    # one edge and an isolated vertex among them
    assert any(g.p == 3 and g.q == 1 for g in classes)
    for g in classes:
        _assert_symmetric_derivations_match_oracle(g)


def test_symmetric_derivations_match_oracle_on_random_positive_graphs():
    rng = random.Random(2718)
    checked = 0
    while checked < 16:
        p = rng.randint(7, 10)
        if checked % 2:
            g = blown_up_graph(rng, p)
        else:
            density = rng.choice((0.3, 0.5, 0.7))
            g = Graph(
                p=p,
                edges=tuple(
                    (i, j)
                    for i in range(1, p + 1)
                    for j in range(i + 1, p + 1)
                    if rng.random() < density
                ),
            )
        if g.q and is_positive(g).positive:
            _assert_symmetric_derivations_match_oracle(g)
            checked += 1


def test_symmetric_derivations_match_oracle_on_family_and_edgeless_graphs():
    for row in TABLE_ROWS:
        for size in (2, 3):
            sizes = (size,) * len(row.complete)
            _assert_symmetric_derivations_match_oracle(
                family_graph(FamilySpec(row.complete, row.adjacency, sizes))
            )
    for p in range(1, 9):
        _assert_symmetric_derivations_match_oracle(Graph(p=p, edges=()))


# ---------------------------------------------------------------- solitons

def test_check_soliton_paw_certificate(paw):
    w = solve_weights(paw)
    L = graph_algebra(paw, w)
    cert = check_soliton(L)
    assert isinstance(cert, SolitonCertificate)
    assert cert.c == F(-2, 3)
    assert cert.residual == 0
    D = cert.derivation_matrix()
    assert is_derivation(L, D)
    expected = (F(5, 12), F(5, 12), F(1, 3), F(1, 2), F(3, 4), F(3, 4), F(5, 6), F(5, 6))
    for a in range(8):
        for b in range(8):
            assert D[a][b] == (expected[a] if a == b else 0)
    # Ric = cI + D entrywise
    R = ricci(L)
    for a in range(8):
        for b in range(8):
            assert R[a][b] == (cert.c if a == b else F(0)) + D[a][b]


def test_check_soliton_canonical_metric_line_regular(k3):
    # with all weights equal the canonical metric works exactly when
    # deg(i) + deg(j) is constant over edges; K3 qualifies
    L = graph_algebra(k3)
    cert = check_soliton(L)
    assert isinstance(cert, SolitonCertificate)
    assert cert.residual == 0
    R = ricci(L)
    D = cert.derivation_matrix()
    for a in range(L.n):
        for b in range(L.n):
            assert R[a][b] == (cert.c if a == b else F(0)) + D[a][b]


def test_check_soliton_canonical_metric_not_soliton(p4):
    # the path on four vertices is not line-regular, so the unweighted
    # metric fails and the report carries a positive residual
    result = check_soliton(graph_algebra(p4))
    assert isinstance(result, NotSoliton)
    assert result.residual > 0


def test_check_soliton_abelian():
    L = graph_algebra(Graph(p=3, edges=()))
    cert = check_soliton(L)
    assert isinstance(cert, SolitonCertificate)
    assert cert.c == 0 and cert.residual == 0
    D = cert.derivation_matrix()
    assert all(D[a][b] == 0 for a in range(3) for b in range(3))


def test_check_soliton_all_weighted_graphs(connected_classes_p5):
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        w = dec.weighting
        L = graph_algebra(g, w)
        cert = check_soliton(L)
        assert isinstance(cert, SolitonCertificate)
        assert cert.residual == 0
        assert cert.c == -w.nu / 2
        # derivation diagonal matches Ric - cI computed independently
        diag = graph_ricci_diagonal(g, w)
        D = cert.derivation_matrix()
        for a in range(L.n):
            assert D[a][a] == diag[a] - cert.c

