"""The sparse nullspace against the previous full-scan solver.

``reference_rational.sparse_nullspace`` picks each pivot row by scanning all
remaining rows; the heap-ordered solver must pick the same rows and return
an equal basis: the same vectors, in the same order, with the same key order.
"""

import copy
import random
from fractions import Fraction

import reference_algebra
import reference_rational
from graphsolitons import (
    Graph,
    SubspaceParam,
    build_solsoliton,
    graph_algebra,
    graph_classes,
    is_positive,
    leibniz_rows,
)
from graphsolitons.algebra import symmetric_derivation_nullspace
from graphsolitons.rational import ZERO, sparse_nullspace
from conftest import PAW_EDGES, blown_up_graph, sparse_rank


def _assert_same_basis(rows, ncols):
    before = copy.deepcopy(rows)
    got = sparse_nullspace(rows, ncols)
    want = reference_rational.sparse_nullspace(rows, ncols)
    assert got == want
    assert [list(vec) for vec in got] == [list(vec) for vec in want]
    assert rows == before  # the input rows are copied, never changed
    return got


def _random_system(rng, nrows, ncols, width):
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.05:
            rows.append({})
        elif roll < 0.15 and rows:
            # a duplicate, or a multiple, of an earlier row
            f = rng.choice((1, -1, Fraction(3, 2)))
            rows.append({c: f * v for c, v in rng.choice(rows).items()})
        else:
            cols = rng.sample(range(ncols), rng.randint(1, min(width, ncols)))
            row = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for c in cols}
            rows.append(row)  # zero coefficients stay in, as explicit zeros
    return rows


def test_sparse_nullspace_matches_reference_on_random_systems():
    rng = random.Random(8128)
    nullities = set()
    for _ in range(1500):
        ncols = rng.randint(1, 24)
        rows = _random_system(rng, rng.randint(0, 30), ncols, 5)
        nullities.add(len(_assert_same_basis(rows, ncols)))
    for _ in range(40):
        # larger systems, whose rows grow and shrink many times
        ncols = rng.randint(30, 80)
        rows = _random_system(rng, rng.randint(20, 120), ncols, rng.randint(2, 8))
        nullities.add(len(_assert_same_basis(rows, ncols)))
    assert 0 in nullities and len(nullities) > 20


def test_sparse_nullspace_edge_cases():
    assert _assert_same_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert _assert_same_basis([{}, {0: ZERO}], 2) == [{0: 1}, {1: 1}]
    assert _assert_same_basis([{0: 2, 1: -2}, {0: 3, 1: -3}], 2) == [{1: 1, 0: 1}]
    assert _assert_same_basis([{0: 5}, {1: Fraction(-1, 7)}], 2) == []


def test_sparse_nullspace_int_rows_give_the_fraction_rows_basis():
    # int coefficients, and rows scaled by nonzero scalars, give the basis of
    # the Fraction rows: same vectors, same key order, Fraction values
    rng = random.Random(4096)
    for _ in range(600):
        ncols = rng.randint(1, 20)
        rows = []
        for _ in range(rng.randint(0, 24)):
            cols = rng.sample(range(ncols), rng.randint(1, min(5, ncols)))
            rows.append({c: rng.randint(-4, 4) for c in cols})  # zeros stay in
        want = _assert_same_basis([{c: Fraction(v) for c, v in row.items()} for row in rows], ncols)
        scales = [rng.choice((-3, 2, 5, Fraction(-2, 7))) for _ in rows]
        scaled = [{c: f * v for c, v in row.items()} for f, row in zip(scales, rows)]
        for variant in (rows, scaled):
            got = sparse_nullspace(variant, ncols)
            assert got == want
            assert [list(vec.items()) for vec in got] == [list(vec.items()) for vec in want]
            assert all(type(x) is Fraction for vec in got for x in vec.values())


def _reference_symmetric_system(L):
    """The Leibniz rows plus the symmetry rows (G A)_{ij} = (A^T G)_{ij},
    i < j, built by scanning the dense Gram matrix."""
    n = L.n
    rows = leibniz_rows(L)
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for u in range(n):
                if L.gram[i][u] != 0:
                    row[u * n + j] = row.get(u * n + j, ZERO) + L.gram[i][u]
                if L.gram[j][u] != 0:
                    row[u * n + i] = row.get(u * n + i, ZERO) - L.gram[j][u]
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def _check_graph_systems(g):
    """Leibniz and symmetric systems of g, with the canonical metric and,
    when g is positive, with its nilsoliton weights.  The symmetric system
    is the oracle's, in all n^2 matrix entries; the package's own
    symmetric derivations, solved on the generators, must span the same
    space."""
    weighting = is_positive(g).weighting
    for w in (None,) if weighting is None else (None, weighting):
        L = graph_algebra(g, w)
        assert list(L.leibniz) == leibniz_rows(L)
        _assert_same_basis(list(L.leibniz), L.n * L.n)
        # the oracle's n^2-unknown symmetric system, solved by both solvers
        rows = reference_algebra.symmetric_derivation_system(L)
        assert rows == _reference_symmetric_system(L)
        want = _assert_same_basis(rows, L.n * L.n)
        # the generator construction spans the same space
        got = symmetric_derivation_nullspace(L)
        assert len(got) == len(want) == sparse_rank(got) == sparse_rank(got + want)


def test_sparse_nullspace_matches_reference_on_every_small_graph():
    classes = graph_classes(5, connected_only=False)
    assert len(classes) == 1 + 2 + 4 + 11 + 34
    for g in classes:
        _check_graph_systems(g)


def test_sparse_nullspace_matches_reference_on_random_graphs():
    rng = random.Random(1618)
    for k in range(12):
        p = 6 + k % 4
        if k % 2:
            g = blown_up_graph(rng, p)
        else:
            g = Graph(
                p=p,
                edges=tuple(
                    (i, j)
                    for i in range(1, p + 1)
                    for j in range(i + 1, p + 1)
                    if rng.random() < 0.3
                ),
            )
        _check_graph_systems(g)


def test_sparse_nullspace_matches_reference_on_solvable_extensions():
    paw = Graph(p=4, edges=PAW_EDGES)
    c4 = Graph(p=4, edges=((1, 2), (2, 3), (3, 4), (1, 4)))
    for g, vectors in (
        (paw, [[1, 1, 2, 3]]),
        (paw, [[1, 0, 0, 0], [0, 0, 1, -1]]),
        (c4, [[1, -1, 1, -1], [0, 1, 0, 2]]),
        (c4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
    ):
        s = SubspaceParam.from_vectors(g.p, vectors)
        L = build_solsoliton(g, is_positive(g).weighting, s)
        _assert_same_basis(list(L.leibniz), L.n * L.n)
