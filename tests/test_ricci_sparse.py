"""The sparse Ricci operator, Leibniz rows and soliton check against the dense
reference implementation (``reference_algebra``), and the closed-form
Ricci diagonal of graph algebras against the general formula."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from graphsolitons import (
    DegenerateGram,
    Graph,
    MetricLieAlgebra,
    NotSoliton,
    SolitonCertificate,
    SubspaceParam,
    algebra,
    build_solsoliton,
    check_soliton,
    einstein_direction,
    graph_algebra,
    graph_classes,
    graph_ricci_diagonal,
    is_positive,
    leibniz_rows,
    ricci,
    solve_weights,
)
from graphsolitons.rational import leading_minors_all_positive
from conftest import F, p3_and_k3_with_off_diagonal_gram
import reference_algebra


def _rows_in_order(rows):
    return [list(row.items()) for row in rows]


def _assert_matches_reference(L):
    """Same dense Ricci matrix, same Leibniz rows in the same row and key
    order, same certificate or residual; returns the check's result."""
    assert ricci(L) == reference_algebra.ricci(L)
    assert _rows_in_order(leibniz_rows(L)) == _rows_in_order(reference_algebra.leibniz_rows(L))
    result = check_soliton(L)
    assert result == reference_algebra.check_soliton(L)
    return result


def _metrics(g):
    """The canonical metric, and the nilsoliton metric when g is positive
    with a weighting."""
    yield None
    dec = is_positive(g)
    if dec.positive and dec.weighting is not None:
        yield dec.weighting


def _random_subspace(rng, p, r):
    while True:
        vecs = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p)] for _ in range(r)]
        s = SubspaceParam.from_vectors(p, vecs)
        if s.r == r:
            return s


def _random_spd(rng, n):
    """A^T A + I for a random small-integer A: symmetric positive definite,
    mostly dense."""
    a = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    return [
        [sum((a[k][i] * a[k][j] for k in range(n)), F(0)) + (F(1) if i == j else F(0))
         for j in range(n)]
        for i in range(n)
    ]


def _random_block_spd(rng, n):
    """A symmetric positive-definite matrix, block diagonal over a random
    partition of 0..n-1 into parts of size 1 to 3, each part a dense-ish
    SPD block."""
    order = list(range(n))
    rng.shuffle(order)
    gram = [[F(0)] * n for _ in range(n)]
    start = 0
    while start < n:
        part = sorted(order[start:start + rng.randint(1, 3)])
        start += len(part)
        block = _random_spd(rng, len(part))
        for bi, i in enumerate(part):
            for bj, j in enumerate(part):
                gram[i][j] = block[bi][bj]
    return gram


def _with_gram(L, gram):
    return MetricLieAlgebra(
        n=L.n, labels=L.labels, brackets=L.brackets, gram=tuple(map(tuple, gram))
    )


# ---------------------------------------------------------------- oracles

def test_matches_reference_on_every_graph_up_to_six_vertices():
    outcomes = {SolitonCertificate: 0, NotSoliton: 0}
    for g in graph_classes(6, connected_only=False):
        for w in _metrics(g):
            outcomes[type(_assert_matches_reference(graph_algebra(g, w)))] += 1
    # both answers occur: nilsoliton metrics certify, many canonical ones do not
    assert outcomes[SolitonCertificate] > 150 and outcomes[NotSoliton] > 50


def test_matches_reference_on_solvsolitons_of_every_rank():
    rng = random.Random(8)
    graphs = [g for g in graph_classes(5) if g.q > 0]
    graphs += [Graph(p=6, edges=tuple(itertools.combinations(range(1, 7), 2)))]
    checked = 0
    for g in graphs:
        dec = is_positive(g)
        if not dec.positive or dec.weighting is None:
            continue
        w = dec.weighting
        subspaces = [_random_subspace(rng, g.p, r) for r in range(1, g.p + 1)]
        subspaces.append(SubspaceParam.from_vectors(g.p, [einstein_direction(g, w)]))
        for s in subspaces:
            L = build_solsoliton(g, w, s)
            result = _assert_matches_reference(L)
            assert isinstance(result, SolitonCertificate)
            checked += 1
    assert checked > 100


def test_matches_reference_on_dense_and_block_grams():
    # Non-diagonal Grams: multi-vertex blocks of G^-1, and with a solvable
    # extension's brackets the mean-curvature term S(ad_H).
    rng = random.Random(88)
    path = Graph(p=3, edges=((1, 2), (2, 3)))
    paw = Graph(p=4, edges=((2, 3), (1, 3), (1, 2), (3, 4)))
    bases = [graph_algebra(path), graph_algebra(paw)]
    for g in (path, paw):
        w = solve_weights(g)
        bases += [build_solsoliton(g, w, _random_subspace(rng, g.p, r)) for r in (1, 2)]
    largest_block = 0
    outcomes = set()
    for L in bases:
        for make in (_random_spd, _random_block_spd):
            for _ in range(4):
                M = _with_gram(L, make(rng, L.n))
                largest_block = max(largest_block, max(map(len, M.gram_blocks)))
                outcomes.add(type(_assert_matches_reference(M)))
    assert largest_block == max(L.n for L in bases)
    assert NotSoliton in outcomes


def test_off_diagonal_ricci_failing_only_rows_free_of_the_identity():
    # P3 and K3 with <v1, v2> = 1/2: every Leibniz row that involves the
    # identity agrees on one c, and only rows whose value at I is 0 fail,
    # so the check must test those rows at Ric too.
    for L in p3_and_k3_with_off_diagonal_gram():
        n = L.n
        ric = reference_algebra.ricci(L)
        eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        vals = [
            (reference_algebra._eval_row(row, ric, n), reference_algebra._eval_row(row, eye, n))
            for row in L.leibniz
        ]
        assert len({rv / iv for rv, iv in vals if iv}) == 1
        assert any(rv for rv, iv in vals if not iv)
        result = _assert_matches_reference(L)
        assert isinstance(result, NotSoliton) and result.residual == F(1, 3)


def _row_selection_algebras(rng):
    for g in graph_classes(5, connected_only=False):
        for w in _metrics(g):
            yield graph_algebra(g, w)
    paw = Graph(p=4, edges=((2, 3), (1, 3), (1, 2), (3, 4)))
    c4 = Graph(p=4, edges=((1, 2), (2, 3), (3, 4), (1, 4)))
    k4 = Graph(p=4, edges=tuple(itertools.combinations(range(1, 5), 2)))
    for g in (paw, c4, k4):
        w = solve_weights(g)
        for r in (1, 2, 3):
            yield build_solsoliton(g, w, _random_subspace(rng, g.p, r))
    yield from p3_and_k3_with_off_diagonal_gram()


def _as_items(rows):
    return Counter(frozenset(row.items()) for row in rows)


def test_rows_meeting_keys_are_the_full_systems_rows_that_hold_them():
    # The soliton check lists only the Leibniz rows that hold a nonzero of
    # Ric or a diagonal entry; they must be exactly the rows of the whole
    # system that do, each once, for the check's probe and for any key set.
    rng = random.Random(13)
    checked = 0
    for L in _row_selection_algebras(rng):
        n = L.n
        full = leibniz_rows(L)
        ric = ricci(L)
        probe = {i * n + j for i, row in enumerate(ric) for j, x in enumerate(row) if x}
        probe |= {k * (n + 1) for k in range(n)}
        key_sets = [probe]
        key_sets += [set(rng.sample(range(n * n), rng.randint(1, n))) for _ in range(4)]
        for keys in key_sets:
            expected = _as_items(row for row in full if not keys.isdisjoint(row))
            assert _as_items(algebra._leibniz_rows_meeting(L, keys)) == expected
            checked += bool(expected)
    assert checked > 300


def test_gram_blocks_split_the_nonzero_pattern():
    gram = (
        (F(2), F(0), F(0), F(1)),
        (F(0), F(2), F(0), F(1)),
        (F(0), F(0), F(3), F(0)),
        (F(1), F(1), F(0), F(3)),
    )
    L = MetricLieAlgebra(n=4, labels=("a", "b", "c", "d"), brackets=(), gram=gram)
    assert L.gram_blocks == ((0, 1, 3), (2,))
    assert graph_algebra(Graph(p=3, edges=((1, 2),))).gram_blocks == ((0,), (1,), (2,), (3,))


def test_gram_check_by_blocks_accepts_and_rejects_as_the_whole_matrix():
    rng = random.Random(81)
    accepted = rejected = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        gram = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = F(rng.randint(-1, 4), rng.randint(1, 2))
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    gram[i][j] = gram[j][i] = F(rng.randint(-3, 3), rng.randint(1, 2))
        labels = tuple(f"x{i}" for i in range(n))
        if leading_minors_all_positive(gram):
            MetricLieAlgebra(n=n, labels=labels, brackets=(), gram=tuple(map(tuple, gram)))
            accepted += 1
        else:
            with pytest.raises(DegenerateGram, match="^gram is not positive definite$"):
                MetricLieAlgebra(n=n, labels=labels, brackets=(), gram=tuple(map(tuple, gram)))
            rejected += 1
    assert accepted > 50 and rejected > 50


def _gram_outcome(gram):
    """"accepted", or the message of the DegenerateGram that the algebra's
    constructor raises for this Gram."""
    n = len(gram)
    labels = tuple(f"x{i}" for i in range(n))
    try:
        MetricLieAlgebra(n=n, labels=labels, brackets=(), gram=tuple(map(tuple, gram)))
    except DegenerateGram as exc:
        return str(exc)
    return "accepted"


def _reference_gram_outcome(gram):
    """The same verdict from the all-pairs symmetry check and the leading
    minors of the whole matrix."""
    if not reference_algebra.gram_is_symmetric(gram):
        return "gram is not symmetric"
    if leading_minors_all_positive(gram):
        return "accepted"
    return "gram is not positive definite"


def _skewed_copies(rng, gram):
    """Copies of gram changed at one off-diagonal entry (i, j) only: a zero
    facing a nonzero, or two different nonzeros."""
    n = len(gram)
    if n < 2:
        return []
    i, j = rng.sample(range(n), 2)
    copies = []
    for x in (F(0), F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))):
        if x != gram[j][i]:
            copy = [list(row) for row in gram]
            copy[i][j] = x
            copies.append(copy)
    return copies


def test_gram_check_over_nonzeros_accepts_and_rejects_as_all_pairs():
    rng = random.Random(1729)
    grams = []
    # the non-diagonal Grams of solvable extensions
    extension_grams = 0
    for edges, p in ((((1, 2), (2, 3), (3, 4), (1, 3)), 4), (((1, 2), (2, 3), (3, 4), (1, 4)), 4),
                     (tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)), 4),
                     (((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)), 5)):
        g = Graph(p=p, edges=edges)
        w = is_positive(g).weighting
        for r in (1, 2, 3):
            vectors = [[F(rng.randint(-2, 2)) for _ in range(p)] for _ in range(r)]
            s = SubspaceParam.from_vectors(p, vectors)
            if s.r == 0:
                continue
            gram = [list(row) for row in build_solsoliton(g, w, s).gram]
            extension_grams += any(x for i, row in enumerate(gram) for j, x in enumerate(row) if i != j)
            grams.append(gram)
            grams.extend(_skewed_copies(rng, gram))
    assert extension_grams >= 8
    # seeded symmetric Grams from diagonal through sparse to dense, some
    # blocks not positive definite, each with its skewed copies
    for _ in range(600):
        n = rng.randint(1, 7)
        density = rng.choice((0.0, 0.2, 0.5, 1.0))
        gram = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = F(rng.randint(-1, 6), rng.randint(1, 3))
            for j in range(i + 1, n):
                if rng.random() < density:
                    gram[i][j] = gram[j][i] = F(rng.randint(-3, 3), rng.randint(1, 2))
        grams.append(gram)
        grams.extend(_skewed_copies(rng, gram))
    seen = Counter()
    for gram in grams:
        outcome = _gram_outcome(gram)
        assert outcome == _reference_gram_outcome(gram)
        seen[outcome] += 1
    assert seen["accepted"] > 100
    assert seen["gram is not symmetric"] > 500
    assert seen["gram is not positive definite"] > 100


# ---------------------------------------------------------------- double path

def test_ricci_matches_closed_form_on_every_connected_graph_up_to_six_vertices():
    # the existing double-path test stops at p <= 4; this one covers all
    # 1 + 1 + 2 + 6 + 21 + 112 connected classes with p <= 6
    canonical = weighted = 0
    for g in graph_classes(6):
        for w in _metrics(g):
            diag = graph_ricci_diagonal(g, w)
            n = g.p + g.q
            expected = [[diag[a] if a == b else Fraction(0) for b in range(n)] for a in range(n)]
            assert ricci(graph_algebra(g, w)) == expected
            if w is None:
                canonical += 1
            else:
                weighted += 1
    assert canonical == 143 and weighted > 100
