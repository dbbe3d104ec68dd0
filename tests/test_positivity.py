import itertools
import random
import warnings
from fractions import Fraction

import pytest

from graphsolitons import positivity
from graphsolitons.positivity import NotPositive, Weighting
from graphsolitons.rational import solve_unique
from graphsolitons import (
    EmptyEdgeSet,
    FamilySpec,
    Graph,
    NotSymmetric,
    TABLE_ROWS,
    UnknownFamily,
    automorphisms,
    check_positive_definite,
    coherent_components,
    edge_similarity_classes,
    family_graph,
    graph_classes,
    induced_edge_permutation,
    is_connected,
    is_positive,
    positivity_matrix,
    solve_weights,
    table1_criterion,
)
from conftest import F, blown_up_graph


def test_positivity_matrix_paw(paw):
    m = positivity_matrix(paw)
    assert m == [
        [F(3), F(1), F(1), F(1)],
        [F(1), F(3), F(1), F(1)],
        [F(1), F(1), F(3), F(0)],
        [F(1), F(1), F(0), F(3)],
    ]


def test_positivity_matrix_p3(p3):
    assert positivity_matrix(p3) == [[F(3), F(1)], [F(1), F(3)]]


def test_positivity_matrix_empty():
    with pytest.raises(EmptyEdgeSet):
        positivity_matrix(Graph(p=2, edges=()))


# ---------------------------------------------------------------- weights

def test_solve_weights_reference_values(paw, k2, p3, p4, k3):
    w = solve_weights(paw)
    assert w.c == (F(1, 6), F(1, 6), F(1, 3), F(1, 3))
    assert w.nu == F(4, 3)

    w = solve_weights(k2)
    assert w.c == (F(1),) and w.nu == F(3)

    w = solve_weights(p3)
    assert w.c == (F(1, 2), F(1, 2)) and w.nu == F(2)

    w = solve_weights(p4)
    assert w.c == (F(2, 5), F(1, 5), F(2, 5)) and w.nu == F(7, 5)

    w = solve_weights(k3)
    assert w.c == (F(1, 3), F(1, 3), F(1, 3)) and w.nu == F(5, 3)


def test_solve_weights_satisfies_full_system(connected_classes_p5):
    # independent substitution check: (3I + A(L))c == nu * 1 entrywise,
    # written out edge by edge without reusing the solver's matrix code
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        w = dec.weighting
        assert sum(w.c) == 1
        for k, (i, j) in enumerate(g.edges):
            total = 3 * w.c[k]
            for l, (a, b) in enumerate(g.edges):
                if l == k:
                    continue
                if {i, j} & {a, b}:
                    total += w.c[l]
            assert total == w.nu


def test_solve_weights_raises_when_full_check_fails(paw, monkeypatch):
    monkeypatch.setattr(positivity, "_verify_full", lambda g, c, nu: False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"edges=\[\(2, 3\)"):
            solve_weights(paw)


def test_solve_weights_raises_on_singular_class_matrix(monkeypatch):
    # a wrong edge classification whose class matrix [[3, 4], [3, 4]] has a
    # zero second leading minor: Bareiss stops at that pivot
    g = Graph(p=5, edges=((1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5)))
    wrong = ([0, 1, 1, 1, 1, 0, 0], 2)
    monkeypatch.setattr(positivity, "edge_similarity_classes", lambda g: wrong)
    with pytest.raises(RuntimeError, match="leading minor 0 at order 2"):
        solve_weights(g)


def test_solve_reduced_is_integer(paw):
    num, den = positivity._solve_reduced(paw, *edge_similarity_classes(paw))
    # paw at nu = 1: c = (1/8, 1/8, 1/4, 1/4); the denominator is the
    # determinant of the 3 x 3 class matrix [[4, 1, 1], [2, 3, 0], [2, 0, 3]]
    assert all(type(x) is int for x in num) and den == 24
    assert [Fraction(x, den) for x in num] == [F(1, 8), F(1, 8), F(1, 4), F(1, 4)]


def _full_fraction_solve(g):
    """Independent oracle: solve the whole q x q system (3I + A) c = 1 in
    Fractions, with no edge classes, and normalize as solve_weights does."""
    x = solve_unique(positivity_matrix(g), [F(1)] * g.q)
    failing = tuple(k + 1 for k, xk in enumerate(x) if xk <= 0)
    if failing:
        return NotPositive(c=tuple(x), failing_indices=failing)
    s = sum(x)
    return Weighting(nu=1 / s, c=tuple(xk / s for xk in x))


def _assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, Weighting):
        assert got.nu == want.nu and got.c == want.c
    else:
        assert got.c == want.c and got.failing_indices == want.failing_indices
    assert all(type(x) is Fraction for x in got.c)


def test_solve_weights_matches_full_fraction_solve_on_random_graphs():
    rng = random.Random(909)
    kinds = {Weighting: 0, NotPositive: 0}
    disconnected = 0
    for _ in range(400):
        p = rng.randint(2, 9)
        if rng.random() < 0.5:
            g = blown_up_graph(rng, p)
        else:
            density = rng.random()
            g = Graph(p=p, edges=tuple(
                e for e in itertools.combinations(range(1, p + 1), 2) if rng.random() < density
            ))
        if g.q == 0:
            continue
        want = _full_fraction_solve(g)
        _assert_same_result(solve_weights(g), want)
        kinds[type(want)] += 1
        disconnected += not is_connected(g)
    assert kinds[Weighting] >= 200 and kinds[NotPositive] >= 15
    assert disconnected >= 50


def test_solve_weights_matches_full_fraction_solve_on_family_graphs():
    # every table1 family graph whose blocks have at most 4 vertices
    checked = 0
    for row in TABLE_ROWS:
        ranges = [range(2, 5) if full else range(1, 5) for full in row.complete]
        for sizes in itertools.product(*ranges):
            g = family_graph(FamilySpec(row.complete, row.adjacency, sizes))
            _assert_same_result(solve_weights(g), _full_fraction_solve(g))
            checked += 1
    assert checked == 290


def test_weights_invariant_under_automorphisms(connected_classes_p5):
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        c = dec.weighting.c
        for a in automorphisms(g):
            pi = induced_edge_permutation(g, a)
            for k in range(g.q):
                assert c[pi(k + 1) - 1] == c[k]


def test_similar_edges_share_weight(connected_classes_p5):
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        class_ids, _ = edge_similarity_classes(g)
        c = dec.weighting.c
        for k in range(g.q):
            for l in range(k + 1, g.q):
                if class_ids[k] == class_ids[l]:
                    assert c[k] == c[l]


def test_nonpositive_graph_failure_report():
    # three isolated vertices joined to an edge: the unique non-positive
    # connected graph on at most five vertices
    g = Graph(p=5, edges=((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
    dec = is_positive(g)
    assert not dec.positive and dec.weighting is None
    fail = dec.failure
    assert fail.failing_indices == (7,)
    # unnormalized solve at nu=1: join edges get 1/6, the internal edge 0
    assert fail.c == (F(1, 6),) * 6 + (F(0),)


def test_is_positive_edgeless_degenerate():
    dec = is_positive(Graph(p=3, edges=()))
    assert dec.positive and dec.degenerate and dec.weighting is None


# ---------------------------------------------------------------- PD check

def test_check_positive_definite():
    assert check_positive_definite(((F(2), F(1)), (F(1), F(2))))
    assert not check_positive_definite(((F(1), F(2)), (F(2), F(1))))
    assert not check_positive_definite(((F(0),),))
    with pytest.raises(NotSymmetric):
        check_positive_definite(((F(1), F(2)), (F(3), F(1))))


def test_positivity_matrix_always_pd(connected_classes_p5):
    for g in connected_classes_p5:
        if g.q == 0:
            continue
        assert check_positive_definite(positivity_matrix(g))


# ---------------------------------------------------------------- families

def _spec_of(g):
    cd = coherent_components(g)
    return FamilySpec(
        complete=tuple(f == "complete" for f in cd.flags),
        adjacency=cd.coherence_edges,
        sizes=cd.sizes,
    )


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(complete=(True,), adjacency=(), sizes=(1, 2))
    with pytest.raises(ValueError):
        FamilySpec(complete=(True,), adjacency=(), sizes=(0,))
    with pytest.raises(ValueError):
        FamilySpec(complete=(True, False), adjacency=((0, 2),), sizes=(1, 1))
    with pytest.raises(ValueError):
        FamilySpec(complete=(True, False), adjacency=((0, 1), (1, 0)), sizes=(1, 1))


def test_family_graph_layout():
    spec = FamilySpec(complete=(False, False), adjacency=((0, 1),), sizes=(1, 1))
    g = family_graph(spec)
    assert g.p == 2 and g.edges == ((1, 2),)

    # complete block of 3 joined to a discrete block of 2: vertices 1-3 form
    # the complete block, 4-5 the discrete one, internal edges first
    spec = FamilySpec(complete=(True, False), adjacency=((0, 1),), sizes=(3, 2))
    g = family_graph(spec)
    internal = ((1, 2), (1, 3), (2, 3))
    joins = {(i, j) for i in (1, 2, 3) for j in (4, 5)}
    assert g.edges[:3] == internal
    assert set(g.edges) == set(internal) | joins
    cd = coherent_components(g)
    assert cd.flags == ("complete", "discrete")
    assert cd.sizes == (3, 2)


def test_family_rows_cover_expected_names():
    names = [row.name for row in TABLE_ROWS]
    assert names == [
        "complete",
        "bipartite",
        "split",
        "triangle-ddd",
        "triangle-ddc",
        "path-ddc",
        "path-dcc",
        "path-cdc",
        "path-ccc",
    ]


def test_table1_split_verdicts():
    split = lambda comp, disc: FamilySpec(
        complete=(True, False), adjacency=((0, 1),), sizes=(comp, disc)
    )
    # positive exactly when the complete side is at least as big as the
    # discrete side; equality counts as positive
    assert table1_criterion(split(3, 3)) is True
    assert table1_criterion(split(4, 3)) is True
    assert table1_criterion(split(3, 4)) is False
    # the unique small non-positive graph is the split with sizes (2, 3)
    assert table1_criterion(split(2, 3)) is False


def test_table1_always_positive_rows():
    assert table1_criterion(FamilySpec((True,), (), (5,))) is True
    assert table1_criterion(FamilySpec((False, False), ((0, 1),), (2, 7))) is True
    ccc = FamilySpec((True, True, True), ((0, 1), (1, 2)), (2, 2, 2))
    assert table1_criterion(ccc) is True


def test_table1_triangle_verdicts():
    tri = lambda flags, sizes: FamilySpec(
        complete=flags, adjacency=((0, 1), (0, 2), (1, 2)), sizes=sizes
    )
    ddd = lambda r, s, t: tri((False, False, False), (r, s, t))
    # triangle inequalities, boundary included
    assert table1_criterion(ddd(2, 2, 3)) is True
    assert table1_criterion(ddd(2, 2, 4)) is True
    assert table1_criterion(ddd(1, 1, 3)) is False
    # one complete corner: 1 + t > |r - s| with t the complete block
    ddc = lambda r, s, t: tri((False, False, True), (r, s, t))
    assert table1_criterion(ddc(1, 3, 2)) is True
    assert table1_criterion(ddc(1, 4, 2)) is False
    # slot order is whites first regardless of which index is complete
    assert table1_criterion(tri((True, False, False), (2, 1, 3))) is True
    assert table1_criterion(tri((True, False, False), (2, 1, 4))) is False


def test_table1_path_verdicts():
    path = lambda flags, sizes: FamilySpec(
        complete=flags, adjacency=((0, 1), (1, 2)), sizes=sizes
    )
    # discrete end r - discrete center s - complete end t:
    # r + t(1 - r + s) > 0 and t + r >= s
    assert table1_criterion(path((False, False, True), (1, 1, 2))) is True
    assert table1_criterion(path((False, False, True), (4, 1, 2))) is False
    assert table1_criterion(path((False, False, True), (1, 4, 2))) is False
    # reversed orientation gives the same verdict
    assert table1_criterion(path((True, False, False), (2, 1, 4))) is False
    # discrete end r - complete center s - complete end t:
    # (s + t)(s - r) > (r - 1)(t - 1)
    assert table1_criterion(path((False, True, True), (2, 3, 2))) is True
    assert table1_criterion(path((False, True, True), (3, 3, 2))) is False
    # complete end r - discrete center s - complete end t: r + t >= s
    assert table1_criterion(path((True, False, True), (2, 4, 2))) is True
    assert table1_criterion(path((True, False, True), (2, 5, 2))) is False


def test_table1_unknown_templates():
    with pytest.raises(UnknownFamily):
        table1_criterion(FamilySpec((False,), (), (3,)))
    with pytest.raises(UnknownFamily):
        table1_criterion(FamilySpec((True, True), ((0, 1),), (2, 2)))
    with pytest.raises(UnknownFamily):
        table1_criterion(FamilySpec((True, False), (), (2, 2)))
    with pytest.raises(UnknownFamily):
        table1_criterion(
            FamilySpec((False, False, False), ((0, 1), (1, 2)), (2, 2, 2))
        )
    with pytest.raises(UnknownFamily):
        table1_criterion(
            FamilySpec((False, True, False), ((0, 1), (1, 2)), (2, 2, 2))
        )
    with pytest.raises(UnknownFamily):
        table1_criterion(
            FamilySpec((False, True, True), ((0, 1), (0, 2), (1, 2)), (2, 2, 2))
        )
    with pytest.raises(UnknownFamily):
        table1_criterion(
            FamilySpec(
                (True, True, True, True),
                ((0, 1), (1, 2), (2, 3)),
                (2, 2, 2, 2),
            )
        )


def test_table1_complete_block_of_one_rejected():
    with pytest.raises(UnknownFamily):
        table1_criterion(FamilySpec((True, False), ((0, 1),), (1, 3)))
    # the same shape with the lone block marked discrete is just bipartite
    assert table1_criterion(FamilySpec((False, False), ((0, 1),), (1, 3))) is True


def test_table1_against_solver_small():
    # cross-check the closed forms against the exact solver on every
    # connected graph with at most 6 vertices whose decomposition the
    # table covers
    checked = 0
    for g in graph_classes(6):
        if g.q == 0:
            continue
        try:
            verdict = table1_criterion(_spec_of(g))
        except UnknownFamily:
            continue
        assert verdict == is_positive(g).positive
        checked += 1
    assert checked >= 20
