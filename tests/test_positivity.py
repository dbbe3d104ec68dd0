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
import reference_positivity


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
    # a wrong twin partition of one edge on five vertices: its quotient
    # [[2, 0, 2], [0, 1, 0], [2, 0, 2]] has a zero third leading minor, and
    # Bareiss stops at that pivot
    g = Graph(p=5, edges=((1, 3),))
    wrong = [[0, 4], [1], [2, 3]]
    monkeypatch.setattr(positivity, "_twin_classes", lambda p, adj: wrong)
    with pytest.raises(RuntimeError, match="leading minor 0 at order 3"):
        solve_weights(g)


def test_solve_weights_raises_when_wrong_classes_pass_elimination(p3, monkeypatch):
    # one class for the whole path: the 1 x 1 quotient [4] has a positive
    # pivot, but its weights (1/2, 1/2) fail the edge equations
    monkeypatch.setattr(positivity, "_twin_classes", lambda p, adj: [[0, 1, 2]])
    with pytest.raises(RuntimeError, match=r"edges=\[\(1, 2\), \(2, 3\)\]"):
        solve_weights(p3)


def test_solve_reduced_is_integer(paw):
    num, den = positivity._solve_twin_quotient(paw)
    # paw at nu = 1: c = (1/8, 1/8, 1/4, 1/4); the denominator is the
    # determinant of the 3 x 3 twin-class quotient [[4, 1, 0], [2, 4, 1], [0, 1, 2]]
    assert all(type(x) is int for x in num) and num == [3, 3, 6, 6] and den == 24
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


def _quotient_determinant(g):
    """det B of the twin-class quotient, from its definition: diag(m) B is
    P^T (I + D + A) P, summed entry by entry over the vertex pairs of the
    coherent components, and its determinant is taken in Fractions."""
    comps = coherent_components(g).components
    block = {v: b for b, comp in enumerate(comps) for v in comp}
    n = len(comps)
    k = [[F(0)] * n for _ in range(n)]
    for v in range(1, g.p + 1):
        k[block[v]][block[v]] += 1
    for i, j in g.edges:
        a, b = block[i], block[j]
        for x, y in ((a, a), (b, b), (a, b), (b, a)):
            k[x][y] += 1
    det = F(1)
    for col in range(n):
        pivot = k[col][col]
        det *= pivot
        for r in range(col + 1, n):
            f = k[r][col] / pivot
            k[r] = [x - f * y for x, y in zip(k[r], k[col])]
    for comp in comps:
        det /= len(comp)
    return det


def _assert_matches_reference(g, rng):
    """The edge classes, the weights of the integer solve, the full check
    and the result agree with the versions they replaced
    (tests/reference_positivity.py), and the denominator is the determinant
    of the twin-class quotient.  Returns the result's type."""
    classes = edge_similarity_classes(g)
    assert classes == reference_positivity.edge_similarity_classes(g)
    num, den = positivity._solve_twin_quotient(g)
    ref_num, ref_den = reference_positivity._solve_reduced(g, *classes)
    assert [Fraction(x, den) for x in num] == [Fraction(x, ref_den) for x in ref_num]
    assert den == _quotient_determinant(g)
    bumped = list(num)
    bumped[rng.randrange(g.q)] += 1
    for c, nu in ((num, den), (num, den + 1), (bumped, den)):
        assert positivity._verify_full(g, c, nu) == reference_positivity._verify_full(g, c, nu)
    got = solve_weights(g)
    _assert_same_result(got, reference_positivity.solve_weights(g))
    return type(got)


def test_solve_weights_matches_reference_on_every_small_class():
    rng = random.Random(31)
    kinds = {Weighting: 0, NotPositive: 0}
    for g in graph_classes(7, connected_only=False):
        if g.q:
            kinds[_assert_matches_reference(g, rng)] += 1
    # every class but the 7 edgeless ones
    assert kinds == {Weighting: 1149, NotPositive: 96}


def test_solve_weights_matches_reference_on_random_graphs():
    rng = random.Random(1968)
    kinds = {Weighting: 0, NotPositive: 0}
    for _ in range(400):
        p = rng.randint(2, 10)
        if rng.random() < 0.5:
            g = blown_up_graph(rng, p)
        else:
            density = rng.random()
            g = Graph(p=p, edges=tuple(
                e for e in itertools.combinations(range(1, p + 1), 2) if rng.random() < density
            ))
        if g.q:
            kinds[_assert_matches_reference(g, rng)] += 1
    assert kinds[Weighting] >= 200 and kinds[NotPositive] >= 15


def test_solve_weights_matches_reference_on_table1_instances():
    # every family graph that table1 --max 8 solves, built as before
    rng = random.Random(8)
    kinds = {Weighting: 0, NotPositive: 0}
    for row in TABLE_ROWS:
        ranges = [range(2, 9) if full else range(1, 9) for full in row.complete]
        for sizes in itertools.product(*ranges):
            spec = FamilySpec(row.complete, row.adjacency, sizes)
            g = family_graph(spec)
            assert g.edges == reference_positivity.family_graph(spec).edges
            kinds[_assert_matches_reference(g, rng)] += 1
    assert kinds == {Weighting: 2007, NotPositive: 655}


def _twin_free_graph(rng, p):
    """A seeded graph on p vertices with no twins: a path backbone plus
    random chords, redrawn until every twin class is a single vertex."""
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    while True:
        chords = rng.sample(pairs, rng.randint(p // 2, p))
        g = Graph(p=p, edges=tuple(sorted({(i, i + 1) for i in range(1, p)} | set(chords))))
        if len(coherent_components(g).components) == p:
            return g


def test_solve_weights_matches_reference_on_large_graphs():
    # p = 20..60: blown-up graphs have a quotient of at most 8 twin classes,
    # twin-free ones a quotient of order p
    rng = random.Random(160)
    kinds = {Weighting: 0, NotPositive: 0}
    for n in range(20):
        p = rng.randint(20, 60)
        if n % 2:
            g = _twin_free_graph(rng, p)
        else:
            g = blown_up_graph(rng, p, max_blocks=8)
            while g.q == 0:
                g = blown_up_graph(rng, p, max_blocks=8)
            assert len(coherent_components(g).components) <= 8
        got = solve_weights(g)
        _assert_same_result(got, reference_positivity.solve_weights(g))
        kinds[type(got)] += 1
    assert kinds[Weighting] >= 1 and kinds[NotPositive] >= 1


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


# ---------------------------------------------------------------- templates

def _template_key(complete, joins, sizes=None):
    """Canonical form of a template (with block sizes, when given): the least
    (flags, sizes, sorted joins) over all relabellings of the blocks."""
    k = len(complete)
    best = None
    for perm in itertools.permutations(range(k)):
        flags = [None] * k
        slots = [None] * k
        for old, new in enumerate(perm):
            flags[new] = complete[old]
            slots[new] = sizes[old] if sizes else 0
        edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in joins)
        key = (tuple(flags), tuple(slots), tuple(edges))
        if best is None or key < best:
            best = key
    return best


def _template_status(complete, joins):
    """'template' for a connected template on which no two blocks merge, else
    'merging' or 'disconnected'.  Two discrete blocks merge when they are not
    joined and have the same neighbours; two complete blocks merge when they
    are joined and have the same other neighbours."""
    k = len(complete)
    nbrs = [set() for _ in range(k)]
    for a, b in joins:
        nbrs[a].add(b)
        nbrs[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for b in nbrs[stack.pop()] - seen:
            seen.add(b)
            stack.append(b)
    if len(seen) < k or (k == 1 and not complete[0]):
        return "disconnected"
    for a, b in itertools.combinations(range(k), 2):
        if complete[a] != complete[b]:
            continue
        if not complete[a] and b not in nbrs[a] and nbrs[a] == nbrs[b]:
            return "merging"
        if complete[a] and b in nbrs[a] and nbrs[a] - {b} == nbrs[b] - {a}:
            return "merging"
    return "template"


def _labelled_templates(k):
    """Every (complete flags, joins) on k labelled blocks, with its status."""
    pairs = list(itertools.combinations(range(k), 2))
    for complete in itertools.product((False, True), repeat=k):
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            joins = tuple(pr for pr, on in zip(pairs, chosen) if on)
            yield complete, joins, _template_status(complete, joins)


def test_template_counts():
    counts = [
        len({_template_key(c, j) for c, j, status in _labelled_templates(k) if status == "template"})
        for k in range(1, 5)
    ]
    assert counts == [1, 2, 6, 31]


def test_templates_are_the_coherent_quotients_up_to_eight_vertices(census_p8):
    # every template on k <= 4 blocks is realized with all blocks of size 2
    # (p = 2k <= 8), and every quotient of a connected graph is a template
    pairs, _ = census_p8
    quotients = {k: set() for k in range(1, 5)}
    for g, _ in pairs:
        if g.q and is_connected(g):
            cd = coherent_components(g)
            k = len(cd.components)
            if k <= 4:
                complete = tuple(f == "complete" for f in cd.flags)
                quotients[k].add(_template_key(complete, cd.coherence_edges))
    for k in range(1, 5):
        templates = {
            _template_key(c, j) for c, j, status in _labelled_templates(k) if status == "template"
        }
        assert quotients[k] == templates


def test_match_template_accepts_exactly_the_templates_up_to_three_blocks():
    # distinct block sizes, so that the size slots the match returns are
    # checked against the row's own template as well
    rows = {}
    for k in range(1, 4):
        sizes = tuple(range(2, k + 2))
        for complete, joins, status in _labelled_templates(k):
            spec = FamilySpec(complete, joins, sizes)
            if status != "template":
                with pytest.raises(UnknownFamily):
                    positivity._match_template(spec)
                continue
            row, slots = positivity._match_template(spec)
            assert _template_key(row.complete, row.adjacency, slots) == _template_key(
                complete, joins, sizes
            )
            rows.setdefault(_template_key(complete, joins), set()).add(row.name)
    assert sorted(name for names in rows.values() for name in names) == sorted(
        row.name for row in TABLE_ROWS
    )
    assert all(len(names) == 1 for names in rows.values())
    for complete, joins, status in _labelled_templates(4):
        if status == "template":
            with pytest.raises(UnknownFamily):
                positivity._match_template(FamilySpec(complete, joins, (2, 3, 4, 5)))


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
