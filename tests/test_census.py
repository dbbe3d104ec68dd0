import itertools
import math
import random
import time
from collections import Counter

import pytest

import reference_census
import reference_graphs
from conftest import blown_up_graph
from graphsolitons import (
    Graph,
    InvalidArgument,
    canonical_form,
    census,
    graph_classes,
    graph_classes_with_aut_order,
    is_connected,
    is_positive,
)

# Graphs on p = 1..7 vertices up to isomorphism: OEIS A001349 (connected) and
# A000088 (all).
A001349 = [1, 1, 2, 6, 21, 112, 853]
A000088 = [1, 2, 4, 11, 34, 156, 1044]
# Labelled connected graphs on p = 1..8 vertices: OEIS A001187.
A001187 = [1, 1, 4, 38, 728, 26704, 1866256, 251548592]


def _check_against_reference(g):
    """The canonical form equals the reference one, and every reported
    generator is an automorphism of the canonical graph."""
    generators = []
    canon = canonical_form(g, generators=generators)
    assert canon == reference_census.canonical_form(g)
    for s in generators:
        assert s.n == g.p
        assert {tuple(sorted((s(i), s(j)))) for i, j in canon} == set(canon)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(61)
    for _ in range(40):
        p = rng.randint(2, 7)
        edges = tuple(
            (i, j)
            for i in range(1, p + 1)
            for j in range(i + 1, p + 1)
            if rng.random() < 0.5
        )
        g = Graph(p=p, edges=edges)
        base = canonical_form(g)
        perm = list(range(1, p + 1))
        for _ in range(5):
            rng.shuffle(perm)
            relabeled = Graph(
                p=p,
                edges=tuple(
                    tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges
                ),
            )
            assert canonical_form(relabeled) == base


def test_canonical_form_idempotent():
    rng = random.Random(62)
    for _ in range(20):
        p = rng.randint(2, 6)
        edges = tuple(
            (i, j)
            for i in range(1, p + 1)
            for j in range(i + 1, p + 1)
            if rng.random() < 0.5
        )
        g = Graph(p=p, edges=edges)
        canon = canonical_form(g)
        assert canonical_form(Graph(p=p, edges=canon)) == canon


def test_canonical_form_separates_nonisomorphic():
    path = Graph(p=4, edges=((1, 2), (2, 3), (3, 4)))
    star = Graph(p=4, edges=((1, 2), (1, 3), (1, 4)))
    assert canonical_form(path) != canonical_form(star)


def test_is_connected():
    assert is_connected(Graph(p=1, edges=()))
    assert is_connected(Graph(p=3, edges=((1, 2), (2, 3))))
    assert not is_connected(Graph(p=3, edges=((1, 2),)))
    assert not is_connected(Graph(p=2, edges=()))


def test_connected_class_counts(connected_classes_p6):
    per_p = {}
    for g in connected_classes_p6:
        per_p[g.p] = per_p.get(g.p, 0) + 1
    assert per_p == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def test_class_counts_small_cumulative(connected_classes_p5):
    assert len(graph_classes(3)) == 4
    assert len(connected_classes_p5) == 31


def test_classes_are_canonical_and_distinct(connected_classes_p5):
    seen = set()
    for g in connected_classes_p5:
        assert g.edges == canonical_form(g)
        assert is_connected(g)
        assert (g.p, g.edges) not in seen
        seen.add((g.p, g.edges))


def test_unique_nonpositive_graph_up_to_five_vertices(connected_classes_p5):
    bad = [g for g in connected_classes_p5 if g.q and not is_positive(g).positive]
    assert len(bad) == 1
    assert bad[0].p == 5
    assert bad[0].edges == canonical_form(
        Graph(p=5, edges=((1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)))
    )


def test_disconnected_classes_included_when_asked():
    all_p3 = graph_classes(3, connected_only=False)
    # 1 + 2 + 4 graphs on 1..3 vertices up to isomorphism
    assert len(all_p3) == 7
    assert sum(1 for g in all_p3 if is_connected(g)) == 4


def test_canonical_form_matches_reference_on_every_small_graph():
    for p in range(1, 6):
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            _check_against_reference(
                Graph(p=p, edges=tuple(e for e, on in zip(pairs, chosen) if on))
            )


def test_canonical_form_matches_reference_on_random_graphs():
    rng = random.Random(2014)
    # 2000 graphs; the reference explores every tying ordering, so larger p
    # gets fewer.
    for p, count in ((6, 1450), (7, 450), (8, 100)):
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        for _ in range(count):
            density = rng.random()
            _check_against_reference(
                Graph(p=p, edges=tuple(e for e in pairs if rng.random() < density))
            )


def test_graph_classes_match_reference_enumeration():
    assert graph_classes(6, connected_only=False) == reference_census.graph_classes(
        6, connected_only=False
    )


def test_class_counts_match_oeis():
    connected = Counter(g.p for g in graph_classes(7))
    assert [connected[p] for p in range(1, 8)] == A001349
    everything = Counter(g.p for g in graph_classes(7, connected_only=False))
    assert [everything[p] for p in range(1, 8)] == A000088


def _order_along_1_to_p(p, generators):
    """The product over m = 1..p of the orbit size of m under the generators
    that fix 1..m-1: the group order when they are a strong generating set
    along 1..p, and less when they are not."""
    order = 1
    for m in range(1, p + 1):
        active = [s for s in generators if all(s(v) == v for v in range(1, m))]
        orbit = {m}
        frontier = [m]
        while frontier:
            u = frontier.pop()
            for s in active:
                if s(u) not in orbit:
                    orbit.add(s(u))
                    frontier.append(s(u))
        order *= len(orbit)
    return order


def _check_generators_are_strong(g):
    generators = []
    canonical_form(g, generators=generators)
    assert _order_along_1_to_p(g.p, generators) == len(reference_graphs.automorphisms(g))


def test_canonical_generators_are_strong_on_every_class_up_to_seven_vertices():
    pairs = graph_classes_with_aut_order(7, connected_only=False)
    assert Counter(g.p for g, _ in pairs) == dict(enumerate(A000088, start=1))
    for g, order in pairs:
        assert order == len(reference_graphs.automorphisms(g))
        _check_generators_are_strong(g)


def test_canonical_generators_are_strong_on_seeded_graphs():
    rng = random.Random(8)
    for p in range(8, 12):
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        for _ in range(40):
            density = rng.uniform(0.1, 0.9)
            _check_generators_are_strong(
                Graph(p=p, edges=tuple(e for e in pairs if rng.random() < density))
            )
    # twin-rich graphs, whose groups are large
    for _ in range(40):
        _check_generators_are_strong(blown_up_graph(rng, rng.randint(2, 8)))


def test_census_matches_generate_and_dedupe_reference():
    # the same (Graph, |Aut|) pairs in the same order as the census that
    # searched every candidate and kept the first of each canonical form
    for connected_only in (True, False):
        for max_p in range(1, 8):
            assert graph_classes_with_aut_order(max_p, connected_only) == (
                reference_census.graph_classes_with_aut_order(max_p, connected_only)
            )


def test_census_refuses_a_class_accepted_twice(monkeypatch):
    # Extending by every neighbourhood, not one per orbit of the parent's
    # automorphisms, passes isomorphic candidates to the acceptance test
    # more than once; the census must raise rather than list a class twice.
    monkeypatch.setattr(census, "_mask_orbit_minima", lambda n, gens: list(range(1 << n)))
    with pytest.raises(RuntimeError, match="on 3 vertices"):
        graph_classes_with_aut_order(3, connected_only=False)


def test_census_up_to_eight_vertices_matches_oeis_and_orbit_stabilizer():
    # Anchors that use no code from this package: the class counts, and
    # orbit-stabilizer, by which p!/|Aut G| labelled graphs fall in the class
    # of G, so the classes on p vertices sum to all 2^C(p,2) labelled graphs
    # and the connected ones to the labelled connected graphs.
    start = time.perf_counter()
    pairs = graph_classes_with_aut_order(8, connected_only=False)
    elapsed = time.perf_counter() - start
    connected = Counter(g.p for g, _ in pairs if is_connected(g))
    everything = Counter(g.p for g, _ in pairs)
    assert [connected[p] for p in range(1, 9)] == A001349 + [11117]
    assert [everything[p] for p in range(1, 9)] == A000088 + [12346]
    labelled = Counter()
    labelled_connected = Counter()
    for g, order in pairs:
        assert math.factorial(g.p) % order == 0
        labelled[g.p] += math.factorial(g.p) // order
        if is_connected(g):
            labelled_connected[g.p] += math.factorial(g.p) // order
    assert [labelled[p] for p in range(1, 9)] == [2 ** math.comb(p, 2) for p in range(1, 9)]
    assert [labelled_connected[p] for p in range(1, 9)] == A001187
    # 13 348 searches for p = 8, where the generate-and-dedupe census made 79 264
    assert elapsed < 60.0


@pytest.mark.parametrize("max_p", [census.MAX_CENSUS_P + 1, 1000000])
def test_census_refuses_max_p_above_cap(max_p):
    start = time.perf_counter()
    with pytest.raises(InvalidArgument, match=f"<= {census.MAX_CENSUS_P}"):
        graph_classes_with_aut_order(max_p)
    assert time.perf_counter() - start < 1.0
