import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

import reference_graphs
from graphsolitons import (
    TABLE_ROWS,
    DimensionMismatch,
    DuplicateEdge,
    FamilySpec,
    Graph,
    GroupTooLarge,
    IndexOutOfRange,
    MAX_ALGEBRA_DIM,
    MalformedLine,
    NotAnAutomorphism,
    Permutation,
    SelfLoop,
    automorphism_order,
    automorphisms,
    coherent_components,
    family_graph,
    induced_edge_permutation,
    line_graph,
    parse_graph,
)
from conftest import PAW_EDGES, PAW_TEXT, blown_up_graph


def _random_graph(rng, p, density=0.5):
    edges = []
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            if rng.random() < density:
                edges.append((i, j))
    return Graph(p=p, edges=tuple(edges))


# ---------------------------------------------------------------- parsing

def test_parse_basic():
    g = parse_graph("4\n1 2\n1 3\n2 3\n3 4\n")
    assert g.p == 4
    assert g.edges == ((1, 2), (1, 3), (2, 3), (3, 4))


def test_parse_keeps_file_order_and_normalizes_endpoints():
    g = parse_graph(PAW_TEXT)
    assert g.edges == PAW_EDGES
    # reversed endpoints normalize but order is preserved
    g2 = parse_graph("4\n3 2\n3 1\n2 1\n4 3\n")
    assert g2.edges == PAW_EDGES


def test_parse_comments_and_blanks():
    g = parse_graph("# full line\n\n3  # trailing\n1 2 # another\n\n")
    assert g.p == 3
    assert g.edges == ((1, 2),)


def test_parse_errors():
    with pytest.raises(MalformedLine):
        parse_graph("")
    with pytest.raises(MalformedLine):
        parse_graph("two\n")
    with pytest.raises(MalformedLine):
        parse_graph("3\n1\n")
    with pytest.raises(MalformedLine):
        parse_graph("3\n1 x\n")
    with pytest.raises(MalformedLine):
        parse_graph("0\n")
    # str.isdigit accepts these, int() does not
    with pytest.raises(MalformedLine):
        parse_graph("\u00b2\n")
    with pytest.raises(MalformedLine):
        parse_graph("9" * 5000 + "\n")
    with pytest.raises(SelfLoop):
        parse_graph("3\n2 2\n")
    with pytest.raises(DuplicateEdge):
        parse_graph("3\n1 2\n2 1\n")
    with pytest.raises(IndexOutOfRange):
        parse_graph("3\n1 4\n")


def test_parse_error_quotes_a_bounded_prefix_of_the_line():
    with pytest.raises(MalformedLine) as info:
        parse_graph("9" * 5000 + "\n")
    assert len(str(info.value)) < 200
    assert str(info.value).endswith("'" + "9" * 40 + "'...")
    with pytest.raises(MalformedLine) as info:
        parse_graph("3\n" + " ".join(["1"] * 3000) + "\n")
    assert len(str(info.value)) < 200
    # short lines are quoted whole
    with pytest.raises(MalformedLine, match=r"got '3 x'$"):
        parse_graph("3\n3 x\n")


def test_parse_caps_algebra_dimension():
    assert MAX_ALGEBRA_DIM == 100
    assert parse_graph("100\n").p == 100
    with pytest.raises(MalformedLine, match="101"):
        parse_graph("101\n")
    # p + q is checked once the edges are read: K13 fits, K14 does not
    k13 = "13\n" + "".join(f"{i} {j}\n" for i in range(1, 14) for j in range(i + 1, 14))
    assert parse_graph(k13).q == 78
    k14 = "14\n" + "".join(f"{i} {j}\n" for i in range(1, 15) for j in range(i + 1, 15))
    with pytest.raises(MalformedLine, match="105"):
        parse_graph(k14)


def test_graph_constructor_validates():
    with pytest.raises(SelfLoop):
        Graph(p=2, edges=((1, 1),))
    with pytest.raises(DuplicateEdge):
        Graph(p=2, edges=((1, 2), (2, 1)))
    with pytest.raises(IndexOutOfRange):
        Graph(p=2, edges=((1, 3),))


def _constructor_outcome(make):
    try:
        return ("ok", make())
    except Exception as exc:  # the type and message are what is compared
        return (type(exc), str(exc))


def _seeded_edge_list(rng):
    """A vertex count and an edge list that is normalized, or broken in one
    or more of the ways the constructor checks or repairs."""
    p = rng.choice([0, -1]) if rng.random() < 0.05 else rng.randint(1, 7)
    pairs = [e for e in itertools.combinations(range(1, max(p, 1) + 1), 2)
             if rng.random() < 0.5]
    rng.shuffle(pairs)
    edges = []
    for i, j in pairs:
        roll = rng.random()
        if roll < 0.04:
            edges.append((i, j))
            edges.append((j, i))
        elif roll < 0.08:
            edges.append((i, i))
        elif roll < 0.12:
            edges.append((i, rng.choice([0, -2, p + 1, p + 5])))
        elif roll < 0.20:
            edges.append((j, i))
        elif roll < 0.25:
            edges.append([i, j])
        else:
            edges.append((i, j))
    return p, edges


_Pair = collections.namedtuple("_Pair", "i j")


def test_graph_constructor_matches_reference_loop():
    # the constructor accepts normalized edges in one pass and sends
    # everything else through the loop it always ran (reference_graphs)
    fixed = [
        (3, [(1, 2), (2, 3)]),
        (3, [(2, 1), (3, 2)]),
        (2, [(1, 2), (2, 1)]),
        (2, [(2, 1), (1, 2)]),
        (3, [(1, 2), (1, 2)]),
        (3, [(2, 2)]),
        (3, [(1, 2), (3, 3), (1, 4)]),
        (3, [(1, 4), (3, 3)]),
        (3, [(0, 1)]),
        (0, []),
        (0, [(1, 2)]),
        (-2, [(1, 1)]),
        (4, [[1, 2], [3, 4]]),
        (4, [[2, 1], (1, 2)]),
        (3, [_Pair(1, 2), _Pair(2, 3)]),
        (1, []),
        (5, []),
        (3, [(1, 2, 3)]),
        (3, [(1,)]),
        (3, [(1, "2")]),
        (3, [(2, "1")]),
        (3, [(1, 2), (2, 1.5)]),
    ]
    rng = random.Random(2026)
    cases = fixed + [_seeded_edge_list(rng) for _ in range(3000)]
    kinds = set()
    for p, edges in cases:
        for given in (tuple(edges), list(edges)):
            want = _constructor_outcome(lambda: reference_graphs.validate_edges(p, given))
            got = _constructor_outcome(lambda: Graph(p=p, edges=given).edges)
            assert got == want, (p, given)
            if got[0] == "ok":
                assert type(got[1]) is tuple
                assert all(type(e) is tuple for e in got[1])
            kinds.add(got[0])
    assert kinds == {"ok", MalformedLine, SelfLoop, IndexOutOfRange, DuplicateEdge,
                     ValueError, TypeError}


# ---------------------------------------------------------------- line graph

def test_line_graph_paw(paw):
    lg = line_graph(paw)
    assert lg.p == 4
    # edges (1,2) and (3,4) of the paw are disjoint, everything else meets
    expected = {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}
    assert set(lg.edges) == expected
    # independent check: brute-force endpoint intersection
    for k in range(paw.q):
        for l in range(k + 1, paw.q):
            meets = bool(set(paw.edges[k]) & set(paw.edges[l]))
            assert lg.has_edge(k + 1, l + 1) == meets


def test_line_graph_disjoint_edges():
    g = Graph(p=4, edges=((1, 2), (3, 4)))
    lg = line_graph(g)
    assert lg.p == 2 and lg.q == 0


def test_line_graph_empty():
    from graphsolitons import EmptyEdgeSet

    with pytest.raises(EmptyEdgeSet):
        line_graph(Graph(p=3, edges=()))


# ---------------------------------------------------------------- permutations

def test_permutation_ops():
    s = Permutation((2, 3, 1))
    t = Permutation((2, 1, 3))
    assert s(1) == 2 and s(3) == 1
    assert s.compose(t).images == (3, 2, 1)
    assert s.compose(s.inverse()).is_identity()
    assert Permutation.identity(3).images == (1, 2, 3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))


# ---------------------------------------------------------------- coherent components

def test_coherent_components_paw(paw):
    cd = coherent_components(paw)
    assert cd.components == ((1, 2), (3,), (4,))
    assert cd.flags == ("complete", "discrete", "discrete")
    assert cd.coherence_edges == ((0, 1), (1, 2))
    assert cd.sizes == (2, 1, 1)


def test_coherent_components_complete_and_edgeless():
    k4 = Graph(p=4, edges=tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
    cd = coherent_components(k4)
    assert cd.components == ((1, 2, 3, 4),) and cd.flags == ("complete",)
    empty = Graph(p=4, edges=())
    cd2 = coherent_components(empty)
    assert cd2.components == ((1, 2, 3, 4),) and cd2.flags == ("discrete",)


def test_coherent_components_structure_random():
    # blocks induce complete or empty subgraphs; cross edges all-or-nothing
    rng = random.Random(101)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(2, 8))
        cd = coherent_components(g)
        assert sorted(v for c in cd.components for v in c) == list(range(1, g.p + 1))
        for comp, flag in zip(cd.components, cd.flags):
            inner = [g.has_edge(a, b) for i, a in enumerate(comp) for b in comp[i + 1:]]
            if flag == "complete":
                assert inner and all(inner)
            else:
                assert not any(inner)
        joined = set(cd.coherence_edges)
        for a in range(len(cd.components)):
            for b in range(a + 1, len(cd.components)):
                cross = {
                    g.has_edge(u, v)
                    for u in cd.components[a]
                    for v in cd.components[b]
                }
                assert len(cross) == 1
                assert ((a, b) in joined) == cross.pop()


def test_coherent_decomposition_rebuild_roundtrip():
    # instantiating the decomposition as a family gives back the same
    # component structure (sizes, flags, joins) up to relabeling
    from graphsolitons import FamilySpec, family_graph

    rng = random.Random(77)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(2, 7))
        cd = coherent_components(g)
        spec = FamilySpec(
            complete=tuple(f == "complete" for f in cd.flags),
            adjacency=cd.coherence_edges,
            sizes=cd.sizes,
        )
        rebuilt = family_graph(spec)
        cd2 = coherent_components(rebuilt)
        assert sorted(zip(cd.sizes, cd.flags)) == sorted(zip(cd2.sizes, cd2.flags))
        assert len(cd.coherence_edges) == len(cd2.coherence_edges)
        assert rebuilt.q == g.q


def test_coherent_components_match_reference_on_every_small_graph():
    # every labelled graph with p <= 5: 1 + 2 + 8 + 64 + 1024
    count = 0
    for p in range(1, 6):
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(p=p, edges=tuple(e for b, e in enumerate(pairs) if mask >> b & 1))
            assert coherent_components(g) == reference_graphs.coherent_components(g)
            count += 1
    assert count == 1099


def test_coherent_components_match_reference_on_random_graphs():
    rng = random.Random(4242)
    graphs = [
        Graph(p=1, edges=()),
        Graph(p=2, edges=((1, 2),)),
        Graph(p=12, edges=()),
        Graph(p=12, edges=tuple(itertools.combinations(range(1, 13), 2))),
        Graph(p=12, edges=((3, 9),)),
    ]
    while len(graphs) < 1000:
        p = rng.randint(1, 12)
        if len(graphs) % 2:
            graphs.append(_random_graph(rng, p, density=rng.random()))
        else:
            graphs.append(blown_up_graph(rng, p))
    twins = isolated = 0
    for g in graphs:
        cd = coherent_components(g)
        assert cd == reference_graphs.coherent_components(g)
        twins += any(len(c) > 1 for c in cd.components)
        isolated += any(not nv for nv in g.neighbor_sets)
    assert twins >= 500 and isolated >= 100


def test_coherent_components_match_reference_on_family_graphs():
    # every table1 --max 8 instance: up to 24 vertices, twin classes of up to 8
    count = 0
    for row in TABLE_ROWS:
        ranges = [range(2 if full else 1, 9) for full in row.complete]
        for sizes in itertools.product(*ranges):
            spec = FamilySpec(complete=row.complete, adjacency=row.adjacency, sizes=sizes)
            g = family_graph(spec)
            assert coherent_components(g) == reference_graphs.coherent_components(g)
            count += 1
    assert count == 2662


# ---------------------------------------------------------------- automorphisms

def test_automorphisms_small():
    k3 = Graph(p=3, edges=((1, 2), (1, 3), (2, 3)))
    auts = automorphisms(k3)
    assert len(auts) == 6
    assert auts[0].is_identity()
    p4 = Graph(p=4, edges=((1, 2), (2, 3), (3, 4)))
    assert len(automorphisms(p4)) == 2


def test_automorphisms_paw(paw):
    auts = automorphisms(paw)
    assert [a.images for a in auts] == [(1, 2, 3, 4), (2, 1, 3, 4)]


def test_automorphisms_group_closure():
    rng = random.Random(5)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(2, 6))
        auts = automorphisms(g)
        images = {a.images for a in auts}
        # closed under composition and inverse, contains the identity
        assert Permutation.identity(g.p).images in images
        for a in auts:
            assert a.inverse().images in images
            for b in auts:
                assert a.compose(b).images in images
        # order divides p!
        fact = 1
        for k in range(2, g.p + 1):
            fact *= k
        assert fact % len(auts) == 0
        # every automorphism preserves the edge set
        for a in auts:
            mapped = {tuple(sorted((a(i), a(j)))) for i, j in g.edges}
            assert mapped == set(g.edges)


def test_automorphisms_permute_components():
    rng = random.Random(31)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(2, 6))
        cd = coherent_components(g)
        blocks = {frozenset(c) for c in cd.components}
        for a in automorphisms(g):
            moved = {frozenset(a(v) for v in c) for c in cd.components}
            assert moved == blocks


def test_automorphisms_too_large():
    with pytest.raises(GroupTooLarge):
        automorphisms(Graph(p=13, edges=()), max_vertices=12)
    # within the vertex cap, but |Aut K10| = 10! is above the listing bound
    k10 = Graph(p=10, edges=tuple(itertools.combinations(range(1, 11), 2)))
    with pytest.raises(GroupTooLarge, match=r"^refusing to list Aut of order 3628800 > 9!"):
        automorphisms(k10)


def _every_small_graph():
    """Every labelled graph with p <= 5: 1 + 2 + 8 + 64 + 1024."""
    for p in range(1, 6):
        pairs = list(itertools.combinations(range(1, p + 1), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(p=p, edges=tuple(e for b, e in enumerate(pairs) if mask >> b & 1))


def _seeded_graphs():
    """Random graphs with p = 6..9 and twin-rich blown-up graphs with p <= 8."""
    rng = random.Random(2718)
    graphs = [_random_graph(rng, rng.randint(6, 9), rng.uniform(0.15, 0.85)) for _ in range(200)]
    graphs += [blown_up_graph(rng, rng.randint(2, 8)) for _ in range(200)]
    return graphs


def test_automorphisms_match_reference_on_every_small_graph():
    count = 0
    for g in _every_small_graph():
        want = reference_graphs.automorphisms(g)
        assert automorphisms(g) == want
        assert automorphism_order(g) == len(want)
        count += 1
    assert count == 1099


def test_automorphisms_match_reference_on_random_graphs():
    graphs = _seeded_graphs()
    for g in graphs:
        want = reference_graphs.automorphisms(g)
        assert automorphisms(g) == want
        assert automorphism_order(g) == len(want)
    # the blown-up graphs have large groups: twins swap freely
    assert max(automorphism_order(g) for g in graphs) >= 5040


def _cycle(n):
    return Graph(p=n, edges=tuple((i, i % n + 1) for i in range(1, n + 1)))


def _complete_bipartite(m, n):
    return Graph(p=m + n, edges=tuple((i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)))


def test_automorphism_order_published_values():
    for n in range(1, 13):
        complete = Graph(p=n, edges=tuple(itertools.combinations(range(1, n + 1), 2)))
        assert automorphism_order(complete) == math.factorial(n)
    for n in range(3, 13):
        assert automorphism_order(_cycle(n)) == 2 * n
    for m in range(1, 6):
        for n in range(1, 6):
            want = math.factorial(m) * math.factorial(n) * (2 if m == n else 1)
            assert automorphism_order(_complete_bipartite(m, n)) == want
    # Petersen graph: outer 5-cycle, inner pentagram, spokes; |Aut| = |S5|
    petersen = [(i, i % 5 + 1) for i in range(1, 6)]
    petersen += [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    petersen += [(i, i + 5) for i in range(1, 6)]
    assert automorphism_order(Graph(p=10, edges=tuple(petersen))) == 120
    assert automorphism_order(Graph(p=12, edges=())) == math.factorial(12)


# ---------------------------------------------------------------- edge action

def test_induced_edge_permutation_k3_rotation(k3):
    rot = Permutation((2, 3, 1))
    pi = induced_edge_permutation(k3, rot)
    # edges (1,2),(1,3),(2,3) -> (2,3),(1,2),(1,3): a 3-cycle
    assert pi.images == (3, 1, 2)


def test_induced_edge_permutation_paw_swap(paw):
    swap = Permutation((2, 1, 3, 4))
    pi = induced_edge_permutation(paw, swap)
    # swaps the edges (2,3) and (1,3); fixes (1,2) and (3,4)
    assert pi.images == (2, 1, 3, 4)


def test_induced_edge_permutation_rejects_non_automorphism(p4):
    with pytest.raises(NotAnAutomorphism):
        induced_edge_permutation(p4, Permutation((2, 1, 3, 4)))
    with pytest.raises(DimensionMismatch):
        induced_edge_permutation(p4, Permutation((1, 2, 3)))


def test_induced_action_is_homomorphism():
    rng = random.Random(13)
    for _ in range(15):
        g = _random_graph(rng, rng.randint(2, 6))
        if g.q == 0:
            continue
        auts = automorphisms(g)
        for a in auts:
            for b in auts:
                lhs = induced_edge_permutation(g, a.compose(b))
                rhs = induced_edge_permutation(g, a).compose(induced_edge_permutation(g, b))
                assert lhs.images == rhs.images


def _cycle_edges(n, offset=0):
    return [(offset + i, offset + i % n + 1) for i in range(1, n + 1)]


def _random_cubic_graph(rng, p):
    """A random 3-regular simple graph on p (even) vertices."""
    while True:
        stubs = [v for v in range(1, p + 1) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[k : k + 2])) for k in range(0, len(stubs), 2)}
        if len(pairs) == 3 * p // 2 and all(a != b for a, b in pairs):
            return Graph(p=p, edges=tuple(sorted(pairs)))


def _twelve_vertex_graphs():
    """Symmetric graphs on 12 vertices, with |Aut| from the literature."""
    icosahedron = []  # apex 1, upper ring 2-6, lower ring 7-11, apex 12
    for i in range(5):
        a, b, c, d = 2 + i, 2 + (i + 1) % 5, 7 + i, 7 + (i + 1) % 5
        icosahedron += [(1, a), (a, b), (a, c), (b, c), (c, d), (c, 12)]
    triangles = [e for k in range(4) for e in itertools.combinations(range(3 * k + 1, 3 * k + 4), 2)]
    return {
        "C12": (_cycle_edges(12), 24),
        "icosahedron": (icosahedron, 120),
        "4K3": (triangles, math.factorial(3) ** 4 * math.factorial(4)),
        "K6,6": ([(i, j) for i in range(1, 7) for j in range(7, 13)], 2 * math.factorial(6) ** 2),
        "prism": (_cycle_edges(6) + _cycle_edges(6, 6) + [(i, i + 6) for i in range(1, 7)], 24),
        "Mobius ladder": (_cycle_edges(12) + [(i, i + 6) for i in range(1, 7)], 24),
    }


def test_automorphism_order_on_symmetric_twelve_vertex_graphs():
    for name, (edges, order) in _twelve_vertex_graphs().items():
        g = Graph(p=12, edges=tuple(edges))
        assert automorphism_order(g) == order, name
        if order < 10**5:
            want = reference_graphs.automorphisms(g)
            assert len(want) == order and automorphisms(g) == want, name
    rng = random.Random(12)
    for _ in range(10):
        g = _random_cubic_graph(rng, 12)
        want = reference_graphs.automorphisms(g)
        assert automorphism_order(g) == len(want) and automorphisms(g) == want


def test_automorphisms_list_matches_reference_on_large_groups():
    extension_graphs = (
        (4, ((2, 3), (1, 3), (1, 2), (3, 4))),  # paw
        (4, tuple(_cycle_edges(4))),
        (5, tuple(_cycle_edges(5))),
        (6, tuple(_cycle_edges(6))),
        (5, tuple((i, j) for i in (1, 2) for j in (3, 4, 5))),  # K2,3
        (6, tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6))),  # K3,3
    )
    complete = tuple(
        (n, tuple(itertools.combinations(range(1, n + 1), 2))) for n in (4, 5, 6, 8)
    )
    petersen = [(i, i % 5 + 1) for i in range(1, 6)]
    petersen += [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    petersen += [(i, i + 5) for i in range(1, 6)]
    for p, edges in extension_graphs + complete + ((10, tuple(petersen)),):
        g = Graph(p=p, edges=edges)
        assert automorphisms(g) == reference_graphs.automorphisms(g)
