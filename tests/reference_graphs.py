"""Reference graph searches, kept only as oracles.

``coherent_components`` is the pairwise union-find version: it compares the
neighbourhoods of every vertex pair, O(p^2) set operations, where
``graphsolitons.graphs.coherent_components`` hashes open and closed
neighbourhoods.  ``automorphisms`` is the plain backtracker that listed the
group before ``graphsolitons.graphs`` shared one search between
``automorphisms`` and ``automorphism_order``.
"""

from __future__ import annotations

import itertools

from graphsolitons.errors import GroupTooLarge
from graphsolitons.graphs import (
    COMPLETE,
    DISCRETE,
    CoherentDecomposition,
    Graph,
    Permutation,
)


def coherent_components(g: Graph) -> CoherentDecomposition:
    """Coarsest partition into twin classes.

    Vertices i, j land in one component iff N(i)\\{j} = N(j)\\{i}; each
    component induces a complete or an edgeless subgraph, and two components
    are joined either completely or not at all.
    """
    parent = list(range(g.p + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nbrs = g.neighbor_sets
    for i in range(1, g.p + 1):
        for j in range(i + 1, g.p + 1):
            if nbrs[i - 1] - {j} == nbrs[j - 1] - {i}:
                parent[find(i)] = find(j)

    groups = {}
    for v in range(1, g.p + 1):
        groups.setdefault(find(v), []).append(v)
    components = tuple(sorted((tuple(sorted(c)) for c in groups.values())))

    flags = []
    for comp in components:
        if len(comp) >= 2 and g.has_edge(comp[0], comp[1]):
            flags.append(COMPLETE)
        else:
            flags.append(DISCRETE)

    joins = []
    for a, b in itertools.combinations(range(len(components)), 2):
        if g.has_edge(components[a][0], components[b][0]):
            joins.append((a, b))
    return CoherentDecomposition(
        components=components, flags=tuple(flags), coherence_edges=tuple(joins)
    )


def automorphisms(g: Graph, max_vertices: int = 12) -> list[Permutation]:
    """The full automorphism group, identity first, sorted by image tuple.

    Plain backtracking with degree/neighborhood pruning; refuses graphs with
    more than ``max_vertices`` vertices since the list itself can be
    factorially large.
    """
    if g.p > max_vertices:
        raise GroupTooLarge(f"refusing to enumerate Aut for p={g.p} > {max_vertices}")
    nbrs = g.neighbor_sets
    # cheap vertex invariant: degree plus sorted neighbor degrees
    degs = [len(nbrs[v]) for v in range(g.p)]
    invariant = [
        (degs[v], tuple(sorted(degs[w - 1] for w in nbrs[v]))) for v in range(g.p)
    ]
    found = []
    image = [0] * (g.p + 1)
    used = [False] * (g.p + 1)

    def extend(v):
        if v > g.p:
            found.append(tuple(image[1:]))
            return
        for w in range(1, g.p + 1):
            if used[w] or invariant[w - 1] != invariant[v - 1]:
                continue
            ok = True
            for u in range(1, v):
                if (u in nbrs[v - 1]) != (image[u] in nbrs[w - 1]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        image[v] = 0

    extend(1)
    found.sort()
    return [Permutation(t) for t in found]
