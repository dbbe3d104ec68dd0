"""Reference twin classes: the pairwise union-find ``coherent_components``.

It compares the neighbourhoods of every vertex pair, O(p^2) set operations,
and is kept only as an oracle for ``graphsolitons.graphs.coherent_components``,
which hashes open and closed neighbourhoods instead.
"""

from __future__ import annotations

import itertools

from graphsolitons.graphs import COMPLETE, DISCRETE, CoherentDecomposition, Graph


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
