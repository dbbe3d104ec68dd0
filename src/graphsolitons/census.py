"""Isomorphism-class enumeration of small graphs with canonical labelings.

The canonical form of a graph is the vertex relabeling that minimizes the
column-ordered upper-triangle adjacency bit string (bits (1,2), (1,3), (2,3),
(1,4), ...).  ``graphs._search`` finds it, and the same search is the only
one the package runs on a graph: the automorphisms it finds along the way are
a strong generating set of the automorphism group (see :func:`canonical_form`).

Classes on p vertices are built by extending the classes on p-1 vertices
with one new vertex.  Neighbourhoods of the new vertex that an automorphism
of the parent maps onto each other give isomorphic graphs, so one
neighbourhood per orbit of the automorphisms found by the parent's own
canonical search is extended, and the results are deduplicated by
canonical form.  Each class keeps the generators of its own search, and its
automorphism group order is read off them, so no class is searched twice.
"""

from __future__ import annotations

import math

from .errors import InvalidArgument
from .graphs import Graph, Permutation, _search, _stabilizer_chain


def canonical_form(
    g: Graph, *, generators: list | None = None
) -> tuple[tuple[int, int], ...]:
    """The canonically relabeled edge set, sorted lexicographically.

    If ``generators`` is a list, the automorphisms of the canonical graph
    that the search found are appended to it as Permutations of ``1..p``.
    They are a strong generating set along ``1..p``: for each m, those that
    fix ``1..m`` move m+1 onto its whole orbit under the automorphisms that
    fix ``1..m``, so |Aut| is the product of these orbit sizes.
    """
    p = g.p
    best, order, gens = _search(g)
    if generators is not None:
        position = [0] * p
        for k, v in enumerate(order):
            position[v] = k
        for gamma in gens:
            generators.append(
                Permutation(tuple(position[gamma[v]] + 1 for v in order))
            )
    edges = []
    for m in range(1, p):
        for i in range(m):
            if best[m] >> (m - 1 - i) & 1:
                edges.append((i + 1, m + 1))
    return tuple(sorted(edges))


def is_connected(g: Graph) -> bool:
    if g.p == 1:
        return True
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in g.neighbor_sets[v - 1]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.p


def _mask_orbit_minima(n: int, generators: list) -> list:
    """The least member of each orbit of subsets of ``{1..n}``, as bitmasks
    (bit k for vertex k+1), under the group the Permutations generate."""
    images = [[1 << (w - 1) for w in s.images] for s in generators]
    seen = bytearray(1 << n)
    minima = []
    for mask in range(1 << n):
        if seen[mask]:
            continue
        minima.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in images:
                y = 0
                for k in range(n):
                    if x >> k & 1:
                        y |= image[k]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return minima


def graph_classes(max_p: int, connected_only: bool = True) -> list[Graph]:
    """Canonical representatives of all isomorphism classes with 1..max_p
    vertices, ordered by (p, edge count, edge list)."""
    return [g for g, _ in graph_classes_with_aut_order(max_p, connected_only)]


def graph_classes_with_aut_order(
    max_p: int, connected_only: bool = True
) -> list[tuple[Graph, int]]:
    """:func:`graph_classes`, each representative paired with |Aut|, the
    product of the orbit sizes along ``1..p`` under the generators its own
    canonical search found."""
    if max_p < 1:
        raise InvalidArgument("max_p must be >= 1")
    # Each class with the automorphisms its canonical search found.
    per_p = {1: [(Graph(p=1, edges=()), [])]}
    for p in range(2, max_p + 1):
        seen = set()
        reps = []
        for base, base_gens in per_p[p - 1]:
            for mask in _mask_orbit_minima(p - 1, base_gens):
                new_edges = tuple(
                    (i + 1, p) for i in range(p - 1) if (mask >> i) & 1
                )
                candidate = Graph(p=p, edges=base.edges + new_edges)
                gens = []
                can = canonical_form(candidate, generators=gens)
                if can not in seen:
                    seen.add(can)
                    reps.append((Graph(p=p, edges=can), gens))
        reps.sort(key=lambda rep: (rep[0].q, rep[0].edges))
        per_p[p] = reps
    out = []
    for p in range(1, max_p + 1):
        for g, gens in per_p[p]:
            if connected_only and not is_connected(g):
                continue
            images = [[w - 1 for w in s.images] for s in gens]
            chain = _stabilizer_chain(range(p), images)
            out.append((g, math.prod(len(level) for level in chain)))
    return out
