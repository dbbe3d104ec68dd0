"""Isomorphism-class enumeration of small graphs with canonical labelings.

The canonical form of a graph is the vertex relabeling that minimizes the
column-ordered upper-triangle adjacency bit string (bits (1,2), (1,3), (2,3),
(1,4), ...).  ``graphs._search`` finds it, and the same search is the only
one the package runs on a graph: the automorphisms it finds along the way are
a strong generating set of the automorphism group (see :func:`canonical_form`).

Classes on p vertices are built by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each class
on p-1 vertices is extended by one new vertex, with one neighbourhood per
orbit of the parent's automorphisms, and a candidate is kept only if its new
vertex is the canonical one to delete.  A cheap vertex invariant rejects
most candidates before any search, and each accepted candidate is a new
class, so there is about one canonical search per class.  Each class keeps
the generators of its own search, and its automorphism group order is read
off them, so no class is searched twice.  See
:func:`graph_classes_with_aut_order` for the argument.
"""

from __future__ import annotations

import math

from .errors import InvalidArgument
from .graphs import Graph, Permutation, _adjacency, _search, _stabilizer_chain

# Largest vertex count the census enumerates: 274 668 classes on 9 vertices,
# about 12 million on 10.
MAX_CENSUS_P = 9


def canonical_form(
    g: Graph, *, generators: list | None = None, labels: list | None = None
) -> tuple[tuple[int, int], ...]:
    """The canonically relabeled edge set, sorted lexicographically.

    If ``generators`` is a list, the automorphisms of the canonical graph
    that the search found are appended to it as Permutations of ``1..p``.
    They are a strong generating set along ``1..p``: for each m, those that
    fix ``1..m`` move m+1 onto its whole orbit under the automorphisms that
    fix ``1..m``, so |Aut| is the product of these orbit sizes.

    If ``labels`` is a list, the canonical label of each vertex ``1..p`` of
    ``g`` is appended to it: vertex v becomes vertex ``labels[v-1]`` of the
    canonical graph.  Another minimizing relabeling differs from this one by
    an automorphism of the canonical graph.
    """
    p = g.p
    best, order, gens = _search(g)
    position = [0] * p
    for k, v in enumerate(order):
        position[v] = k
    if labels is not None:
        labels.extend(k + 1 for k in position)
    if generators is not None:
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


def _vertex_keys(adj: list[int]) -> list[int]:
    """The invariant (deg v, sum of deg u over the neighbours u of v) of each
    vertex of the bitmask adjacency ``adj``, packed into one int so that the
    ints compare as the pairs do."""
    degree = [a.bit_count() for a in adj]
    scale = len(adj) ** 2
    keys = []
    for v, a in enumerate(adj):
        total = 0
        while a:
            low = a & -a
            total += degree[low.bit_length() - 1]
            a ^= low
        keys.append(degree[v] * scale + total)
    return keys


def _orbit(point: int, generators: list) -> set:
    """The orbit of ``point`` under the group the Permutations generate."""
    orbit = {point}
    stack = [point]
    while stack:
        v = stack.pop()
        for s in generators:
            w = s(v)
            if w not in orbit:
                orbit.add(w)
                stack.append(w)
    return orbit


def graph_classes_with_aut_order(
    max_p: int, connected_only: bool = True
) -> list[tuple[Graph, int]]:
    """:func:`graph_classes`, each representative paired with |Aut|, the
    product of the orbit sizes along ``1..p`` under the generators its own
    canonical search found.

    A candidate on p vertices is a class on p-1 vertices (its parent) plus a
    new vertex p whose neighbourhood is the least member of one orbit of
    neighbourhoods under the parent's automorphisms.  Give each vertex the
    key (deg v, sum of the degrees of its neighbours).  A candidate is
    accepted iff the new vertex has the largest key and, when other vertices
    tie it, its canonical label lies in the orbit of m, the tied vertex with
    the largest canonical label.  Only candidates that pass the key test are
    searched, once each.

    Minimizing orderings differ by an automorphism, so the orbit of m is an
    isomorphism invariant, and each class is accepted exactly once:

    * Every class is reached.  Deleting m from it leaves a graph in some
      parent class; mapping m's neighbourhood into that parent and taking
      its orbit minimum gives a candidate isomorphic to the class with the
      new vertex sent into m's orbit, and it is accepted.
    * No class is reached twice.  Two accepted isomorphic candidates have an
      isomorphism between them that maps new vertex to new vertex, so they
      have the same parent, and their neighbourhoods lie in one orbit of the
      parent's automorphisms, whose least member both of them are.

    So a repeated canonical form is an internal fault and raises
    ``RuntimeError``.
    """
    if max_p < 1:
        raise InvalidArgument("max_p must be >= 1")
    if max_p > MAX_CENSUS_P:
        raise InvalidArgument(f"max_p must be <= {MAX_CENSUS_P}, got {max_p}")
    # Each class with the automorphisms its canonical search found.
    per_p = {1: [(Graph(p=1, edges=()), [])]}
    for p in range(2, max_p + 1):
        new = p - 1
        seen = set()
        reps = []
        for base, base_gens in per_p[p - 1]:
            base_adj = _adjacency(base)
            for mask in _mask_orbit_minima(new, base_gens):
                adj = [a | 1 << new if mask >> v & 1 else a for v, a in enumerate(base_adj)]
                adj.append(mask)
                keys = _vertex_keys(adj)
                top = keys[new]
                if max(keys) > top:
                    continue
                new_edges = tuple((i + 1, p) for i in range(new) if mask >> i & 1)
                candidate = Graph(p=p, edges=base.edges + new_edges)
                gens, labels = [], []
                can = canonical_form(candidate, generators=gens, labels=labels)
                tied = [labels[v] for v in range(p) if keys[v] == top]
                if len(tied) > 1 and labels[new] not in _orbit(max(tied), gens):
                    continue
                if can in seen:
                    raise RuntimeError(f"census accepted a class on {p} vertices twice")
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
