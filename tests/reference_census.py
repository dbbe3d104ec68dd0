"""Reference census: the exhaustive canonical-form backtracker and the
class enumeration that extends every parent by every neighbourhood.

``canonical_form`` explores every least-so-far ordering without automorphism
pruning, and ``graph_classes`` canonicalizes all 2^(p-1) extensions of each
parent.  Both are slow and kept only as oracles for ``graphsolitons.census``.

``graph_classes_with_aut_order`` is the generate-and-dedupe census that the
canonical augmentation replaced: it canonicalizes one extension per orbit of
the parent's automorphisms and keeps the first of each canonical form.
"""

from __future__ import annotations

import math

from graphsolitons import Graph, InvalidArgument, census, is_connected
from graphsolitons.graphs import _stabilizer_chain


def canonical_form(g: Graph) -> tuple[tuple[int, int], ...]:
    """The canonically relabeled edge set, sorted lexicographically."""
    p = g.p
    adj = [set() for _ in range(p)]
    for i, j in g.edges:
        adj[i - 1].add(j - 1)
        adj[j - 1].add(i - 1)

    best: list | None = None
    image: list = []
    used = [False] * p

    def extend(prefix: list):
        nonlocal best
        m = len(image)
        if m == p:
            if best is None or prefix < best:
                best = list(prefix)
            return
        candidates = []
        for v in range(p):
            if not used[v]:
                col = tuple(1 if image[i] in adj[v] else 0 for i in range(m))
                candidates.append((col, v))
        candidates.sort()
        for col, v in candidates:
            new_prefix = prefix + list(col)
            if best is not None:
                head = best[: len(new_prefix)]
                if new_prefix > head:
                    continue
            image.append(v)
            used[v] = True
            extend(new_prefix)
            image.pop()
            used[v] = False

    extend([])
    # rebuild edges from the winning bit string
    edges = []
    pos = 0
    for m in range(1, p):
        for i in range(m):
            if best[pos]:
                edges.append((i + 1, m + 1))
            pos += 1
    return tuple(sorted(edges))


def graph_classes(max_p: int, connected_only: bool = True) -> list[Graph]:
    """Canonical representatives of all isomorphism classes with 1..max_p
    vertices, ordered by (p, edge count, edge list)."""
    if max_p < 1:
        raise ValueError("max_p must be >= 1")
    per_p = {1: [Graph(p=1, edges=())]}
    for p in range(2, max_p + 1):
        seen = set()
        reps = []
        for base in per_p[p - 1]:
            for mask in range(1 << (p - 1)):
                new_edges = tuple(
                    (i + 1, p) for i in range(p - 1) if (mask >> i) & 1
                )
                candidate = Graph(p=p, edges=base.edges + new_edges)
                can = canonical_form(candidate)
                if can not in seen:
                    seen.add(can)
                    reps.append(Graph(p=p, edges=can))
        reps.sort(key=lambda g: (g.q, g.edges))
        per_p[p] = reps
    out = []
    for p in range(1, max_p + 1):
        for g in per_p[p]:
            if connected_only and not is_connected(g):
                continue
            out.append(g)
    return out


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
                can = census.canonical_form(candidate, generators=gens)
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
