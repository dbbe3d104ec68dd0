"""Reference census: the exhaustive canonical-form backtracker and the
class enumeration that extends every parent by every neighbourhood.

``canonical_form`` explores every least-so-far ordering without automorphism
pruning, and ``graph_classes`` canonicalizes all 2^(p-1) extensions of each
parent.  Both are slow and kept only as oracles for ``graphsolitons.census``.
"""

from __future__ import annotations

from graphsolitons import Graph, is_connected


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
