"""Reference positivity solve, kept only as an oracle.

These are the versions that ``graphsolitons.positivity`` replaced:
``edge_similarity_classes`` reads block numbers off a full
``coherent_components`` decomposition, ``_solve_reduced`` solves the edge
system with one unknown per edge-similarity class (the package now solves
the twin-class quotient of ``(I + D + A) y = d`` in the vertex space), its
class matrix filled by walking the edges incident to each class
representative, and ``family_graph`` sorts every join pair.  The weights and
the certificate are the same; the differential tests in
``tests/test_positivity.py`` compare the two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from graphsolitons.errors import EmptyEdgeSet
from graphsolitons.graphs import Graph, coherent_components
from graphsolitons.positivity import FamilySpec, NotPositive, Weighting


def edge_similarity_classes(g: Graph):
    """Group edges by the (unordered) pair of coherent components they join.

    Returns ``(class_ids, n_classes)`` where ``class_ids[k]`` is the 0-based
    class of edge k.  Similar edges provably carry equal weights.
    """
    block_of = {}
    for b, comp in enumerate(coherent_components(g).components):
        for v in comp:
            block_of[v] = b
    keys = {}
    class_ids = []
    for i, j in g.edges:
        a, b = block_of[i], block_of[j]
        key = (a, b) if a <= b else (b, a)
        if key not in keys:
            keys[key] = len(keys)
        class_ids.append(keys[key])
    return class_ids, len(keys)


def _solve_reduced(g: Graph, class_ids, n_classes) -> tuple[list[int], int]:
    """Solve the positivity system with nu = 1 on edge-similarity classes.

    Returns integer numerators per edge and one positive common denominator.
    The class matrix ``B`` (3 on the diagonal plus neighbour counts) is
    solved by Bareiss fraction-free elimination (Math. Comp. 22, 1968)
    without row exchanges: ``D B = P^T (3I + A) P`` with ``D`` the diagonal
    of class sizes and ``P`` the edge-to-class indicator, so every leading
    minor of ``B`` is positive, and the k-th Bareiss pivot is the k-th
    leading minor.  A non-positive pivot raises ``RuntimeError``.
    """
    rep = [None] * n_classes
    for k, cid in enumerate(class_ids):
        if rep[cid] is None:
            rep[cid] = k
    n = n_classes
    # augmented rows [B | 1]
    m = [[0] * n + [1] for _ in range(n)]
    for cid in range(n):
        row = m[cid]
        row[cid] = 3
        k = rep[cid]
        i, j = g.edges[k]
        for other in g.vertex_edges[i - 1] + g.vertex_edges[j - 1]:
            if other != k:
                row[class_ids[other]] += 1
    prev = 1
    for k in range(n):
        mk = m[k]
        pivot = mk[k]
        if pivot <= 0:
            raise RuntimeError(
                f"positivity class matrix has leading minor {pivot} at order "
                f"{k + 1} for the graph p={g.p}, edges={list(g.edges)}"
            )
        for i in range(k + 1, n):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, n + 1):
                mi[j] = (mi[j] * pivot - f * mk[j]) // prev
        prev = pivot
    # back substitution scaled by det B = prev: x[i] = det * (B^-1 1)_i is an
    # integer (Cramer), so every division below is exact
    det = prev
    x = [0] * n
    for i in range(n - 1, -1, -1):
        mi = m[i]
        acc = det * mi[n]
        for j in range(i + 1, n):
            acc -= mi[j] * x[j]
        x[i] = acc // mi[i]
    return [x[cid] for cid in class_ids], det


def _verify_full(g: Graph, c, nu) -> bool:
    """Exact check of (3I + Adj L(G)) c == nu * 1 via per-vertex sums.

    ``solve_weights`` passes integer numerators ``c`` and their common
    denominator as ``nu``, so the check runs in integers.
    """
    vertex_sum = [0] * g.p
    for k, (i, j) in enumerate(g.edges):
        vertex_sum[i - 1] += c[k]
        vertex_sum[j - 1] += c[k]
    for k, (i, j) in enumerate(g.edges):
        if c[k] + vertex_sum[i - 1] + vertex_sum[j - 1] != nu:
            return False
    return True


def solve_weights(g: Graph) -> Weighting | NotPositive:
    """Solve the edge-weight system exactly.

    Returns a :class:`Weighting` normalized to ``sum(c) == 1`` when every
    weight is positive, else a :class:`NotPositive` carrying the nu = 1
    solution and the offending edge indices.  The integer solution of the
    reduced class system is checked against every edge equation; a failure
    raises ``RuntimeError``.
    """
    if g.q == 0:
        raise EmptyEdgeSet("graph has no edges")
    class_ids, n_classes = edge_similarity_classes(g)
    num, den = _solve_reduced(g, class_ids, n_classes)
    if not _verify_full(g, num, den):
        # similar edges carry equal weights, so this is an internal fault
        raise RuntimeError(
            f"reduced positivity solution fails (3I + A) c = 1 for the graph "
            f"p={g.p}, edges={list(g.edges)}"
        )
    failing = tuple(k + 1 for k, x in enumerate(num) if x <= 0)
    # one Fraction per class, shared by the edges of that class
    scale = den if failing else sum(num)
    per_class = {}
    for cid, x in zip(class_ids, num):
        if cid not in per_class:
            per_class[cid] = Fraction(x, scale)
    c = tuple(per_class[cid] for cid in class_ids)
    if failing:
        return NotPositive(c=c, failing_indices=failing)
    return Weighting(nu=Fraction(den, scale), c=c)


def family_graph(spec: FamilySpec) -> Graph:
    """Instantiate a coherence template: blocks become vertex ranges (in block
    order), complete blocks get all internal edges, joined blocks get all
    cross edges.  Internal edges come first, then joins, each lexicographic."""
    starts = []
    total = 0
    for s in spec.sizes:
        starts.append(total)
        total += s
    block_vertices = [
        list(range(start + 1, start + size + 1)) for start, size in zip(starts, spec.sizes)
    ]
    edges = []
    for b, full in enumerate(spec.complete):
        if full:
            edges.extend(itertools.combinations(block_vertices[b], 2))
    for a, b in spec.adjacency:
        pairs = itertools.product(block_vertices[a], block_vertices[b])
        edges.extend(tuple(sorted(pr)) for pr in pairs)
    return Graph(p=total, edges=tuple(edges))
