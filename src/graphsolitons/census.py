"""Isomorphism-class enumeration of small graphs with canonical labelings.

The canonical form of a graph is the vertex relabeling that minimizes the
column-ordered upper-triangle adjacency bit string (bits (1,2), (1,3), (2,3),
(1,4), ...).  Placing vertex m+1 appends column m+1, the m bits of its
adjacency to the vertices already placed, so the string of an ordering is
its sequence of columns, and columns of one level are compared as m-bit
integers.  The search places vertices one at a time and keeps the minimum
exactly, because it only skips subtrees that cannot hold a smaller string:

* Only the candidates with the least column are explored.  Every candidate
  at a node shares the same prefix, and any completion of a least-column
  candidate beats every completion of a larger one.
* A node whose column already exceeds the best leaf's column at that level
  (the prefixes being equal) is abandoned.
* A candidate is skipped when an automorphism fixing the placed vertices
  maps an already tried candidate onto it: the automorphism carries the
  tried subtree onto the skipped one leaf by leaf, with equal strings.  The
  automorphisms used are the transpositions of twins (u, v with
  N(u)∖{v} = N(v)∖{u}) and those the search finds itself: whenever a leaf
  ties the best leaf, mapping the best ordering onto the current one is an
  automorphism.  It fixes the prefix the two orderings share, so the rest of
  the current subtree below that prefix mirrors one already searched and is
  abandoned as well.

Any subgroup of the automorphism group gives sound pruning, so nothing
depends on having found all of it.

Classes on p vertices are built by extending the classes on p-1 vertices
with one new vertex.  Neighbourhoods of the new vertex that an automorphism
of the parent maps onto each other give isomorphic graphs, so one
neighbourhood per orbit of the automorphisms found by the parent's own
canonical search is extended, and the results are deduplicated by
canonical form.
"""

from __future__ import annotations

from .graphs import Graph, Permutation


def _twin_swaps(p: int, adj: list) -> list:
    """Transpositions of twin vertices, as image lists.

    Open twins share their open neighbourhood, closed twins their closed
    one; a vertex has twins of at most one kind, and swapping two twins
    fixes every other vertex and every edge.  Consecutive members of each
    twin class are swapped, which generates every permutation of the class.
    """
    classes = {}
    for v in range(p):
        classes.setdefault((adj[v], 0), []).append(v)
        classes.setdefault((adj[v] | 1 << v, 1), []).append(v)
    swaps = []
    for members in classes.values():
        for u, v in zip(members, members[1:]):
            perm = list(range(p))
            perm[u], perm[v] = v, u
            swaps.append(perm)
    return swaps


def _search(p: int, adj: list):
    """Least column sequence of the graph with adjacency bitmasks ``adj``.

    Returns ``(columns, order, automorphisms)``: ``order[k]`` is the vertex
    placed at position k by a minimizing ordering, and ``automorphisms``
    (image lists) generate a subgroup of the automorphism group.
    """
    gens = _twin_swaps(p, adj)
    # fixed[i]: bitmask of the vertices gens[i] fixes
    fixed = [sum(1 << v for v in range(p) if g[v] == v) for g in gens]
    cols = [0] * p
    order = [0] * p
    best = None
    best_order = None

    def orbit(mask: int, placed: int) -> int:
        """Closure of the vertex set ``mask`` under the known automorphisms
        that fix every vertex in ``placed``."""
        active = [g for g, f in zip(gens, fixed) if not placed & ~f]
        closure = frontier = mask
        while frontier:
            reached = 0
            for g in active:
                x = frontier
                while x:
                    low = x & -x
                    reached |= 1 << g[low.bit_length() - 1]
                    x ^= low
            frontier = reached & ~closure
            closure |= reached
        return closure

    def node(m: int, free: list, col: list, least: int, placed: int, below: bool) -> int:
        """Search below the m placed vertices ``order[:m]``.

        ``col[i]`` is the column of the unplaced vertex ``free[i]`` and
        ``least`` the least of them.  ``below`` says the prefix is already
        less than the best leaf's (or there is no best leaf yet); otherwise
        it equals it and ``least`` does not exceed the best leaf's column.
        Returns the depth to unwind to, ``p`` to carry on normally.
        """
        nonlocal best, best_order
        if m == p:
            if below:
                best = cols[:]
                best_order = order[:]
                return p
            gamma = [0] * p
            for u, v in zip(best_order, order):
                gamma[u] = v
            gens.append(gamma)
            fixed.append(sum(1 << v for v in range(p) if gamma[v] == v))
            d = 0
            while best_order[d] == order[d]:
                d += 1
            return d
        if not below:
            below = least < best[m]
        cols[m] = least
        tried = closure = 0
        known = -1  # number of generators ``closure`` was computed with
        for v, c in zip(free, col):
            if c != least:
                continue
            if tried:
                if known != len(gens):
                    closure = orbit(closure | tried, placed)
                    known = len(gens)
                if closure >> v & 1:
                    continue
            tried |= 1 << v
            known = -1
            row = adj[v]
            rest = [w for w in free if w != v]
            child = [x << 1 | (row >> w & 1) for w, x in zip(free, col) if w != v]
            low = min(child, default=0)
            if not below and child and low > best[m + 1]:
                continue
            order[m] = v
            depth = node(m + 1, rest, child, low, placed | 1 << v, below)
            if depth < m:
                return depth
            # The best leaf now runs through this node.
            below = False
        return p

    node(0, list(range(p)), [0] * p, 0, 0, True)
    return best, best_order, gens


def canonical_form(
    g: Graph, *, generators: list | None = None
) -> tuple[tuple[int, int], ...]:
    """The canonically relabeled edge set, sorted lexicographically.

    If ``generators`` is a list, the automorphisms of the canonical graph
    that the search used are appended to it as Permutations of ``1..p``.
    They generate a subgroup of its automorphism group, not always all of it.
    """
    p = g.p
    adj = [0] * p
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    best, order, gens = _search(p, adj)
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
    if max_p < 1:
        raise ValueError("max_p must be >= 1")
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
        for g, _ in per_p[p]:
            if connected_only and not is_connected(g):
                continue
            out.append(g)
    return out
