"""Simple graphs with ordered edge lists, coherent components, automorphisms.

Vertices are 1-based (``1..p``).  Edges keep the order in which they were
given — downstream weight vectors are indexed by that order, so it is part of
the data and is never re-sorted.  Each edge is stored with its endpoints
ascending.

The canonical-labelling search ``_search`` is the package's only graph
search; the automorphisms it finds count and list Aut.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    EmptyEdgeSet,
    GroupTooLarge,
    IndexOutOfRange,
    MalformedLine,
    NotAnAutomorphism,
    NotAPermutation,
    SelfLoop,
)

COMPLETE = "complete"
DISCRETE = "discrete"

# Largest algebra dimension p + q that ``parse_graph`` accepts.  The soliton
# pipeline works with dense n x n matrices and sparse Leibniz systems in n^2
# unknowns; K13 (p + q = 91) fits.
MAX_ALGEBRA_DIM = 100

# Largest group order ``automorphisms`` lists: 9! = |Aut K9|, a list that
# takes about 2.5 s and 170 MiB to build (Python 3.11).
MAX_AUT_LIST = math.factorial(9)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``1..p`` with ordered edges."""

    p: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.p < 1:
            raise MalformedLine(f"vertex count must be >= 1, got {self.p}")
        normalized = []
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise SelfLoop(f"edge ({i},{j}) is a self-loop")
            if not (1 <= i <= self.p and 1 <= j <= self.p):
                raise IndexOutOfRange(f"edge ({i},{j}) outside 1..{self.p}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise DuplicateEdge(f"edge ({i},{j}) listed twice")
            seen.add((i, j))
            normalized.append((i, j))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def q(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset, ...]:
        """neighbor_sets[v-1] is the set of neighbors of vertex v."""
        nbrs = [set() for _ in range(self.p)]
        for i, j in self.edges:
            nbrs[i - 1].add(j)
            nbrs[j - 1].add(i)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def edge_index(self) -> dict:
        """Maps an ascending vertex pair to its 0-based position in ``edges``."""
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def vertex_edges(self) -> tuple[tuple[int, ...], ...]:
        """vertex_edges[v-1] lists 0-based indices of edges incident to v."""
        incident = [[] for _ in range(self.p)]
        for k, (i, j) in enumerate(self.edges):
            incident[i - 1].append(k)
            incident[j - 1].append(k)
        return tuple(tuple(lst) for lst in incident)

    def degree(self, v: int) -> int:
        return len(self.neighbor_sets[v - 1])

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edge_index


def _excerpt(raw: str) -> str:
    """The line as quoted in an error message, cut to 40 characters so that
    a huge malformed line still gives a one-line error of bounded length."""
    return repr(raw) if len(raw) <= 40 else repr(raw[:40]) + "..."


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    First non-comment line: vertex count ``p``.  Each further line: one edge
    ``i j`` (1-based; either endpoint order).  ``#`` starts a comment; blank
    lines are ignored.  The algebra dimension ``p + q`` may not exceed
    :data:`MAX_ALGEBRA_DIM`.
    """
    p = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if p is None:
            try:
                p = int(parts[0]) if len(parts) == 1 and parts[0].lstrip("-").isdigit() else None
            except ValueError:  # non-ASCII digits, or more than int() converts
                p = None
            if p is None:
                raise MalformedLine(f"line {lineno}: expected vertex count, got {_excerpt(raw)}")
            if p < 1:
                raise MalformedLine(f"line {lineno}: vertex count must be >= 1")
            if p > MAX_ALGEBRA_DIM:
                raise MalformedLine(
                    f"line {lineno}: vertex count {p} exceeds the limit of "
                    f"{MAX_ALGEBRA_DIM} on p + q"
                )
            continue
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected 'i j', got {_excerpt(raw)}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: expected integers, got {_excerpt(raw)}") from None
        if i == j:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {i}")
        if not (1 <= i <= p and 1 <= j <= p):
            raise IndexOutOfRange(f"line {lineno}: vertex outside 1..{p}")
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) in seen:
            raise DuplicateEdge(f"line {lineno}: edge ({lo},{hi}) listed twice")
        seen.add((lo, hi))
        edges.append((lo, hi))
    if p is None:
        raise MalformedLine("no vertex count line found")
    if p + len(edges) > MAX_ALGEBRA_DIM:
        raise MalformedLine(
            f"p + q = {p + len(edges)} exceeds the limit of {MAX_ALGEBRA_DIM}"
        )
    return Graph(p=p, edges=tuple(edges))


def line_graph(g: Graph) -> Graph:
    """The line graph: one vertex per edge of ``g`` (keeping edge order),
    adjacent iff the underlying edges share an endpoint."""
    if g.q == 0:
        raise EmptyEdgeSet("line graph of an edgeless graph is empty")
    new_edges = []
    for k, l in itertools.combinations(range(g.q), 2):
        a, b = g.edges[k], g.edges[l]
        if set(a) & set(b):
            new_edges.append((k + 1, l + 1))
    return Graph(p=g.q, edges=tuple(new_edges))


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``1..n``; ``images[i-1]`` is the image of ``i``."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise NotAPermutation(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: ``(self.compose(other))(v) == self(other(v))``."""
        if self.n != other.n:
            raise DimensionMismatch("permutation sizes differ")
        return Permutation(tuple(self.images[other.images[v] - 1] for v in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for v, w in enumerate(self.images, start=1):
            inv[w - 1] = v
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.images, start=1))


@dataclass(frozen=True)
class CoherentDecomposition:
    """Partition of the vertices into coherent components.

    ``components`` are sorted vertex tuples, ordered by smallest vertex;
    ``flags[b]`` is ``"complete"`` or ``"discrete"`` (singletons count as
    discrete); ``coherence_edges`` are 0-based component index pairs (a, b)
    with a < b, present iff the two components are joined (all cross pairs
    adjacent).
    """

    components: tuple[tuple[int, ...], ...]
    flags: tuple[str, ...]
    coherence_edges: tuple[tuple[int, int], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)


def _adjacency(g: Graph) -> list[int]:
    """Bitmask adjacency, 0-based: bit w of ``adj[v]`` is set iff v ~ w."""
    adj = [0] * g.p
    for i, j in g.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def _twin_classes(p: int, adj: list[int]) -> list[list[int]]:
    """Twin classes of the bitmask adjacency ``adj``, singletons included:
    ascending 0-based vertex lists, ordered by least vertex.

    Vertices i, j are twins iff N(i)\\{j} = N(j)\\{i}.  Non-adjacent twins
    share their open neighbourhood N(v), adjacent twins their closed one
    N[v]; hashing both finds the classes in O(p) dictionary operations.  No
    vertex has twins of both kinds: if N(i) = N(j) and N[i] = N[k], then k
    is adjacent to i, hence to j, so j lies in N[k] = N[i], yet open twins
    are never adjacent.
    """
    opened = {}
    closed = {}
    for v in range(p):
        opened.setdefault(adj[v], []).append(v)
        closed.setdefault(adj[v] | 1 << v, []).append(v)
    classes = []
    for v in range(p):
        members = opened[adj[v]]
        if len(members) == 1:
            members = closed[adj[v] | 1 << v]
        if members[0] == v:
            classes.append(members)
    return classes


def coherent_components(g: Graph) -> CoherentDecomposition:
    """Coarsest partition into twin classes.

    Vertices i, j land in one component iff N(i)\\{j} = N(j)\\{i}; each
    component induces a complete or an edgeless subgraph, and two components
    are joined either completely or not at all.
    """
    adj = _adjacency(g)
    classes = _twin_classes(g.p, adj)
    flags = tuple(
        COMPLETE if len(c) >= 2 and adj[c[0]] >> c[1] & 1 else DISCRETE for c in classes
    )
    joins = tuple(
        (a, b)
        for a, b in itertools.combinations(range(len(classes)), 2)
        if adj[classes[a][0]] >> classes[b][0] & 1
    )
    components = tuple(tuple(v + 1 for v in c) for c in classes)
    return CoherentDecomposition(components=components, flags=flags, coherence_edges=joins)


def _search(g: Graph):
    """The canonical-labelling search: least column sequence of ``g``, and
    a strong generating set of Aut g.

    Placing vertex m+1 appends column m+1, the m bits of its adjacency to
    the vertices already placed, compared as an m-bit integer.  Returns
    ``(columns, order, automorphisms)``, all 0-based: ``order[k]`` is the
    vertex placed at position k by a minimizing ordering, and the
    automorphisms are image lists.  The search places vertices one at a time
    and keeps the minimum exactly, because it only skips subtrees that
    cannot hold a smaller sequence:

    * Only the candidates with the least column are explored.  Every
      candidate at a node shares the same prefix, and any completion of a
      least-column candidate beats every completion of a larger one.
    * A node whose column already exceeds the best leaf's column at that
      level (the prefixes being equal) is abandoned.
    * A candidate is skipped when an automorphism fixing the placed vertices
      maps an already tried candidate onto it: the automorphism carries the
      tried subtree onto the skipped one leaf by leaf, with equal sequences.
      The automorphisms used are the transpositions of twins and those the
      search finds itself: whenever a leaf ties the best leaf, mapping the
      best ordering onto the current one is an automorphism.  It fixes the
      prefix the two orderings share, so the rest of the current subtree
      below that prefix mirrors one already searched and is abandoned too.

    The automorphisms are a strong generating set along the base ``order``:
    those fixing ``order[:m]`` move ``order[m]`` onto its whole orbit under
    the stabilizer of ``order[:m]``.  That orbit is the set of children of
    the node ``order[:m]`` that lead to a least leaf, as the least orderings
    are the images of ``order``.  Children tried before ``order[m]`` lead to
    none, or the search would have met a least leaf there first; each later
    one is reached from a tried child by a found automorphism fixing the
    prefix, or searched until its first least leaf, where the automorphism
    found sends ``order[m]`` onto it.
    """
    p = g.p
    adj = _adjacency(g)
    # Swapping consecutive twins generates every permutation of each class.
    gens = []
    for members in _twin_classes(p, adj):
        for u, v in zip(members, members[1:]):
            swap = list(range(p))
            swap[u], swap[v] = v, u
            gens.append(swap)
    # fixed[i]: bitmask of the vertices gens[i] fixes
    fixed = [sum(1 << v for v in range(p) if s[v] == v) for s in gens]
    cols = [0] * p
    order = [0] * p
    best = None
    best_order = None

    def orbit(mask: int, placed: int) -> int:
        """Closure of the vertex set ``mask`` under the known automorphisms
        that fix every vertex in ``placed``."""
        active = [s for s, f in zip(gens, fixed) if not placed & ~f]
        closure = frontier = mask
        while frontier:
            reached = 0
            for s in active:
                x = frontier
                while x:
                    low = x & -x
                    reached |= 1 << s[low.bit_length() - 1]
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


def _stabilizer_chain(base, gens) -> list[dict]:
    """Transversals along ``base``, a full ordering of the 0-based vertices.

    Level m maps each point w of the orbit of ``base[m]``, under the
    generators (image lists) that fix ``base[:m]`` pointwise, to a product
    of those generators that sends ``base[m]`` to w.  For a strong
    generating set along ``base``, such as :func:`_search` returns, the
    group's order is the product of the level sizes, and each element is
    one product ``t_0 t_1 ... t_(p-1)`` with ``t_m`` from level m.
    """
    identity = list(range(len(base)))
    active = list(gens)
    chain = []
    for b in base:
        level = {b: identity}
        frontier = [b]
        while frontier:
            u = frontier.pop()
            t = level[u]
            for s in active:
                x = s[u]
                if x not in level:
                    level[x] = [s[y] for y in t]
                    frontier.append(x)
        chain.append(level)
        active = [s for s in active if s[b] == b]
    return chain


def automorphisms(g: Graph, max_vertices: int = 12) -> list[Permutation]:
    """The full automorphism group, identity first, sorted by image tuple.

    Multiplies out the stabilizer chain of the canonical search's
    automorphisms.  Refuses graphs with more than ``max_vertices`` vertices,
    which bounds the search, and groups of order above :data:`MAX_AUT_LIST`,
    which bounds the list; both raise :class:`GroupTooLarge`.  To count the
    group, use :func:`automorphism_order`.
    """
    if g.p > max_vertices:
        raise GroupTooLarge(f"refusing to enumerate Aut for p={g.p} > {max_vertices}")
    _, order, gens = _search(g)
    chain = _stabilizer_chain(order, gens)
    size = math.prod(len(level) for level in chain)
    if size > MAX_AUT_LIST:
        raise GroupTooLarge(f"refusing to list Aut of order {size} > 9! = {MAX_AUT_LIST}")
    elements = [range(g.p)]
    for level in reversed(chain):
        if len(level) > 1:
            elements = [[t[x] for x in e] for t in level.values() for e in elements]
    return [Permutation(t) for t in sorted(tuple(x + 1 for x in e) for e in elements)]


def automorphism_order(g: Graph) -> int:
    """|Aut g|, the product of the orbit sizes along the stabilizer chain
    of the canonical search's automorphisms, without listing the group."""
    _, order, gens = _search(g)
    return math.prod(len(level) for level in _stabilizer_chain(order, gens))


def induced_edge_permutation(g: Graph, sigma: Permutation) -> Permutation:
    """How a vertex automorphism permutes the (1-based) edge indices."""
    if sigma.n != g.p:
        raise DimensionMismatch(f"permutation acts on {sigma.n} vertices, graph has {g.p}")
    images = []
    for i, j in g.edges:
        a, b = sigma(i), sigma(j)
        if a > b:
            a, b = b, a
        k = g.edge_index.get((a, b))
        if k is None:
            raise NotAnAutomorphism(f"edge ({i},{j}) maps to non-edge ({a},{b})")
        images.append(k + 1)
    return Permutation(tuple(images))
