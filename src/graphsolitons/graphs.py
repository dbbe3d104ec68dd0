"""Simple graphs with ordered edge lists, coherent components, automorphisms.

Vertices are 1-based (``1..p``).  Edges keep the order in which they were
given — downstream weight vectors are indexed by that order, so it is part of
the data and is never re-sorted.  Each edge is stored with its endpoints
ascending.
"""

from __future__ import annotations

import itertools
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
    SelfLoop,
)

COMPLETE = "complete"
DISCRETE = "discrete"

# Largest algebra dimension p + q that ``parse_graph`` accepts.  The soliton
# pipeline works with dense n x n matrices and sparse Leibniz systems in n^2
# unknowns; K13 (p + q = 91) fits.
MAX_ALGEBRA_DIM = 100


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
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

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

    def component_of(self, v: int) -> int:
        for b, comp in enumerate(self.components):
            if v in comp:
                return b
        raise IndexOutOfRange(f"vertex {v} not in any component")


def coherent_components(g: Graph) -> CoherentDecomposition:
    """Coarsest partition into twin classes.

    Vertices i, j land in one component iff N(i)\\{j} = N(j)\\{i}; each
    component induces a complete or an edgeless subgraph, and two components
    are joined either completely or not at all.

    Non-adjacent twins share their open neighbourhood N(v), adjacent twins
    their closed one N[v]; hashing both finds the classes in O(p + q).  No
    vertex has twins of both kinds: if N(i) = N(j) and N[i] = N[k], then k
    is adjacent to j, so j lies in N[k] = N[i], yet j is not adjacent to i.
    """
    opened = g.neighbor_sets
    closed = [nv | {v} for v, nv in enumerate(opened, start=1)]
    false_twins = {}
    true_twins = {}
    for v in range(1, g.p + 1):
        false_twins.setdefault(opened[v - 1], []).append(v)
        true_twins.setdefault(closed[v - 1], []).append(v)
    components = set()
    for v in range(1, g.p + 1):
        group = false_twins[opened[v - 1]]
        if len(group) == 1:
            group = true_twins[closed[v - 1]]
        components.add(tuple(group))
    components = tuple(sorted(components))

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


class _AutomorphismSearch:
    """Backtracking over the automorphisms of a graph, one vertex at a time.

    Vertex v may map to w when w is unused, has v's invariant (degree plus
    sorted neighbour degrees), and keeps adjacency to the already mapped
    vertices 1..v-1: among the used images, w's neighbours must be exactly
    the images of v's earlier neighbours.  :func:`automorphisms` walks the
    whole tree; :func:`automorphism_order` roots one search at each node
    "identity on 1..v-1, v -> w" and stops at its first leaf.
    """

    def __init__(self, g: Graph):
        self.p = g.p
        nbrs = g.neighbor_sets
        degs = [len(s) for s in nbrs]
        invariant = [(degs[v], tuple(sorted(degs[w - 1] for w in nbrs[v]))) for v in range(g.p)]
        classes = {}
        for v, key in enumerate(invariant, start=1):
            classes.setdefault(key, []).append(v)
        # 1-based: alike[v] lists the vertices with v's invariant, ascending;
        # adj[v] is the neighbour bitmask (bit w for neighbour w).
        self.alike = [()] + [classes[key] for key in invariant]
        self.adj = [0] + [sum(1 << w for w in nbrs[v]) for v in range(g.p)]
        self.earlier = [()] + [tuple(u for u in nbrs[v - 1] if u < v) for v in range(1, g.p + 1)]

    def leaves(self, image: list, used: int, v: int, only: int | None = None):
        """Every automorphism extending ``image[1..v-1]``, whose images form
        the bitmask ``used``, as image tuples in lexicographic order.  With
        ``only``, v may map to that vertex alone."""
        if v > self.p:
            yield tuple(image[1:])
            return
        mapped = 0
        for u in self.earlier[v]:
            mapped |= 1 << image[u]
        for w in self.alike[v]:
            bit = 1 << w
            if used & bit or (self.adj[w] & used) != mapped or (only is not None and w != only):
                continue
            image[v] = w
            yield from self.leaves(image, used | bit, v + 1)

    def first_leaf(self, v: int, w: int) -> tuple[int, ...] | None:
        """An automorphism fixing 1..v-1 and sending v to w, or None."""
        image = list(range(self.p + 1))
        return next(self.leaves(image, (1 << v) - 2, v, only=w), None)


def automorphisms(g: Graph, max_vertices: int = 12) -> list[Permutation]:
    """The full automorphism group, identity first, sorted by image tuple.

    Plain backtracking with degree/neighborhood pruning; refuses graphs with
    more than ``max_vertices`` vertices since the list itself can be
    factorially large.  To count the group, use :func:`automorphism_order`.
    """
    if g.p > max_vertices:
        raise GroupTooLarge(f"refusing to enumerate Aut for p={g.p} > {max_vertices}")
    search = _AutomorphismSearch(g)
    return [Permutation(t) for t in search.leaves([0] * (g.p + 1), 0, 1)]


def automorphism_order(g: Graph) -> int:
    """|Aut g|, counted along a stabilizer chain without listing the group.

    |Aut g| is the product over v = p, ..., 1 of the size of v's orbit under
    the pointwise stabilizer of 1..v-1.  Every automorphism found so far
    fixes 1..v-1, so the orbit of v under them is part of that orbit; each
    other w > v is tested by one search from "identity on 1..v-1, v -> w"
    that stops at its first leaf.  These searches root at distinct nodes of
    the tree :func:`automorphisms` walks, so the count never visits more
    nodes than the listing does.
    """
    search = _AutomorphismSearch(g)
    found = []
    order = 1
    for v in range(g.p, 0, -1):
        orbit = {v}
        for w in range(v + 1, g.p + 1):
            if w in orbit:
                continue
            sigma = search.first_leaf(v, w)
            if sigma is not None:
                found.append(sigma)
                orbit = _orbit(v, found)
        order *= len(orbit)
    return order


def _orbit(v: int, images: list) -> set:
    """The orbit of v under the group generated by the given image tuples."""
    orbit = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for t in images:
            x = t[u - 1]
            if x not in orbit:
                orbit.add(x)
                frontier.append(x)
    return orbit


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
