"""Graph positivity: the edge-weight system ``(3I + Adj L(G)) c = nu 1``.

A graph is *positive* when the unique solution has all entries positive.  The
coefficient matrix is ``3I + A`` with ``A`` the adjacency matrix of the line
graph; its eigenvalues are at least ``3 - 2 > 0`` (line-graph spectra are
bounded below by -2), so the system always has exactly one solution up to the
scale ``nu``.  Weights are reported normalized to sum 1.

Also here: closed-form positivity criteria for the one-, two- and
three-component coherence families (single complete block; joined pairs;
joined triangles and paths), cross-checked against the exact solver by the
test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import EmptyEdgeSet, InvalidFamilySpec, NotSymmetric, UnknownFamily
from .graphs import Graph, coherent_components
from .rational import ONE, ZERO, frac, leading_minors_all_positive


@dataclass(frozen=True)
class Weighting:
    """Normalized positive solution: sum(c) == 1 and (3I + A) c == nu * 1."""

    nu: Fraction
    c: tuple[Fraction, ...]


@dataclass(frozen=True)
class NotPositive:
    """Failure record: the exact unnormalized solution of (3I + A) c = 1 and
    the 1-based indices of its non-positive entries."""

    c: tuple[Fraction, ...]
    failing_indices: tuple[int, ...]


@dataclass(frozen=True)
class PositivityDecision:
    positive: bool
    weighting: Weighting | None = None
    degenerate: bool = False
    failure: NotPositive | None = None


def positivity_matrix(g: Graph) -> list[list[Fraction]]:
    """The q x q matrix ``3I + Adj L(G)`` in the graph's edge order."""
    if g.q == 0:
        raise EmptyEdgeSet("graph has no edges")
    m = [[ZERO] * g.q for _ in range(g.q)]
    for k in range(g.q):
        m[k][k] = Fraction(3)
    for k, l in itertools.combinations(range(g.q), 2):
        if set(g.edges[k]) & set(g.edges[l]):
            m[k][l] = ONE
            m[l][k] = ONE
    return m


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


def is_positive(g: Graph) -> PositivityDecision:
    """Positivity decision; edgeless graphs are positive but degenerate."""
    if g.q == 0:
        return PositivityDecision(positive=True, weighting=None, degenerate=True)
    result = solve_weights(g)
    if isinstance(result, Weighting):
        return PositivityDecision(positive=True, weighting=result)
    return PositivityDecision(positive=False, failure=result)


def check_positive_definite(m) -> bool:
    """Exact positive-definiteness of a symmetric rational matrix, by the
    leading-principal-minor criterion."""
    n = len(m)
    rows = [[frac(x) for x in row] for row in m]
    if any(len(row) != n for row in rows):
        raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    return leading_minors_all_positive(rows)


@dataclass(frozen=True)
class FamilySpec:
    """A coherence-graph template with block sizes.

    ``complete[b]`` says whether block b induces a complete graph (else it is
    discrete); ``adjacency`` lists joined block pairs (0-based, a < b);
    ``sizes[b]`` is the number of vertices in block b.
    """

    complete: tuple[bool, ...]
    adjacency: tuple[tuple[int, int], ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        n = len(self.complete)
        if len(self.sizes) != n:
            raise InvalidFamilySpec("sizes and complete flags differ in length")
        if any(s < 1 for s in self.sizes):
            raise InvalidFamilySpec("every block needs at least one vertex")
        seen = set()
        for a, b in self.adjacency:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise InvalidFamilySpec(f"bad adjacency pair ({a},{b})")
            if (min(a, b), max(a, b)) in seen:
                raise InvalidFamilySpec(f"duplicate adjacency pair ({a},{b})")
            seen.add((min(a, b), max(a, b)))


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


# The nine closed-form families: every connected coherence graph on at most
# three blocks that does not collapse into a smaller one.  Key to a node
# spec: "c" = complete block, "d" = discrete block.
#
# Criteria take the block sizes in the slot order documented per row; the
# test suite sweeps every family against the exact solver.


def _crit_always(*_sizes) -> bool:
    return True


def _crit_split(r, s) -> bool:
    # discrete r joined to complete s; positive iff s >= r (equality included:
    # the derived inequality is 1 - r + s > 0 over integers)
    return s >= r


def _crit_triangle_ddd(r, s, t) -> bool:
    return r + s >= t and s + t >= r and t + r >= s


def _crit_triangle_ddc(r, s, t) -> bool:
    # discrete r, discrete s, complete t, pairwise joined
    return 1 + t > abs(r - s)


def _crit_path_ddc(r, s, t) -> bool:
    # discrete end r - discrete center s - complete end t
    return r + t * (1 - r + s) > 0 and t + r >= s


def _crit_path_dcc(r, s, t) -> bool:
    # discrete end r - complete center s - complete end t
    return (s + t) * (s - r) > (r - 1) * (t - 1)


def _crit_path_cdc(r, s, t) -> bool:
    # complete end r - discrete center s - complete end t
    return r + t >= s


@dataclass(frozen=True)
class FamilyRow:
    name: str
    complete: tuple[bool, ...]
    adjacency: tuple[tuple[int, int], ...]
    criterion: Callable[..., bool]


TABLE_ROWS = (
    FamilyRow("complete", (True,), (), _crit_always),
    FamilyRow("bipartite", (False, False), ((0, 1),), _crit_always),
    FamilyRow("split", (False, True), ((0, 1),), _crit_split),
    FamilyRow("triangle-ddd", (False, False, False), ((0, 1), (1, 2), (0, 2)), _crit_triangle_ddd),
    FamilyRow("triangle-ddc", (False, False, True), ((0, 1), (1, 2), (0, 2)), _crit_triangle_ddc),
    FamilyRow("path-ddc", (False, False, True), ((0, 1), (1, 2)), _crit_path_ddc),
    FamilyRow("path-dcc", (False, True, True), ((0, 1), (1, 2)), _crit_path_dcc),
    FamilyRow("path-cdc", (True, False, True), ((0, 1), (1, 2)), _crit_path_cdc),
    FamilyRow("path-ccc", (True, True, True), ((0, 1), (1, 2)), _crit_always),
)


def _match_template(spec: FamilySpec):
    """Identify which closed-form row a template instantiates, and the size
    slots in that row's order.  Raises UnknownFamily when the template is
    disconnected, too large, or collapses (two joined complete blocks with
    identical outside neighborhoods merge into one)."""
    n = len(spec.complete)
    pairs = {tuple(sorted(pr)) for pr in spec.adjacency}
    if n == 1:
        if not pairs and spec.complete[0]:
            return TABLE_ROWS[0], (spec.sizes[0],)
        raise UnknownFamily("a single discrete block has no edges at all")
    if n == 2:
        if pairs != {(0, 1)}:
            raise UnknownFamily("two blocks must be joined")
        a, b = spec.complete
        if not a and not b:
            return TABLE_ROWS[1], spec.sizes
        if a and b:
            raise UnknownFamily(
                "two joined complete blocks merge into one (reclassifies as 'complete')"
            )
        # put the discrete block first
        sizes = spec.sizes if not a else (spec.sizes[1], spec.sizes[0])
        return TABLE_ROWS[2], sizes
    if n == 3:
        if pairs == {(0, 1), (1, 2), (0, 2)}:
            n_complete = sum(spec.complete)
            if n_complete == 0:
                return TABLE_ROWS[3], spec.sizes
            if n_complete == 1:
                black = spec.complete.index(True)
                whites = [b for b in range(3) if b != black]
                return TABLE_ROWS[4], (spec.sizes[whites[0]], spec.sizes[whites[1]], spec.sizes[black])
            raise UnknownFamily(
                "joined complete blocks in a triangle merge (reclassifies smaller)"
            )
        if len(pairs) == 2:
            degree = {b: 0 for b in range(3)}
            for a, b in pairs:
                degree[a] += 1
                degree[b] += 1
            if sorted(degree.values()) != [1, 1, 2]:
                raise UnknownFamily("three blocks with two joins must form a path")
            center = next(b for b, d in degree.items() if d == 2)
            ends = [b for b in range(3) if b != center]
            c_flags = (spec.complete[ends[0]], spec.complete[center], spec.complete[ends[1]])
            sz = (spec.sizes[ends[0]], spec.sizes[center], spec.sizes[ends[1]])
            if c_flags == (False, False, True):
                return TABLE_ROWS[5], sz
            if c_flags == (True, False, False):
                return TABLE_ROWS[5], (sz[2], sz[1], sz[0])
            if c_flags == (False, True, True):
                return TABLE_ROWS[6], sz
            if c_flags == (True, True, False):
                return TABLE_ROWS[6], (sz[2], sz[1], sz[0])
            if c_flags == (True, False, True):
                return TABLE_ROWS[7], sz
            if c_flags == (True, True, True):
                return TABLE_ROWS[8], sz
            if c_flags == (False, False, False):
                raise UnknownFamily(
                    "discrete-discrete-discrete path: the two ends merge "
                    "(reclassifies as 'bipartite')"
                )
            raise UnknownFamily(
                "discrete-complete-discrete path: the two ends merge "
                "(reclassifies as 'split')"
            )
        raise UnknownFamily("three blocks must form a joined triangle or path")
    raise UnknownFamily(f"no closed-form criterion for {n} blocks")


def table1_criterion(spec: FamilySpec) -> bool:
    """Closed-form positivity verdict for the nine supported families.

    Complete blocks must have at least two vertices (a size-1 complete block
    is really discrete and the template reclassifies).  The exact solver is
    the authority; these formulas are validated against it by the test suite.
    """
    row, sizes = _match_template(spec)
    for flag, size in zip(spec.complete, spec.sizes):
        if flag and size < 2:
            raise UnknownFamily(
                "complete block of size 1 reclassifies as discrete; "
                "use the discrete template"
            )
    return bool(row.criterion(*sizes))
