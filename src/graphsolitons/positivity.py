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
from .graphs import Graph, _adjacency, _twin_classes
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
    class of edge k, numbered in order of first appearance.  Similar edges
    provably carry equal weights.  The components are the twin classes in the
    order of ``coherent_components(g).components``, by least vertex.
    """
    # an edge's key has the bits of the blocks of its two ends, so it names
    # the unordered pair of blocks
    bit = [0] * (g.p + 1)
    for b, members in enumerate(_twin_classes(g.p, _adjacency(g))):
        for v in members:
            bit[v + 1] = 1 << b
    keys = {}
    class_ids = []
    for i, j in g.edges:
        key = bit[i] | bit[j]
        cid = keys.get(key)
        if cid is None:
            cid = keys[key] = len(keys)
        class_ids.append(cid)
    return class_ids, len(keys)


def _solve_twin_quotient(g: Graph) -> tuple[list[int], int]:
    """Solve the positivity system with nu = 1 in the vertex space.

    Returns integer numerators per edge and one positive common denominator.
    With M the vertex-edge incidence matrix, ``3I + Adj L(G) = I + M^T M``,
    so by the Woodbury identity ``c_k = 1 - y_i - y_j`` for edge k = (i, j),
    where ``(I + D + A) y = d`` for G's degrees D, d and adjacency A.  y is
    constant on twin classes, so it solves their b x b quotient ``B``: row X,
    read off its least vertex, has ``1 + d_X + [X complete](m_X - 1)`` on
    the diagonal, ``m_Y`` for each class Y joined to X, and right-hand side
    ``d_X``.  ``diag(m) B = P^T (I + D + A) P`` (P the vertex-to-class
    indicator) is positive definite, so Bareiss fraction-free elimination
    (Math. Comp. 22, 1968) without row exchanges has the leading minors of
    ``B`` as pivots, all positive; a non-positive pivot raises
    ``RuntimeError``.  Edge (i, j) gets ``det B - Y_i - Y_j`` with
    ``Y = det B * y``, an integer vector by Cramer's rule.
    """
    adj = _adjacency(g)
    classes = _twin_classes(g.p, adj)
    n = len(classes)
    # augmented rows [B | d]
    m = []
    for x, members in enumerate(classes):
        nbrs = adj[members[0]]
        d = nbrs.bit_count()
        row = [len(other) if nbrs >> other[0] & 1 else 0 for other in classes]
        # a complete class holds its other m_X - 1 members as neighbours
        complete = len(members) > 1 and nbrs >> members[1] & 1
        row[x] = 1 + d + (len(members) - 1 if complete else 0)
        row.append(d)
        m.append(row)
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
    # back substitution scaled by det B = prev, overwriting each right-hand
    # side with Y; every division is exact
    det = prev
    y = [0] * (g.p + 1)
    for i in range(n - 1, -1, -1):
        mi = m[i]
        acc = det * mi[n] - sum(mi[j] * m[j][n] for j in range(i + 1, n))
        mi[n] = acc // mi[i]
        for v in classes[i]:
            y[v + 1] = mi[n]
    return [det - y[i] - y[j] for i, j in g.edges], det


def _verify_full(g: Graph, c, nu) -> bool:
    """Exact check of (3I + Adj L(G)) c == nu * 1 via per-vertex sums.

    ``solve_weights`` passes integer numerators ``c`` and their common
    denominator as ``nu``, so the check runs in integers.
    """
    vertex_sum = [0] * (g.p + 1)
    for (i, j), x in zip(g.edges, c):
        vertex_sum[i] += x
        vertex_sum[j] += x
    for (i, j), x in zip(g.edges, c):
        if x + vertex_sum[i] + vertex_sum[j] != nu:
            return False
    return True


def solve_weights(g: Graph) -> Weighting | NotPositive:
    """Solve the edge-weight system exactly.

    Returns a :class:`Weighting` normalized to ``sum(c) == 1`` when every
    weight is positive, else a :class:`NotPositive` carrying the nu = 1
    solution and the offending edge indices.  The integer solution of the
    twin-class quotient is checked against every edge equation; a failure
    raises ``RuntimeError``.
    """
    if g.q == 0:
        raise EmptyEdgeSet("graph has no edges")
    num, den = _solve_twin_quotient(g)
    if not _verify_full(g, num, den):
        # y is constant on twin classes, so this is an internal fault
        raise RuntimeError(
            f"reduced positivity solution fails (3I + A) c = 1 for the graph "
            f"p={g.p}, edges={list(g.edges)}"
        )
    bad = min(num) <= 0
    scale = den if bad else sum(num)
    # one Fraction per distinct numerator, shared by the edges that carry it
    fracs = {x: Fraction(x, scale) for x in set(num)}
    c = tuple(map(fracs.__getitem__, num))
    if bad:
        failing = tuple(k + 1 for k, x in enumerate(num) if x <= 0)
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
        # each vertex of the earlier block is below each of the later one
        edges.extend(pairs if a < b else ((j, i) for i, j in pairs))
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
