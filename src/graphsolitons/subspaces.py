"""Solvable extensions of graph algebras, parametrized by subspaces of R^p.

A vector v in R^p determines the diagonal derivation
``diag(v_1..v_p, v_i + v_j per edge)`` of the graph algebra.  A subspace S of
dimension r extends the nilsoliton metric algebra by r commuting generators
acting by those derivations; the result is a solvsoliton, Einstein exactly
when S is spanned by the Einstein direction.

Subspaces are stored in reduced row echelon form, which makes equality
structural; two subspaces give isometric extensions iff a graph automorphism
carries one onto the other (pushforward action ``(sigma . v)_{sigma(i)} =
v_i``), so classification is a finite orbit problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MetricLieAlgebra, graph_algebra, graph_ricci_diagonal
from .errors import (
    DimensionMismatch,
    MalformedLine,
    NotPositiveGraph,
    NotReducedEchelon,
    RankDeficientBasis,
    WeightingMismatch,
)
from .graphs import Graph, Permutation, _excerpt, automorphisms
from .positivity import Weighting
from .rational import ONE, ZERO, frac, parse_fraction, rref


@dataclass(frozen=True)
class SubspaceParam:
    """A subspace of R^p as its unique RREF basis (full row rank).

    Use :meth:`from_vectors` to build one from arbitrary spanning vectors;
    the direct constructor insists the rows already are a reduced echelon
    basis.
    """

    p: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.p < 1:
            raise DimensionMismatch("ambient dimension must be >= 1")
        if any(len(row) != self.p for row in self.basis):
            raise DimensionMismatch("basis vector length differs from p")
        if not self.basis or _is_reduced_echelon(self.basis):
            return
        _, pivots = rref([list(row) for row in self.basis])
        if len(pivots) < len(self.basis):
            raise RankDeficientBasis("basis rows are linearly dependent")
        raise NotReducedEchelon("basis is not in reduced row echelon form; use from_vectors")

    @property
    def r(self) -> int:
        return len(self.basis)

    @classmethod
    def from_vectors(cls, p: int, vectors) -> "SubspaceParam":
        """Span of arbitrary vectors: reduces to RREF, dropping dependent rows."""
        vecs = [[frac(x) for x in v] for v in vectors]
        if any(len(v) != p for v in vecs):
            raise DimensionMismatch("vector length differs from p")
        if not vecs:
            return cls(p=p, basis=())
        reduced, pivots = rref(vecs)
        basis = tuple(tuple(row) for row in reduced[: len(pivots)])
        return cls(p=p, basis=basis)


def _is_reduced_echelon(basis) -> bool:
    """Whether the rows, a tuple of tuples, are a reduced row echelon basis:
    each row's first nonzero entry is 1, these leading columns strictly
    increase, and each leading column is zero in every other row.  Such rows
    are independent and are their own RREF, so this accepts exactly the
    bases that equal their ``rref`` at full rank."""
    if not isinstance(basis, tuple) or not all(isinstance(row, tuple) for row in basis):
        return False
    last = -1
    for k, row in enumerate(basis):
        lead = next((c for c, x in enumerate(row) if x != 0), None)
        if lead is None or lead <= last or row[lead] != 1:
            return False
        if any(other[lead] != 0 for i, other in enumerate(basis) if i != k):
            return False
        last = lead
    return True


def parse_subspace(text: str, p: int) -> list[list[Fraction]]:
    """Parse a subspace file: one vector per line, entries as integers or
    fractions separated by spaces; ``#`` comments and blank lines ignored.
    Returns the raw vectors (callers decide how strictly to reduce)."""
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entries = []
        for tok in line.split():
            try:
                entries.append(parse_fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise MalformedLine(f"line {lineno}: bad entry {_excerpt(tok)}") from None
        if len(entries) != p:
            raise MalformedLine(f"line {lineno}: expected {p} entries, got {len(entries)}")
        vectors.append(entries)
    return vectors


def diagonal_derivation(g: Graph, v) -> list[list[Fraction]]:
    """The derivation ``diag(v_1..v_p, v_i + v_j per edge (i,j))`` of the
    graph algebra, as a dense (p+q) x (p+q) matrix."""
    vec = list(v)
    if len(vec) != g.p:
        raise DimensionMismatch(f"vector has {len(vec)} entries for p = {g.p}")
    diag = _derivation_diag(g, vec)
    n = len(diag)
    return [[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def _derivation_diag(g: Graph, v) -> list[Fraction]:
    vec = [frac(x) for x in v]
    return vec + [vec[i - 1] + vec[j - 1] for i, j in g.edges]


def einstein_direction(g: Graph, w: Weighting) -> tuple[Fraction, ...]:
    """The vertex vector v with diagonal derivation Ric - cI (c = -nu/2); its
    span is the unique line whose extension is Einstein."""
    if len(w.c) != g.q:
        raise WeightingMismatch(f"{len(w.c)} weights for {g.q} edges")
    ric = graph_ricci_diagonal(g, w)
    c = -w.nu / 2
    return tuple(ric[i] - c for i in range(g.p))


def build_solsoliton(g: Graph, w: Weighting, s: SubspaceParam) -> MetricLieAlgebra:
    """The rank-r solvable extension of the nilsoliton metric algebra.

    Basis: a_1..a_r (one per subspace basis vector), then the graph algebra
    basis.  Brackets: [a_i, x] = A_i x with A_i the diagonal derivation of
    row i; the a_i commute.  Inner product: the nilsoliton metric on the
    graph part, ``<a_i, a_j> = -(1/c) tr(A_i A_j)`` with c = -nu/2, and
    ``<a_i, graph part> = 0``.
    """
    if w is None:
        raise NotPositiveGraph("a positive weighting is required")
    if len(w.c) != g.q:
        raise WeightingMismatch(f"{len(w.c)} weights for {g.q} edges")
    if s.p != g.p:
        raise DimensionMismatch(f"subspace lives in R^{s.p}, graph has p = {g.p}")
    if s.r == 0:
        return graph_algebra(g, w)
    nil = g.p + g.q
    r = s.r
    n = r + nil
    diags = [_derivation_diag(g, row) for row in s.basis]
    labels = tuple(
        [f"a{i}" for i in range(1, r + 1)]
        + [f"v{i}" for i in range(1, g.p + 1)]
        + [f"e{k}" for k in range(1, g.q + 1)]
    )
    brackets = []
    for i in range(r):
        for u in range(nil):
            if diags[i][u] != 0:
                brackets.append((i, r + u, ((r + u, diags[i][u]),)))
    for k, (a, b) in enumerate(g.edges):
        brackets.append((r + a - 1, r + b - 1, ((r + g.p + k, ONE),)))
    c = -w.nu / 2
    gram = [[ZERO] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            tr = sum((x * y for x, y in zip(diags[i], diags[j])), ZERO)
            gram[i][j] = -tr / c
    for u in range(g.p):
        gram[r + u][r + u] = ONE
    for k in range(g.q):
        gram[r + g.p + k][r + g.p + k] = w.c[k]
    return MetricLieAlgebra(
        n=n,
        labels=labels,
        brackets=tuple(brackets),
        gram=tuple(tuple(row) for row in gram),
    )


def apply_vertex_permutation(s: SubspaceParam, sigma: Permutation) -> SubspaceParam:
    """Pushforward of the subspace: ``(sigma . v)_{sigma(i)} = v_i``."""
    if sigma.n != s.p:
        raise DimensionMismatch("permutation size differs from ambient dimension")
    moved = []
    for row in s.basis:
        w = [ZERO] * s.p
        for i, val in enumerate(row, start=1):
            w[sigma(i) - 1] = val
        moved.append(w)
    return SubspaceParam.from_vectors(s.p, moved)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    witness: Permutation | None = None


def subspace_equivalent(g: Graph, s1: SubspaceParam, s2: SubspaceParam) -> EquivalenceResult:
    """Do the two subspaces give isometric extensions?  True iff some graph
    automorphism pushes one onto the other.  Different dimensions simply give
    an inequivalent verdict.  The witness is the first automorphism in image
    order that works."""
    if s1.p != g.p or s2.p != g.p:
        raise DimensionMismatch("subspace ambient dimension differs from the graph")
    if s1.r != s2.r:
        return EquivalenceResult(equivalent=False)
    witness = _orbit(g, s1).get(_integer_rows(s2))
    return EquivalenceResult(equivalent=witness is not None, witness=witness)


def classify_subspaces(
    g: Graph, s1: SubspaceParam, s2: SubspaceParam
) -> tuple[EquivalenceResult, SubspaceParam, SubspaceParam]:
    """:func:`subspace_equivalent` and both :func:`canonical_subspace` forms
    from one or two orbit walks.  One walk over s1's orbit gives the verdict,
    the witness (keys of different ranks never match) and s1's canonical
    form; s2's orbit is walked only when it is another orbit."""
    if s1.p != g.p or s2.p != g.p:
        raise DimensionMismatch("subspace ambient dimension differs from the graph")
    orbit = _orbit(g, s1)
    witness = orbit.get(_integer_rows(s2))
    canonical_a = _least(g.p, orbit)
    canonical_b = canonical_a if witness is not None else _least(g.p, _orbit(g, s2))
    return EquivalenceResult(witness is not None, witness), canonical_a, canonical_b


def canonical_subspace(g: Graph, s: SubspaceParam) -> SubspaceParam:
    """Orbit representative: the lexicographically smallest (row-major) RREF
    basis over the automorphism orbit.  Constant on orbits, so two subspaces
    are equivalent iff their canonical forms are equal."""
    if s.p != g.p:
        raise DimensionMismatch("subspace ambient dimension differs from the graph")
    return _least(s.p, _orbit(g, s))


# The orbit walk.  A subspace is keyed by its RREF rows, each scaled to a
# primitive integer row (positive leading entry); equal keys mean equal spans.


def _integer_rows(s: SubspaceParam) -> tuple[tuple[int, ...], ...]:
    """The key of ``s``: its RREF rows as primitive integer rows."""
    rows = []
    for row in s.basis:
        row = [frac(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
        gcd = math.gcd(*ints)
        rows.append(tuple(x // gcd for x in ints))
    return tuple(rows)


def _reduced_key(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The key of the span of independent integer rows (changed in place):
    fraction-free Gauss-Jordan elimination, each updated row divided by the
    gcd of its entries, then every row's sign made that of a positive
    leading entry.  The rows end as positive multiples of the RREF rows."""
    r = len(rows)
    done = 0
    for c in range(len(rows[0]) if rows else 0):
        if done == r:
            break
        pr = next((i for i in range(done, r) if rows[i][c]), None)
        if pr is None:
            continue
        rows[done], rows[pr] = rows[pr], rows[done]
        pivot = rows[done]
        a = pivot[c]
        for i in range(r):
            b = rows[i][c]
            if b and i != done:
                new = [a * x - b * y for x, y in zip(rows[i], pivot)]
                gcd = math.gcd(*new)
                rows[i] = [x // gcd for x in new]
        done += 1
    return tuple(tuple(row) if _lead(row) > 0 else tuple(-x for x in row) for row in rows)


def _orbit(g: Graph, s: SubspaceParam) -> dict:
    """The orbit of ``s`` under Aut(g), from one pass over
    :func:`automorphisms` in image order: maps each image's key to the first
    automorphism that pushes ``s`` onto it."""
    base = _integer_rows(s)
    orbit = {}
    for sigma in automorphisms(g):
        # (sigma . v)_{sigma(i)} = v_i, so entry j of the image is v at sigma^-1(j).
        source = sorted(range(s.p), key=sigma.images.__getitem__)
        orbit.setdefault(_reduced_key([[row[i] for i in source] for row in base]), sigma)
    return orbit


def _least(p: int, orbit: dict) -> SubspaceParam:
    """The subspace whose RREF basis is the lexicographically smallest
    (row-major) among the orbit's keys.  Row ``k`` of a key is its RREF row
    times the row's leading entry, so entries compare by cross-multiplying
    with the (positive) leading entries; Fractions are built only for the
    result."""
    best = None
    for key in orbit:
        if best is None or _precedes(key, best):
            best = key
    basis = tuple(tuple(Fraction(x, _lead(row)) for x in row) for row in best)
    return SubspaceParam(p=p, basis=basis)


def _lead(row) -> int:
    return next(x for x in row if x)


def _precedes(a, b) -> bool:
    """Whether key ``a``'s RREF basis is lexicographically below ``b``'s."""
    for ra, rb in zip(a, b):
        la, lb = _lead(ra), _lead(rb)
        for x, y in zip(ra, rb):
            if x * lb != y * la:
                return x * lb < y * la
    return False
