"""Reference subspace classification: the walk over Aut(G) that pushed the
basis forward and re-reduced it in Fractions for every group element, and
the RREF check that ran ``rref`` on every ``SubspaceParam``.  The functions
are copied unchanged from the earlier implementation (the check from
``SubspaceParam.__post_init__``) and kept as oracles for the integer-keyed
orbit walk in ``graphsolitons.subspaces``."""

from __future__ import annotations

from graphsolitons import (
    DimensionMismatch,
    EquivalenceResult,
    Graph,
    Permutation,
    RankDeficientBasis,
    SubspaceParam,
    automorphisms,
)
from graphsolitons.rational import ZERO, rref


def check_reduced_basis(basis) -> None:
    """The earlier ``SubspaceParam.__post_init__`` check for a non-empty
    basis whose rows have the right length."""
    reduced, pivots = rref([list(row) for row in basis])
    if len(pivots) < len(basis):
        raise RankDeficientBasis("basis rows are linearly dependent")
    if tuple(tuple(row) for row in reduced) != basis:
        raise ValueError("basis is not in reduced row echelon form; use from_vectors")


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


def subspace_equivalent(g: Graph, s1: SubspaceParam, s2: SubspaceParam) -> EquivalenceResult:
    """Do the two subspaces give isometric extensions?  True iff some graph
    automorphism pushes one onto the other.  Different dimensions simply give
    an inequivalent verdict.  The witness is the first automorphism in image
    order that works."""
    if s1.p != g.p or s2.p != g.p:
        raise DimensionMismatch("subspace ambient dimension differs from the graph")
    if s1.r != s2.r:
        return EquivalenceResult(equivalent=False)
    for sigma in automorphisms(g):
        if apply_vertex_permutation(s1, sigma).basis == s2.basis:
            return EquivalenceResult(equivalent=True, witness=sigma)
    return EquivalenceResult(equivalent=False)


def canonical_subspace(g: Graph, s: SubspaceParam) -> SubspaceParam:
    """Orbit representative: the lexicographically smallest (row-major) RREF
    basis over the automorphism orbit.  Constant on orbits, so two subspaces
    are equivalent iff their canonical forms are equal."""
    if s.p != g.p:
        raise DimensionMismatch("subspace ambient dimension differs from the graph")
    best = None
    for sigma in automorphisms(g):
        cand = apply_vertex_permutation(s, sigma).basis
        if best is None or cand < best:
            best = cand
    return SubspaceParam(p=s.p, basis=best)
