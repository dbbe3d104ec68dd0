import itertools
import random
from fractions import Fraction

import pytest

from graphsolitons import (
    DimensionMismatch,
    EquivalenceResult,
    Graph,
    MalformedLine,
    NotPositiveGraph,
    NotReducedEchelon,
    Permutation,
    RankDeficientBasis,
    SolitonCertificate,
    SubspaceParam,
    WeightingMismatch,
    apply_vertex_permutation,
    automorphisms,
    build_solsoliton,
    canonical_subspace,
    check_soliton,
    classify_subspaces,
    diagonal_derivation,
    einstein_direction,
    graph_classes,
    is_derivation,
    is_positive,
    parse_subspace,
    ricci,
    solve_weights,
    subspace_equivalent,
)
from conftest import F
from reference_algebra import check_jacobi
from reference_rational import char_poly
import reference_subspaces


def _random_subspace(rng, p, r):
    while True:
        vecs = [
            [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p)]
            for _ in range(r)
        ]
        s = SubspaceParam.from_vectors(p, vecs)
        if s.r == r:
            return s


# ---------------------------------------------------------------- parameters

def test_subspace_param_strictness():
    # dependent rows rejected
    with pytest.raises(RankDeficientBasis):
        SubspaceParam(p=3, basis=((F(1), F(0), F(0)), (F(2), F(0), F(0))))
    # independent but not reduced echelon
    with pytest.raises(ValueError):
        SubspaceParam(p=3, basis=((F(2), F(0), F(0)),))
    with pytest.raises(ValueError):
        SubspaceParam(p=3, basis=((F(0), F(1), F(0)), (F(1), F(0), F(0))))
    with pytest.raises(DimensionMismatch):
        SubspaceParam(p=3, basis=((F(1), F(0)),))
    # the empty subspace is fine
    s = SubspaceParam(p=3, basis=())
    assert s.r == 0


def test_subspace_from_vectors_reduces():
    s = SubspaceParam.from_vectors(3, [[2, 0, 2], [1, 0, 1], [0, 1, 0]])
    assert s.r == 2
    assert s.basis == ((F(1), F(0), F(1)), (F(0), F(1), F(0)))
    assert SubspaceParam.from_vectors(3, []).r == 0
    with pytest.raises(DimensionMismatch):
        SubspaceParam.from_vectors(3, [[1, 0]])


def test_parse_subspace():
    rows = parse_subspace("1 0 1/2 0\n0 1 -2/3 0\n", 4)
    assert rows == [
        [F(1), F(0), F(1, 2), F(0)],
        [F(0), F(1), F(-2, 3), F(0)],
    ]
    assert parse_subspace("# nothing here\n\n", 4) == []
    with pytest.raises(MalformedLine):
        parse_subspace("1 0 x 0\n", 4)
    with pytest.raises(MalformedLine):
        parse_subspace("1 0 0\n", 4)


# ---------------------------------------------------------------- derivations

def test_diagonal_derivation_paw(paw):
    D = diagonal_derivation(paw, (F(1), F(0), F(0), F(0)))
    # vertex 1 feeds edges 2 = (1,3) and 3 = (1,2)
    expect = [F(1), F(0), F(0), F(0), F(0), F(1), F(1), F(0)]
    for a in range(8):
        for b in range(8):
            assert D[a][b] == (expect[a] if a == b else 0)
    with pytest.raises(DimensionMismatch):
        diagonal_derivation(paw, (F(1), F(0)))


def test_diagonal_derivation_is_derivation(paw):
    from graphsolitons import graph_algebra

    rng = random.Random(3)
    L = graph_algebra(paw, solve_weights(paw))
    for _ in range(10):
        v = [F(rng.randint(-4, 4)) for _ in range(4)]
        assert is_derivation(L, diagonal_derivation(paw, v))


def test_einstein_direction_reference(paw, k2):
    assert einstein_direction(k2, solve_weights(k2)) == (F(1), F(1))
    assert einstein_direction(paw, solve_weights(paw)) == (
        F(5, 12), F(5, 12), F(1, 3), F(1, 2),
    )
    with pytest.raises(WeightingMismatch):
        einstein_direction(paw, solve_weights(k2))


# ---------------------------------------------------------------- extensions

def test_build_solsoliton_k2_einstein(k2):
    w = solve_weights(k2)
    s = SubspaceParam.from_vectors(2, [einstein_direction(k2, w)])
    L = build_solsoliton(k2, w, s)
    assert L.n == 4
    assert L.labels == ("a1", "v1", "v2", "e1")
    assert check_jacobi(L)
    # <a, a> = -tr(A^2)/c with A = diag(1,1,2) and c = -3/2: 6/(3/2) = 4
    assert L.gram[0][0] == F(4)
    cert = check_soliton(L)
    assert isinstance(cert, SolitonCertificate)
    assert cert.c == F(-3, 2)
    # Einstein: the derivation part vanishes
    D = cert.derivation_matrix()
    assert all(D[a][b] == 0 for a in range(4) for b in range(4))
    R = ricci(L)
    for a in range(4):
        for b in range(4):
            assert R[a][b] == (F(-3, 2) if a == b else F(0))


def test_build_solsoliton_k2_generic_line(k2):
    w = solve_weights(k2)
    s = SubspaceParam.from_vectors(2, [[1, 0]])
    L = build_solsoliton(k2, w, s)
    cert = check_soliton(L)
    assert isinstance(cert, SolitonCertificate)
    assert cert.c == F(-3, 2)
    assert cert.residual == 0
    D = cert.derivation_matrix()
    diag = [D[a][a] for a in range(4)]
    assert diag == [F(0), F(-1, 2), F(1), F(1, 2)]
    assert is_derivation(L, D)


def test_build_solsoliton_rank_zero_is_nilsoliton(paw):
    from graphsolitons import graph_algebra

    w = solve_weights(paw)
    L = build_solsoliton(paw, w, SubspaceParam(p=4, basis=()))
    assert L.n == 8
    assert L.gram == graph_algebra(paw, w).gram
    assert L.brackets == graph_algebra(paw, w).brackets


def test_build_solsoliton_validation(paw, k2):
    s = SubspaceParam.from_vectors(4, [[1, 0, 0, 0]])
    with pytest.raises(NotPositiveGraph):
        build_solsoliton(paw, None, s)
    with pytest.raises(WeightingMismatch):
        build_solsoliton(paw, solve_weights(k2), s)
    with pytest.raises(DimensionMismatch):
        build_solsoliton(k2, solve_weights(k2), s)


def test_build_solsoliton_paw_all_ranks(paw):
    w = solve_weights(paw)
    rng = random.Random(11)
    for r in (1, 2, 3, 4):
        s = _random_subspace(rng, 4, r)
        L = build_solsoliton(paw, w, s)
        assert L.n == r + 8
        assert check_jacobi(L)
        cert = check_soliton(L)
        assert isinstance(cert, SolitonCertificate)
        assert cert.c == F(-2, 3)
        assert cert.residual == 0


# ---------------------------------------------------------------- equivalence

def test_apply_vertex_permutation_pushforward():
    s = SubspaceParam.from_vectors(3, [[1, 2, 3]])
    sigma = Permutation((2, 3, 1))
    moved = apply_vertex_permutation(s, sigma)
    # coordinates travel with the vertices: entry at position sigma(i) is v_i,
    # then the rows re-reduce to echelon form
    assert moved.basis == ((F(1), F(1, 3), F(2, 3)),)
    with pytest.raises(DimensionMismatch):
        apply_vertex_permutation(s, Permutation((1, 2)))


def test_subspace_equivalent_paw(paw):
    e1 = SubspaceParam.from_vectors(4, [[1, 0, 0, 0]])
    e2 = SubspaceParam.from_vectors(4, [[0, 1, 0, 0]])
    e3 = SubspaceParam.from_vectors(4, [[0, 0, 1, 0]])
    e4 = SubspaceParam.from_vectors(4, [[0, 0, 0, 1]])
    res = subspace_equivalent(paw, e1, e2)
    assert res.equivalent and res.witness.images == (2, 1, 3, 4)
    assert not subspace_equivalent(paw, e3, e4).equivalent
    assert not subspace_equivalent(paw, e1, e3).equivalent
    # different ranks are never equivalent
    plane = SubspaceParam.from_vectors(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not subspace_equivalent(paw, e1, plane).equivalent


def test_subspace_equivalent_is_equivalence_relation(paw):
    rng = random.Random(23)
    subs = [_random_subspace(rng, 4, rng.randint(1, 3)) for _ in range(8)]
    for s in subs:
        res = subspace_equivalent(paw, s, s)
        assert res.equivalent and res.witness.is_identity()
    for s1 in subs:
        for s2 in subs:
            r12 = subspace_equivalent(paw, s1, s2)
            r21 = subspace_equivalent(paw, s2, s1)
            assert r12.equivalent == r21.equivalent
    # transitivity via the orbit: pushforwards of s are all equivalent
    s = subs[0]
    orbit = [apply_vertex_permutation(s, a) for a in automorphisms(paw)]
    for o1 in orbit:
        for o2 in orbit:
            assert subspace_equivalent(paw, o1, o2).equivalent


def test_equivalent_subspaces_give_isometric_extensions(paw):
    # soundness: equivalent parameters produce the same soliton constant and
    # an isospectral derivation (equal characteristic polynomials)
    w = solve_weights(paw)
    rng = random.Random(9)
    for _ in range(6):
        s = _random_subspace(rng, 4, rng.randint(1, 3))
        for sigma in automorphisms(paw):
            moved = apply_vertex_permutation(s, sigma)
            assert subspace_equivalent(paw, s, moved).equivalent
            c1 = check_soliton(build_solsoliton(paw, w, s))
            c2 = check_soliton(build_solsoliton(paw, w, moved))
            assert c1.c == c2.c
            assert char_poly(c1.derivation_matrix()) == char_poly(c2.derivation_matrix())


def test_canonical_subspace_constant_on_orbits(paw):
    rng = random.Random(17)
    for _ in range(8):
        s = _random_subspace(rng, 4, rng.randint(1, 3))
        canon = canonical_subspace(paw, s)
        for sigma in automorphisms(paw):
            moved = apply_vertex_permutation(s, sigma)
            assert canonical_subspace(paw, moved).basis == canon.basis
        # the canonical form is itself in the orbit
        assert subspace_equivalent(paw, s, canon).equivalent


def test_canonical_forms_separate_orbits(paw):
    e1 = SubspaceParam.from_vectors(4, [[1, 0, 0, 0]])
    e2 = SubspaceParam.from_vectors(4, [[0, 1, 0, 0]])
    e3 = SubspaceParam.from_vectors(4, [[0, 0, 1, 0]])
    assert canonical_subspace(paw, e1).basis == canonical_subspace(paw, e2).basis
    assert canonical_subspace(paw, e1).basis != canonical_subspace(paw, e3).basis


def test_einstein_span_gives_einstein_extension(connected_classes_p5):
    # the one-dimensional span of the einstein direction always produces an
    # Einstein metric (zero derivation part)
    for g in connected_classes_p5[:15]:
        if g.q == 0:
            continue
        dec = is_positive(g)
        if not dec.positive:
            continue
        w = dec.weighting
        s = SubspaceParam.from_vectors(g.p, [einstein_direction(g, w)])
        L = build_solsoliton(g, w, s)
        cert = check_soliton(L)
        assert isinstance(cert, SolitonCertificate)
        D = cert.derivation_matrix()
        assert all(D[a][b] == 0 for a in range(L.n) for b in range(L.n))


def test_non_einstein_lines_have_nonzero_derivation(paw):
    w = solve_weights(paw)
    ein = SubspaceParam.from_vectors(4, [einstein_direction(paw, w)])
    rng = random.Random(29)
    found = 0
    while found < 5:
        s = _random_subspace(rng, 4, 1)
        if s.basis == ein.basis:
            continue
        cert = check_soliton(build_solsoliton(paw, w, s))
        D = cert.derivation_matrix()
        assert any(D[a][a] != 0 for a in range(len(D)))
        found += 1


# ---------------------------------------------------------------- the RREF check

def _verdict(check, *args):
    """The exact exception type a check raises, or None."""
    try:
        check(*args)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return None


def _reference_verdict(basis):
    """The reference check's verdict, with its plain ``ValueError`` for a
    full-rank non-RREF basis read as the ``NotReducedEchelon`` that
    ``SubspaceParam`` now raises in its place."""
    want = _verdict(reference_subspaces.check_reduced_basis, basis)
    return NotReducedEchelon if want is ValueError else want


@pytest.mark.parametrize(
    "basis, expected",
    [
        (((F(0), F(0), F(0)),), RankDeficientBasis),  # a zero row
        (((F(1), F(0), F(0)), (F(0), F(0), F(0))), RankDeficientBasis),  # trailing zero row
        (((F(1), F(2), F(0)), (F(2), F(4), F(0))), RankDeficientBasis),  # dependent, not RREF
        (((F(1), F(0), F(1)), (F(1), F(0), F(1))), RankDeficientBasis),  # repeated RREF row
        (((F(1), F(1), F(0)), (F(0), F(1), F(1))), ValueError),  # full rank, not RREF
        (((F(0), F(1), F(0)), (F(1), F(0), F(0))), ValueError),  # pivots out of order
        (((F(2), F(0), F(0)),), ValueError),  # pivot 2
        (((F(1), F(0), F(0)), (F(0), F(-1), F(0))), ValueError),  # pivot -1
        (((F(1), F(3), F(0)), (F(0), F(1), F(0))), ValueError),  # nonzero above a pivot
        (((F(1), F(0), F(0)), (F(1), F(1), F(0))), ValueError),  # nonzero below a pivot
        (([F(1), F(0), F(0)],), ValueError),  # RREF values in a list row
        (((F(1), F(0), F(2)), (F(0), F(1), F(-1, 2))), None),
        (((0, 1, 0), (0, 0, 1)), None),  # ints equal to their Fractions
    ],
)
def test_subspace_param_check_raises_as_before(basis, expected):
    assert _verdict(reference_subspaces.check_reduced_basis, basis) is expected
    assert _verdict(SubspaceParam, 3, basis) is _reference_verdict(basis)


def test_subspace_param_check_matches_reference_on_random_bases():
    rng = random.Random(41)
    values = [F(0)] * 4 + [F(1)] * 3 + [F(-1), F(2), F(1, 2)]
    accepted = 0
    for _ in range(3000):
        p = rng.randint(1, 4)
        r = rng.randint(1, p + 1)
        if rng.random() < 0.4:
            # an RREF basis, then perhaps one entry changed
            basis = [list(row) for row in _random_subspace(rng, p, min(r, p)).basis]
            if rng.random() < 0.5:
                basis[rng.randrange(len(basis))][rng.randrange(p)] = rng.choice(values)
        else:
            basis = [[rng.choice(values) for _ in range(p)] for _ in range(r)]
        basis = tuple(tuple(row) for row in basis)
        want = _reference_verdict(basis)
        assert _verdict(SubspaceParam, p, basis) is want, basis
        accepted += want is None
    assert accepted > 500


# ---------------------------------------------------------------- orbit walk oracle

def _oracle_graphs():
    k6 = Graph(p=6, edges=tuple(itertools.combinations(range(1, 7), 2)))
    k33 = Graph(p=6, edges=tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6)))
    c6 = Graph(p=6, edges=tuple((i, i % 6 + 1) for i in range(1, 7)))
    return list(graph_classes(5)) + [k6, k33, c6]


def _oracle_subspaces(rng, g):
    """Seeded subspaces of every rank 0..p: random ones with small entries,
    coordinate subspaces, and the Einstein direction when there is one."""
    subs = []
    for r in range(g.p + 1):
        subs.append(_random_subspace(rng, g.p, r) if r else SubspaceParam(p=g.p, basis=()))
        coords = sorted(rng.sample(range(g.p), r))
        subs.append(
            SubspaceParam.from_vectors(g.p, [[int(i == k) for i in range(g.p)] for k in coords])
        )
        # a sparse integer subspace, which many automorphisms fix
        subs.append(
            SubspaceParam.from_vectors(
                g.p, [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(g.p)] for _ in range(r)]
            )
        )
    dec = is_positive(g)
    if dec.positive and dec.weighting is not None:
        subs.append(SubspaceParam.from_vectors(g.p, [einstein_direction(g, dec.weighting)]))
    return subs


def test_orbit_walk_matches_reference():
    rng = random.Random(53)
    compared = {"equivalent": 0, "inequivalent": 0, "rank mismatch": 0}
    for g in _oracle_graphs():
        auts = automorphisms(g)
        subs = _oracle_subspaces(rng, g)
        for s in subs:
            assert canonical_subspace(g, s) == reference_subspaces.canonical_subspace(g, s)
            moved = reference_subspaces.apply_vertex_permutation(s, rng.choice(auts))
            same_rank = rng.choice([t for t in subs if t.r == s.r])
            other_rank = rng.choice([t for t in subs if t.r != s.r])
            for t in (s, moved, same_rank, other_rank):
                got = subspace_equivalent(g, s, t)
                assert got == reference_subspaces.subspace_equivalent(g, s, t)
                if s.r != t.r:
                    compared["rank mismatch"] += 1
                else:
                    compared["equivalent" if got.equivalent else "inequivalent"] += 1
    assert min(compared.values()) > 200, compared


def test_classify_subspaces_agrees_with_the_single_answers():
    rng = random.Random(54)
    for g in _oracle_graphs()[::7]:
        subs = _oracle_subspaces(rng, g)
        for s in subs:
            for t in (s, rng.choice(subs)):
                assert classify_subspaces(g, s, t) == (
                    subspace_equivalent(g, s, t),
                    canonical_subspace(g, s),
                    canonical_subspace(g, t),
                )
