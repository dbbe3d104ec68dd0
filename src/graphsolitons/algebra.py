"""Metric Lie algebras, their Ricci operators, and soliton certificates.

A :class:`MetricLieAlgebra` is a basis-indexed structure table plus a Gram
matrix.  The Ricci operator of the corresponding left-invariant metric is

    Ric = M - (1/2) B - S(ad_H)

where M is the two-term moment-map part, B the Killing operator, H the mean
curvature vector (``<H,x> = tr ad_x``), and ``S`` the metric symmetrization
``A -> (A + A*)/2``.  Everything is computed exactly over Fractions.

A metric algebra is a *Ricci soliton* when ``Ric = c I + D`` for a scalar c
and a derivation D.  Membership of ``Ric - c I`` in the derivation algebra is
linear in c, so solitonhood is decided exactly; the least-squares
projection onto ``span{I} + Der`` supplies the reported residual when the
answer is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    DegenerateGram,
    DimensionMismatch,
    NotGraphAlgebra,
    WeightingMismatch,
)
from .graphs import CoherentDecomposition, Graph
from .positivity import Weighting
from .rational import (
    ONE,
    ZERO,
    identity,
    inverse,
    leading_minors_all_positive,
    lstsq_exact,
    solve_unique,
    sparse_nullspace,
)


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A Lie algebra with a chosen basis and inner product.

    ``brackets`` holds ``(i, j, ((k, coeff), ...))`` entries with i < j
    (0-based): ``[b_i, b_j] = sum coeff * b_k``.  ``labels`` name the basis
    vectors ("v3" vertex, "e2" edge, "a1" extension).  ``gram`` is the
    symmetric positive-definite matrix of inner products.
    """

    n: int
    labels: tuple[str, ...]
    brackets: tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.labels) != self.n or len(self.gram) != self.n:
            raise DimensionMismatch("labels/gram size does not match n")
        if any(len(row) != self.n for row in self.gram):
            raise DimensionMismatch("gram is not square")
        seen = set()
        for i, j, coeffs in self.brackets:
            if not (0 <= i < j < self.n):
                raise DimensionMismatch(f"bad bracket pair ({i},{j})")
            if (i, j) in seen:
                raise DimensionMismatch(f"duplicate bracket pair ({i},{j})")
            seen.add((i, j))
            if any(not 0 <= k < self.n for k, _ in coeffs):
                raise DimensionMismatch("bracket target out of range")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise DegenerateGram("gram is not symmetric")
        if not leading_minors_all_positive([list(row) for row in self.gram]):
            raise DegenerateGram("gram is not positive definite")

    def __repr__(self):
        return f"MetricLieAlgebra(n={self.n}, brackets={len(self.brackets)})"

    @cached_property
    def bracket_map(self) -> dict:
        """(i, j) with i < j  ->  {k: coeff}."""
        return {(i, j): dict(coeffs) for i, j, coeffs in self.brackets}

    @cached_property
    def products_into(self) -> tuple:
        """products_into[j][k] lists (u, val) with val = c^k_{uj} != 0."""
        prod = [dict() for _ in range(self.n)]
        for (i, j), coeffs in self.bracket_map.items():
            for k, val in coeffs.items():
                prod[j].setdefault(k, []).append((i, val))
                prod[i].setdefault(k, []).append((j, -val))
        return tuple(prod)

    @cached_property
    def leibniz(self) -> tuple[dict[int, Fraction], ...]:
        """The rows of :func:`leibniz_rows`, built once per algebra and
        shared, so no caller may change them."""
        return tuple(leibniz_rows(self))

    @cached_property
    def ad_entries(self) -> tuple:
        """ad_entries[a] lists (k, j, val): (ad b_a)_{kj} = c^k_{aj} = val."""
        ads = [[] for _ in range(self.n)]
        for (i, j), coeffs in self.bracket_map.items():
            for k, val in coeffs.items():
                ads[i].append((k, j, val))
                ads[j].append((k, i, -val))
        return tuple(tuple(x) for x in ads)

    def bracket(self, x: dict, y: dict) -> dict:
        """Bracket of two sparse coordinate vectors."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i == j:
                    continue
                coeffs = self.bracket_map.get((min(i, j), max(i, j)))
                if not coeffs:
                    continue
                sign = 1 if i < j else -1
                for k, val in coeffs.items():
                    nv = out.get(k, ZERO) + sign * xi * yj * val
                    if nv == 0:
                        out.pop(k, None)
                    else:
                        out[k] = nv
        return out

    def check_jacobi(self) -> bool:
        import itertools

        for i, j, k in itertools.combinations(range(self.n), 3):
            total = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                term = self.bracket({a: ONE}, self.bracket({b: ONE}, {c: ONE}))
                for t, v in term.items():
                    nv = total.get(t, ZERO) + v
                    if nv == 0:
                        total.pop(t, None)
                    else:
                        total[t] = nv
            if total:
                return False
        return True

    def vertex_edge_split(self) -> tuple[int, int]:
        """(#vertex labels, #edge labels); raises unless the algebra was built
        from a graph (labels all 'v*' then 'e*')."""
        p = sum(1 for lab in self.labels if lab.startswith("v"))
        q = sum(1 for lab in self.labels if lab.startswith("e"))
        if p + q != self.n or list(self.labels) != [f"v{i}" for i in range(1, p + 1)] + [
            f"e{k}" for k in range(1, q + 1)
        ]:
            raise NotGraphAlgebra("algebra was not built from a graph")
        return p, q


def graph_algebra(g: Graph, w: Weighting | None = None) -> MetricLieAlgebra:
    """The two-step nilpotent algebra of a graph: vertex vectors v1..vp, edge
    vectors e1..eq, ``[v_i, v_j] = e_k`` per edge k = (i,j).

    With a weighting, the inner product is diag(1,..,1, c_1..c_q) — the
    nilsoliton metric; without one, the identity (the canonical metric).
    """
    if w is not None and len(w.c) != g.q:
        raise WeightingMismatch(f"{len(w.c)} weights for {g.q} edges")
    n = g.p + g.q
    labels = tuple([f"v{i}" for i in range(1, g.p + 1)] + [f"e{k}" for k in range(1, g.q + 1)])
    brackets = tuple(
        (i - 1, j - 1, ((g.p + k, ONE),)) for k, (i, j) in enumerate(g.edges)
    )
    diag = [ONE] * g.p + list(w.c if w is not None else [ONE] * g.q)
    gram = tuple(
        tuple(diag[i] if i == j else ZERO for j in range(n)) for i in range(n)
    )
    return MetricLieAlgebra(n=n, labels=labels, brackets=brackets, gram=gram)


def graph_ricci_diagonal(g: Graph, w: Weighting | None = None) -> list[Fraction]:
    """Closed-form Ricci diagonal of a graph algebra with inner product
    diag(1,..,1, gamma_1..gamma_q): vertex i gets -(1/2) sum of gamma over
    incident edges, edge k gets gamma_k / 2.  Off-diagonal entries vanish.

    Independent of the general-formula path; the two must agree exactly.
    """
    if w is not None and len(w.c) != g.q:
        raise WeightingMismatch(f"{len(w.c)} weights for {g.q} edges")
    gamma = list(w.c) if w is not None else [ONE] * g.q
    diag = []
    for v in range(1, g.p + 1):
        diag.append(-sum((gamma[k] for k in g.vertex_edges[v - 1]), ZERO) / 2)
    for k in range(g.q):
        diag.append(gamma[k] / 2)
    return diag


def _sparse_from_dense(m) -> dict:
    out = {}
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v != 0:
                out[(i, j)] = v
    return out


def _sparse_mul(a: dict, b_rows: dict) -> dict:
    """a @ b where both are {(i,j): val}; b is pre-indexed by row."""
    out = {}
    for (i, k), va in a.items():
        row = b_rows.get(k)
        if not row:
            continue
        for j, vb in row:
            key = (i, j)
            nv = out.get(key, ZERO) + va * vb
            if nv == 0:
                out.pop(key, None)
            else:
                out[key] = nv
    return out


def _rows_of(sparse: dict) -> dict:
    rows = {}
    for (i, j), v in sparse.items():
        rows.setdefault(i, []).append((j, v))
    return rows


def ricci(L: MetricLieAlgebra) -> list[list[Fraction]]:
    """The Ricci operator in the algebra's basis, as a dense Fraction matrix."""
    n = L.n
    g_dense = [list(row) for row in L.gram]
    ginv_dense = inverse(g_dense)
    gs = _sparse_from_dense(g_dense)
    ginv_sparse = _sparse_from_dense(ginv_dense)
    ginv_rows = _rows_of(ginv_sparse)
    ads = [{(k, j): v for k, j, v in L.ad_entries[a]} for a in range(n)]
    ad_rows = [_rows_of(ad) for ad in ads]

    # W_b = G ad_b G^-1;  F1(a,b) = -1/2 * sum_{s,t} (ad_a)_{st} (W_b)_{st}
    ws = [_sparse_mul(_sparse_mul(gs, ad_rows[b]), ginv_rows) for b in range(n)]
    f = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            acc = ZERO
            for key, va in ads[a].items():
                vb = ws[b].get(key)
                if vb is not None:
                    acc += va * vb
            if acc != 0:
                f[a][b] -= acc / 2

    # R^(a)_{ij} = <[b_i,b_j], b_a>;  F2(a,b) = -1/4 tr(G^-1 R^(a) G^-1 R^(b))
    r_forms = [dict() for _ in range(n)]
    for (i, j), coeffs in L.bracket_map.items():
        for k, val in coeffs.items():
            for a in range(n):
                gka = g_dense[k][a]
                if gka != 0:
                    x = val * gka
                    r_forms[a][(i, j)] = r_forms[a].get((i, j), ZERO) + x
                    r_forms[a][(j, i)] = r_forms[a].get((j, i), ZERO) - x
    qs = [_sparse_mul(ginv_sparse, _rows_of(r_forms[a])) for a in range(n)]
    for a in range(n):
        for b in range(a, n):
            acc = ZERO
            for (i, j), va in qs[a].items():
                vb = qs[b].get((j, i))
                if vb is not None:
                    acc += va * vb
            if acc != 0:
                f[a][b] -= acc / 4
                if b > a:
                    f[b][a] -= acc / 4

    # Killing form
    for a in range(n):
        for b in range(a, n):
            acc = ZERO
            for (k, j), va in ads[a].items():
                vb = ads[b].get((j, k))
                if vb is not None:
                    acc += va * vb
            if acc != 0:
                f[a][b] -= acc / 2
                if b > a:
                    f[b][a] -= acc / 2

    ric = [[sum((v * f[k][j] for k, v in ginv_rows.get(i, ())), ZERO) for j in range(n)]
           for i in range(n)]

    # mean curvature: <H, b_a> = tr(ad b_a)
    traces = [sum((v for (k, j), v in ads[a].items() if k == j), ZERO) for a in range(n)]
    if any(t != 0 for t in traces):
        h = solve_unique(g_dense, traces)
        ad_h = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            if h[a] == 0:
                continue
            for (k, j), v in ads[a].items():
                ad_h[k][j] += h[a] * v
        # S(ad_H) = (ad_H + G^-1 ad_H^T G)/2
        gah = [[sum((v * ad_h[j][s] for s, v in ginv_rows.get(i, ())), ZERO) for j in range(n)]
               for i in range(n)]
        adj = [[sum((gah[i][s] * g_dense[s][j] for s in range(n) if gah[i][s] != 0), ZERO)
                for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                ric[i][j] -= (ad_h[i][j] + adj[i][j]) / 2
    return ric


def leibniz_rows(L: MetricLieAlgebra) -> list[dict[int, Fraction]]:
    """The Leibniz system for D in flat coordinates (variable k*n+u is the
    matrix entry D[k][u]).  One row per basis pair (i < j) and output
    coordinate k with any nonzero term:

        sum_u c^u_{ij} D[k][u]  -  sum_u c^k_{uj} D[u][i]  -  sum_u c^k_{iu} D[u][j]  =  0
    """
    n = L.n
    prod = L.products_into
    rows = []
    nontrivial = [bool(prod[i]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = L.bracket_map.get((i, j))
            if coeffs is None and not (nontrivial[i] or nontrivial[j]):
                continue
            ks = set()
            if coeffs:
                ks.update(range(n))
            else:
                ks.update(prod[j].keys())
                ks.update(prod[i].keys())
            for k in sorted(ks):
                row = {}
                if coeffs:
                    for u, val in coeffs.items():
                        row[k * n + u] = row.get(k * n + u, ZERO) + val
                for u, val in prod[j].get(k, ()):
                    key = u * n + i
                    row[key] = row.get(key, ZERO) - val
                for u, val in prod[i].get(k, ()):
                    # c^k_{iu} = -c^k_{ui} = -val
                    key = u * n + j
                    row[key] = row.get(key, ZERO) + val
                row = {key: v for key, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return rows


def _eval_row(row: dict, m, n: int) -> Fraction:
    """The Leibniz functional ``row`` at the dense matrix m; zero entries of
    m, most of them for the diagonal Ricci operators of graph algebras, are
    skipped."""
    return sum((v * x for key, v in row.items() if (x := m[key // n][key % n])), ZERO)


def derivation_space(L: MetricLieAlgebra) -> list[list[list[Fraction]]]:
    """A basis of the derivation algebra, as dense matrices."""
    basis = sparse_nullspace(L.leibniz, L.n * L.n)
    return [_unflatten(vec, L.n) for vec in basis]


def _unflatten(vec: dict, n: int) -> list[list[Fraction]]:
    m = [[ZERO] * n for _ in range(n)]
    for key, v in vec.items():
        m[key // n][key % n] = v
    return m


def is_derivation(L: MetricLieAlgebra, a) -> bool:
    if len(a) != L.n or any(len(row) != L.n for row in a):
        raise DimensionMismatch("matrix size does not match the algebra")
    return all(_eval_row(row, a, L.n) == 0 for row in L.leibniz)


def symmetric_derivation_dimension(
    L: MetricLieAlgebra, cd: CoherentDecomposition
) -> tuple[int, list[list[list[Fraction]]]]:
    """Dimension (and a basis) of the metric-symmetric derivations of a
    weighted graph algebra.

    Equals the sum of m(m+1)/2 over the coherent component sizes m.
    """
    basis = symmetric_derivation_nullspace(L, cd)
    return len(basis), [_unflatten(vec, L.n) for vec in basis]


def symmetric_derivation_nullspace(
    L: MetricLieAlgebra, cd: CoherentDecomposition
) -> list[dict]:
    """Sparse basis of the metric-symmetric derivations: each vector maps a
    flat index ``i * n + j`` to the (i, j) entry.  Counting it needs no dense
    n x n matrices."""
    p, _q = L.vertex_edge_split()
    if sorted(v for comp in cd.components for v in comp) != list(range(1, p + 1)):
        raise DimensionMismatch("decomposition does not cover the vertex set")
    n = L.n
    rows = list(L.leibniz)
    gram_rows = [[(u, x) for u, x in enumerate(row) if x != 0] for row in L.gram]
    # symmetry: (G A)_{ij} = (A^T G)_{ij} for i < j
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for u, x in gram_rows[i]:
                row[u * n + j] = row.get(u * n + j, ZERO) + x
            for u, x in gram_rows[j]:
                row[u * n + i] = row.get(u * n + i, ZERO) - x
            row = {k: v for k, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return sparse_nullspace(rows, n * n)


@dataclass(frozen=True)
class SolitonCertificate:
    """Exact witness of ``Ric = c I + D`` with D a derivation."""

    c: Fraction
    derivation: tuple[tuple[Fraction, ...], ...]
    residual: Fraction

    def derivation_matrix(self):
        return [list(row) for row in self.derivation]


@dataclass(frozen=True)
class NotSoliton:
    """Best least-squares residual of Ric against ``span{I} + Der``."""

    residual: Fraction


def check_soliton(L: MetricLieAlgebra) -> SolitonCertificate | NotSoliton:
    """Decide whether the metric algebra is a Ricci soliton.

    ``Ric - c I`` must satisfy every Leibniz functional, which is linear in
    c; the unique candidate (or the traceless choice when the identity is
    itself a derivation) is checked exactly.  Returns a
    :class:`SolitonCertificate` with residual 0, or :class:`NotSoliton` with
    the exact max-norm residual of the least-squares projection.
    """
    n = L.n
    ric = ricci(L)
    rows = L.leibniz
    ric_vals = [_eval_row(row, ric, n) for row in rows]
    eye = identity(n)
    id_vals = [_eval_row(row, eye, n) for row in rows]
    c = None
    for rv, iv in zip(ric_vals, id_vals):
        if iv != 0:
            c = rv / iv
            break
    if c is None:
        # the identity is a derivation; pick c making D traceless
        if all(rv == 0 for rv in ric_vals):
            c = sum(ric[i][i] for i in range(n)) / n
        else:
            return _not_soliton(L, ric, rows)
    if any(rv - c * iv != 0 for rv, iv in zip(ric_vals, id_vals)):
        return _not_soliton(L, ric, rows)
    deriv = tuple(
        tuple(ric[i][j] - (c if i == j else ZERO) for j in range(n)) for i in range(n)
    )
    return SolitonCertificate(c=c, derivation=deriv, residual=ZERO)


def _not_soliton(L, ric, rows) -> NotSoliton:
    n = L.n
    target = {i * n + j: v for i, row in enumerate(ric) for j, v in enumerate(row) if v != 0}
    columns = [{i * n + i: ONE for i in range(n)}]
    columns.extend(sparse_nullspace(rows, n * n))
    _coeffs, resid = lstsq_exact(columns, target)
    residual = max((abs(v) for v in resid.values()), default=ZERO)
    return NotSoliton(residual=residual)
