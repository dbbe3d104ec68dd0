"""Metric Lie algebras, their Ricci operators, and soliton certificates.

A :class:`MetricLieAlgebra` is a basis-indexed structure table plus a Gram
matrix.  The Ricci operator of the corresponding left-invariant metric is

    Ric = M - (1/2) B - S(ad_H)

where M is the two-term moment-map part, B the Killing operator, H the mean
curvature vector (``<H,x> = tr ad_x``), and ``S`` the metric symmetrization
``A -> (A + A*)/2``.  Everything is computed exactly and sparsely: G^-1 is
inverted block by block over the connected components of the Gram matrix's
nonzero pattern (a diagonal Gram costs no division at all), and every
product in Ric pairs only entries that share a nonzero.  Ric's products and
sums run over Python ints with shared denominators, and a Fraction is built
only for each nonzero of Ric, for c and for the certificate.  The soliton
check reads, straight from the structure tables scaled to ints, only the
Leibniz rows that meet a nonzero of Ric or a diagonal entry (q rows on a
graph algebra), evaluates them on those entries alone, as ints over the
lcm of Ric's reduced denominators, and compares them by cross-multiplying.
The whole Leibniz system, in Fractions, is built only by
:func:`derivation_space`, :func:`is_derivation` and the least squares of a
failed check.

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
from math import lcm

from .errors import (
    DegenerateGram,
    DimensionMismatch,
    NotGraphAlgebra,
    WeightingMismatch,
)
from .graphs import Graph
from .positivity import Weighting
from .rational import (
    ONE,
    ZERO,
    inverse,
    leading_minors_all_positive,
    lstsq_exact,
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
        if self.n < 1:
            raise DimensionMismatch(f"algebra dimension {self.n} < 1")
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
        # a pair that differs has a nonzero on one side: check the nonzeros
        gram = self.gram
        for i, row in enumerate(self.gram_rows):
            for j, x in row:
                if j != i and gram[j][i] != x:
                    raise DegenerateGram("gram is not symmetric")
        # block diagonal (up to a permutation): PD exactly when every block is
        for block in self.gram_blocks:
            if len(block) == 1:
                positive = self.gram[block[0]][block[0]] > 0
            else:
                positive = leading_minors_all_positive(
                    [[self.gram[i][j] for j in block] for i in block]
                )
            if not positive:
                raise DegenerateGram("gram is not positive definite")

    def __repr__(self):
        return f"MetricLieAlgebra(n={self.n}, brackets={len(self.brackets)})"

    @cached_property
    def gram_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """gram_rows[i] lists (j, G_ij) for the nonzero entries of row i."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.gram)

    @cached_property
    def gram_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The connected components of the Gram matrix's nonzero pattern,
        each ascending, ordered by least index.  G and G^-1 are block
        diagonal over them."""
        seen = [False] * self.n
        blocks = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            block = [start]
            for i in block:
                for j, _x in self.gram_rows[i]:
                    if not seen[j]:
                        seen[j] = True
                        block.append(j)
            blocks.append(tuple(sorted(block)))
        return tuple(blocks)

    @cached_property
    def bracket_map(self) -> dict:
        """(i, j) with i < j  ->  {k: coeff}."""
        return {(i, j): dict(coeffs) for i, j, coeffs in self.brackets}

    @cached_property
    def products_into(self) -> tuple:
        """products_into[j][k] lists (u, val) with val = c^k_{uj} != 0."""
        return _products_into(self.bracket_map, self.n)

    @cached_property
    def leibniz(self) -> tuple[dict[int, Fraction], ...]:
        """The rows of :func:`leibniz_rows`, built once per algebra and
        shared, so no caller may change them.  Read by
        :func:`derivation_space`, :func:`is_derivation` and the least
        squares of a failed :func:`check_soliton`; a successful check
        never builds it."""
        return tuple(leibniz_rows(self))

    @cached_property
    def ad_entries(self) -> tuple:
        """ad_entries[a] lists (k, j, val): (ad b_a)_{kj} = c^k_{aj} = val."""
        return _ad_entries(self.bracket_map, self.n)

    @cached_property
    def scaled_structure(self) -> tuple[int, dict, tuple, tuple]:
        """``(s, bracket_map, products_into, ad_entries)`` in ints: s is the
        lcm of the structure constants' denominators, and each table holds
        every constant times s, in the layout of the attribute of that name.
        Read by :func:`ricci` and :func:`check_soliton`."""
        s = lcm(*(val.denominator for _i, _j, coeffs in self.brackets for _k, val in coeffs))
        bracket_map = {
            (i, j): {k: val.numerator * (s // val.denominator) for k, val in coeffs}
            for i, j, coeffs in self.brackets
        }
        return s, bracket_map, _products_into(bracket_map, self.n), _ad_entries(bracket_map, self.n)

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


def _products_into(bracket_map: dict, n: int) -> tuple:
    prod = [{} for _ in range(n)]
    for (i, j), coeffs in bracket_map.items():
        for k, val in coeffs.items():
            prod[j].setdefault(k, []).append((i, val))
            prod[i].setdefault(k, []).append((j, -val))
    return tuple(prod)


def _ad_entries(bracket_map: dict, n: int) -> tuple:
    ads = [[] for _ in range(n)]
    for (i, j), coeffs in bracket_map.items():
        for k, val in coeffs.items():
            ads[i].append((k, j, val))
            ads[j].append((k, i, -val))
    return tuple(tuple(x) for x in ads)


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


def _gram_inverse_rows(L: MetricLieAlgebra) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """G^-1 in integers, row by row: ``(rows, dens)``, where ``(j, x)`` in
    rows[i] is the nonzero G^-1_ij = x / dens[i] and dens[i] > 0 is the lcm
    of row i's denominators.  Inverted block by block over
    ``L.gram_blocks``: a 1x1 block g gives g.denominator over g.numerator;
    only a larger block goes through :func:`inverse`."""
    rows = [[] for _ in range(L.n)]
    dens = [1] * L.n
    for block in L.gram_blocks:
        if len(block) == 1:
            (i,) = block
            g = L.gram[i][i]
            rows[i] = [(i, g.denominator)]
            dens[i] = g.numerator
            continue
        inv = inverse([[L.gram[i][j] for j in block] for i in block])
        for i, inv_row in zip(block, inv):
            d = dens[i] = lcm(*(x.denominator for x in inv_row))
            rows[i] = [(j, x.numerator * (d // x.denominator)) for j, x in zip(block, inv_row) if x]
    return rows, dens


def _add(acc: dict, key, x) -> None:
    old = acc.get(key)
    acc[key] = x if old is None else old + x


def _add_pair_sums(out: list[dict], left, index: dict) -> None:
    """out[a][b] += sum over keys of left[a][key] * index[key][b]: only the
    pairs (a, b) that share a key meet."""
    for acc, entries in zip(out, left):
        for key, x in entries:
            col = index.get(key)
            if col:
                for b, y in col.items():
                    _add(acc, b, x * y)


def _ricci_rows(L: MetricLieAlgebra) -> tuple[list[dict[int, int]], list[int]]:
    """Ric in integers, row by row: ``(rows, dens)``, Ric_ij = rows[i][j] /
    dens[i], not reduced.  The formula and its sparse products are those of
    :func:`ricci`; only the arithmetic differs.

    The structure constants (``L.scaled_structure``), G, and the rows of
    G^-1 that the inner sums read are scaled to ints over the lcm of their
    denominators: dc, dg and dh.  So F is an int matrix over the one
    denominator 4 (dc dg dh)^2, and the outer G^-1, in G^-1 F and in the
    G^-1 ad_H^T G part of S(ad_H), is applied per row, over that row's own
    denominator.  Where a 1x1 Gram block's g and 1/g meet on one index (the
    diagonal action (k, k) in G ad_b G^-1, the key (a, j) of R^(a)) the
    product is taken as 1, so 1/g stays out of dh: on a graph algebra, with
    the Gram 1 on the vertices, dh = 1 and no weight's numerator enters F.
    """
    n = L.n
    single = [False] * n
    for block in L.gram_blocks:
        if len(block) == 1:
            single[block[0]] = True
    dc, bracket_map, _prods, ads = L.scaled_structure
    dg = lcm(*(x.denominator for row in L.gram_rows for _j, x in row))
    g_rows = [[(j, x.numerator * (dg // x.denominator)) for j, x in row] for row in L.gram_rows]
    ginv_rows, ginv_dens = _gram_inverse_rows(L)
    traces = [sum(v for k, j, v in ad if k == j) for ad in ads]

    # the rows of G^-1 that the inner sums read, scaled over their lcm dh
    read = set()
    for ad in ads:
        for k, j, _v in ad:
            if k != j or not single[k]:
                read.add(j)
    for (i, j), coeffs in bracket_map.items():
        for k in coeffs:
            if not single[k]:
                read.update((i, j))
            else:
                read.update(u for u in (i, j) if u != k)
    if any(traces):
        read.update(a for a in range(n) if any(traces[k] for k, _y in ginv_rows[a]))
    dh = lcm(*(ginv_dens[j] for j in read))
    hinv_rows = [
        [(t, y * (dh // ginv_dens[j])) for t, y in ginv_rows[j]] if j in read else None
        for j in range(n)
    ]
    gd = dg * dh

    f = [{} for _ in range(n)]
    # -1/2 sum_{st} (ad_a)_{st} (G ad_b G^-1)_{st} and the Killing term
    # -1/2 sum_{kj} (ad_a)_{kj} (ad_b)_{jk}, both paired with ad_a:
    # index[s * n + t][b] holds (G ad_b G^-1)_{st} + (ad_b)_{ts}, over dc dg dh.
    index = {}
    for b, ad in enumerate(ads):
        for k, j, v in ad:
            if k == j and single[k]:
                _add(index.setdefault(k * n + k, {}), b, v * gd)
            else:
                for s, gsk in g_rows[k]:
                    x = gsk * v
                    for t, y in hinv_rows[j]:
                        _add(index.setdefault(s * n + t, {}), b, x * y)
            _add(index.setdefault(j * n + k, {}), b, v * gd)
    m = -2 * gd
    _add_pair_sums(f, [[(k * n + j, m * v) for k, j, v in ad] for ad in ads], index)

    # -1/4 tr(Q_a Q_b), Q_a = G^-1 R^(a), R^(a)_{ij} = <[b_i,b_j], b_a>,
    # Q over dc dg dh: index[i * n + j][b] holds (Q_b)_{ji}.
    r_forms = [{} for _ in range(n)]
    qs = [{} for _ in range(n)]
    for (i, j), coeffs in bracket_map.items():
        for k, val in coeffs.items():
            for a, gka in g_rows[k]:
                x = val * gka
                if single[a] and i == a:  # then k = a: G^-1_aa R^(a)_aj = c^a_aj
                    _add(qs[a], i * n + j, val * gd)
                else:
                    _add(r_forms[a], (i, j), x)
                if single[a] and j == a:
                    _add(qs[a], j * n + i, -val * gd)
                else:
                    _add(r_forms[a], (j, i), -x)
    for q, r_form in zip(qs, r_forms):
        for (k, j), x in r_form.items():
            for i, y in hinv_rows[k]:
                _add(q, i * n + j, y * x)
    index = {}
    for b, q in enumerate(qs):
        for key, x in q.items():
            j, i = divmod(key, n)
            index.setdefault(i * n + j, {})[b] = x
    _add_pair_sums(f, [[(key, -x) for key, x in q.items()] for q in qs], index)

    # G^-1 F, F over den_f = 4 (dc dg dh)^2
    den_f = 4 * dc * dc * gd * gd
    rows = []
    for i in range(n):
        row = {}
        for k, y in ginv_rows[i]:
            for b, x in f[k].items():
                _add(row, b, y * x)
        rows.append(row)

    # mean curvature: <H, b_a> = tr(ad b_a), H = G^-1 traces;
    # S(ad_H) = (ad_H + G^-1 ad_H^T G)/2
    if any(traces):
        ad_h = {}  # over dh dc^2
        for a in range(n):
            if hinv_rows[a] is not None:
                h = sum(y * traces[k] for k, y in hinv_rows[a])
                if h:
                    for k, j, v in ads[a]:
                        _add(ad_h, k * n + j, h * v)
        adj_g = {}  # ad_H^T G by row, over dh dc^2 dg
        for key, v in ad_h.items():
            k, j = divmod(key, n)
            row = adj_g.setdefault(j, {})
            for t, gkt in g_rows[k]:
                _add(row, t, v * gkt)
        # row i is over den_f dens[i]: scale both halves of S(ad_H)/2 to it
        m_ad = 2 * dg * gd
        for key, v in ad_h.items():
            i, t = divmod(key, n)
            _add(rows[i], t, -m_ad * ginv_dens[i] * v)
        m_adj = -2 * gd
        for i, row in enumerate(rows):
            for j, y in ginv_rows[i]:
                for t, x in adj_g.get(j, {}).items():
                    _add(row, t, m_adj * y * x)
    return rows, [den_f * d for d in ginv_dens]


def _ricci_nonzeros(L: MetricLieAlgebra) -> tuple[dict[int, Fraction], dict[int, int], int]:
    """Ric's nonzeros by flat key ``i * n + j``: ``(fracs, ints, den)``, each
    entry reduced once to a Fraction in fracs, and as an int over den, the
    lcm of those reduced denominators, in ints."""
    n = L.n
    rows, dens = _ricci_rows(L)
    fracs = {}
    for i, (row, d) in enumerate(zip(rows, dens)):
        for j, x in row.items():
            if x:
                fracs[i * n + j] = Fraction(x, d)
    den = lcm(*(x.denominator for x in fracs.values()))
    ints = {key: x.numerator * (den // x.denominator) for key, x in fracs.items()}
    return fracs, ints, den


def ricci(L: MetricLieAlgebra) -> list[list[Fraction]]:
    """The Ricci operator in the algebra's basis, as a dense Fraction matrix.

    ``Ric = G^-1 F - S(ad_H)`` with the symmetric form

        F(a, b) = -1/2 sum_{st} (ad_a)_{st} (G ad_b G^-1)_{st}
                  - 1/4 tr(Q_a Q_b) - 1/2 tr(ad_a ad_b)

    where ``Q_a = G^-1 R^(a)`` and ``R^(a)_{ij} = <[b_i, b_j], b_a>``.  Every
    product runs over nonzeros only: G^-1 is inverted by Gram blocks, and
    each pairing of a with b goes through an index keyed by matrix position,
    so only pairs that share a nonzero are multiplied.  The products and
    sums run over ints with shared denominators (:func:`_ricci_rows`); a
    Fraction is built for each nonzero of Ric only.
    """
    n = L.n
    dense = [[ZERO] * n for _ in range(n)]
    for key, x in _ricci_nonzeros(L)[0].items():
        i, j = divmod(key, n)
        dense[i][j] = x
    return dense


def _leibniz_pair_rows(L: MetricLieAlgebra, i: int, j: int, ks) -> list[dict[int, Fraction]]:
    """The nonzero Leibniz functionals of the basis pair i < j at the output
    coordinates k of ``ks``, in order, in flat coordinates (variable a*n+b
    is the matrix entry D[a][b]), zero coefficients dropped:

        sum_u c^u_{ij} D[k][u]  -  sum_u c^k_{uj} D[u][i]  -  sum_u c^k_{iu} D[u][j]  =  0
    """
    n = L.n
    prod_i = L.products_into[i]
    prod_j = L.products_into[j]
    coeffs = L.bracket_map.get((i, j))
    rows = []
    for k in ks:
        row = {}
        if coeffs:
            for u, val in coeffs.items():
                row[k * n + u] = val
        for u, val in prod_j.get(k, ()):
            key = u * n + i
            old = row.get(key)
            row[key] = -val if old is None else old - val
        for u, val in prod_i.get(k, ()):
            # c^k_{iu} = -c^k_{ui} = -val
            key = u * n + j
            old = row.get(key)
            row[key] = val if old is None else old + val
        if not all(row.values()):
            row = {key: v for key, v in row.items() if v != 0}
        if row:
            rows.append(row)
    return rows


def leibniz_rows(L: MetricLieAlgebra) -> list[dict[int, Fraction]]:
    """The Leibniz system for D in flat coordinates: the rows of
    :func:`_leibniz_pair_rows`, one per basis pair (i < j) and output
    coordinate k with any nonzero term."""
    n = L.n
    prod = L.products_into
    bracket_map = L.bracket_map
    every_k = range(n)
    rows = []
    for i in range(n):
        prod_i = prod[i]
        for j in range(i + 1, n):
            prod_j = prod[j]
            if bracket_map.get((i, j)):
                ks = every_k
            elif prod_i or prod_j:
                ks = sorted(prod_j.keys() | prod_i.keys())
            else:
                continue
            rows.extend(_leibniz_pair_rows(L, i, j, ks))
    return rows


def _pairs_meeting(L: MetricLieAlgebra, keys) -> dict[tuple[int, int], dict[int, None]]:
    """The rows of :func:`leibniz_rows` that may hold a flat key of ``keys``
    (a set), as ``{(i, j): {k: None}}``, each row (i, j, k) once, listed
    straight from the structure tables.

    Key a*n+b, the entry D[a][b], enters row (i, j, k) in two ways only:
    as D[k][u] with k = a and u = b, when [b_i, b_j] has a b-component;
    or as D[u][i] or D[u][j] with u = a, when the pair is {b, x} and
    c^k_{ax} != 0, which ``L.ad_entries[a]`` lists.
    """
    n = L.n
    ads = L.scaled_structure[3]  # the nonzeros of L.ad_entries, in ints
    found = {}  # (i, j) -> the output coordinates k, each once
    by_col = {}  # b -> the rows a of the keys a*n+b in column b
    for key in keys:
        a, b = divmod(key, n)
        by_col.setdefault(b, []).append(a)
        for k, x, _val in ads[a]:
            if x != b:
                found.setdefault((b, x) if b < x else (x, b), {})[k] = None
    for i, j, coeffs in L.brackets:
        for u, _val in coeffs:
            for a in by_col.get(u, ()):
                found.setdefault((i, j), {})[a] = None
    return found


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


def symmetric_derivation_dimension(L: MetricLieAlgebra) -> tuple[int, list[list[list[Fraction]]]]:
    """Dimension (and a basis) of the metric-symmetric derivations of a
    weighted graph algebra.

    Equals the sum of m(m+1)/2 over the coherent component sizes m.
    """
    basis = symmetric_derivation_nullspace(L)
    return len(basis), [_unflatten(vec, L.n) for vec in basis]


def _symmetric_derivation_system(L: MetricLieAlgebra) -> tuple[list[dict], list, dict]:
    """The homogeneous system of the metric-symmetric derivations of a graph
    algebra, solved on the generators: ``(rows, cells, d_w)``.

    The unknowns are the p(p+1)/2 entries of a symmetric p x p matrix A,
    ``cells[v] = (a, b)`` with a <= b.  Every derivation preserves
    W = [n, n], the span of the edge vectors; as the Gram is block diagonal
    over V and W, a symmetric D also preserves V, so D = A + D_W.  A fixes D
    through

        X_ij = D[v_i, v_j] = sum_u A[u][i] [v_u, v_j] + sum_u A[u][j] [v_i, v_u],

    summed over the neighbours u of j and of i.  X_ij must vanish for a
    non-edge {i, j}, one row per nonzero coordinate; for the edge
    ``[v_i, v_j] = c e_k`` it is c times column k of D_W, and ``d_w`` maps
    (m, k) to the linear form of D[m][k].  D_W is then symmetric for the
    Gram diagonal g on W: ``g_m D_W[m][k] = g_k D_W[k][m]``, one row per
    pair of edges that meet, scaled by both denominators of g.

    Bracket coefficients with denominator 1 are read as ints, so a graph
    algebra gives integer rows.  Scaling a homogeneous row changes neither
    its zero pattern nor its normalized pivot row, so
    :func:`sparse_nullspace` returns the basis that the unscaled Fraction
    rows give.
    """
    p, q = L.vertex_edge_split()  # raises NotGraphAlgebra for any other algebra
    gram = L.gram
    if len(L.gram_blocks) != L.n or any(gram[i][i] != ONE for i in range(p)):
        raise NotGraphAlgebra("Gram is not the identity on V and diagonal on W")
    targets = set()
    for i, j, coeffs in L.brackets:
        k, c = coeffs[0] if len(coeffs) == 1 else (0, ZERO)
        if j >= p or k < p or not c or k in targets:
            raise NotGraphAlgebra("brackets are not [v_i, v_j] = c e_k, one per edge vector")
        targets.add(k)
    if len(targets) != q:
        raise NotGraphAlgebra("an edge vector is no bracket of vertex vectors")

    # unknown var[a][b] = var[b][a] is A[a][b]; cells[var] = (a, b), a <= b
    var = [[0] * p for _ in range(p)]
    cells = []
    for a in range(p):
        for b in range(a, p):
            var[a][b] = var[b][a] = len(cells)
            cells.append((a, b))

    prod = [
        {
            k: [(u, val.numerator if val.denominator == 1 else val) for u, val in terms]
            for k, terms in L.products_into[i].items()
        }
        for i in range(p)
    ]
    bracket_map = L.bracket_map
    rows = []
    d_w = {}  # (m, k) -> the linear form of D[m][k], m and k edge vectors
    for i in range(p):
        prod_i = prod[i]
        for j in range(i + 1, p):
            prod_j = prod[j]
            if not (prod_i or prod_j):
                continue
            x = {}
            for k, terms in prod_j.items():
                form = x.setdefault(k, {})
                for u, val in terms:
                    _add(form, var[u][i], val)
            for k, terms in prod_i.items():
                # [v_i, v_u] = -[v_u, v_i]
                form = x.setdefault(k, {})
                for u, val in terms:
                    _add(form, var[u][j], -val)
            edge = bracket_map.get((i, j))
            if edge is None:
                for form in x.values():
                    row = {v: a for v, a in form.items() if a}
                    if row:
                        rows.append(row)
            else:
                ((k, c),) = edge.items()
                unit = c == ONE
                for m, form in x.items():
                    d_w[m, k] = {v: a if unit else a / c for v, a in form.items() if a}

    for k, m in dict.fromkeys((min(a, b), max(a, b)) for a, b in d_w if a != b):
        # g_m D_W[m][k] - g_k D_W[k][m], times g_m.den * g_k.den
        g_m, g_k = gram[m][m], gram[k][k]
        s_m = g_m.numerator * g_k.denominator
        s_k = g_k.numerator * g_m.denominator
        row = {}
        for v, a in d_w.get((m, k), {}).items():
            _add(row, v, s_m * a)
        for v, a in d_w.get((k, m), {}).items():
            _add(row, v, -s_k * a)
        row = {v: a for v, a in row.items() if a}
        if row:
            rows.append(row)
    return rows, cells, d_w


def symmetric_derivation_nullspace(L: MetricLieAlgebra) -> list[dict]:
    """Sparse basis of the metric-symmetric derivations of a graph algebra:
    each vector maps a flat index ``i * n + j`` to the (i, j) entry, one
    vector per free entry of the symmetric p x p matrix A of
    :func:`_symmetric_derivation_system`.  Counting it needs no dense
    n x n matrices; :func:`symmetric_derivation_count` needs no basis."""
    rows, cells, d_w = _symmetric_derivation_system(L)
    n = L.n
    # expand each solution to flat keys: A in both triangles, then D_W
    columns = [[(a * n + b, ONE)] + ([(b * n + a, ONE)] if a != b else []) for a, b in cells]
    for (m, k), form in d_w.items():
        for v, a in form.items():
            columns[v].append((m * n + k, a))
    basis = []
    for vec in sparse_nullspace(rows, len(cells)):
        flat = {}
        for v, x in vec.items():
            for key, a in columns[v]:
                _add(flat, key, a * x)
        basis.append({key: x for key, x in flat.items() if x})
    return basis


def symmetric_derivation_count(L: MetricLieAlgebra) -> int:
    """The dimension of the metric-symmetric derivations of a graph
    algebra: ``len(symmetric_derivation_nullspace(L))``, without expanding
    the basis to flat keys.  Raises as that function does."""
    rows, cells, _d_w = _symmetric_derivation_system(L)
    return len(sparse_nullspace(rows, len(cells)))


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
    itself a derivation) is checked exactly.  Only the functionals that
    hold a nonzero of Ric or a diagonal entry can fail, so only those rows
    are read (:func:`_pairs_meeting`), straight from the integer structure
    tables, at Ric's nonzeros as ints over their common denominator
    (:func:`_ricci_nonzeros`); the values are compared by
    cross-multiplication.  The whole system is built for the least squares
    of a negative answer alone.  Returns a :class:`SolitonCertificate` with
    residual 0, or :class:`NotSoliton` with the exact max-norm residual of
    the least-squares projection.
    """
    n = L.n
    fracs, ints, den = _ricci_nonzeros(L)
    _s, bracket_map, prods, _ads = L.scaled_structure
    # Each Leibniz functional at Ric (rv, times den and s) and at I (iv,
    # times s: the sum of the row's coefficients at diagonal keys); a row
    # that holds no probe key vanishes at both, and rows where both vanish
    # hold for every c and are dropped.
    diagonal = [k * (n + 1) for k in range(n)]
    vals = []
    for (i, j), ks in _pairs_meeting(L, ints.keys() | set(diagonal)).items():
        coeffs = bracket_map.get((i, j), {})
        prod_i = prods[i]
        prod_j = prods[j]
        for k in ks:
            rv = iv = 0
            for u, val in coeffs.items():
                x = ints.get(k * n + u)
                if x:
                    rv += val * x
                if u == k:
                    iv += val
            for u, val in prod_j.get(k, ()):
                x = ints.get(u * n + i)
                if x:
                    rv -= val * x
                if u == i:
                    iv -= val
            for u, val in prod_i.get(k, ()):
                x = ints.get(u * n + j)
                if x:
                    rv += val * x
                if u == j:
                    iv += val
            if rv or iv:
                vals.append((rv, iv))
    first = next(((rv, iv) for rv, iv in vals if iv), None)
    if first is None:
        # the identity is a derivation: so must Ric be, and c makes D traceless
        if vals:
            return _not_soliton(L, fracs)
        c = Fraction(sum(ints.get(key, 0) for key in diagonal), den * n)
    else:
        rv0, iv0 = first
        if any(rv * iv0 != rv0 * iv if iv else rv for rv, iv in vals):
            return _not_soliton(L, fracs)
        c = Fraction(rv0, iv0 * den)
    derivation = [[ZERO] * n for _ in range(n)]
    for key, x in fracs.items():
        i, j = divmod(key, n)
        derivation[i][j] = x
    cn, cd = c.numerator, c.denominator
    for i, key in enumerate(diagonal):
        x = ints.get(key)
        derivation[i][i] = Fraction(x * cd - cn * den, den * cd) if x else -c
    return SolitonCertificate(c=c, derivation=tuple(map(tuple, derivation)), residual=ZERO)


def _not_soliton(L, ric_nz: dict) -> NotSoliton:
    n = L.n
    columns = [{i * n + i: ONE for i in range(n)}]
    columns.extend(sparse_nullspace(L.leibniz, n * n))
    _coeffs, resid = lstsq_exact(columns, ric_nz)
    residual = max((abs(v) for v in resid.values()), default=ZERO)
    return NotSoliton(residual=residual)
