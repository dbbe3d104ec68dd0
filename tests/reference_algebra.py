"""Reference Ricci operator, Leibniz rows, soliton check and symmetric
derivations, kept as oracles for ``graphsolitons.algebra``.

- ``ricci``, ``leibniz_rows`` and ``check_soliton``: the dense Fraction
  implementation that inverted the whole Gram matrix through ``rref``,
  formed ``G^-1 F`` and the mean-curvature term as dense n x n products, and
  evaluated every Leibniz functional on the dense Ricci matrix and on the
  identity.
- ``symmetric_derivation_nullspace``: the whole Leibniz system plus the
  n(n-1)/2 symmetry rows, solved in all n^2 matrix entries.
- ``generator_symmetric_derivation_nullspace``: the solve on the p(p+1)/2
  generator unknowns in Fraction rows, meeting-edge rows unscaled, which
  ``algebra.symmetric_derivation_nullspace`` ran before its rows were
  built in integers; it returns the same basis.
- ``fraction_ricci`` and ``fraction_check_soliton``: the sparse Fraction
  path that ``algebra.ricci`` and ``algebra.check_soliton`` ran before
  they computed in integers over shared denominators: G^-1 inverted by
  Gram blocks, every product over nonzeros only, every intermediate a
  Fraction; the check reads the dense Ricci matrix and evaluates the
  selected Leibniz rows, built as Fraction dicts by
  ``_leibniz_rows_meeting``, in Fractions.
- ``gram_is_symmetric``: the Gram symmetry check over all n(n-1)/2 pairs
  that ``MetricLieAlgebra.__post_init__`` ran before it read only the
  nonzeros.
- ``bracket`` and ``check_jacobi``: the bracket of two sparse vectors and
  the Jacobi identity on basis triples, straight from the structure table.

The functions are copied from the earlier implementation, the last two
turned from methods into functions of the algebra."""

from __future__ import annotations

import itertools
from fractions import Fraction

from graphsolitons.algebra import (
    MetricLieAlgebra,
    NotSoliton,
    SolitonCertificate,
    _leibniz_pair_rows,
    _pairs_meeting,
)
from graphsolitons.errors import NotGraphAlgebra
from graphsolitons.rational import (
    ONE,
    ZERO,
    identity,
    inverse,
    lstsq_exact,
    solve_unique,
    sparse_nullspace,
)


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


def symmetric_derivation_system(L: MetricLieAlgebra) -> list[dict]:
    """The Leibniz rows plus the symmetry rows ``(G A)_{ij} = (A^T G)_{ij}``
    for i < j, in the n^2 unknowns ``i * n + j``."""
    L.vertex_edge_split()  # raises NotGraphAlgebra for any other algebra
    n = L.n
    rows = list(L.leibniz)
    gram_rows = L.gram_rows
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
    return rows


def symmetric_derivation_nullspace(L: MetricLieAlgebra) -> list[dict]:
    """Sparse basis of the metric-symmetric derivations: each vector maps a
    flat index ``i * n + j`` to the (i, j) entry."""
    return sparse_nullspace(symmetric_derivation_system(L), L.n * L.n)


def _add(acc: dict, key, x) -> None:
    old = acc.get(key)
    acc[key] = x if old is None else old + x


def generator_symmetric_derivation_nullspace(L: MetricLieAlgebra) -> list[dict]:
    """Sparse basis of the metric-symmetric derivations of a graph algebra,
    solved on the entries of the symmetric p x p matrix A with D = A + D_W,
    every row in Fractions: the non-edge rows of X_ij = 0, then
    ``g_m D_W[m][k] - g_k D_W[k][m]`` for each pair of meeting edges."""
    p, q = L.vertex_edge_split()
    n = L.n
    gram = L.gram
    if len(L.gram_blocks) != n or any(gram[i][i] != ONE for i in range(p)):
        raise NotGraphAlgebra("Gram is not the identity on V and diagonal on W")
    targets = set()
    for i, j, coeffs in L.brackets:
        k, c = coeffs[0] if len(coeffs) == 1 else (0, ZERO)
        if j >= p or k < p or not c or k in targets:
            raise NotGraphAlgebra("brackets are not [v_i, v_j] = c e_k, one per edge vector")
        targets.add(k)
    if len(targets) != q:
        raise NotGraphAlgebra("an edge vector is no bracket of vertex vectors")

    var = [[0] * p for _ in range(p)]
    cells = []
    for a in range(p):
        for b in range(a, p):
            var[a][b] = var[b][a] = len(cells)
            cells.append((a, b))

    prod = L.products_into
    bracket_map = L.bracket_map
    rows = []
    d_w = {}
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
        row = {}
        for v, a in d_w.get((m, k), {}).items():
            _add(row, v, gram[m][m] * a)
        for v, a in d_w.get((k, m), {}).items():
            _add(row, v, -gram[k][k] * a)
        row = {v: a for v, a in row.items() if a}
        if row:
            rows.append(row)

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


def _fraction_gram_inverse_rows(L: MetricLieAlgebra) -> list[list[tuple[int, Fraction]]]:
    """The nonzeros of G^-1, row by row, inverted block by block over
    ``L.gram_blocks``: a 1x1 block is ``1/g``; only a larger block goes
    through :func:`inverse`."""
    rows = [[] for _ in range(L.n)]
    for block in L.gram_blocks:
        if len(block) == 1:
            (i,) = block
            rows[i].append((i, ONE / L.gram[i][i]))
            continue
        inv = inverse([[L.gram[i][j] for j in block] for i in block])
        for i, inv_row in zip(block, inv):
            rows[i] = [(j, x) for j, x in zip(block, inv_row) if x]
    return rows


def _add_pair_sums(out: list[dict], left, index: dict) -> None:
    """out[a][b] += sum over keys of left[a][key] * index[key][b]: only the
    pairs (a, b) that share a key meet."""
    for acc, entries in zip(out, left):
        for key, x in entries:
            col = index.get(key)
            if col:
                for b, y in col.items():
                    _add(acc, b, x * y)


def _leibniz_rows_meeting(L: MetricLieAlgebra, keys) -> list[dict[int, Fraction]]:
    """The rows of ``leibniz_rows`` that hold at least one flat key of
    ``keys`` (a set), each once: those of ``algebra._pairs_meeting`` that
    do, built by ``algebra._leibniz_pair_rows``."""
    rows = []
    for (i, j), ks in _pairs_meeting(L, keys).items():
        rows.extend(row for row in _leibniz_pair_rows(L, i, j, ks) if not keys.isdisjoint(row))
    return rows


def fraction_ricci(L: MetricLieAlgebra) -> list[list[Fraction]]:
    """The Ricci operator in the algebra's basis, as a dense Fraction matrix.

    ``Ric = G^-1 F - S(ad_H)`` with the symmetric form

        F(a, b) = -1/2 sum_{st} (ad_a)_{st} (G ad_b G^-1)_{st}
                  - 1/4 tr(Q_a Q_b) - 1/2 tr(ad_a ad_b)

    where ``Q_a = G^-1 R^(a)`` and ``R^(a)_{ij} = <[b_i, b_j], b_a>``.  Every
    product runs over nonzeros only: G^-1 is inverted by Gram blocks, and
    each pairing of a with b goes through an index keyed by matrix position,
    so only pairs that share a nonzero are multiplied.
    """
    n = L.n
    g_rows = L.gram_rows
    ginv_rows = _fraction_gram_inverse_rows(L)
    ads = L.ad_entries

    f = [{} for _ in range(n)]
    # -1/2 sum_{st} (ad_a)_{st} (G ad_b G^-1)_{st} and the Killing term
    # -1/2 sum_{kj} (ad_a)_{kj} (ad_b)_{jk}, both paired with ad_a:
    # index[(s, t)][b] holds (G ad_b G^-1)_{st} + (ad_b)_{ts}.
    index = {}
    for b in range(n):
        for k, j, v in ads[b]:
            for s, gsk in g_rows[k]:
                x = gsk * v
                for t, y in ginv_rows[j]:
                    _add(index.setdefault((s, t), {}), b, x * y)
            _add(index.setdefault((j, k), {}), b, v)
    _add_pair_sums(f, [[((k, j), -v / 2) for k, j, v in ad] for ad in ads], index)

    # -1/4 tr(Q_a Q_b), Q_a = G^-1 R^(a), R^(a)_{ij} = <[b_i,b_j], b_a>:
    # index[(i, j)][b] holds (Q_b)_{ji}.
    r_forms = [{} for _ in range(n)]
    for (i, j), coeffs in L.bracket_map.items():
        for k, val in coeffs.items():
            for a, gka in g_rows[k]:
                x = val * gka
                _add(r_forms[a], (i, j), x)
                _add(r_forms[a], (j, i), -x)
    qs = []
    for r_form in r_forms:
        q = {}
        for (k, j), x in r_form.items():
            for i, y in ginv_rows[k]:
                _add(q, (i, j), y * x)
        qs.append(q)
    index = {}
    for b, q in enumerate(qs):
        for (j, i), x in q.items():
            index.setdefault((i, j), {})[b] = x
    _add_pair_sums(f, [[(key, -x / 4) for key, x in q.items()] for q in qs], index)

    ric = []
    for i in range(n):
        row = {}
        for k, y in ginv_rows[i]:
            for b, x in f[k].items():
                _add(row, b, y * x)
        ric.append(row)

    # mean curvature: <H, b_a> = tr(ad b_a), H = G^-1 traces;
    # S(ad_H) = (ad_H + G^-1 ad_H^T G)/2
    traces = [sum((v for k, j, v in ads[a] if k == j), ZERO) for a in range(n)]
    if any(traces):
        ad_h = {}
        for a in range(n):
            h = sum((y * traces[k] for k, y in ginv_rows[a]), ZERO)
            if h:
                for k, j, v in ads[a]:
                    _add(ad_h, (k, j), h * v)
        # ad_H^T G, then G^-1 (ad_H^T G)
        adj_g = {}
        for (k, j), v in ad_h.items():
            for t, gkt in g_rows[k]:
                _add(adj_g, (j, t), v * gkt)
        s_h = dict(ad_h)
        for (j, t), x in adj_g.items():
            for i, y in ginv_rows[j]:
                _add(s_h, (i, t), y * x)
        for (i, j), x in s_h.items():
            _add(ric[i], j, -x / 2)

    dense = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(ric):
        out = dense[i]
        for j, x in row.items():
            out[j] = x
    return dense


def fraction_check_soliton(L: MetricLieAlgebra) -> SolitonCertificate | NotSoliton:
    """Decide whether the metric algebra is a Ricci soliton.

    ``Ric - c I`` must satisfy every Leibniz functional, which is linear in
    c; the unique candidate (or the traceless choice when the identity is
    itself a derivation) is checked exactly.  Only the functionals that
    hold a nonzero of Ric or a diagonal entry can fail, so only those rows
    are listed (:func:`_leibniz_rows_meeting`); the whole system is built
    for the least squares of a negative answer alone.  Returns a
    :class:`SolitonCertificate` with residual 0, or :class:`NotSoliton` with
    the exact max-norm residual of the least-squares projection.
    """
    n = L.n
    ric = fraction_ricci(L)
    ric_nz = {i * n + j: v for i, row in enumerate(ric) for j, v in enumerate(row) if v}
    # Each Leibniz functional at Ric (rv) and at I (iv: the sum of the
    # row's diagonal keys, k * n + k = k * (n + 1)); a row that holds no
    # probe key vanishes at both, and rows where both vanish hold for every
    # c and are dropped.
    probe = ric_nz.keys() | {k * (n + 1) for k in range(n)}
    vals = []
    for row in _leibniz_rows_meeting(L, probe):
        rv = iv = ZERO
        for key, v in row.items():
            x = ric_nz.get(key)
            if x is not None:
                rv += v * x
            if key % (n + 1) == 0:
                iv += v
        if rv or iv:
            vals.append((rv, iv))
    c = next((rv / iv for rv, iv in vals if iv), None)
    if c is None:
        # the identity is a derivation: so must Ric be, and c makes D traceless
        if vals:
            return _fraction_not_soliton(L, ric_nz)
        c = sum(ric[i][i] for i in range(n)) / n
    elif any(rv != c * iv if iv else rv for rv, iv in vals):
        return _fraction_not_soliton(L, ric_nz)
    for i, row in enumerate(ric):
        row[i] -= c
    return SolitonCertificate(c=c, derivation=tuple(map(tuple, ric)), residual=ZERO)


def _fraction_not_soliton(L, ric_nz: dict) -> NotSoliton:
    n = L.n
    columns = [{i * n + i: ONE for i in range(n)}]
    columns.extend(sparse_nullspace(L.leibniz, n * n))
    _coeffs, resid = lstsq_exact(columns, ric_nz)
    residual = max((abs(v) for v in resid.values()), default=ZERO)
    return NotSoliton(residual=residual)


def gram_is_symmetric(gram) -> bool:
    """Every pair G[i][j] == G[j][i], i < j, compared."""
    n = len(gram)
    return all(gram[i][j] == gram[j][i] for i in range(n) for j in range(i + 1, n))


def bracket(L: MetricLieAlgebra, x: dict, y: dict) -> dict:
    """Bracket of two sparse coordinate vectors."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            if i == j:
                continue
            coeffs = L.bracket_map.get((min(i, j), max(i, j)))
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


def check_jacobi(L: MetricLieAlgebra) -> bool:
    for i, j, k in itertools.combinations(range(L.n), 3):
        total = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            term = bracket(L, {a: ONE}, bracket(L, {b: ONE}, {c: ONE}))
            for t, v in term.items():
                nv = total.get(t, ZERO) + v
                if nv == 0:
                    total.pop(t, None)
                else:
                    total[t] = nv
        if total:
            return False
    return True
