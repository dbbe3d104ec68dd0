"""Reference sparse nullspace: the ``sparse_nullspace`` that chose each pivot
row by scanning every remaining row with ``min`` and back-substituted into
every earlier pivot row.

It is kept only as an oracle for ``graphsolitons.rational.sparse_nullspace``,
which must return an equal basis in the same order.

Also the dense helpers only tests use: ``zeros``, ``mat_mul`` and the
Faddeev-LeVerrier ``char_poly``, moved here unchanged from
``graphsolitons.rational``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from graphsolitons.rational import ONE, ZERO, frac, identity


def sparse_nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace basis of a sparse homogeneous system.

    ``rows`` is an iterable of ``{column: coefficient}`` dicts.  Returns one
    sparse vector per free column, ordered by free column index; each has a 1
    in its free column.  Deterministic: pivot rows are chosen by (size, id),
    pivot columns by (column fill, column).
    """
    work: dict[int, dict[int, Fraction]] = {}
    for idx, row in enumerate(rows):
        cleaned = {c: frac(v) for c, v in row.items() if v != 0}
        if cleaned:
            work[idx] = cleaned
    col_rows: dict[int, set[int]] = defaultdict(set)
    for rid, row in work.items():
        for c in row:
            col_rows[c].add(rid)

    pivots: dict[int, dict[int, Fraction]] = {}
    active = set(work)
    while active:
        rid = min(active, key=lambda i: (len(work[i]), i))
        active.discard(rid)
        row = work.pop(rid)
        for c in row:
            col_rows[c].discard(rid)
        pcol = min(row, key=lambda c: (len(col_rows[c]), c))
        pval = row[pcol]
        if pval != 1:
            row = {c: v / pval for c, v in row.items()}

        for other in list(col_rows.get(pcol, ())):
            orow = work[other]
            f = orow.pop(pcol)
            col_rows[pcol].discard(other)
            for c, v in row.items():
                if c == pcol:
                    continue
                nv = orow.get(c, ZERO) - f * v
                if nv == 0:
                    if c in orow:
                        del orow[c]
                        col_rows[c].discard(other)
                else:
                    if c not in orow:
                        col_rows[c].add(other)
                    orow[c] = nv
            if not orow:
                active.discard(other)
                del work[other]

        for prow in pivots.values():
            if pcol in prow:
                f = prow.pop(pcol)
                for c, v in row.items():
                    if c == pcol:
                        continue
                    nv = prow.get(c, ZERO) - f * v
                    if nv == 0:
                        prow.pop(c, None)
                    else:
                        prow[c] = nv
        pivots[pcol] = row

    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        vec = {free_col: ONE}
        for pcol, prow in pivots.items():
            coef = prow.get(free_col)
            if coef:
                vec[pcol] = -coef
        basis.append(vec)
    return basis


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[ZERO] * cols for _ in range(rows)]


def mat_mul(a, b) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x == 0:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != 0:
                    oi[j] += x * bt[j]
    return out


def char_poly(a) -> list[Fraction]:
    """Characteristic polynomial of a square rational matrix.

    Faddeev-LeVerrier; returns coefficients highest degree first, so
    ``[1, c_{n-1}, ..., c_0]`` with ``p(t) = t^n + c_{n-1} t^{n-1} + ... + c_0``.
    """
    n = len(a)
    a = [[frac(x) for x in row] for row in a]
    coeffs = [ONE]
    m = identity(n)
    for k in range(1, n + 1):
        if k > 1:
            m = mat_mul(a, m)
            for i in range(n):
                m[i][i] += coeffs[-1]
        # trace of a @ m without forming the product
        tr = ZERO
        for i in range(n):
            tr += sum((a[i][j] * m[j][i] for j in range(n) if a[i][j] != 0), ZERO)
        coeffs.append(-tr / k)
    return coeffs
