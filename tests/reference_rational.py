"""Reference sparse nullspace: the ``sparse_nullspace`` that chose each pivot
row by scanning every remaining row with ``min`` and back-substituted into
every earlier pivot row.

It is kept only as an oracle for ``graphsolitons.rational.sparse_nullspace``,
which must return an equal basis in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from graphsolitons.rational import ONE, ZERO, frac


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
