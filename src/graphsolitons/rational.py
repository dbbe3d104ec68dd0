"""Exact linear algebra over ``fractions.Fraction``.

Dense helpers (RREF, solve, inverse, leading-minor positivity) plus a sparse
Gauss-Jordan nullspace solver used for the large,
very sparse Leibniz systems.  Everything here is pure stdlib and exact; no
floats enter or leave.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction

from .errors import SingularMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def fraction_str(x: Fraction) -> str:
    """Lowest-terms string: ``"5"`` or ``"-2/3"``."""
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    """``-2/3``, ``0.5`` and the like.  Exponents raise ``ValueError``:
    ``Fraction("1e1000000000")`` would build a billion-digit power of ten."""
    text = text.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"exponent in {text!r}")
    return Fraction(text)


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (new matrix, pivot column list)."""
    m = [[frac(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def solve_unique(a, b) -> list[Fraction]:
    """Solve the square system ``a x = b`` with a unique solution.

    Raises :class:`SingularMatrix` if the matrix is singular.
    """
    n = len(a)
    aug = [list(map(frac, row)) + [frac(bv)] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    if len(pivots) < n or pivots[-1] == n:
        raise SingularMatrix("matrix is singular")
    return [red[i][n] for i in range(n)]


def inverse(a) -> list[list[Fraction]]:
    n = len(a)
    aug = [list(map(frac, row)) + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in red[:n]]


def leading_minors_all_positive(a) -> bool:
    """True iff every leading principal minor of the *symmetric* matrix is > 0.

    Gaussian elimination without pivoting: the k-th leading minor is the
    product of the first k pivots, so a zero or negative pivot settles the
    question immediately.
    """
    n = len(a)
    m = [[frac(x) for x in row] for row in a]
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / piv
                row_k = m[k]
                row_i = m[i]
                for j in range(k, n):
                    row_i[j] -= f * row_k[j]
    return True


def sparse_nullspace(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace basis of a sparse homogeneous system.

    ``rows`` is a list of ``{column: coefficient}`` dicts; they are copied,
    never changed.  A coefficient may be an ``int`` or a ``Fraction``; the
    result holds ``Fraction`` values only.  Returns one sparse vector per
    free column, ordered by free column index; each has a 1 in its free
    column.
    Deterministic: pivot rows are chosen by (size, id), pivot columns by
    (column fill, column).

    The pivot row comes from a heap of ``(size, id)`` entries with lazy
    deletion: an entry is pushed whenever elimination gives a row a new
    size, and a popped entry is skipped unless its row is still unreduced
    and still has that size.  Every unreduced row keeps an entry with its
    current size, so the first entry that survives is the least (size, id)
    over the unreduced rows, the row a full scan would pick.  ``col_rows``
    and ``pivot_rows`` index the unreduced and the pivot rows by column, so
    each pivot touches only the rows that contain its column.
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
    heap = [(len(row), rid) for rid, row in work.items()]
    heapq.heapify(heap)

    pivots: dict[int, dict[int, Fraction]] = {}
    # pivot_rows[c]: the pivot columns whose row has a nonzero in column c
    pivot_rows: dict[int, set[int]] = defaultdict(set)
    while heap:
        size, rid = heapq.heappop(heap)
        row = work.get(rid)
        if row is None or len(row) != size:
            continue
        del work[rid]
        for c in row:
            col_rows[c].discard(rid)
        pcol = min(row, key=lambda c: (len(col_rows[c]), c))
        pval = row[pcol]
        if pval != 1:
            row = {c: v / pval for c, v in row.items()}

        for other in list(col_rows.get(pcol, ())):
            orow = work[other]
            size = len(orow)
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
                del work[other]
            elif len(orow) != size:
                heapq.heappush(heap, (len(orow), other))

        for qcol in pivot_rows.pop(pcol, ()):
            prow = pivots[qcol]
            f = prow.pop(pcol)
            for c, v in row.items():
                if c == pcol:
                    continue
                nv = prow.get(c, ZERO) - f * v
                if nv == 0:
                    del prow[c]
                    pivot_rows[c].discard(qcol)
                else:
                    if c not in prow:
                        pivot_rows[c].add(qcol)
                    prow[c] = nv
        pivots[pcol] = row
        for c in row:
            if c != pcol:
                pivot_rows[c].add(pcol)

    basis = {c: {c: ONE} for c in range(ncols) if c not in pivots}
    for pcol, prow in pivots.items():
        for c, v in prow.items():
            vec = basis.get(c)
            if vec is not None:
                vec[pcol] = -v
    return list(basis.values())


def sparse_dot(a: dict, b: dict) -> Fraction:
    if len(b) < len(a):
        a, b = b, a
    return sum((v * b[k] for k, v in a.items() if k in b), ZERO)


def lstsq_exact(columns, target: dict) -> tuple[list[Fraction], dict[int, Fraction]]:
    """Exact least squares: minimize ||target - sum x_i columns_i||_2.

    ``columns`` are sparse vectors (dicts); the normal equations are solved
    with free variables pinned to 0.  Returns (coefficients, residual vector).
    """
    d = len(columns)
    normal = [[sparse_dot(columns[i], columns[j]) for j in range(d)] for i in range(d)]
    rhs = [sparse_dot(col, target) for col in columns]
    aug = [normal[i] + [rhs[i]] for i in range(d)]
    red, pivots = rref(aug)
    coeffs = [ZERO] * d
    for row, pcol in zip(red, pivots):
        if pcol < d:
            coeffs[pcol] = row[d]
    residual = dict(target)
    for x, col in zip(coeffs, columns):
        if x == 0:
            continue
        for k, v in col.items():
            nv = residual.get(k, ZERO) - x * v
            if nv == 0:
                residual.pop(k, None)
            else:
                residual[k] = nv
    return coeffs, residual
