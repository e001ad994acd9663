"""Exact linear algebra over any field supporting +, -, *, / and truth
testing (zero is falsy).

Used with `fractions.Fraction` and `GaussianRational`.  Matrices are
lists of row lists; nothing here mutates its arguments.

`row_echelon` eliminates sparsely: the matrices of the graded engine are
mostly zero (a few percent of their entries), so each pivot row is kept
as a dict {column: value} and only nonzero entries are ever touched.
Input and output stay dense lists of rows, so callers see plain
matrices.

`pivot_columns` gives only the pivot columns of the row space, by
fraction-free elimination on sparse integer rows.  Its fast path takes
`Fraction` rows only; rows with any other entry type go through
`row_echelon`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def row_echelon(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns); echelon rows are normalized to
    leading coefficient 1, fully reduced against each other and ordered
    by pivot column.  The reduced echelon form is unique, so this is
    exactly the result of dense Gauss-Jordan elimination, zeros included
    (they are the field's zero, e.g. `Fraction(0)`).

    The elimination is sparse and incremental.  Each pivot row is a dict
    {column: value} that stays fully reduced.  An incoming row is reduced
    against the pivots whose columns it hits; if anything is left, its
    leftmost entry is normalized to 1 and that column is eliminated from
    the earlier pivot rows.  At the end the pivots are sorted by column
    and densified.
    """
    pivot_rows = {}
    ncols = 0
    for row in rows:
        ncols = len(row)
        v = {j: x for j, x in enumerate(row) if x}
        for p in [j for j in v if j in pivot_rows]:
            _subtract(v, v.pop(p), pivot_rows[p], p)
        if not v:
            continue
        lead = min(v)
        inv = v[lead]
        v = {j: x / inv for j, x in v.items()}
        for prow in pivot_rows.values():
            if lead in prow:
                _subtract(prow, prow.pop(lead), v, lead)
        pivot_rows[lead] = v
    if not pivot_rows:
        return [], []
    pivots = sorted(pivot_rows)
    one = pivot_rows[pivots[0]][pivots[0]]
    zero = one - one
    echelon = []
    for p in pivots:
        dense = [zero] * ncols
        for j, x in pivot_rows[p].items():
            dense[j] = x
        echelon.append(dense)
    return echelon, pivots


def _subtract(v, c, row, skip):
    """v -= c * row in place over the sparse entries, leaving out column skip."""
    for j, y in row.items():
        if j == skip:
            continue
        x = v.get(j)
        if x is None:
            v[j] = -c * y
        else:
            x = x - c * y
            if x:
                v[j] = x
            else:
                del v[j]


def pivot_columns(rows):
    """Sorted pivot columns of the row space of `rows`.

    These are the pivots of `row_echelon(rows)`: every echelon form of a
    row space has the same pivot columns, so no row is normalized and no
    pivot row is reduced against later ones.  Each row is scaled to
    integers by the lcm of its denominators and eliminated fraction-free
    (Bareiss, Math. Comp. 22 (1968)): while its leading column is a pivot,
    v becomes b*v - a*p with a, b the two leading entries over their gcd.
    What is left is divided by its content and becomes the pivot row of
    its leading column.  Rows holding an entry that is not a `Fraction`
    fall back to `row_echelon`.
    """
    pivot_rows = {}
    for row in rows:
        v = {j: x for j, x in enumerate(row) if x}
        if not v:
            continue
        if not all(type(x) is Fraction for x in v.values()):
            return row_echelon(rows)[1]
        den = lcm(*[x.denominator for x in v.values()])
        v = {j: x.numerator * (den // x.denominator) for j, x in v.items()}
        while v:
            lead = min(v)
            p = pivot_rows.get(lead)
            if p is None:
                g = gcd(*v.values())
                pivot_rows[lead] = {j: x // g for j, x in v.items()}
                break
            a, b = v[lead], p[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                v = {j: b * x for j, x in v.items()}
            for j, y in p.items():
                x = v.get(j, 0) - a * y
                if x:
                    v[j] = x
                else:
                    del v[j]
    return sorted(pivot_rows)


def reduce_against(vec, ech, pivots):
    """Residual of vec after elimination by an echelon basis.

    Only the nonzero entries of each echelon row are subtracted.
    """
    v = list(vec)
    for row, p in zip(ech, pivots):
        c = v[p]
        if c:
            for j, y in enumerate(row):
                if y:
                    v[j] = v[j] - c * y
    return v


def solve(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs exactly.

    Returns a coefficient list or None when rhs is outside the span.
    """
    if not columns:
        return None if any(x != 0 for x in rhs) else []
    m = len(rhs)
    aug = [[col[i] for col in columns] + [rhs[i]] for i in range(m)]
    ech, pivots = row_echelon(aug)
    n = len(columns)
    if n in pivots:
        return None
    x = [rhs[0] * 0 for _ in range(n)]
    for row, p in zip(ech, pivots):
        x[p] = row[n]
    return x


def nullspace(columns):
    """Basis of {x : sum_j x_j columns[j] = 0}, one list per basis vector."""
    n = len(columns)
    if n == 0:
        return []
    m = len(columns[0])
    rows = [[col[i] for col in columns] for i in range(m)]
    ech, pivots = row_echelon(rows)
    free = [j for j in range(n) if j not in pivots]
    zero = columns[0][0] * 0
    one = zero + 1
    basis = []
    for f in free:
        v = [zero for _ in range(n)]
        v[f] = one
        for row, p in zip(ech, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis
