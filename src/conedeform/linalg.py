"""Exact linear algebra over any field supporting +, -, *, / and truth
testing (zero is falsy).

Used with `fractions.Fraction` and `GaussianRational`; nothing here
mutates its arguments.  `row_echelon`, `solve` and `nullspace` take dense
rows (lists).  `_pivot_rows` takes sparse rows, dicts {column: nonzero
value}, and returns sparse pivot rows; `reduce_against` reduces a sparse
vector against them.

One elimination serves every routine: `_pivot_rows`, a forward pass of
fraction-free elimination (Bareiss, Math. Comp. 22 (1968)) that touches
only nonzero entries.  While the leading column of a row v holds a pivot
row p, v becomes b*v - a*p with a, b the two leading entries; what is
left, divided by its content, is the pivot row of its leading column.
Its one branch is a matrix whose nonzero entries are all `int`s or
`Fraction`s: int rows enter as they are (where a `Fraction` is present,
each row is scaled to integers by the lcm of its denominators), a and b
are divided by their gcd and the content is the gcd of a row, so the pass
runs on small integers.  Any other field (Q(i)) runs the same step on its
own entries; there the content is the leading entry, so b = 1 and entries
do not grow.  `row_echelon` reduces the pivot rows upward and densifies
them.

On integer rows a positive scale of an input row changes no pivot row:
each step gives a positive multiple of b*v - a*p (the gcd is positive),
and the content that a pivot row is divided by is positive.  So callers
may scale rows by any positive number, never by a negative one, which
would flip the sign of a pivot row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _pivot_rows(rows):
    """({pivot column: sparse pivot row} in increasing pivot order,
    whether the rows hold ints), for sparse `rows`.

    Rows of ints and `Fraction`s take the integer branch: int rows are
    eliminated as they are, and if any entry is a `Fraction`, each row is
    first multiplied by the lcm of its denominators.  Pivot rows are
    primitive integer rows, the same for any positive scale of each input
    row.
    """
    kinds = {type(x) for v in rows for x in v.values()}
    integer = kinds <= {int, Fraction}
    pivot_rows = {}
    for v in rows:
        if integer and Fraction in kinds:
            v = _to_integers(v)[0]
        else:
            v = dict(v)
        while v:
            lead = min(v)
            p = pivot_rows.get(lead)
            if p is None:
                pivot_rows[lead] = _primitive(v, integer)
                break
            v = _step(v, p, lead, integer)
    return dict(sorted(pivot_rows.items())), integer


def _to_integers(v):
    """(v times s, s) for a sparse dict v of ints and `Fraction`s, s > 0
    the lcm of their denominators."""
    s = lcm(*[x.denominator for x in v.values()])
    return {j: x.numerator * (s // x.denominator) for j, x in v.items()}, s


def _step(v, p, col, integer):
    """b*v - a*p without column col, a and b the entries of v and p there
    (over their gcd for ints); v is updated in place if b == 1."""
    a, b = v.pop(col), p[col]
    if integer:
        g = gcd(a, b)
        a, b = a // g, b // g
    if b != 1:
        v = {j: b * x for j, x in v.items()}
    return _subtract(v, a, p, col)


def _subtract(v, a, p, col):
    """v - a*p off column col, updating v in place."""
    for j, y in p.items():
        if j == col:
            continue
        x = v.get(j, 0) - a * y
        if x:
            v[j] = x
        else:
            del v[j]
    return v


def _primitive(v, integer):
    """v divided by its content: the gcd of the entries of an integer row,
    the leading entry over a field, where every nonzero entry is a unit."""
    if integer:
        g = gcd(*v.values())
        return {j: x // g for j, x in v.items()}
    lead = v[min(v)]
    return {j: x / lead for j, x in v.items()}


def row_echelon(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns); echelon rows are normalized to
    leading coefficient 1, fully reduced against each other and ordered
    by pivot column.  The reduced echelon form is unique, so this is
    exactly the result of dense Gauss-Jordan elimination, zeros included
    (they are the field's zero, e.g. `Fraction(0)`).

    It is built from the pivot rows of the forward pass.  From the last
    pivot upward, each pivot row is reduced by the same b*v - a*p step
    against the later, already reduced pivot rows whose columns it hits.
    Integer rows are then divided by their content again and by their
    leading entry (rows over any other field lead with 1 already), and
    the rows are densified in pivot order.
    """
    pivot_rows, integer = _pivot_rows(
        [{j: x for j, x in enumerate(row) if x} for row in rows])
    pivots = list(pivot_rows)
    for p in reversed(pivots):
        v = pivot_rows[p]
        hits = [q for q in v if q != p and q in pivot_rows]
        for q in hits:
            v = _step(v, pivot_rows[q], q, integer)
        pivot_rows[p] = _primitive(v, integer) if integer and hits else v
    echelon = []
    for p in pivots:
        v = pivot_rows[p]
        if integer:
            v = {j: Fraction(x, v[p]) for j, x in v.items()}
        dense = [v[p] - v[p]] * len(rows[-1])
        for j, x in v.items():
            dense[j] = x
        echelon.append(dense)
    return echelon, pivots


def reduce_against(vec, pivot_rows):
    """Residual of the sparse vector vec after elimination by the pivot
    rows of `_pivot_rows`, in increasing pivot order.

    A pivot row leads at its pivot, so each step clears one pivot column
    and touches only later ones.  Off the pivot columns the residual is
    the one representative of vec modulo the row space that lives there,
    whatever echelon basis spans it.
    """
    v = dict(vec)
    for p, row in pivot_rows.items():
        if p in v:
            v = _subtract(v, v.pop(p) / row[p], row, p)
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
