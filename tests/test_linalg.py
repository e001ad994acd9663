import math
import random
from fractions import Fraction

from conedeform import linalg
from conedeform.rational import GaussianRational


def _rand_matrix(rng, m, n, field="q"):
    def val():
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if field == "qi":
            return GaussianRational(x, Fraction(rng.randint(-3, 3)))
        return x
    return [[val() for _ in range(n)] for _ in range(m)]


def _rank(rows):
    return len(linalg.row_echelon(rows)[1])


def test_echelon_rank_against_float():
    import numpy as np
    rng = random.Random(2)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = _rand_matrix(rng, m, n)
        r = _rank(M)
        A = np.array([[float(x) for x in row] for row in M])
        assert r == np.linalg.matrix_rank(A, tol=1e-9)


def test_echelon_is_reduced():
    rng = random.Random(3)
    M = _rand_matrix(rng, 5, 7)
    ech, piv = linalg.row_echelon(M)
    for row, p in zip(ech, piv):
        assert row[p] == 1
        for other, q in zip(ech, piv):
            if q != p:
                assert other[p] == 0


def test_solve_and_residual():
    rng = random.Random(4)
    for _ in range(20):
        m, n = rng.randint(2, 5), rng.randint(1, 4)
        cols = [[Fraction(rng.randint(-4, 4)) for _ in range(m)]
                for _ in range(n)]
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum(cols[j][i] * x[j] for j in range(n)) for i in range(m)]
        sol = linalg.solve(cols, rhs)
        assert sol is not None
        back = [sum(cols[j][i] * sol[j] for j in range(n)) for i in range(m)]
        assert back == rhs


def test_solve_outside_span():
    cols = [[Fraction(1), Fraction(0)]]
    assert linalg.solve(cols, [Fraction(0), Fraction(1)]) is None


def test_nullspace_annihilates():
    rng = random.Random(5)
    for field in ("q", "qi"):
        cols = [list(c) for c in zip(*_rand_matrix(rng, 4, 6, field))]
        basis = linalg.nullspace(cols)
        m = len(cols[0])
        n = len(cols)
        for v in basis:
            out = [sum(cols[j][i] * v[j] for j in range(n)) for i in range(m)]
            assert all(x == 0 for x in out)
        assert len(basis) == n - _rank(
            [[cols[j][i] for j in range(n)] for i in range(m)])


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _pivot_columns(rows):
    """Pivot columns of the forward pass on the dense `rows`."""
    return list(linalg._pivot_rows(_sparse(rows))[0])


def test_reduce_against():
    rows = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    pivot_rows = linalg._pivot_rows(_sparse(rows))[0]
    res = linalg.reduce_against({0: Fraction(3), 1: Fraction(7)}, pivot_rows)
    assert res == {}


def test_gaussian_field_rank():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    M = [[one, i], [i, -one]]   # second row = i * first row
    assert _rank(M) == 1


# ---------------------------------------------------------------------------
# the sparse elimination against the dense Gauss-Jordan it replaced


def _dense_row_echelon(rows):
    """Dense Gauss-Jordan reduced echelon form: the oracle for row_echelon."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    ech = []
    pivots = []
    col = 0
    while work and col < ncols:
        pr = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if pr is None:
            col += 1
            continue
        row = work.pop(pr)
        inv = row[col]
        row = [x / inv for x in row]
        for i, r in enumerate(work):
            c = r[col]
            if c != 0:
                work[i] = [x - c * y for x, y in zip(r, row)]
        work = [r for r in work if any(x != 0 for x in r)]
        # reduce earlier echelon rows
        for i, r in enumerate(ech):
            c = r[col]
            if c != 0:
                ech[i] = [x - c * y for x, y in zip(r, row)]
        ech.append(row)
        pivots.append(col)
        col += 1
    return ech, pivots


def _assert_same_echelon(rows):
    got = linalg.row_echelon(rows)
    want = _dense_row_echelon(rows)
    assert got == want
    for grow, wrow in zip(got[0], want[0]):
        assert [type(x) for x in grow] == [type(x) for x in wrow]


def _sparse_matrix(rng, m, n, field="q", density=0.3):
    zero = GaussianRational(0) if field == "qi" else Fraction(0)
    dense = _rand_matrix(rng, m, n, field)
    return [[x if rng.random() < density else zero for x in row]
            for row in dense]


def test_row_echelon_matches_dense_oracle_edge_cases():
    z, one = Fraction(0), Fraction(1)
    cases = [
        [],                                         # empty input
        [[], [], []],                               # zero-width rows
        [[z, z, z], [z, z, z]],                     # all-zero rows
        [[one, Fraction(2)], [one, Fraction(2)]],   # duplicate rows
        [[z, one, z], [z, Fraction(3), z], [z, z, z], [z, Fraction(-2), z]],
        [[Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(0), Fraction(1), Fraction(1, 2)]],
    ]
    for rows in cases:
        _assert_same_echelon(rows)


def test_row_echelon_matches_dense_oracle_random():
    rng = random.Random(6)
    for trial in range(150):
        field = "qi" if trial % 5 == 0 else "q"
        shape = trial % 3
        if shape == 0:      # tall
            m, n = rng.randint(5, 12), rng.randint(1, 5)
        elif shape == 1:    # wide
            m, n = rng.randint(1, 5), rng.randint(5, 12)
        else:
            m = n = rng.randint(1, 8)
        M = _sparse_matrix(rng, m, n, field, density=rng.choice((0.15, 0.4, 1)))
        if trial % 4 == 0:
            # rank-deficient: append combinations and copies of earlier rows
            a, b = rng.choice(M), rng.choice(M)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            M = M + [list(a), [x - c * y for x, y in zip(a, b)]]
            rng.shuffle(M)
        _assert_same_echelon(M)


def test_row_echelon_gaussian_rational_matches_dense_oracle():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    M = [[one, i, zero, i + one],
         [zero, i, -one, zero],
         [zero, one, i, zero],          # -i times the second row
         [zero, zero, zero, zero]]
    _assert_same_echelon(M)
    ech, piv = linalg.row_echelon(M)
    assert piv == [0, 1]
    assert all(type(x) is GaussianRational for row in ech for x in row)


# ---------------------------------------------------------------------------
# the forward pass's pivot columns against the reduced echelon form's


def _assert_same_pivots(rows):
    assert _pivot_columns(rows) == linalg.row_echelon(rows)[1]


def test_pivot_columns_edge_cases():
    z, one = Fraction(0), Fraction(1)
    cases = [
        [],                                         # empty input
        [[], [], []],                               # zero-width rows
        [[z, z, z], [z, z, z]],                     # all-zero rows
        [[one, Fraction(2)], [one, Fraction(2)]],   # duplicate rows
        [[z, one, z], [z, Fraction(3), z], [z, z, z], [z, Fraction(-2), z]],
        [[Fraction(2), Fraction(4), Fraction(6)],   # rank deficient
         [Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(0), Fraction(1), Fraction(1, 2)]],
        [[z, Fraction(1, 3), Fraction(-1, 6)],      # pivot found late
         [z, Fraction(2, 3), Fraction(5, 7)],
         [Fraction(4, 9), z, z]],
    ]
    for rows in cases:
        _assert_same_pivots(rows)
    assert _pivot_columns([]) == []
    assert _pivot_columns([[z, z], [z, one]]) == [1]


def _big_fraction(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    num = rng.randint(-10 ** 12, 10 ** 12)
    den = rng.randint(1, 10 ** rng.choice((1, 6, 12)))
    return Fraction(num, den)


def test_pivot_columns_match_row_echelon_random():
    rng = random.Random(7)
    for trial in range(160):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        if trial % 2:
            M = [[_big_fraction(rng) for _ in range(n)] for _ in range(m)]
        else:
            M = _sparse_matrix(rng, m, n, density=rng.choice((0.15, 0.4, 1)))
        if trial % 3 == 0:
            # rank-deficient: append combinations and copies of earlier rows
            for _ in range(rng.randint(1, 3)):
                a, b = rng.choice(M), rng.choice(M)
                c = _big_fraction(rng)
                M.append([x * c - y * Fraction(3, 7) for x, y in zip(a, b)])
            M.append(list(rng.choice(M)))
            rng.shuffle(M)
        _assert_same_pivots(M)


def test_pivot_columns_gaussian_rational_falls_back():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    M = [[zero, i, -one, zero],
         [one, i, zero, i + one],
         [zero, one, i, zero]]          # -i times the first row
    assert _pivot_columns(M) == linalg.row_echelon(M)[1] == [0, 1]
    # a Q(i) row after Fraction rows switches the whole matrix over
    mixed = [[Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(0), Fraction(2), Fraction(0)],
             [one, zero, i]]
    assert _pivot_columns(mixed) == linalg.row_echelon(mixed)[1] == [0, 1]


# ---------------------------------------------------------------------------
# positive row scales: the forward pass gives the same pivot rows for any
# positive multiple of each input row, which is what lets graded hand it
# integer Jacobian columns


def _int_rows(rng, m, n):
    """Sparse integer rows of mixed size, with integer combinations and
    copies of earlier rows shuffled in."""
    def entry():
        return rng.choice((-1, 1)) * rng.randint(
            1, 10 ** rng.choice((1, 4, 12)))
    rows = [{j: entry() for j in range(n)
             if rng.random() < rng.choice((0.2, 0.5, 1))} for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        c, d = rng.randint(-5, 5), rng.randint(-5, 5)
        row = {j: c * a.get(j, 0) + d * b.get(j, 0) for j in set(a) | set(b)}
        rows.append({j: x for j, x in row.items() if x})
    rows.append(dict(rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def _positive(rng):
    """A random positive integer or rational."""
    if rng.random() < 0.5:
        return rng.randint(1, 10 ** 6)
    return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def _scaled(rows, scales):
    return [{j: s * x for j, x in v.items()} for v, s in zip(rows, scales)]


def test_pivot_rows_unchanged_by_positive_row_scales():
    rng = random.Random(31)
    for _ in range(200):
        rows = _int_rows(rng, rng.randint(1, 8), rng.randint(1, 9))
        want, integer = linalg._pivot_rows(rows)
        assert integer
        assert all(type(x) is int for v in want.values() for x in v.values())
        as_fractions = [{j: Fraction(x) for j, x in v.items()} for v in rows]
        assert linalg._pivot_rows(as_fractions) == (want, True)
        # int rows times positive integers stay int rows
        ints = _scaled(rows, [rng.randint(1, 10 ** 6) for _ in rows])
        assert linalg._pivot_rows(ints) == (want, True)
        # times positive rationals they are Fraction rows, some with
        # denominators; and Fraction rows scaled again
        fracs = _scaled(rows, [_positive(rng) for _ in rows])
        assert linalg._pivot_rows(fracs) == (want, True)
        again = _scaled(fracs, [_positive(rng) for _ in rows])
        assert linalg._pivot_rows(again) == (want, True)
        # int and Fraction rows mixed in one matrix
        mixed = [v if rng.random() < 0.5 else w for v, w in zip(ints, fracs)]
        assert linalg._pivot_rows(mixed) == (want, True)


def test_pivot_rows_flip_under_a_negative_scale():
    rows = [{0: 2, 1: 4}, {1: 3, 2: -6}]
    want = {0: {0: 1, 1: 2}, 1: {1: 1, 2: -2}}
    assert linalg._pivot_rows(rows)[0] == want
    assert linalg._pivot_rows(_scaled(rows, [-1, 1]))[0] == \
        {0: {0: -1, 1: -2}, 1: {1: 1, 2: -2}}


# ---------------------------------------------------------------------------
# the one elimination loop behind both entry points, against the dense
# Gauss-Jordan oracle rather than against itself


_EDGE_CASES = [
    [],                                                 # empty input
    [[], [], []],                                       # zero-width rows
    [[Fraction(0)] * 3] * 2,                            # all-zero rows
    [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]],
    [[Fraction(0), Fraction(1), Fraction(0)],           # one pivot, late
     [Fraction(0), Fraction(3), Fraction(0)],
     [Fraction(0)] * 3,
     [Fraction(0), Fraction(-2), Fraction(0)]],
    [[Fraction(2), Fraction(4), Fraction(6)],           # rank deficient
     [Fraction(1), Fraction(2), Fraction(3)],
     [Fraction(0), Fraction(1), Fraction(1, 2)]],
    [[Fraction(0), Fraction(1, 3), Fraction(-1, 6)],    # pivot found late
     [Fraction(0), Fraction(2, 3), Fraction(5, 7)],
     [Fraction(4, 9), Fraction(0), Fraction(0)]],
]


def _big_matrix(rng, m, n):
    """Entries up to 10^12 over 10^12, with dependent rows appended."""
    M = [[_big_fraction(rng) for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(M), rng.choice(M)
        c, d = _big_fraction(rng), _big_fraction(rng)
        M.append([x * c + y * d for x, y in zip(a, b)])
    rng.shuffle(M)
    return M


def _mixed_matrix(rng, m, n):
    """`Fraction` rows, Q(i) rows and rows holding both."""
    q, qi = _sparse_matrix(rng, m, n), _sparse_matrix(rng, m, n, "qi")
    both = [[rng.choice(xy) for xy in zip(a, b)] for a, b in zip(q, qi)]
    return [rng.choice(rows) for rows in zip(q, qi, both)]


def _gaussian_cases():
    i, one, zero = (GaussianRational(0, 1), GaussianRational(1),
                    GaussianRational(0))
    yield [[one, i, zero, i + one],
           [zero, i, -one, zero],
           [zero, one, i, zero],            # -i times the second row
           [zero, zero, zero, zero]]
    rng = random.Random(17)
    for _ in range(30):
        yield _sparse_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), "qi",
                             density=rng.choice((0.3, 1)))


def _mixed_cases():
    i, one, zero = (GaussianRational(0, 1), GaussianRational(1),
                    GaussianRational(0))
    yield [[Fraction(0), Fraction(1), Fraction(0)],
           [Fraction(0), Fraction(2), Fraction(0)],
           [one, zero, i]]
    rng = random.Random(18)
    for _ in range(30):
        yield _mixed_matrix(rng, rng.randint(2, 7), rng.randint(1, 7))


def _big_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield _big_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))


def test_pivot_columns_match_dense_oracle():
    cases = [*_EDGE_CASES, *_big_cases(19, 80), *_gaussian_cases(),
             *_mixed_cases()]
    for rows in cases:
        assert _pivot_columns(rows) == _dense_row_echelon(rows)[1], rows


def test_row_echelon_big_entries_match_dense_oracle():
    for rows in [*_EDGE_CASES, *_big_cases(20, 80)]:
        _assert_same_echelon(rows)


def test_pivot_rows_stay_small():
    """Pivot rows are primitive integer rows for `Fraction` input and lead
    with 1 over Q(i), so their entries do not grow from step to step.  They
    come in increasing pivot order."""
    for rows in _big_cases(24, 20):
        pivot_rows, integer = linalg._pivot_rows(_sparse(rows))
        assert integer and list(pivot_rows) == sorted(pivot_rows)
        for p, v in pivot_rows.items():
            assert min(v) == p and all(type(x) is int for x in v.values())
            assert math.gcd(*v.values()) == 1
    for rows in _gaussian_cases():
        pivot_rows = linalg._pivot_rows(_sparse(rows))[0]
        assert list(pivot_rows) == sorted(pivot_rows)
        assert all(min(v) == p and v[p] == 1 for p, v in pivot_rows.items())


def test_elimination_leaves_its_input_alone():
    cases = [*_EDGE_CASES, *_big_cases(21, 20), *_gaussian_cases(),
             *_mixed_cases()]
    for rows in cases:
        for eliminate, given in ((linalg.row_echelon, rows),
                                 (linalg._pivot_rows, _sparse(rows))):
            outer = list(given)
            inner = [type(row)(row) for row in given]
            eliminate(given)
            assert given == inner and all(a is b for a, b in zip(given, outer))


# ---------------------------------------------------------------------------
# sparse reduction against the forward pivot rows, against the dense
# reduction by the reduced echelon form


def _dense_reduce_against(vec, ech, pivots):
    """Residual of the dense vec after elimination by the dense reduced
    echelon rows `ech`: the oracle for reduce_against."""
    v = list(vec)
    for row, p in zip(ech, pivots):
        c = v[p]
        if c:
            for j, y in enumerate(row):
                if y:
                    v[j] = v[j] - c * y
    return v


def _vectors(rng, rows, width):
    """A random vector, a combination of the rows and their sum, with
    entries of the rows' own kinds."""
    entries = [x for row in rows for x in row] or [Fraction(1)]
    zero = entries[0] - entries[0]
    noise = [rng.choice(entries) if rng.random() < 0.5 else zero
             for _ in range(width)]
    combo = [zero] * width
    for row in rows:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        combo = [x + c * y for x, y in zip(combo, row)]
    return [noise, combo, [x + y for x, y in zip(noise, combo)]]


def test_reduce_against_matches_dense_reduction():
    """Off the pivot columns the residual is the one representative of vec
    modulo the row space there, so the forward pivot rows and the reduced
    echelon form leave the same residual, `Fraction`s staying `Fraction`s."""
    rng = random.Random(25)
    cases = [*_EDGE_CASES, *_big_cases(26, 60), *_gaussian_cases(),
             *_mixed_cases()]
    for rows in cases:
        width = len(rows[0]) if rows else 3
        rational = all(type(x) is Fraction for row in rows for x in row)
        pivot_rows = linalg._pivot_rows(_sparse(rows))[0]
        ech, pivots = _dense_row_echelon(rows)
        for vec in _vectors(rng, rows, width):
            sparse = _sparse([vec])[0]
            kept = dict(sparse)
            got = linalg.reduce_against(sparse, pivot_rows)
            assert sparse == kept
            assert got == _sparse([_dense_reduce_against(vec, ech, pivots)])[0]
            assert not any(p in got for p in pivots)
            if rational:
                assert all(type(x) is Fraction for x in got.values())
