import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conedeform import graded, linalg
from conedeform.cli import EXAMPLE_DECKS
from conedeform.graded import (ConeSingularity, DegreeMismatchError,
                               FirstOrderVanishes, Perturbation, RateInput,
                               _degree_data, _jacobian_data, cubic_cone,
                               deformation_weight,
                               jacobian_matrix, ordinary_double_point,
                               predicted_rate, quotient_basis, reduce_in_t1,
                               t1_graded, two_quadric_cone)
from conedeform.parsing import parse_cone_deck
from conedeform.poly import Polynomial, monomials_of_degree
from test_linalg import (_dense_reduce_against, _dense_row_echelon, _rank,
                         _sparse)


def _vars(n):
    return [Polynomial.variable(n, i) for i in range(n)]


# ---------------------------------------------------------------------------
# quotient bases


def test_quotient_basis_cubic_degree0():
    b = quotient_basis(cubic_cone(), 0)
    assert b.quotient_dim == 1 and b.ambient_dim == 1


def test_quotient_basis_cubic_degree3():
    # C(6,3) = 20 monomials of degree 3 in 4 variables, ideal piece rank 1
    b = quotient_basis(cubic_cone(), 3)
    assert b.ambient_dim == comb(6, 3) == 20
    assert b.quotient_dim == 19


def test_quotient_basis_negative_degree():
    b = quotient_basis(cubic_cone(), -1)
    assert b.quotient_dim == 0 and b.representatives == []


def test_quotient_rejects_inhomogeneous():
    z = _vars(3)
    with pytest.raises(ValueError):
        ConeSingularity(3, [(z[0] ** 2 + z[1], 2)])


# ---------------------------------------------------------------------------
# jacobian matrices


def test_jacobian_odp_negative_source():
    m = jacobian_matrix(ordinary_double_point(3), -2)
    assert m == [[]] * len(m) or all(len(row) == 0 for row in m)


def test_jacobian_odp_weight_minus1():
    # R(0)^4 -> R(1): e_l -> 2 z_l, full rank 4
    m = jacobian_matrix(ordinary_double_point(3), -1)
    assert len(m) == 4 and len(m[0]) == 4
    assert _rank(m) == 4
    cols = set()
    for j in range(4):
        col = tuple(m[i][j] for i in range(4))
        assert sum(1 for x in col if x != 0) == 1
        assert [x for x in col if x != 0] == [Fraction(2)]
        cols.add(col)
    assert len(cols) == 4


def test_jacobian_cubic_weight_minus2():
    # source R(-1) = 0, so T1(-2) = dim R(1) = 4 (cross-check vs oracle)
    m = jacobian_matrix(cubic_cone(), -2)
    assert all(len(row) == 0 for row in m)
    assert t1_graded(cubic_cone(), -2, -2).dimension(-2) == 4


# ---------------------------------------------------------------------------
# graded T1 tables


def _squarefree_count(nvars, degree):
    if degree < 0 or degree > nvars:
        return 0
    return comb(nvars, degree)


def test_t1_cubic_matches_squarefree_oracle():
    """T1 of the cubic cone is C[z1..z4]/<z_i^2>; weight = degree - 3."""
    rep = t1_graded(cubic_cone(), -5, 3)
    for j in range(-5, 4):
        assert rep.dimension(j) == _squarefree_count(4, j + 3)
    assert rep.window == (-3, 1)
    assert [rep.dimension(j) for j in range(-3, 2)] == [1, 4, 6, 4, 1]


def test_t1_odp_concentrated():
    rep = t1_graded(ordinary_double_point(3), -4, 2)
    assert rep.dims() == {j: (1 if j == -2 else 0) for j in range(-4, 3)}


def test_t1_two_quadrics_table():
    """Brute-force table for the two-quadric cone in C^5.

    The graded pieces are {-2: 2, -1: 5, 0: 2}; the weight-(-1) and
    weight-0 pieces are genuinely nonzero (e.g. the class of (z1, 0) at
    weight -1 cannot be hit by constant vector fields unless lambda_1 = 0),
    so the support is wider than the single weight -2 that is usually
    quoted.  See tests/test_acceptance.py for the consequence."""
    rep = t1_graded(two_quadric_cone(), -4, 2)
    assert rep.dims() == {-4: 0, -3: 0, -2: 2, -1: 5, 0: 2, 1: 0, 2: 0}


def test_t1_cokernel_basis_shape():
    rep = t1_graded(cubic_cone(), -1, -1)
    dim, basis = rep.weights[-1]
    assert dim == 6 == len(basis)
    for tup in basis:
        assert len(tup) == 1
        assert tup[0].is_homogeneous(2)


def test_exactness_dimension_count():
    """dim (+) R(d_i + j) = rank Jac_j + dim T1(j), computed independently."""
    for cone in (cubic_cone(), ordinary_double_point(3), two_quadric_cone()):
        for j in range(-3, 2):
            target = sum(quotient_basis(cone, d + j).quotient_dim
                         for d in cone.degrees())
            mat = jacobian_matrix(cone, j)
            rk = _rank(mat) if mat and mat[0] else 0
            assert target == rk + t1_graded(cone, j, j).dimension(j)


# ---------------------------------------------------------------------------
# class reduction


def test_reduce_odp_z3_is_trivial():
    odp = ordinary_double_point(3)
    z3 = Polynomial.variable(4, 2)
    res = reduce_in_t1(odp, (z3,), -1)
    assert res.is_zero


def test_reduce_odp_constant_class():
    odp = ordinary_double_point(3)
    one = Polynomial.constant(4, 1)
    res = reduce_in_t1(odp, (one,), -2)
    assert not res.is_zero
    assert res.coordinates == [Fraction(1)]


def test_reduce_zero_tuple():
    res = reduce_in_t1(cubic_cone(), (Polynomial.zero(4),), 0)
    assert res.is_zero


def test_reduce_degree_mismatch():
    odp = ordinary_double_point(3)
    z3 = Polynomial.variable(4, 2)
    with pytest.raises(DegreeMismatchError):
        reduce_in_t1(odp, (z3,), 3)


def test_reduce_kills_random_image_vectors():
    """Jacobian-image tuples always reduce to the zero class."""
    rng = random.Random(11)
    for cone in (cubic_cone(), two_quadric_cone()):
        n = cone.ambient_dim
        for j in (-1, 0, 1):
            src = quotient_basis(cone, j + 1)
            if src.quotient_dim == 0:
                continue
            partials = [[f.derivative(l) for l in range(n)]
                        for f, _ in cone.defining]
            for _ in range(50):
                coeffs = [[Fraction(rng.randint(-3, 3)) for _ in src.representatives]
                          for _ in range(n)]
                a = [sum((c * m for c, m in zip(coeffs[l], src.representatives)),
                         Polynomial.zero(n)) for l in range(n)]
                elem = tuple(
                    sum((a[l] * partials[i][l] for l in range(n)),
                        Polynomial.zero(n))
                    for i in range(cone.codim))
                if all(g.is_zero() for g in elem):
                    continue
                assert reduce_in_t1(cone, elem, j).is_zero


# ---------------------------------------------------------------------------
# deformation weights


def _generic_cubic_pert(rng, quadratic=True, linear=True, constant=True):
    z = _vars(4)
    g = Polynomial.zero(4)
    if quadratic:
        for i, j in combinations(range(4), 2):
            g = g + Fraction(rng.randint(1, 9), rng.randint(1, 4)) * z[i] * z[j]
        g = g + Fraction(rng.randint(1, 5)) * z[0] ** 2
    if linear:
        for i in range(4):
            g = g + Fraction(rng.randint(1, 9), rng.randint(1, 4)) * z[i]
    if constant:
        g = g + Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return Perturbation([g], [g.degree()])


def test_cubic_weight_regimes():
    rng = random.Random(21)
    c = cubic_cone()
    assert deformation_weight(c, _generic_cubic_pert(rng)).weight == -1
    assert deformation_weight(
        c, _generic_cubic_pert(rng, quadratic=False)).weight == -2
    assert deformation_weight(
        c, _generic_cubic_pert(rng, quadratic=False, linear=False)).weight == -3


def test_odp_pure_z3_flags_first_order_vanishing():
    odp = ordinary_double_point(3)
    pert = Perturbation([Polynomial.variable(4, 2)], [1])
    res = deformation_weight(odp, pert)
    assert res.first_order_vanishes
    assert res.weight == FirstOrderVanishes()
    assert any("completing-the-square" in n for n in res.notes)


def test_weight_scaling_invariance():
    rng = random.Random(22)
    c = cubic_cone()
    pert = _generic_cubic_pert(rng)
    w0 = deformation_weight(c, pert).weight
    for s in (Fraction(3), Fraction(-1, 7), Fraction(12, 5)):
        scaled = Perturbation([pert.components[0] * s],
                              pert.declared_degrees)
        assert deformation_weight(c, scaled).weight == w0


def test_weight_invariant_under_presentation_mixing():
    """Constant invertible mixing of (F_i) and (G_i) together."""
    rng = random.Random(23)
    tq = two_quadric_cone()
    z = _vars(5)
    g1 = z[0] + 2 * z[1] - z[4] + 1
    g2 = Fraction(1, 2) * z[2] + z[3] - 3
    pert = Perturbation([g1, g2], [1, 1])
    w0 = deformation_weight(tq, pert).weight
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]  # det 1
    f1, f2 = (f for f, _ in tq.defining)
    mixed_cone = ConeSingularity(5, [(A[0][0] * f1 + A[0][1] * f2, 2),
                                     (A[1][0] * f1 + A[1][1] * f2, 2)])
    mixed_pert = Perturbation([A[0][0] * g1 + A[0][1] * g2,
                               A[1][0] * g1 + A[1][1] * g2], [1, 1])
    assert deformation_weight(mixed_cone, mixed_pert).weight == w0


def test_weight_determinism():
    rng = random.Random(24)
    c = cubic_cone()
    pert = _generic_cubic_pert(rng)
    r1 = deformation_weight(c, pert, seed=5)
    r2 = deformation_weight(c, pert, seed=5)
    assert r1.weight == r2.weight and r1.samples == r2.samples


def test_genericity_warning_on_special_instance():
    """A special coefficient pattern whose random re-instantiations differ."""
    c = cubic_cone()
    z = _vars(4)
    # z1^2 alone is in the Jacobian image at weight -1, but a random
    # multiple of z1*z2 is not; same support differs from generic behavior
    special = Perturbation([z[0] ** 2 + z[0] * z[1]], [2])
    # make the quadratic class vanish for the given instance only:
    # z1^2 + z1 z2 has nonzero squarefree part, so pick the diagonal case
    diag = Perturbation([z[0] ** 2 + z[1] ** 2 + 1], [2])
    res = deformation_weight(c, diag)
    # diagonal quadratics lie in <z_i^2> = Jac image; generic resamples of
    # the same support stay diagonal, so all samples agree here
    assert res.weight == -3 and not res.genericity_warning
    res2 = deformation_weight(c, special)
    assert res2.weight == -1


# ---------------------------------------------------------------------------
# predicted rates


def test_rate_p1p1_value():
    r = predicted_rate(RateInput(2, Fraction(2), 2))
    assert r.lambda1 == 4 and r.metric_rate == 2
    assert any("n = 2" in n for n in r.notes)


def test_rate_p2_conic_value():
    r = predicted_rate(RateInput(2, Fraction(3, 2), 1))
    assert r.lambda1 == 4


def test_rate_compactly_supported_cap():
    r = predicted_rate(RateInput(3, Fraction(2), 2, compactly_supported=True))
    assert r.lambda1 == 6 and r.metric_rate == 6
    r2 = predicted_rate(RateInput(3, Fraction(2), 2))
    assert r2.metric_rate == 2


def test_rate_rejects_bad_alpha():
    with pytest.raises(ValueError):
        RateInput(3, Fraction(1), 1)
    with pytest.raises(ValueError):
        RateInput(3, Fraction(1, 2), 1)


def test_rate_monotonicity():
    alphas = [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5)]
    for compact in (False, True):
        for a in alphas:
            lams = [predicted_rate(RateInput(3, a, w, compact)).lambda1
                    for w in range(1, 6)]
            assert lams == sorted(lams)
            mets = [predicted_rate(RateInput(3, a, w, compact)).metric_rate
                    for w in range(1, 6)]
            assert mets == sorted(mets)
        for w in (1, 2, 3):
            lams = [predicted_rate(RateInput(3, a, w, compact)).lambda1
                    for a in alphas]
            assert lams == sorted(lams, reverse=True)
            mets = [predicted_rate(RateInput(3, a, w, compact)).metric_rate
                    for a in alphas]
            assert mets == sorted(mets, reverse=True)


def test_quotient_basis_independence_mod_ideal():
    """Representatives are independent modulo the ideal's graded piece."""
    from conedeform.poly import monomials_of_degree
    for cone, j in ((cubic_cone(), 4), (two_quadric_cone(), 3)):
        basis = quotient_basis(cone, j)
        mons = monomials_of_degree(cone.ambient_dim, j)
        idx = {m: i for i, m in enumerate(mons)}
        rows = []
        for f, d in cone.defining:
            for m in monomials_of_degree(cone.ambient_dim, j - d):
                prod = Polynomial.monomial(cone.ambient_dim, m) * f
                row = [Fraction(0)] * len(mons)
                for e, c in prod.terms.items():
                    row[idx[e]] += c
                rows.append(row)
        ideal_rank = _rank(rows)
        for rep in basis.representatives:
            row = [Fraction(0)] * len(mons)
            for e, c in rep.terms.items():
                row[idx[e]] += c
            rows.append(row)
        assert _rank(rows) == ideal_rank + basis.quotient_dim


# ---------------------------------------------------------------------------
# Hilbert-series and Milnor-count oracles, and cones in 6 to 8 variables


def _series_coefficient(factor_degrees, N, k):
    """Coefficient of t^k in prod(1 - t^d for d in factor_degrees) / (1 - t)^N."""
    if k < 0:
        return 0
    num = {0: 1}
    for d in factor_degrees:
        nxt = dict(num)
        for e, c in num.items():
            nxt[e + d] = nxt.get(e + d, 0) - c
        num = nxt
    return sum(c * comb(k - e + N - 1, N - 1) for e, c in num.items() if e <= k)


def _fermat(N, d):
    return ConeSingularity(N, [(Polynomial(N, {
        tuple(d if j == i else 0 for j in range(N)): 1 for i in range(N)}), d)])


def _diagonal_quadric_ci(N, codim):
    """Vandermonde pencil sum_i (i+1)^k z_i^2, k < codim: every codim x codim
    minor is nonzero, so the intersection is smooth away from the vertex."""
    def sq(i):
        return tuple(2 if j == i else 0 for j in range(N))
    return ConeSingularity(N, [
        (Polynomial(N, {sq(i): Fraction(i + 1) ** k for i in range(N)}), 2)
        for k in range(codim)])


def test_quotient_dims_match_hilbert_series():
    """dim R(j) of a complete intersection is the t^j coefficient of
    prod(1 - t^d_i) / (1 - t)^N (Stanley, Combinatorics and Commutative
    Algebra)."""
    cones = [parse_cone_deck(text).cone for text in EXAMPLE_DECKS.values()]
    cones += [_diagonal_quadric_ci(N, codim)
              for N in (6, 7, 8) for codim in (2, 3)]
    for cone in cones:
        degrees = cone.degrees()
        for j in range(max(degrees) + 4):
            assert len(_degree_data(cone, j).free) == _series_coefficient(
                degrees, cone.ambient_dim, j), (cone, j)


@pytest.mark.parametrize("N, j_max", [(6, 3), (7, 1)])
def test_t1_fermat_cubic_matches_milnor_count(N, j_max):
    """T1(j) of a hypersurface cone is the degree-(d+j) Milnor algebra: the
    coefficient of ((1 - t^(d-1)) / (1 - t))^N."""
    d = 3
    rep = t1_graded(_fermat(N, d), -d - 1, j_max)
    for j in range(-d - 1, j_max + 1):
        assert rep.dimension(j) == _series_coefficient(
            [d - 1] * N, N, d + j), j


def test_t1_diagonal_quadric_cis():
    # both tables agree with the dense Gauss-Jordan elimination as well
    rep7 = t1_graded(_diagonal_quadric_ci(7, 3), -3, 1)
    rep8 = t1_graded(_diagonal_quadric_ci(8, 3), -3, 1)
    assert rep7.dims() == {-3: 0, -2: 3, -1: 14, 0: 27, 1: 21}
    assert rep8.dims() == {-3: 0, -2: 3, -1: 16, 0: 36, 1: 32}


def test_t1_ci_table_matches_dense_elimination(monkeypatch):
    """The whole N = 7, codim 3 table, cokernel bases included, is the same
    with the dense Gauss-Jordan oracle in place of the sparse elimination."""
    sparse = t1_graded(_diagonal_quadric_ci(7, 3), -3, 1)
    monkeypatch.setattr(graded.linalg, "row_echelon", _dense_row_echelon)
    dense = t1_graded(_diagonal_quadric_ci(7, 3), -3, 1)
    assert sparse.weights == dense.weights
    assert sparse.window == dense.window


def _dense_pivot_rows(rows):
    """The dense Gauss-Jordan oracle's reduced echelon rows of the sparse
    `rows`, in the form of `linalg._pivot_rows`."""
    width = 1 + max((j for v in rows for j in v), default=-1)
    ech, pivots = _dense_row_echelon(
        [[Fraction(v.get(j, 0)) for j in range(width)] for v in rows])
    return dict(zip(pivots, _sparse(ech))), False


def test_t1_ci_table_matches_dense_elimination_everywhere(monkeypatch):
    """As above, with the dense oracle's reduced echelon rows in place of
    the forward pivot rows of the Jacobian image as well; the classes that
    reduce_in_t1 reads off them do not change either."""
    cone = _diagonal_quadric_ci(7, 3)
    rng = random.Random(26)
    elements = {j: [_random_tuple(rng, cone, j) for _ in range(2)]
                for j in range(-3, 2)}
    fast = t1_graded(cone, -3, 1)
    fast_classes = {j: [reduce_in_t1(cone, el, j) for el in els]
                    for j, els in elements.items()}
    monkeypatch.setattr(graded.linalg, "row_echelon", _dense_row_echelon)
    monkeypatch.setattr(graded.linalg, "_pivot_rows", _dense_pivot_rows)
    cone = _diagonal_quadric_ci(7, 3)
    dense = t1_graded(cone, -3, 1)
    assert fast.weights == dense.weights
    assert fast.window == dense.window
    assert fast_classes == {j: [reduce_in_t1(cone, el, j) for el in els]
                            for j, els in elements.items()}


# ---------------------------------------------------------------------------
# the Jacobian image by its integer pivot columns


def _dense_cone(rng, N, degrees):
    """Every monomial of each degree with a random nonzero coefficient."""
    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                        rng.randint(1, 4))
    return ConeSingularity(N, [
        (Polynomial(N, {e: coeff() for e in monomials_of_degree(N, d)}), d)
        for d in degrees])


# (N, degrees, j_min, j_max): the dense cones' weight windows
DENSE_CONES = [(4, (3,), -3, 2), (4, (4,), -4, 1), (5, (2,), -2, 1),
               (5, (3,), -3, 0), (6, (2,), -2, 1), (4, (2, 2), -2, 2),
               (4, (2, 3), -3, 1), (5, (2, 2), -2, 1), (6, (2, 2, 2), -2, 0)]


def _pivot_cases():
    for text in EXAMPLE_DECKS.values():
        yield parse_cone_deck(text).cone, -4, 3
    for N in (6, 7, 8):
        for codim in (2, 3):
            yield _diagonal_quadric_ci(N, codim), -3, 1
    rng = random.Random(14)
    for N, degrees, j_min, j_max in DENSE_CONES:
        yield _dense_cone(rng, N, degrees), j_min, j_max


def _image_columns(cone, j):
    """The Jacobian image at weight j as dense columns."""
    return [list(col) for col in zip(*jacobian_matrix(cone, j))]


def test_jacobian_pivots_match_reduced_echelon():
    for cone, j_min, j_max in _pivot_cases():
        for j in range(j_min, j_max + 1):
            data = _jacobian_data(cone, j)
            pivots = linalg.row_echelon(_image_columns(cone, j))[1]
            assert list(data.pivot_rows) == pivots, (cone, j)
            assert data.rank == len(pivots)
            assert data.coker_coords == [i for i in range(data.total)
                                         if i not in pivots]


def test_t1_graded_eliminates_no_jacobian_image(monkeypatch):
    echelons, passes = [], []
    row_echelon, pivot_rows = linalg.row_echelon, linalg._pivot_rows

    def recording_echelon(rows):
        echelons.append(rows)
        return row_echelon(rows)

    def recording_pass(rows):
        passes.append(rows)
        return pivot_rows(rows)

    monkeypatch.setattr(graded.linalg, "row_echelon", recording_echelon)
    monkeypatch.setattr(graded.linalg, "_pivot_rows", recording_pass)
    cone = two_quadric_cone()
    t1_graded(cone, -3, 1)
    # one reduced echelon form per graded piece of the quotient ring, and
    # one forward pass over the image columns per weight
    assert len(echelons) == len(cone._degree_cache) > 0
    for j in range(-3, 2):
        data = _jacobian_data(cone, j)
        assert sum(rows is data.columns for rows in passes) == 1, j
    # reduce_in_t1 reduces against the pivot rows already there
    echelons.clear()
    passes.clear()
    rng = random.Random(27)
    for j in range(-3, 2):
        reduce_in_t1(cone, _random_tuple(rng, cone, j), j)
    assert echelons == [] and passes == []


def test_jacobian_image_reaches_the_pass_in_ints(monkeypatch):
    """The image columns are primitive int rows, and the forward pass over
    each image sees no `Fraction` (the ring pieces' `row_echelon` rows,
    which reach `_pivot_rows` too, are `Fraction` rows)."""
    passes = []
    pivot_rows = linalg._pivot_rows

    def recording_pass(rows):
        passes.append(rows)
        return pivot_rows(rows)

    monkeypatch.setattr(graded.linalg, "_pivot_rows", recording_pass)
    for cone, j_min, j_max in _pivot_cases():
        passes.clear()
        t1_graded(cone, j_min, j_max)
        images = [_jacobian_data(cone, j).columns
                  for j in range(j_min, j_max + 1)]
        assert len(passes) == len(images) + len(cone._degree_cache)
        for columns in images:
            assert sum(rows is columns for rows in passes) == 1
            assert all(type(x) is int for v in columns for x in v.values())
            assert all(math.gcd(*v.values()) == 1 for v in columns if v)


# sha256 over every T1 table (dimension and cokernel basis) and every
# pivot-row dict of the Jacobian images of `_pivot_cases()`, taken when the
# image columns were still built in `Fraction`s
PIVOT_GOLDEN = \
    "f38ffe9dce625280511365700d5cb2f0eb2b47ed9c4cd7f5a0d02545fa9cd9e7"


def test_pivot_rows_and_t1_tables_match_golden():
    digest = hashlib.sha256()
    for cone, j_min, j_max in _pivot_cases():
        table = t1_graded(cone, j_min, j_max)
        for j in range(j_min, j_max + 1):
            dim, basis = table.weights[j]
            rows = _jacobian_data(cone, j).pivot_rows
            digest.update(repr((
                j, dim,
                [[sorted(g.terms.items()) for g in tup] for tup in basis],
                [(p, sorted(v.items())) for p, v in rows.items()])).encode())
    assert digest.hexdigest() == PIVOT_GOLDEN


def _random_tuple(rng, cone, j):
    return [Polynomial(cone.ambient_dim, {
        e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for e in monomials_of_degree(cone.ambient_dim, d + j)})
        for d in cone.degrees()]


def test_reduce_in_t1_independent_of_t1_graded_first():
    rng = random.Random(15)
    for make, window in ((cubic_cone, (-3, 1)), (two_quadric_cone, (-2, 0))):
        first, later = make(), make()
        table = t1_graded(first, *window)
        for j in range(window[0], window[1] + 1):
            for _ in range(3):
                element = _random_tuple(rng, first, j)
                assert reduce_in_t1(first, element, j) == \
                    reduce_in_t1(later, element, j)
        # the table does not depend on what was computed first
        assert t1_graded(later, *window).weights == table.weights


# ---------------------------------------------------------------------------
# metamorphic relations: linear changes of coordinates and of generators


def _unimodular(rng, n):
    """A product of elementary integer row operations with small factors."""
    A = [[int(i == k) for k in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, k = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        A[i] = [x + c * y for x, y in zip(A[i], A[k])]
    return A


def _linear_forms(A):
    """The rows of A as linear forms: the substitution z -> Az."""
    z = _vars(len(A))
    return [sum((Fraction(a) * v for a, v in zip(row, z)),
                Polynomial.zero(len(A))) for row in A]


def _change_coordinates(cone, A):
    image = _linear_forms(A)
    return ConeSingularity(cone.ambient_dim, [(f.substitute(image), d)
                                              for f, d in cone.defining])


def _invariants(cone, j_min, j_max):
    hilbert = [quotient_basis(cone, j).quotient_dim
               for j in range(j_max + max(cone.degrees()) + 2)]
    return t1_graded(cone, j_min, j_max).dims(), hilbert


def test_t1_and_hilbert_function_invariant_under_coordinate_change():
    rng = random.Random(16)
    for cone, window in ((cubic_cone(), (-3, 1)),
                         (two_quadric_cone(), (-2, 1))):
        want = _invariants(cone, *window)
        for _ in range(2):
            A = _unimodular(rng, cone.ambient_dim)
            moved = _change_coordinates(cone, A)
            assert moved.defining != cone.defining
            assert _invariants(moved, *window) == want


def test_t1_and_hilbert_function_invariant_under_generator_mixing():
    rng = random.Random(17)
    cone = two_quadric_cone()
    want = _invariants(cone, -2, 1)
    (f1, d), (f2, _) = cone.defining
    for _ in range(3):
        while True:
            a, b, c, e = (Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(4))
            if a * e - b * c != 0:
                break
        mixed = ConeSingularity(5, [(a * f1 + b * f2, d),
                                    (c * f1 + e * f2, d)])
        assert _invariants(mixed, -2, 1) == want
        # and after a change of coordinates as well
        moved = _change_coordinates(mixed, _unimodular(rng, 5))
        assert _invariants(moved, -2, 1) == want


def test_jacobian_echelon_matches_dense_oracle():
    """The forward pivot rows of the image on real fill-in: primitive
    integer rows leading at their pivots, spanning the image, whose
    reduced echelon form is the dense oracle's."""
    cases = [(parse_cone_deck(text).cone, -4, 2)
             for text in EXAMPLE_DECKS.values()]
    rng = random.Random(22)
    cases += [(_dense_cone(rng, N, degrees), j_min, j_max)
              for N, degrees, j_min, j_max in (DENSE_CONES[3], DENSE_CONES[6])]
    for cone, j_min, j_max in cases:
        for j in range(j_min, j_max + 1):
            data = _jacobian_data(cone, j)
            for p, v in data.pivot_rows.items():
                assert min(v) == p and all(type(x) is int for x in v.values())
                assert math.gcd(*v.values()) == 1
            rows = [[Fraction(v.get(i, 0)) for i in range(data.total)]
                    for v in data.pivot_rows.values()]
            ech, pivots = linalg.row_echelon(rows)
            assert (ech, pivots) == \
                _dense_row_echelon(_image_columns(cone, j)), (cone, j)
            assert all(type(x) is Fraction for row in ech for x in row)


# ---------------------------------------------------------------------------
# the dense path the quotient map used to take, as an oracle: dense
# `Fraction` vectors over the degree-j monomials, built from `Polynomial`
# products and reduced against the dense reduced echelon form


def _dense_vector(index, p):
    """p over the monomials of `index` {monomial: position}."""
    v = [Fraction(0)] * len(index)
    for e, c in p.terms.items():
        v[index[e]] = v[index[e]] + c
    return v


class _DenseOracle:
    """Normal forms, Jacobian matrices and T1 classes of one cone along the
    dense path."""

    def __init__(self, cone):
        self.cone = cone
        self.n = cone.ambient_dim
        self._pieces = {}
        self._columns = {}
        self._images = {}

    def piece(self, k):
        """(monomial index, echelon rows, pivots, free indices) in degree
        k."""
        if k not in self._pieces:
            index = {m: i for i, m in
                     enumerate(monomials_of_degree(self.n, k))}
            rows = [_dense_vector(index, Polynomial.monomial(self.n, m) * f)
                    for f, d in self.cone.defining
                    for m in monomials_of_degree(self.n, k - d)]
            ech, pivots = _dense_row_echelon(rows)
            free = [i for i in range(len(index)) if i not in pivots]
            self._pieces[k] = index, ech, pivots, free
        return self._pieces[k]

    def normal_form(self, p, k):
        index, ech, pivots, free = self.piece(k)
        res = _dense_reduce_against(_dense_vector(index, p), ech, pivots)
        return [res[i] for i in free]

    def target(self, element, j):
        return [x for g, d in zip(element, self.cone.degrees()) if d + j >= 0
                for x in self.normal_form(g.homogeneous_part(d + j), d + j)]

    def columns(self, j):
        if j not in self._columns:
            self._columns[j] = self._build_columns(j)
        return self._columns[j]

    def _build_columns(self, j):
        if j + 1 < 0:
            return []
        monomials = monomials_of_degree(self.n, j + 1)
        partials = [[f.derivative(l) for f, _ in self.cone.defining]
                    for l in range(self.n)]
        return [self.target([Polynomial.monomial(self.n, monomials[i]) * df
                             for df in partials[l]], j)
                for l in range(self.n) for i in self.piece(j + 1)[3]]

    def matrix(self, j):
        total = sum(len(self.piece(d + j)[3]) for d in self.cone.degrees()
                    if d + j >= 0)
        columns = self.columns(j)
        return [[col[i] for col in columns] for i in range(total)]

    def coordinates(self, element, j):
        # the image's reduced echelon form as the dense path took it, from
        # row_echelon, which test_linalg checks against Gauss-Jordan
        if j not in self._images:
            self._images[j] = linalg.row_echelon(self.columns(j))
        ech, pivots = self._images[j]
        res = _dense_reduce_against(self.target(element, j), ech, pivots)
        return [x for i, x in enumerate(res) if i not in pivots]


def _random_form(rng, n, k):
    """A homogeneous polynomial of degree k on a random monomial support."""
    return Polynomial(n, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                          for e in monomials_of_degree(n, k)
                          if rng.random() < 0.6})


def test_normal_forms_match_dense_oracle():
    rng = random.Random(28)
    for cone, _, j_max in _pivot_cases():
        oracle = _DenseOracle(cone)
        zero = (0,) * cone.ambient_dim
        for k in range(max(cone.degrees()) + j_max + 1):
            data = _degree_data(cone, k)
            assert data.free == oracle.piece(k)[3], (cone, k)
            for _ in range(3):
                p = _random_form(rng, cone.ambient_dim, k)
                want = oracle.normal_form(p, k)
                got = data.reduce(p.terms, zero)
                assert all(x and 0 <= i < len(want) for i, x in got.items())
                assert [got.get(i, Fraction(0)) for i in range(len(want))] \
                    == want, (cone, k, p)
                assert all(type(x) is Fraction for x in got.values())


def test_jacobian_matrix_and_t1_classes_match_dense_oracle():
    rng = random.Random(29)
    for cone, j_min, j_max in _pivot_cases():
        oracle = _DenseOracle(cone)
        for j in range(j_min, j_max + 1):
            got = jacobian_matrix(cone, j)
            assert got == oracle.matrix(j), (cone, j)
            assert all(type(x) is Fraction for row in got for x in row)
            for _ in range(2):
                element = _random_tuple(rng, cone, j)
                if all(g.is_zero() for g in element):
                    continue
                got = reduce_in_t1(cone, element, j)
                want = oracle.coordinates(element, j)
                assert got.coordinates == want, (cone, j)
                assert all(type(x) is Fraction for x in got.coordinates)
                assert got.is_zero == all(x == 0 for x in want)


# ---------------------------------------------------------------------------
# inputs in the wrong number of variables


def test_perturbation_in_the_wrong_variable_count_is_refused():
    pert = Perturbation([Polynomial.variable(3, 0)], [1])
    with pytest.raises(ValueError, match="variables"):
        pert.validate_against(cubic_cone())
    with pytest.raises(ValueError, match="variables"):
        deformation_weight(cubic_cone(), pert)


def test_reduce_in_t1_refuses_the_wrong_variable_count():
    with pytest.raises(ValueError, match="variables"):
        reduce_in_t1(cubic_cone(), (Polynomial.variable(3, 0),), -2)
    with pytest.raises(ValueError, match="variables"):
        reduce_in_t1(two_quadric_cone(),
                     (Polynomial.variable(5, 0), Polynomial.variable(4, 0)),
                     -1)


# ---------------------------------------------------------------------------
# metamorphic relation: one change of coordinates on cone and perturbation


def test_weight_invariant_under_coordinate_change():
    """z -> Az with A unimodular, applied to the F_i and the G_i alike,
    moves no deformation weight."""
    rng = random.Random(30)
    z = _vars(5)
    cases = [(cubic_cone(), _generic_cubic_pert(rng)),
             (cubic_cone(), _generic_cubic_pert(rng, quadratic=False)),
             (cubic_cone(), _generic_cubic_pert(rng, quadratic=False,
                                                linear=False)),
             (ordinary_double_point(3),
              Perturbation([Polynomial.variable(4, 2)], [1])),
             (two_quadric_cone(),
              Perturbation([z[0] + 2 * z[1] - z[4] + 1,
                            Fraction(1, 2) * z[2] + z[3] - 3], [1, 1]))]
    weights = []
    for cone, pert in cases:
        want = deformation_weight(cone, pert).weight
        weights.append(want)
        A = _unimodular(rng, cone.ambient_dim)
        image = _linear_forms(A)
        moved = Perturbation([g.substitute(image) for g in pert.components],
                             pert.declared_degrees)
        moved_cone = _change_coordinates(cone, A)
        assert moved_cone.defining != cone.defining
        assert deformation_weight(moved_cone, moved).weight == want, (cone, A)
    assert weights[:4] == [-1, -2, -3, FirstOrderVanishes()]
