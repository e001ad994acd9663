"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Two sub-criteria are knowingly red; their docstrings carry the blocking
analysis (see also notes in the repository root README):

* criterion 3 (support clause): the two-quadric cone in C^5 has graded
  first-order deformations at weights -2, -1 and 0 (dims 2, 5, 2), not
  only at -2; the wider support is proven by an explicit class and an
  independent brute-force rank oracle.
* criterion 5 (iii): the second-order lifting locus of the diagonal is
  a in {0, -1}, not {0}; the two product projections give order-infinity
  liftings at both points, and the factor-swap symmetry a -> -1-a forces
  the locus to be symmetric.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from conedeform.cech import (normalize, p1p1_diagonal, p2_conic,
                             splitting_obstruction, weight_from_order,
                             with_lifting_family)
from conedeform.cone_metric import (ConeChart, TENSOR_TYPES, christoffels_fd,
                                    curvature_check, empirical_scaling_slope,
                                    fubini_study_potential, metric_at,
                                    random_normalized_chart, scaling_exponent)
from conedeform.dbar import (DiskField, DiskGrid, HolderParams,
                             PerturbationModel, contraction_study,
                             dbar_identity_defect, modified_transform,
                             solve_beltrami)
from conedeform.graded import (Perturbation, RateInput, cubic_cone,
                               deformation_weight, ordinary_double_point,
                               predicted_rate, reduce_in_t1, t1_graded,
                               two_quadric_cone)
from conedeform.cech import CoboundaryWindow, h1_class
from conedeform.laurent import LaurentPoly
from conedeform.poly import Polynomial
from conedeform.rational import GaussianRational
from test_dbar import _weighted_bound_ratio

GR = GaussianRational


def _line(number, ok, detail=""):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


# --------------------------------------------------------------------------
# 1. cubic-cone T1 table against the squarefree oracle


def test_criterion_1_cubic_t1_table():
    t0 = time.monotonic()
    rep = t1_graded(cubic_cone(), -6, 4)
    oracle = {j: (comb(4, j + 3) if 0 <= j + 3 <= 4 else 0)
              for j in range(-6, 5)}
    ok = rep.dims() == oracle
    ok = ok and [rep.dimension(j) for j in range(-3, 2)] == [1, 4, 6, 4, 1]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _line(1, ok, f"{elapsed:.2f}s")
    assert ok


# --------------------------------------------------------------------------
# 2. cubic-cone rate table across generic instantiations


def _cubic_pert(rng, quadratic, linear, constant):
    z = [Polynomial.variable(4, i) for i in range(4)]
    g = Polynomial.zero(4)
    if quadratic:
        for i, j in combinations(range(4), 2):
            g = g + Fraction(rng.randint(1, 9), rng.randint(1, 4)) * z[i] * z[j]
    if linear:
        for i in range(4):
            g = g + Fraction(rng.randint(1, 9), rng.randint(1, 4)) * z[i]
    if constant:
        g = g + Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return Perturbation([g], [max(g.degree(), 0)])


def test_criterion_2_cubic_rates():
    c = cubic_cone()
    expected = {(True, True, True): Fraction(3),
                (False, True, True): Fraction(6),
                (False, False, True): Fraction(9)}
    ok = True
    for regime, lam in expected.items():
        for seed in (101, 202, 303):
            rng = random.Random(seed)
            pert = _cubic_pert(rng, *regime)
            res = deformation_weight(c, pert, seed=seed)
            rate = predicted_rate(RateInput(3, Fraction(2), abs(res.weight)))
            ok = ok and rate.lambda1 == lam and not res.genericity_warning
    _line(2, ok)
    assert ok


# --------------------------------------------------------------------------
# 3. complete intersection in C^5


def test_criterion_3a_two_quadrics_class_and_rate():
    tq = two_quadric_cone()
    eps = Polynomial.constant(5, -1)
    cls = reduce_in_t1(tq, (eps, eps), -2)
    res = deformation_weight(tq, Perturbation([eps, eps], [0, 0]))
    rate = predicted_rate(RateInput(3, Fraction(2), 2))
    ok = (not cls.is_zero) and res.weight == -2 and rate.lambda1 == 6
    _line("3a", ok, "(-eps,-eps) nonzero at -2; lambda = 6")
    assert ok


def test_criterion_3b_two_quadrics_support_as_stated():
    """Criterion text: T1 supported only at weight -2.  KNOWN RED.

    The brute-force graded ranks (the oracle the criterion itself
    prescribes) give dim T1 = 2, 5, 2 at weights -2, -1, 0.  A weight -1
    class that no coordinate vector field kills: (z1, 0); solving
    (2 sum c_l z_l, 2 sum c_l lam_l z_l) = (z1, 0) forces c_1 = 1/2 and
    lam_1 c_1 = 0, impossible for nonzero lam_1.  The often-quoted claim
    that the whole module sits in weight -2 is an overstatement; only the
    weight -2 piece the rate computation uses is correct (criterion 3a).
    """
    rep = t1_graded(two_quadric_cone(), -4, 2)
    stated = {j: (2 if j == -2 else 0) for j in range(-4, 3)}
    ok = rep.dims() == stated
    _line("3b", ok, f"computed support {rep.dims()}")
    assert ok, ("support wider than stated: computed "
                f"{ {j: d for j, d in rep.dims().items() if d} }")


# --------------------------------------------------------------------------
# 4. ordinary double points


def test_criterion_4_odp():
    ok = True
    for n in (3, 4):
        odp = ordinary_double_point(n)
        nv = n + 1
        rng = random.Random(40 + n)
        z = [Polynomial.variable(nv, i) for i in range(nv)]
        g = sum((Fraction(rng.randint(1, 7), rng.randint(1, 3)) * z[i]
                 for i in range(nv)), Polynomial.zero(nv))
        g = g + Fraction(rng.randint(1, 7), rng.randint(1, 3))
        res = deformation_weight(odp, Perturbation([g], [1]))
        alpha = Fraction(nv + 1 - 2)             # N + 1 - sum d_i
        rate = predicted_rate(RateInput(n, alpha, abs(res.weight)))
        ok = ok and res.weight == -2
        ok = ok and rate.lambda1 == Fraction(2 * n, n - 1)
        z3 = Perturbation([Polynomial.variable(nv, 2)], [1])
        flagged = deformation_weight(odp, z3)
        ok = ok and flagged.first_order_vanishes
    _line(4, ok)
    assert ok


# --------------------------------------------------------------------------
# 5. diagonal of P^1 x P^1


def test_criterion_5a_diagonal_family_comfortable_order():
    t0 = time.monotonic()
    res = normalize(p1p1_diagonal(4), 3)
    # (ii) one-parameter family of first-order liftings
    ok = res.ledger.families == {1: 1}
    # (iv) 1-comfortable iff a = -1/2 (exact rational arithmetic)
    [h1] = res.ledger.by_order(1, "comfortable")
    ok = ok and h1.locus.kind == "points"
    ok = ok and h1.locus.points == [{0: GR(Fraction(-1, 2))}]
    # (v) m(X,D) = 2 hence w = -2
    ok = ok and res.m_comfortable == 2
    ok = ok and weight_from_order(res.m_comfortable, dim_D=1)[0] == -2
    ok = ok and res.m_linearizable == 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _line("5a", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_5b_diagonal_second_lifting_locus_as_stated():
    """Criterion text: 2nd-order lifting iff a = 0.  KNOWN RED.

    The second-order splitting class relative to the lifting a is
    proportional to a^2 + a (computed by exact series composition and
    confirmed by high-precision numerics), so liftings exist iff
    a in {0, -1}.  Both roots are genuine: the two projections of the
    product P^1 x P^1 induce liftings to every order at a = 0 and a = -1,
    and the swap of the factors acts on the parameter by a -> -1 - a, so
    no statement of the form 'iff a = 0' can be swap-invariant.  The
    often-quoted locus {0} arises from dropping the cross term of
    1/(z - a y) when expanding the new base coordinate, which loses the
    root a = -1.
    """
    from conedeform.cech import PARAM_NAMES
    from conedeform.poly import format_poly
    fam, _ = with_lifting_family(p1p1_diagonal(4), 1)
    g2 = splitting_obstruction(fam, 2)
    a = Polynomial.variable(8, 0)
    stated = [a * a]             # vanishing locus {0} iff class prop. to a^2
    ok = g2.vector == stated
    _line("5b", ok, "computed class proportional to a^2+a, locus {0, -1}")
    assert ok, ("second-order class is "
                f"{format_poly(g2.vector[0], names=PARAM_NAMES)}, "
                "not proportional to a1^2")


# --------------------------------------------------------------------------
# 6. conic in P^2


def test_criterion_6_p2_conic():
    res = normalize(p2_conic(4), 3)
    g1 = res.ledger.by_order(1, "splitting")[0]
    not_splitting = g1.locus.kind == "empty"
    w = weight_from_order(res.m_comfortable, dim_D=1)[0]
    ok = not_splitting and res.m_comfortable == 1 and w == -1
    _line(6, ok)
    assert ok


# --------------------------------------------------------------------------
# 7. H^1 window against the brute-force coboundary oracle


def test_criterion_7_h1_oracle():
    rng = random.Random(77)
    cap = 10
    ok = True
    for _ in range(200):
        m = rng.randint(-6, 2)
        support = rng.sample(range(-8, 9), rng.randint(1, 7))
        f = LaurentPoly({e: GR(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                         for e in support})
        vec = h1_class(f, CoboundaryWindow(m))
        covered = set(range(0, cap + 1)) | {m - j for j in range(cap + 1)}
        brute = all(e in covered or c == 0 for e, c in f.coeffs.items())
        ok = ok and ((all(c == 0 for c in vec)) == brute)
    _line(7, ok)
    assert ok


# --------------------------------------------------------------------------
# 8. flat-cone curvature and Einstein proportionality


def test_criterion_8_curvature():
    t0 = time.monotonic()
    flat = curvature_check(fubini_study_potential(1), 1, 2,
                           full_riemann=True, h=1e-4, richardson=True)
    einstein = curvature_check(fubini_study_potential(1), Fraction(1, 2), 2,
                               h=1e-4, richardson=True)
    elapsed = time.monotonic() - t0
    ok = flat.max_riemann < 1e-6 and flat.ricci_defect < 1e-6
    ok = ok and einstein.ricci_defect < 1e-5
    ok = ok and elapsed < 30.0
    _line(8, ok, f"Riem {flat.max_riemann:.1e}, Ricci defect "
                 f"{einstein.ricci_defect:.1e}, {elapsed:.1f}s")
    assert ok


# --------------------------------------------------------------------------
# 9. Christoffel agreement and scaling exponents


def test_criterion_9_christoffels_and_scaling():
    rng = random.Random(90)
    worst = 0.0
    for _ in range(50):
        ch = random_normalized_chart(rng, 1)
        m = metric_at(ch)
        fd = christoffels_fd(ch, h=1e-5)
        worst = max(worst, float(np.max(np.abs(fd - m.christoffels))))
    ok = worst < 1e-6
    ch = ConeChart(Fraction(1, 2), 1, (0.0,), 1.0, fubini_study_potential(1))
    slope_err = 0.0
    for kind, ttype in TENSOR_TYPES.items():
        pred = float(scaling_exponent(ttype, Fraction(1, 2)))
        slope = empirical_scaling_slope(ch, kind)
        err = abs(slope - pred)
        tol = 0.01 * max(1.0, abs(pred))
        ok = ok and err <= tol
        slope_err = max(slope_err, err)
    _line(9, ok, f"Gamma defect {worst:.1e}, slope err {slope_err:.4f}")
    assert ok


# --------------------------------------------------------------------------
# 10. dbar identity and transform calibration


def test_criterion_10_identity_and_calibration():
    fields = [
        lambda z: np.ones_like(z),
        lambda z: np.conj(z) * np.exp(0.5 * z.real),
        lambda z: np.abs(z) ** 2 + 0.3 * np.conj(z) ** 2,
        lambda z: np.exp(-np.abs(z - 0.2) ** 2 / 0.04) * (1 + np.conj(z)),
        lambda z: np.conj(z) * np.abs(z),
        lambda z: np.sin(2 * z.real) * np.conj(z) + 0.1,
        lambda z: 0.5 * np.abs(z) * np.exp(1j * np.angle(z)) + np.conj(z) ** 3,
        lambda z: np.exp(0.3 * np.conj(z)),
        lambda z: np.abs(z) ** 1.5 * np.exp(-2j * np.angle(z)),
        lambda z: 0.5 * (z.real ** 2 - z.imag ** 2) + 1j * np.abs(z) ** 2,
    ]
    worst_order = math.inf
    for fn in fields:
        d0 = dbar_identity_defect(fn, level=0)
        d1 = dbar_identity_defect(fn, level=1)
        worst_order = min(worst_order, math.log(d0 / d1) / math.log(2))
    ok = worst_order >= 1.8
    grid = DiskGrid(0.5, 20, 128, 8)
    one = DiskField.from_function(grid, lambda z: np.ones_like(z))
    Tm = modified_transform(one)
    calib = float(np.abs(Tm.values - np.conj(grid.nodes())).max())
    ok = ok and calib < 1e-6
    _line(10, ok, f"min order {worst_order:.2f}, calibration {calib:.1e}")
    assert ok


# --------------------------------------------------------------------------
# 11. weighted bound constant stability


def test_criterion_11_weighted_bound_stability():
    rng = np.random.default_rng(11)
    profiles = []
    for _ in range(20):
        p = rng.uniform(0.7, 2.0)
        m = int(rng.integers(-3, 4))
        c = complex(rng.normal(), rng.normal())
        profiles.append((p, m, c))

    def measure(grid):
        out = {}
        for nu in (0.2, 0.5, 0.8, 1.3):
            ratios = []
            for p, m, c in profiles:
                fn = lambda z, p=p, m=m, c=c: \
                    c * np.abs(z) ** p * np.exp(1j * m * np.angle(z))
                F = DiskField.from_function(grid, fn, p)
                ratios.append(_weighted_bound_ratio(F, nu))
            out[nu] = max(ratios)
        return out

    coarse = measure(DiskGrid(0.5, 8, 32, 8))
    fine = measure(DiskGrid(0.5, 8, 64, 12))
    ok = True
    spread = 0.0
    for nu in coarse:
        rel = abs(fine[nu] - coarse[nu]) / max(fine[nu], coarse[nu])
        spread = max(spread, rel)
        ok = ok and rel <= 0.15
    _line(11, ok, f"max refinement drift {100 * spread:.1f}%")
    assert ok


# --------------------------------------------------------------------------
# 12. Beltrami solver end to end


def test_criterion_12_beltrami():
    t0 = time.monotonic()
    c = 0.04 + 0.02j
    const = PerturbationModel.constant(c)
    sol_c = solve_beltrami(const, HolderParams(0.5, 0.0), R=0.4, tol=1e-12,
                           rings=6, angular=32, radial=8, extra_rings=9)
    nodes = sol_c.z_field.grid.nodes()
    exact_err = float(np.abs(sol_c.z_field.values
                             - (-c) * np.conj(nodes)).max())
    ok = exact_err < 1e-8

    model = PerturbationModel.power(0.05, 0.8)
    params = HolderParams(0.5, 0.6)
    sol = solve_beltrami(model, params, R=0.4, tol=1e-10, rings=8,
                         angular=64, radial=10, extra_rings=8)
    ok = ok and sol.residual < 1e-6

    study = contraction_study(model, params, [0.4, 0.2, 0.1], probes=2,
                              rings=8, angular=64, radial=10)
    ok = ok and abs(study.j0_slope - (0.8 - 0.6)) <= 0.1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _line(12, ok, f"exact err {exact_err:.1e}, residual {sol.residual:.1e}, "
                  f"J0 slope {study.j0_slope:.3f}, {elapsed:.0f}s")
    assert ok
