import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conedeform import cone_metric
from conedeform.cone_metric import (ConeChart, NotNormalizedChart,
                                    Potential, ROUNDOFF_C, TENSOR_TYPES,
                                    TensorType, _ddbar, _fd_jacobian,
                                    _moved, _phi_jet, _slot,
                                    calabi_exponent, christoffels_fd,
                                    curvature_check, empirical_scaling_slope,
                                    fd_mixed_wirtinger,
                                    fubini_study_potential, metric_at,
                                    metric_field,
                                    normalize_chart, random_normalized_chart,
                                    scaling_exponent, tensor_norm,
                                    tian_yau_exponent, basis_tensor,
                                    JetPotential)
from conedeform.jets import (Jet, MixedZeros, conjugate_exponent,
                             wirtinger_exponent)
from conedeform.rational import GaussianRational
from test_fd_golden import CURVATURE


def _exponent(n, hol=(), anti=()):
    """Jet exponent of d_hol dbar_anti in (dz, dxi, dzbar, dxibar)."""
    return wirtinger_exponent(2 * n + 2, [_slot(K, n) for K in hol],
                              [_slot(L, n) for L in anti])


def metric_derivatives(chart: ConeChart, z, xi):
    """(g, dg, ddg): exact first/second holomorphic-antiholomorphic
    derivatives of the metric components at (z, xi) from the order-4 jet of
    the potential; dg[K,I,J] = d_K g_IJ, ddg[K,L,I,J] = d_K dbar_L g_IJ.
    The exact oracle of the FD Jacobians."""
    n = chart.dimD
    jet = _phi_jet(chart, z, xi, order=4)
    dg = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    ddg = np.zeros((n + 1, n + 1, n + 1, n + 1), dtype=complex)
    for I in range(n + 1):
        for J in range(n + 1):
            for K in range(n + 1):
                dg[K, I, J] = jet.partial(_exponent(n, (I, K), (J,)))
                for L in range(n + 1):
                    ddg[K, L, I, J] = jet.partial(_exponent(n, (I, K), (J, L)))
    return _ddbar(jet, n), dg, ddg


def test_calabi_exponent_values():
    assert calabi_exponent(2, 1) == 1                    # flat C^2 model
    assert tian_yau_exponent(Fraction(2), 2) == Fraction(1, 2)
    assert tian_yau_exponent(Fraction(3, 2), 2) == Fraction(1, 4)
    assert calabi_exponent(1, 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        calabi_exponent(0, 1)
    with pytest.raises(ValueError):
        tian_yau_exponent(1, 2)


@pytest.mark.parametrize("c", [GaussianRational(0, 1), GaussianRational(2)])
def test_potential_refuses_non_rational_coefficients(c):
    """A Gaussian coefficient passes the mirror check on (1, 1) but is no
    rational; it is an input error, not a TypeError in curvature_check."""
    with pytest.raises(ValueError, match="must be rational"):
        Potential.from_terms(1, {(0, 0): 1, (1, 1): c})


def test_metric_at_flat_point():
    ch = ConeChart(Fraction(1), 1, (0,), 1.0, fubini_study_potential(1))
    m = metric_at(ch)
    assert np.allclose(m.g, np.eye(2))
    assert m.christoffels[1, 1, 0] == pytest.approx(-1)
    assert m.christoffels[0, 0, 0] == pytest.approx(-2)
    assert m.r == pytest.approx(1.0)


def test_metric_fiber_scaling():
    pot = fubini_study_potential(1)
    d = Fraction(1, 3)
    g1 = metric_at(ConeChart(d, 1, (0,), 1.0, pot)).g
    t = 1.7 - 0.4j
    g2 = metric_at(ConeChart(d, 1, (0,), t, pot)).g
    df = float(d)
    assert g2[0, 0] == pytest.approx(g1[0, 0] * abs(t) ** (-2 * (df + 1)))
    assert g2[1, 1] == pytest.approx(g1[1, 1] * abs(t) ** (-2 * df))


def test_frame_norm_formula():
    ch = ConeChart(Fraction(1, 2), 1, (0,), 2.0, fubini_study_potential(1))
    m = metric_at(ch)
    assert m.frame_norms["dxi"] == pytest.approx(2 * 2 ** 1.5)
    # cross-check against the inverse metric entry
    assert m.frame_norms["dxi"] == pytest.approx(
        1 / math.sqrt(m.g[0, 0].real))
    assert m.frame_norms["dz"] == pytest.approx(
        1 / math.sqrt(m.g[1, 1].real))


def test_metric_at_rejects_unnormalized():
    pot = Potential.from_terms(1, {(0, 0): 1})   # constant: a_11bar = 0 != a
    with pytest.raises(NotNormalizedChart):
        metric_at(ConeChart(Fraction(1), 1, (0,), 1.0, pot))


def test_christoffels_fd_matches_closed_form():
    rng = random.Random(12)
    for _ in range(8):
        ch = random_normalized_chart(rng, 1)
        m = metric_at(ch)
        fd = christoffels_fd(ch, h=1e-5)
        assert np.max(np.abs(fd - m.christoffels)) < 1e-6


def test_christoffels_fd_dim2():
    rng = random.Random(13)
    ch = random_normalized_chart(rng, 2)
    m = metric_at(ch)
    fd = christoffels_fd(ch, h=1e-5)
    assert np.max(np.abs(fd - m.christoffels)) < 1e-6


def test_scaling_exponents_closed_form():
    d = Fraction(1, 2)
    assert scaling_exponent(TENSOR_TYPES["vh"], d) == 1
    assert scaling_exponent(TENSOR_TYPES["hv"], d) == -1
    assert scaling_exponent(TensorType(), d) == 0
    assert scaling_exponent(TensorType(p_h=2, q_v=1), d) == 2 * d - (d + 1)


def _basis_tensor_chain(kind, n):
    """The if-chain basis_tensor read before it read TENSOR_TYPES."""
    T = np.zeros((n + 1, n + 1), dtype=complex)
    if kind == "vh":
        T[1, 0] = 1.0
    elif kind == "hv":
        T[0, 1] = 1.0
    elif kind == "vv":
        T[0, 0] = 1.0
    elif kind == "hh":
        T[1, 1] = 1.0
    else:
        raise ValueError(kind)
    return T


def test_basis_tensor_reads_the_tensor_table():
    for n in (1, 2, 3):
        for kind in ("vh", "hv", "vv", "hh"):
            T = basis_tensor(kind, n)
            assert T.dtype == complex and T.shape == (n + 1, n + 1)
            assert np.array_equal(T, _basis_tensor_chain(kind, n)), kind
    for kind in ("xx", "VH", ""):
        with pytest.raises(ValueError, match=f"^{kind}$"):
            basis_tensor(kind, 1)


def test_scaling_slopes_match_prediction():
    ch = ConeChart(Fraction(1, 2), 1, (0,), 1.0, fubini_study_potential(1))
    for kind, ttype in TENSOR_TYPES.items():
        pred = float(scaling_exponent(ttype, Fraction(1, 2)))
        slope = empirical_scaling_slope(ch, kind)
        assert abs(slope - pred) <= max(0.01, 0.01 * abs(pred)) + 1e-12


def test_scaling_slope_refuses_overflowed_norms():
    # at xi = 2^-400 the powers of |xi| in g leave the float range
    ch = ConeChart(Fraction(1, 2), 1, (0,), 1.0, fubini_study_potential(1))
    with pytest.raises(ValueError, match=r"xi = 2\^-400 is nan"):
        empirical_scaling_slope(ch, "vh", range(400, 402))


def test_curvature_flat_cone():
    rep = curvature_check(fubini_study_potential(1), 1, 2,
                          full_riemann=True, h=1e-4)
    assert rep.max_riemann < 1e-6
    assert rep.ricci_defect < 1e-6


def test_curvature_einstein_proportionality():
    rep = curvature_check(fubini_study_potential(1), Fraction(1, 2), 2,
                          h=1e-4)
    assert rep.ricci_defect < 1e-5


def test_curvature_degenerate_base():
    pot = Potential.from_terms(1, {(0, 0): 2})
    rep = curvature_check(pot, Fraction(1, 3), 1, h=1e-2)
    assert rep.ricci_defect < 1e-8
    assert any("degenerate" in n for n in rep.notes)


def test_curvature_degenerate_base_diagnosed():
    # the log g_00 check at a degenerate base point gets the same
    # convergence diagnostic as the Ricci form
    pot = Potential.from_terms(1, {(0, 0): 2})
    bad = curvature_check(pot, Fraction(1, 3), 1, h=0.2, richardson=False,
                          diagnose_convergence=True)
    assert not bad.converged
    assert any("convergence not reached" in n for n in bad.notes)
    good = curvature_check(pot, Fraction(1, 3), 1, diagnose_convergence=True)
    assert good.converged, good.notes
    assert good.ricci_defect < 1e-8
    assert any("degenerate" in n for n in good.notes)


def test_radial_function_eikonal():
    """|dr| = 1 for the cone radius r = h^(delta/2).

    Convention: |dr|^2 = 4 g^(I Jbar) dr_I dr_Jbar for the real function r,
    calibrated so the flat model gives exactly 1."""
    rng = random.Random(14)
    for _ in range(5):
        ch = random_normalized_chart(rng, 1)
        d = float(ch.delta)
        gfun = metric_field(ch)
        n = ch.dimD
        coords = list(ch.z) + [ch.xi]

        def r_of(ws):
            a = ch.potential.jet(ws[:n], 0).value().real
            return a ** (d / 2) * abs(ws[n]) ** (-d)

        h = 1e-6
        grad = []
        for k in range(n + 1):
            def f(t, k=k):
                ws = list(coords)
                ws[k] = ws[k] + t
                return r_of(ws)
            fx = (f(h) - f(-h)) / (2 * h)
            fy = (f(1j * h) - f(-1j * h)) / (2 * h)
            grad.append(0.5 * (fx - 1j * fy))
        grad = np.array(grad)
        # reorder to (fiber, base) = index 0 first
        grad = np.concatenate([[grad[-1]], grad[:-1]])
        g = gfun(ch.z, ch.xi)
        ginv = np.linalg.inv(g)
        val = 4 * np.einsum("ij,i,j->", ginv.conj(), grad, grad.conj())
        assert abs(val.real - 1.0) < 1e-6


def test_derivative_norm_law_bounded():
    """|grad d_xi| * r / |d_xi| is xi-independent and bounded by 4 for the
    exponents exercised here (repository convention C <= 4)."""
    for delta in (Fraction(1, 2), Fraction(1)):
        ch0 = ConeChart(delta, 1, (0,), 1.0, fubini_study_potential(1))
        vals = []
        for k in range(0, 12):
            xi = 2.0 ** (-k)
            ch = ConeChart(delta, 1, (0,), xi, fubini_study_potential(1))
            m = metric_at(ch)
            # |nabla d_xi| via the closed Christoffels
            T = np.zeros((2, 2), dtype=complex)
            T[0, 0] = m.christoffels[0, 0, 0]
            T[1, 1] = m.christoffels[1, 1, 0]
            num = tensor_norm(T, m.g)
            den = math.sqrt(m.g[0, 0].real)
            vals.append(num * m.r / den)
        assert max(vals) <= 4.0
        assert min(vals) >= 1 / 4.0
        assert max(vals) / min(vals) < 1.0001


def test_normalize_chart_helper():
    """An off-normal potential is brought to normalized form."""
    pot = Potential.from_terms(1, {
        (0, 0): 2, (1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3),
        (1, 1): 1, (2, 0): Fraction(1, 5), (0, 2): Fraction(1, 5),
        (2, 1): Fraction(1, 7), (1, 2): Fraction(1, 7), (2, 2): Fraction(1, 2),
    })
    raw = ConeChart(Fraction(1, 2), 1, (0,), 1.0, pot)
    with pytest.raises(NotNormalizedChart):
        metric_at(raw)
    fixed, change = normalize_chart(raw)
    m = metric_at(fixed)        # must validate now
    assert m.g[0, 0] != 0
    assert change.base_linear.shape == (1, 1)


def test_jet_potential_reexpansion():
    """JetPotential expands consistently at displaced points."""
    pot = fubini_study_potential(1)
    jp = JetPotential(1, pot.jet((0.0,), 4))
    z1 = (0.05 + 0.02j,)
    direct = pot.jet(z1, 2)
    moved = jp.jet(z1, 4)
    for e in [(0, 0), (1, 0), (1, 1)]:
        assert abs(direct.partial(e) - moved.partial(e)) < 1e-12


def test_jet_arithmetic():
    j = Jet(2, 4, {(0, 0): 2.0, (1, 0): 1.0, (0, 1): 1.0})
    p = j.power_real(0.5)
    assert p.value() == pytest.approx(math.sqrt(2))
    assert (p * p).partial((1, 0)) == pytest.approx(1.0)
    lg = j.log()
    assert lg.value() == pytest.approx(math.log(2))
    assert lg.partial((1, 0)) == pytest.approx(0.5)
    inv = j.inverse()
    assert (inv * j).value() == pytest.approx(1.0)
    assert abs((inv * j).partial((1, 1))) < 1e-14


def test_wirtinger_exponent_layouts():
    # base layout (dz1, dz2, dzbar1, dzbar2)
    assert wirtinger_exponent(4) == (0, 0, 0, 0)
    assert wirtinger_exponent(4, (0, 1, 1), (0,)) == (1, 2, 1, 0)
    assert wirtinger_exponent(4, (), (1, 1)) == (0, 0, 0, 2)
    # lifted layout (dz1, dz2, dxi, dzbar1, dzbar2, dxibar): fiber slot n
    assert wirtinger_exponent(6, (2,), (2,)) == (0, 0, 1, 0, 0, 1)
    assert _exponent(2, (0, 1), (2,)) == (1, 0, 1, 0, 1, 0)
    assert _exponent(1, (0,), (0, 1)) == (0, 1, 1, 1)
    for e in [(1, 2, 3, 4), (0, 0, 1, 0, 2, 5)]:
        assert conjugate_exponent(e) == e[len(e) // 2:] + e[:len(e) // 2]
        assert conjugate_exponent(conjugate_exponent(e)) == e
    assert conjugate_exponent(wirtinger_exponent(6, (0, 2), (1,))) == \
        wirtinger_exponent(6, (1,), (0, 2))


def test_jet_wirtinger_partials():
    # base layout: 2 dz1 dzbar2 + 3 dz1^2 dzbar2 + (1+i) dz2^2
    j = Jet(4, 3, {(1, 0, 0, 1): 2.0, (2, 0, 0, 1): 3.0, (0, 2, 0, 0): 1 + 1j})
    assert j.wirtinger((0,), (1,)) == 2.0
    assert j.wirtinger((0, 0), (1,)) == 6.0          # 3 * 2!
    assert j.wirtinger((1, 1)) == 2 + 2j
    assert j.wirtinger((1,), (0,)) == 0.0
    bar = j.conjugate()
    assert bar.wirtinger((1,), (0,)) == 2.0
    assert bar.wirtinger((), (1, 1)) == 2 - 2j
    # lifted layout: 5 dz1 dxibar + dxi dxibar at n = 1
    lj = Jet(4, 2, {_exponent(1, (1,), (0,)): 5.0,
                    _exponent(1, (0,), (0,)): 1.0})
    assert lj.coeffs == {(1, 0, 0, 1): 5.0, (0, 1, 0, 1): 1.0}
    assert lj.wirtinger((0,), (1,)) == 5.0
    assert lj.wirtinger((1,), (1,)) == 1.0


def test_jet_exp_series():
    c0 = 0.3 - 0.7j
    # exp(c0 + dw + 2 dwbar) = e^c0 sum (dw)^p (2 dwbar)^q / (p! q!)
    j = Jet(2, 5, {(0, 0): c0, (1, 0): 1.0, (0, 1): 2.0}).exp()
    assert j.order == 5
    for p in range(6):
        for q in range(6 - p):
            want = cmath.exp(c0) * 2 ** q / (math.factorial(p) *
                                             math.factorial(q))
            assert abs(j.coeffs.get((p, q), 0.0) - want) < 1e-14
    lg = Jet(2, 4, {(0, 0): 2.0, (1, 1): 0.5, (2, 0): 0.25 + 0.1j})
    back = lg.log().exp()
    for e, c in lg.coeffs.items():
        assert abs(back.coeffs[e] - c) < 1e-14


def test_jet_potential_truncates_to_order():
    pot = fubini_study_potential(2)
    jp = JetPotential(2, pot.jet((0.0, 0.0), 4))
    for z in [(0.0, 0.0), (0.05 + 0.02j, -0.03j)]:
        full = pot.jet(z, 4)
        for k in range(5):
            jk = jp.jet(z, k)
            assert jk.order == k
            assert all(sum(e) <= k for e in jk.coeffs)
            for e, c in full.coeffs.items():
                if sum(e) <= k:
                    assert abs(jk.coeffs.get(e, 0.0) - c) < 1e-14
    with pytest.raises(ValueError, match="order 5"):
        jp.jet((0.0, 0.0), 5)


def test_curvature_convergence_diagnostic():
    pot = fubini_study_potential(1)
    good = curvature_check(pot, Fraction(1, 2), 2, h=1e-4,
                           diagnose_convergence=True)
    assert good.converged
    # absurdly large step: the two-step estimates disagree and the report
    # carries the convergence-not-reached diagnostic
    bad = curvature_check(pot, Fraction(1, 2), 2, h=0.2, richardson=False,
                          diagnose_convergence=True)
    assert not bad.converged
    assert any("convergence not reached" in n for n in bad.notes)


@pytest.mark.parametrize("n, delta, full", [(1, 1, True),
                                            (1, Fraction(1, 2), False),
                                            (2, Fraction(1, 2), False)])
def test_curvature_diagnostic_at_default_step(n, delta, full):
    # the default step is out of the roundoff regime: the diagnostic
    # settles and the defects sit well inside the flat/Einstein tolerances
    rep = curvature_check(fubini_study_potential(n), delta, n + 1,
                          full_riemann=full, diagnose_convergence=True)
    assert rep.converged, rep.notes
    assert rep.ricci_defect < (1e-6 if full else 1e-5)
    if full:
        assert rep.max_riemann < 1e-6


def test_curvature_diagnostic_ignores_step_independent_defect():
    # a wrong mu is a defect of the identity, not of the FD estimate
    rep = curvature_check(fubini_study_potential(1), Fraction(1, 2), 3,
                          diagnose_convergence=True)
    assert rep.converged
    assert rep.ricci_defect > 0.1


# FD error model of the Richardson-extrapolated stencils at step h: a
# truncation term TRUNCATION_C * h^4 plus a roundoff term ROUNDOFF_C * eps /
# h^k for a k-th derivative, both relative to max |g|.  TRUNCATION_C bounds
# the fifth and sixth derivatives of g against max |g| on random normalized
# charts (at most about 7e3 on 24 charts, read off at h = 1e-2).
TRUNCATION_C = 1e4


@pytest.mark.parametrize("dimD, seed", [(1, 0), (1, 9), (2, 6)])
def test_fd_metric_derivatives_match_exact_jets(dimD, seed):
    chart = random_normalized_chart(random.Random(seed), dimD)
    g, dg, ddg = metric_derivatives(chart, chart.z, chart.xi)
    gfun = metric_field(chart)
    coords = list(map(complex, chart.z)) + [complex(chart.xi)]
    h = 1e-3
    fd_dg = _fd_jacobian(gfun, coords, h, True)
    fd_ddg = np.array([[fd_mixed_wirtinger(_moved(gfun, coords, K, L),
                                           0.0, 0.0, h, True)
                        for L in range(dimD + 1)] for K in range(dimD + 1)])
    eps = np.finfo(float).eps
    for k, fd_value, exact in ((1, fd_dg, dg), (2, fd_ddg, ddg)):
        tol = np.abs(g).max() * (TRUNCATION_C * h ** 4
                                 + ROUNDOFF_C * eps / h ** k)
        assert np.abs(fd_value - exact).max() <= tol


# -- the fast jet paths against the validating paths they replaced ---------
# Potential.jet reads a cached differentiation walk and Jet products skip
# the validating constructor; both must give the old coefficients bit for
# bit and in the old dict order.


def _oracle_jet_coeffs(nvars, order, coeffs):
    """The validating Jet constructor: truncate at order, accumulate onto
    0.0, drop zeros."""
    out = {}
    for e, c in coeffs.items():
        if c != 0 and sum(e) <= order:
            out[tuple(e)] = out.get(tuple(e), 0.0) + c
    return out


def _oracle_product(a, b):
    """Jet * Jet or Jet * scalar through the validating constructor."""
    if not isinstance(b, Jet):
        return _oracle_jet_coeffs(a.nvars, a.order,
                                  {e: c * b for e, c in a.coeffs.items()})
    t = {}
    for e1, c1 in a.coeffs.items():
        d1 = sum(e1)
        for e2, c2 in b.coeffs.items():
            if d1 + sum(e2) > a.order:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = t.get(e, 0.0) + c1 * c2
    return _oracle_jet_coeffs(a.nvars, a.order, t)


def _oracle_potential_jet(pot, z, order):
    """Taylor jet of a Potential by a frontier walk that differentiates the
    polynomial at every call."""
    n = pot.dimD
    vals = list(map(complex, z)) + [complex(v).conjugate() for v in z]
    out = {}
    zero = wirtinger_exponent(2 * n)
    frontier = [(zero, pot.poly)]
    seen = {zero}
    while frontier:
        e, p = frontier.pop()
        coeff = complex(p.evaluate(vals))
        if coeff != 0:
            scale = 1.0
            for k in e:
                scale /= math.factorial(k)
            out[e] = coeff * scale
        if sum(e) >= order:
            continue
        for i in range(2 * n):
            e2 = list(e)
            e2[i] += 1
            e2 = tuple(e2)
            if e2 not in seen:
                seen.add(e2)
                frontier.append((e2, p.derivative(i)))
    return Jet(2 * n, order, out)


def _bits(coeffs):
    """Exponents in dict order with the exact bits and type of each value."""
    return [(e, type(c), complex(c).real.hex(), complex(c).imag.hex())
            for e, c in coeffs.items()]


def _random_mirror_potential(rng, n):
    terms = {wirtinger_exponent(2 * n): Fraction(1)}
    for _ in range(5):
        hol = [rng.randrange(n) for _ in range(rng.randrange(3))]
        anti = [rng.randrange(n) for _ in range(rng.randrange(3))]
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 9))
        e = wirtinger_exponent(2 * n, hol, anti)
        for key in {e, conjugate_exponent(e)}:
            terms[key] = terms.get(key, 0) + c
    return Potential.from_terms(n, terms)


def _random_coeff(rng):
    kind = rng.randrange(3)
    if kind == 0:
        # small integers make exact cancellations, so zeros get dropped
        return float(rng.choice((-2, -1, 1, 2)))
    if kind == 1:
        return complex(rng.choice((-0.0, 0.0, 1.0, -1.0)),
                       rng.choice((-0.0, 0.0, 1.0, -1.0)))
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _random_jet(rng, nvars, order):
    coeffs = {tuple(rng.randrange(order + 1) for _ in range(nvars)):
              _random_coeff(rng) for _ in range(rng.randrange(1, 10))}
    return Jet(nvars, order, coeffs)


@pytest.mark.parametrize("dimD", [1, 2])
def test_potential_jet_matches_frontier_walk(dimD):
    rng = random.Random(40 + dimD)
    for _ in range(6):
        pot = _random_mirror_potential(rng, dimD)
        # several points and interleaved orders reuse the cached walks
        for _ in range(3):
            z = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(dimD))
            for order in (2, 4, 0, 3, 2):
                got = pot.jet(z, order)
                want = _oracle_potential_jet(pot, z, order)
                assert got.order == want.order == order
                assert _bits(got.coeffs) == _bits(want.coeffs)


def test_jet_products_match_validating_constructor():
    rng = random.Random(17)
    for _ in range(300):
        nvars = rng.choice((2, 4, 6))
        order = rng.randrange(5)
        a = _random_jet(rng, nvars, order)
        b = _random_jet(rng, nvars, rng.choice((order, order + 1)))
        for other in (b, a, _random_coeff(rng), 0.0, -1.0):
            got = a * other
            assert (got.nvars, got.order) == (nvars, order)
            assert _bits(got.coeffs) == _bits(_oracle_product(a, other))
        # a chain of products sees only product-built operands
        c = a * b * a
        assert _bits(c.coeffs) == \
            _bits(_oracle_product(Jet(nvars, order, _oracle_product(a, b)),
                                  a))


def _jet_of(nvars, order, coeffs):
    """A Jet holding exactly these coefficients, with no cleaning."""
    jet = object.__new__(Jet)
    jet.nvars, jet.order, jet.coeffs = nvars, order, dict(coeffs)
    return jet


def _oracle_constant(nvars, order, c):
    return _jet_of(nvars, order, _oracle_jet_coeffs(
        nvars, order, {(0,) * nvars: complex(c)}))


def _oracle_add(a, other):
    """Jet + Jet or Jet + scalar through the validating constructor."""
    if not isinstance(other, Jet):
        other = _oracle_constant(a.nvars, a.order, other)
    t = dict(a.coeffs)
    for e, c in other.coeffs.items():
        t[e] = t.get(e, 0.0) + c
    return _jet_of(a.nvars, a.order, _oracle_jet_coeffs(a.nvars, a.order, t))


def _oracle_neg(a):
    return _jet_of(a.nvars, a.order, _oracle_jet_coeffs(
        a.nvars, a.order, {e: -c for e, c in a.coeffs.items()}))


def _oracle_sub(a, other):
    if not isinstance(other, Jet):
        other = _oracle_constant(a.nvars, a.order, other)
    return _oracle_add(a, _oracle_neg(other))


def _same_jet(got, want):
    assert (got.nvars, got.order) == (want.nvars, want.order)
    assert _bits(got.coeffs) == _bits(want.coeffs)


def test_jet_sums_match_validating_constructor():
    rng = random.Random(23)
    for _ in range(300):
        nvars = rng.choice((2, 4, 6))
        order = rng.randrange(5)
        a = _random_jet(rng, nvars, order)
        # b of a higher order: its terms above a.order must be dropped
        b = _random_jet(rng, nvars, rng.choice((order, order + 1, order + 2)))
        for other in (b, a, -1.0 * a, _random_coeff(rng), 0.0, -0.0,
                      complex(-0.0, 1.0), 2):
            _same_jet(a + other, _oracle_add(a, other))
            _same_jet(a - other, _oracle_sub(a, other))
            if not isinstance(other, Jet):
                _same_jet(other + a, _oracle_add(a, other))
                _same_jet(other - a, _oracle_add(_oracle_neg(a), other))
        _same_jet(b + a, _oracle_add(b, a))
        _same_jet(-a, _oracle_neg(a))
        _same_jet(-(-a), _oracle_neg(_oracle_neg(a)))
        c = _random_coeff(rng)
        _same_jet(Jet.constant(nvars, order, c),
                  _oracle_constant(nvars, order, c))
        c0, rest = a._split_lead()
        assert _bits({0: c0}) == _bits({0: a.coeffs.get((0,) * nvars, 0.0)})
        _same_jet(rest, _jet_of(nvars, order, _oracle_jet_coeffs(
            nvars, order, {e: cf for e, cf in a.coeffs.items() if sum(e) > 0})))
        # a chain sees only operands that the fast paths built
        chain = (a + b) * a - (a - 1.0)
        want = _oracle_sub(_jet_of(nvars, order, _oracle_product(
            _oracle_add(a, b), a)), _oracle_sub(a, 1.0))
        _same_jet(chain, want)


# -- curvature_check evaluates every stencil point once ---------------------


@pytest.mark.parametrize("n, kwargs, most", [
    # distinct points per grid point; the stencils make 152, 425, 305,
    # 420, 1021 and 841 calls
    (1, {}, 81),
    (1, {"full_riemann": True}, 133),
    (1, {"diagnose_convergence": True}, 161),
    (2, {}, 217),
    (2, {"full_riemann": True}, 293),
    (2, {"diagnose_convergence": True}, 433),
])
def test_curvature_check_evaluates_each_point_once(monkeypatch, n, kwargs,
                                                   most):
    # every point handed to the batch evaluator, and every scalar call
    batched, scalar = [], []
    values, field = cone_metric._metric_values, cone_metric.metric_field

    def recording_values(chart, points):
        batched.extend(points)
        return values(chart, points)

    def recording_field(chart):
        g_at = field(chart)

        def recorded(z, xi):
            scalar.append((*map(complex, z), complex(xi)))
            return g_at(z, xi)

        return recorded

    monkeypatch.setattr(cone_metric, "_metric_values", recording_values)
    monkeypatch.setattr(cone_metric, "metric_field", recording_field)
    grid = [((0.05 + 0.1j,) * n, 0.9 + 0.2j), ((-0.1 + 0.02j,) * n, 1.1)]
    curvature_check(fubini_study_potential(n), 1, n + 1, grid=grid, **kwargs)
    points = [(*map(complex, p[:-1]), complex(p[-1])) for p in batched]
    points += scalar
    assert len(points) == len(set(points))
    assert len(points) <= most * len(grid)
    assert scalar == []                  # the batches served every point


@pytest.mark.parametrize("name", CURVATURE)
def test_batched_metric_values_are_the_scalar_ones(monkeypatch, name):
    # at every stencil point of the golden curvature checks, the batched
    # metric matrix has the bytes of the scalar metric_field
    values, compared = cone_metric._metric_values, []

    def compare(chart, points):
        batch = values(chart, points)
        g_at = metric_field(chart)
        for g, p in zip(batch, points, strict=True):
            assert g.tobytes() == g_at(p[:-1], p[-1]).tobytes(), p
        compared.append(len(points))
        return batch

    monkeypatch.setattr(cone_metric, "_metric_values", compare)
    CURVATURE[name][0]()
    assert len(compared) == 3            # one batch per default grid point


def _report_fields(rep):
    return (rep.max_riemann, rep.ricci_defect, rep.grid_points,
            rep.converged, rep.notes)


def _batched_and_scalar(monkeypatch, call):
    """(report, grid points that fell back, report with no batch at all)."""
    values = cone_metric._metric_values
    raised = []

    def watched(chart, points):
        try:
            return values(chart, points)
        except MixedZeros:
            raised.append(len(points))
            raise

    def scalar_only(chart, points):
        raise MixedZeros("batch path disabled")

    monkeypatch.setattr(cone_metric, "_metric_values", watched)
    rep = call()
    monkeypatch.setattr(cone_metric, "_metric_values", scalar_only)
    return rep, len(raised), call()


@pytest.mark.parametrize("kwargs", [{}, {"full_riemann": True},
                                    {"diagnose_convergence": True}])
def test_curvature_check_falls_back_where_zeros_differ(monkeypatch, kwargs):
    # at z = 0 the stencil points that move only xi keep z = 0, where the
    # d/dz coefficient of 1 + |z|^2 is exactly zero, and the others do not
    grid = [((0j,), 0.9 + 0.2j), ((0.05 + 0.1j,), 1.1)]
    rep, fell_back, want = _batched_and_scalar(
        monkeypatch, lambda: curvature_check(fubini_study_potential(1),
                                             Fraction(1, 2), 2, grid=grid,
                                             **kwargs))
    assert fell_back == 1
    # repr of a float round-trips, so equal reprs are equal bits
    assert repr(_report_fields(rep)) == repr(_report_fields(want))


@pytest.mark.parametrize("dimD", [1, 2])
def test_curvature_check_batches_a_jet_potential(monkeypatch, dimD):
    # a JetPotential re-expands its stored jet at the batched points
    chart = random_normalized_chart(random.Random(40 + dimD), dimD)
    rep, fell_back, want = _batched_and_scalar(
        monkeypatch, lambda: curvature_check(chart.potential, chart.delta,
                                             dimD + 1, full_riemann=True))
    assert fell_back == 0
    assert repr(_report_fields(rep)) == repr(_report_fields(want))


def test_curvature_check_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="at least one grid point"):
        curvature_check(fubini_study_potential(1), 1, 2, grid=[])


@pytest.mark.parametrize("k_range", [range(3, 4), range(3, 3), [3, 3]])
def test_scaling_slope_needs_two_points(k_range):
    ch = ConeChart(Fraction(1, 2), 1, (0,), 1.0, fubini_study_potential(1))
    with pytest.raises(ValueError, match="at least two distinct k"):
        empirical_scaling_slope(ch, "vh", k_range)


# -- metamorphic relation: symmetries of the Fubini-Study potential ---------

# the stated tolerances of test_curvature_flat_cone and
# test_curvature_einstein_proportionality
FLAT_TOL = 1e-6
EINSTEIN_TOL = 1e-5


def test_curvature_check_under_fubini_study_symmetries():
    # a = 1 + |z1|^2 + |z2|^2 and |xi| are invariant under swapping z1, z2
    # with phases and under xi -> e^(i phi) xi, so the flat and Einstein
    # identities must hold at a point and at its image alike
    rng = random.Random(9)
    pot = fubini_study_potential(2)
    for _ in range(2):
        z = tuple(complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
                  for _ in range(2))
        xi = complex(rng.uniform(0.7, 1.2), rng.uniform(-0.3, 0.3))
        phase = [cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                 for _ in range(3)]
        image = ((phase[0] * z[1], phase[1] * z[0]), phase[2] * xi)
        for point in ((z, xi), image):
            flat = curvature_check(pot, 1, 3, grid=[point],
                                   full_riemann=True)
            assert flat.ricci_defect < FLAT_TOL
            assert flat.max_riemann < FLAT_TOL
            einstein = curvature_check(pot, Fraction(1, 2), 3, grid=[point])
            assert einstein.ricci_defect < EINSTEIN_TOL
