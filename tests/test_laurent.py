import random
from fractions import Fraction

import pytest

from conedeform.laurent import LaurentPoly, YSeries, invert_chart_map
from conedeform.poly import Polynomial
from conedeform.rational import GaussianRational


def _rand_laurent(rng, lo=-4, hi=4, terms=3):
    c = {}
    for _ in range(terms):
        c[rng.randint(lo, hi)] = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2)))
    return LaurentPoly(c)


def test_laurent_ring_ops():
    rng = random.Random(1)
    for _ in range(30):
        a, b, c = (_rand_laurent(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
    z = LaurentPoly.monomial(1)
    zi = LaurentPoly.monomial(-1)
    assert z * zi == LaurentPoly.monomial(0)


def test_laurent_shift_and_monomial_data():
    p = LaurentPoly({-2: Fraction(3), 1: Fraction(1)})
    assert p.shift(2).coefficient(0) == 3
    m = LaurentPoly.monomial(-4, Fraction(2, 3))
    assert m.monomial_data() == (-4, Fraction(2, 3))
    with pytest.raises(ValueError):
        p.monomial_data()


def test_yseries_mul_and_truncation():
    one = LaurentPoly.monomial(0)
    S = YSeries(3, [one, one])           # 1 + y
    P = S * S * S                        # (1+y)^3 truncated at y^3
    assert [c.coefficient(0) for c in P.coeffs] == [1, 3, 3, 1]
    Q = S ** 5
    assert Q.coeffs[3].coefficient(0) == 10   # C(5,3)


def test_yseries_inverse():
    rng = random.Random(2)
    K = 5
    for _ in range(10):
        lead = LaurentPoly.monomial(rng.randint(-2, 2),
                                    GaussianRational(Fraction(rng.choice([1, 2, -1, 3]))))
        coeffs = [lead] + [_rand_laurent(rng, -2, 2, 2) for _ in range(K)]
        S = YSeries(K, coeffs)
        assert S * S.inverse() == YSeries.const(K, LaurentPoly.monomial(0))


def test_compose_laurent_on_identity():
    K = 4
    Z = YSeries.identity_z(K)
    L = LaurentPoly({-2: Fraction(3), 0: Fraction(1), 2: Fraction(-1)})
    out = Z.compose_laurent(L)
    assert out.coeffs[0] == L


def test_substitute_identity():
    rng = random.Random(3)
    K = 4
    coeffs = [LaurentPoly.zero()] + [_rand_laurent(rng) for _ in range(K)]
    S = YSeries(K, coeffs)
    assert S.substitute(YSeries.identity_z(K), YSeries.identity_y(K)) == S


def test_invert_chart_map_roundtrip():
    """Forward-composing the inverse must give the identity."""
    rng = random.Random(4)
    K = 5
    for _ in range(6):
        p = LaurentPoly({0: GaussianRational(Fraction(rng.randint(-2, 2))),
                         1: GaussianRational(Fraction(rng.randint(-2, 2)))})
        q = LaurentPoly({0: GaussianRational(Fraction(rng.randint(-2, 2)))})
        k = rng.randint(1, 2)
        Z, Y = invert_chart_map(p, q, k, K)
        # forward map applied to (Z, Y): z + p(z) y^k, y + q(z) y^(k+1)
        zf = Z + Z.compose_laurent(p) * (Y ** k)
        yf = Y + Z.compose_laurent(q) * (Y ** (k + 1))
        assert zf == YSeries.identity_z(K)
        assert yf == YSeries.identity_y(K)


def test_invert_chart_map_rejects_negative_support():
    with pytest.raises(ValueError):
        invert_chart_map(LaurentPoly.monomial(-1), LaurentPoly.zero(), 1, 3)


def _binary_power(S, k):
    out = YSeries.const(S.order, LaurentPoly.monomial(0))
    base = S
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _compose_per_exponent(S, L):
    """The oracle: one binary power of the series, or of its inverse, for
    each exponent of L separately."""
    pos = {e: c for e, c in L.coeffs.items() if e > 0}
    neg = {e: c for e, c in L.coeffs.items() if e < 0}
    out = YSeries.const(S.order, LaurentPoly.monomial(0, L.coefficient(0))) \
        if L.coefficient(0) != 0 else YSeries.zero(S.order)
    for e in sorted(pos):
        out = out + _binary_power(S, e) * LaurentPoly.monomial(0, pos[e])
    if neg:
        inv = S.inverse()
        for e in sorted(neg, reverse=True):
            out = out + _binary_power(inv, -e) * LaurentPoly.monomial(0, neg[e])
    return out


def _rand_param_poly(rng, nvars=2):
    """A parameter polynomial over Q(i) of degree <= 2 in nvars parameters."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 1) for _ in range(nvars))
        terms[e] = GaussianRational(Fraction(rng.randint(-3, 3),
                                             rng.randint(1, 2)),
                                    rng.randint(-1, 1))
    return Polynomial(nvars, terms)


@pytest.mark.parametrize("params", [False, True])
def test_compose_laurent_matches_per_exponent_powers(params):
    """The power ladder equals one binary power per exponent: negative,
    zero and positive exponents, sparse and consecutive, with scalar and
    parameter-polynomial coefficients."""
    rng = random.Random(5 + params)
    K = 3
    if params:
        coeff = lambda: _rand_param_poly(rng)
        unit = lambda c: Polynomial.constant(2, GaussianRational(c))
    else:
        coeff = lambda: GaussianRational(Fraction(rng.randint(-5, 5),
                                                  rng.randint(1, 3)),
                                         rng.randint(-2, 2))
        unit = GaussianRational
    for trial in range(12):
        lead = LaurentPoly.monomial(rng.randint(-2, 2),
                                    unit(rng.choice([1, 2, -1, 3])))
        rest = [LaurentPoly({rng.randint(-2, 2): coeff()
                             for _ in range(rng.randint(0, 2))})
                for _ in range(K)]
        S = YSeries(K, [lead] + rest)
        exps = {rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
        if trial % 3 == 0:
            exps |= {0, -1, 1}
        L = LaurentPoly({e: coeff() for e in exps})
        assert S.compose_laurent(L) == _compose_per_exponent(S, L)
    assert S.compose_laurent(LaurentPoly.zero()) == YSeries.zero(K)


def _compose_ladder(S, L):
    """The earlier compose_laurent, kept as an oracle for the Taylor shift:
    one power ladder per sign of exponent, each power of the series (or of
    its inverse) the previous one times the power of the exponent gap."""
    from conedeform.rational import power
    one = YSeries.const(S.order, LaurentPoly.monomial(0))
    out = YSeries.const(S.order, LaurentPoly.monomial(0, L.coefficient(0)))
    for sign in (1, -1):
        exps = sorted(sign * e for e in L.coeffs if sign * e > 0)
        if not exps:
            continue
        base = S if sign > 0 else S.inverse()
        acc, prev = None, 0
        for e in exps:
            step = power(base, e - prev, one)
            acc = step if acc is None else acc * step
            prev = e
            out = out + acc * LaurentPoly.monomial(0, L.coeffs[sign * e])
    return out


def _typed(S):
    """A series spelled out with each coefficient's type, in exponent
    order, so that equal values of different types compare unequal."""
    def scalar(c):
        return type(c).__name__, c

    def coeff(c):
        if isinstance(c, Polynomial):
            return "P", sorted((e, scalar(x)) for e, x in c.terms.items())
        return scalar(c)
    return [sorted((e, coeff(c)) for e, c in L.coeffs.items())
            for L in S.coeffs]


@pytest.mark.parametrize("kind", ["fraction", "gaussian", "params"])
def test_taylor_shift_matches_power_ladder(kind):
    """The Taylor-shift composition gives the earlier ladder's values and
    coefficient types, and the per-exponent oracle's values, for leads
    c z^e with e of either sign or zero and orders 1 to 4."""
    rng = random.Random({"fraction": 11, "gaussian": 12, "params": 13}[kind])

    def scalar():
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return c if kind == "fraction" else GaussianRational(
            c, rng.randint(-2, 2))
    if kind == "params":
        coeff = lambda: _rand_param_poly(rng)
        unit = lambda: Polynomial.constant(2, GaussianRational(
            rng.choice([1, 2, -1, 3]), rng.choice([0, 0, 1])))
    else:
        coeff = scalar
        unit = lambda: scalar() or Fraction(1)
    for trial in range(16):
        K = 1 + trial % 4
        lead = LaurentPoly.monomial(rng.randint(-2, 2), unit())
        rest = [LaurentPoly({rng.randint(-3, 2): coeff()
                             for _ in range(rng.randint(0, 3))})
                for _ in range(K)]
        S = YSeries(K, [lead] + rest)
        exps = {rng.randint(-5, 5) for _ in range(rng.randint(1, 5))}
        L = LaurentPoly({e: coeff() for e in exps})
        got = S.compose_laurent(L)
        assert _typed(got) == _typed(_compose_ladder(S, L))
        assert got == _compose_per_exponent(S, L)
        # a second composition with the same series reuses its delta powers
        L2 = L * LaurentPoly.monomial(1, coeff()) + L
        assert _typed(S.compose_laurent(L2)) == _typed(_compose_ladder(S, L2))


def test_compose_laurent_needs_a_monomial_lead():
    one = LaurentPoly.monomial(0)
    S = YSeries(2, [one + LaurentPoly.monomial(1), one])
    with pytest.raises(ValueError, match="not a monomial"):
        S.compose_laurent(LaurentPoly.monomial(2))


def test_compose_laurent_inverts_the_lead_only_for_negative_exponents():
    """A lead c z^e whose c is a nonconstant parameter polynomial composes
    with any L of nonnegative support, as the power ladder did; a negative
    exponent of L still needs 1/c."""
    a1 = Polynomial.variable(2, 0)
    c = a1 + Polynomial.constant(2, GaussianRational(2))
    for e in (-1, 0, 1):
        S = YSeries(2, [LaurentPoly.monomial(e, c),
                        LaurentPoly.monomial(1, Polynomial.variable(2, 1)),
                        LaurentPoly.monomial(0, a1)])
        L = LaurentPoly({0: a1, 1: c, 3: Polynomial.constant(
            2, GaussianRational(1, 1))})
        assert _typed(S.compose_laurent(L)) == _typed(_compose_ladder(S, L))
        with pytest.raises(ValueError, match="nonconstant"):
            S.compose_laurent(LaurentPoly.monomial(-1, a1))
