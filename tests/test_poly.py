import math
import random
from fractions import Fraction

import pytest

from conedeform.poly import (Polynomial, degrevlex_key, format_poly,
                             monomials_of_degree)


def test_basic_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert (x * y).coefficient((1, 1)) == 1


def test_zero_coefficients_dropped():
    x = Polynomial.variable(1, 0)
    p = x - x
    assert p.terms == {}
    q = Polynomial(1, {(1,): Fraction(1), (0,): Fraction(0)})
    assert (0,) not in q.terms


def test_homogeneous_parts():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 + x * y + y + 3
    parts = p.homogeneous_parts()
    assert set(parts) == {0, 1, 2}
    assert parts[2] == x ** 2 + x * y
    assert p.homogeneous_part(1) == y
    assert not p.is_homogeneous()
    assert (x ** 2).is_homogeneous(2)


def test_derivative_and_eval():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 3 * y + 2 * y ** 2
    assert p.derivative(0) == 3 * x ** 2 * y
    assert p.derivative(1) == x ** 3 + 4 * y
    assert p.evaluate([Fraction(2), Fraction(3)]) == 24 + 18


def test_substitute():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 + y
    q = p.substitute({0: y, 1: x})
    assert q == y ** 2 + x
    r = p.substitute({0: Polynomial.constant(2, Fraction(1, 2)), 1: y})
    assert r == Polynomial.constant(2, Fraction(1, 4)) + y


def test_monomial_enumeration():
    mons = monomials_of_degree(3, 2)
    assert len(mons) == math.comb(3 + 2 - 1, 2) == 6
    assert len(set(mons)) == 6
    # degrevlex: all degree-2 in 3 vars, z1^2 first, z3^2 last
    assert mons[0] == (2, 0, 0)
    assert mons[-1] == (0, 0, 2)
    assert sorted(mons, key=degrevlex_key) == mons
    assert monomials_of_degree(4, -1) == []


def test_format():
    z1 = Polynomial.variable(3, 0)
    z3 = Polynomial.variable(3, 2)
    p = z1 ** 3 + Fraction(1, 2) * z1 * z3 - 2 * z3 ** 2
    s = format_poly(p)
    assert s == "z1^3+1/2*z1*z3-2*z3^2"
    assert format_poly(Polynomial.zero(2)) == "0"


def test_exponent_validation():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): 1})
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): 0.5})


def test_random_ring_axioms():
    rng = random.Random(9)

    def rnd():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(2))
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Polynomial(2, terms)

    for _ in range(40):
        a, b, c = rnd(), rnd(), rnd()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def _eq_via_constant(p, c):
    """The earlier Polynomial == scalar: compare with the constant
    polynomial c, built."""
    return p == Polynomial.constant(p.nvars, c)


def test_scalar_equality_matches_constant_polynomial():
    """p == c reads p's terms; it agrees with comparing against the built
    constant polynomial for 0, ints, Fractions and Gaussian rationals,
    both ways round."""
    from conedeform.rational import GaussianRational as GR
    rng = random.Random(19)
    x = Polynomial.variable(3, 0)
    scalars = [0, 1, -2, Fraction(0), Fraction(3, 2), Fraction(-1, 3),
               GR(0), GR(2), GR(Fraction(1, 2), 1), GR(0, -1), True]
    polys = [Polynomial.zero(3), x, x + 2, x * 0 + 1,
             Polynomial.constant(3, GR(2)), Polynomial.constant(3, 2),
             Polynomial.constant(3, GR(0, -1)), Polynomial.constant(3, 1)]
    for _ in range(20):
        c = rng.choice(scalars)
        polys.append(Polynomial.constant(3, c) + rng.choice([x * 0, x]))
    hits = 0
    for p in polys:
        for c in scalars:
            assert (p == c) is _eq_via_constant(p, c)
            assert (c == p) is _eq_via_constant(p, c)
            assert (p != c) is not _eq_via_constant(p, c)
            hits += p == c
    assert 0 < hits < len(polys) * len(scalars)
