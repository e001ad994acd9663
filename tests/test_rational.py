import random
from fractions import Fraction

import pytest

from conedeform.poly import Polynomial
from conedeform.rational import (GaussianRational, gaussian_sqrt, power,
                                  rational_sqrt)


def test_field_axioms_random():
    rng = random.Random(0)

    def rnd():
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 7)))

    for _ in range(50):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) * c == a * c + b * c
        if b:
            assert (a / b) * b == a
        assert a * b == b * a


def test_mixed_scalar_ops():
    i = GaussianRational(0, 1)
    assert 1 + i == GaussianRational(1, 1)
    assert (2 - i) * (2 + i) == 5
    assert i ** 2 == -1
    assert (1 / i) == -i
    assert Fraction(1, 2) * i == GaussianRational(0, Fraction(1, 2))


def test_equality_and_hash():
    assert GaussianRational(3) == 3
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(GaussianRational(3)) == hash(Fraction(3))
    assert GaussianRational(1, 1) != 1


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(-1)) is None


def test_gaussian_sqrt_roundtrip():
    rng = random.Random(1)
    for _ in range(40):
        x = GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                             Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
        s = x * x
        r = gaussian_sqrt(s)
        assert r is not None
        assert r * r == s


def test_gaussian_sqrt_nonsquare():
    assert gaussian_sqrt(GaussianRational(2)) is None
    assert gaussian_sqrt(GaussianRational(-4)) == GaussianRational(0, 2)
    assert gaussian_sqrt(GaussianRational(0, 2)) == GaussianRational(1, 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_power_is_repeated_multiplication():
    """power(base, k, one) equals k - 1 products of base for k >= 1 and
    is `one` at k = 0, in Q(i) and in a polynomial ring."""
    x = GaussianRational(Fraction(2, 3), -1)
    p = Polynomial(2, {(1, 0): 1, (0, 1): GaussianRational(0, 1)})
    for base, one in ((x, GaussianRational(1)), (p, Polynomial.constant(2, 1))):
        acc = one
        for k in range(0, 12):
            assert power(base, k, one) == acc
            acc = acc * base
    assert power(x, 0, "one") == "one"
    assert x ** -3 * x ** 3 == 1
    with pytest.raises(ValueError):
        power(x, -1, GaussianRational(1))
