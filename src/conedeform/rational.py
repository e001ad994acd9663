"""Exact Gaussian-rational arithmetic.

Rank computations over the two-chart Cech complex need an exact field
containing i; Q(i) is enough for every example handled here.  Plain
rationals stay `fractions.Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction


def power(base, k: int, one):
    """base ** k for an int k >= 0 by square-and-multiply, in any ring.

    `one` is the ring's 1 and is returned for k = 0; no product with it
    is ever formed, and the last square is skipped."""
    if k < 0:
        raise ValueError("negative exponent")
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return one if out is None else out


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, GaussianRational):
        raise TypeError("complex value where a rational was expected")
    return Fraction(x)


class GaussianRational:
    """Element a + b*i of Q(i) with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> "GaussianRational":
        """Trusted constructor: both parts are already Fractions."""
        g = object.__new__(GaussianRational)
        object.__setattr__(g, "re", re)
        object.__setattr__(g, "im", im)
        return g

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    @staticmethod
    def _try(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    # -- ring ops ---------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational._make(self.re + other.re,
                                          self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational._make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._make(-self.re, -self.im)

    def __sub__(self, other):
        o = GaussianRational._try(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = GaussianRational._try(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational._make(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return GaussianRational._make(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational._try(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = GaussianRational._try(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        return power(self, k, GaussianRational(1))

    # -- comparisons / hashing --------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    x = _frac(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def gaussian_sqrt(s: GaussianRational):
    """A square root of s inside Q(i), or None if no such root exists.

    Solving (x+iy)^2 = a+ib needs |s| = sqrt(a^2+b^2) rational and then
    x^2 = (a+|s|)/2 a rational square.
    """
    s = GaussianRational.coerce(s)
    a, b = s.re, s.im
    if b == 0:
        r = rational_sqrt(a)
        if r is not None:
            return GaussianRational(r, 0)
        r = rational_sqrt(-a)
        if r is not None:
            return GaussianRational(0, r)
        return None
    n = rational_sqrt(a * a + b * b)
    if n is None:
        return None
    x2 = (a + n) / 2
    x = rational_sqrt(x2)
    if x is None or x == 0:
        return None
    y = b / (2 * x)
    return GaussianRational(x, y)


I = GaussianRational(0, 1)
