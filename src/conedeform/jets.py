"""Truncated Taylor (Wirtinger-jet) arithmetic with complex coefficients.

A Jet stores the Taylor coefficients of a smooth function in the shift
variables around a point, truncated at a total order.  Mixed partial
derivatives are coefficients times factorials.  Used to evaluate
Calabi-ansatz metric data exactly (up to float rounding) at a point.

Index convention: the nvars variables come in holomorphic/antiholomorphic
pairs, variable i < nvars/2 is the holomorphic shift dw_i and variable
nvars/2 + i its conjugate dwbar_i.  wirtinger_exponent builds the exponent
of d_hol dbar_anti in this layout, conjugate_exponent swaps the halves.
The arithmetic itself does not depend on the convention.

A coefficient may also be a Batch: P complex numbers, one per point, held
as split float64 arrays.  Its + - * and ** int repeat CPython's complex
arithmetic point by point, bit for bit (a NaN is a NaN, of either sign):
an int, float or Fraction operand is promoted to (x, 0.0), a product is
(ar br - ai bi, ar bi + ai br), and ** k replays CPython's
square-and-multiply from 1 + 0j.  Division and everything else runs
through the scalar code at each point (pointwise).  So Jet.power_real
and Polynomial.evaluate evaluate a jet at P points at once, each point
bitwise as alone.  A Jet drops zero coefficients, and the order of its
sums follows which ones it keeps; a Batch compared with a number is True
or False only when every point agrees, and otherwise raises MixedZeros,
since its points would keep different terms.
"""

from __future__ import annotations

import cmath
import math
import numbers
from operator import add

import numpy as np


def wirtinger_exponent(nvars, hol=(), anti=()):
    """Exponent of d_hol dbar_anti: one d/dw_i per i in hol, one d/dwbar_j
    per j in anti (indices repeat for higher derivatives)."""
    half = nvars // 2
    e = [0] * nvars
    for i in hol:
        e[i] += 1
    for j in anti:
        e[half + j] += 1
    return tuple(e)


def conjugate_exponent(e):
    """The exponent of the complex-conjugate monomial: halves swapped."""
    half = len(e) // 2
    return tuple(e[half:]) + tuple(e[:half])


class MixedZeros(ArithmeticError):
    """A Batch compared with a number where its points disagree."""


def _parts(x):
    """(real, imag) of a Batch, or of a number promoted as CPython's complex
    arithmetic promotes it; None for anything else."""
    if isinstance(x, Batch):
        return x.real, x.imag
    if isinstance(x, numbers.Number):
        x = complex(x)
        return x.real, x.imag
    return None


def _product(ar, ai, br, bi):
    """CPython's complex product, on parts that are arrays or floats."""
    return Batch(ar * br - ai * bi, ar * bi + ai * br)


class Batch:
    """P complex numbers as split float64 arrays (see the module
    docstring); an operand of another type gives NotImplemented."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    @staticmethod
    def of(values):
        """The Batch of `values`, each converted by complex()."""
        values = [complex(v) for v in values]
        return Batch(np.array([v.real for v in values]),
                     np.array([v.imag for v in values]))

    def points(self):
        """The P complex numbers, bitwise."""
        return list(map(complex, self.real.tolist(), self.imag.tolist()))

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return Batch(self.real + o[0], self.imag + o[1])

    def __radd__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return Batch(o[0] + self.real, o[1] + self.imag)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return Batch(self.real - o[0], self.imag - o[1])

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return Batch(o[0] - self.real, o[1] - self.imag)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(self.real, self.imag, *o)

    def __rmul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(*o, self.real, self.imag)

    def __neg__(self):
        return Batch(-self.real, -self.imag)

    def conjugate(self):
        return Batch(self.real, -self.imag)

    def __rtruediv__(self, other):
        return pointwise(lambda v: other / v, self)

    def __pow__(self, k):
        """CPython's complex ** k.  For 1 <= k <= 100 its c_powu: r = 1 + 0j,
        then r * p for each set bit of k from the lowest, p squared in
        between, and OverflowError if a part of the result is infinite."""
        if not (isinstance(k, int) and 1 <= k <= 100):
            return pointwise(lambda v: v ** k, self)
        r, p, mask = 1 + 0j, self, 1
        while mask <= k:
            if k & mask:
                r = r * p
            mask <<= 1
            if mask <= k:
                p = p * p
        if np.isinf(r.real).any() or np.isinf(r.imag).any():
            raise OverflowError("complex exponentiation")
        return r

    def __ne__(self, other):
        """True or False when every point agrees, else MixedZeros."""
        o = _parts(other)
        if o is None:
            return NotImplemented
        ne = (self.real != o[0]) | (self.imag != o[1])
        if ne.all():
            return True
        if not ne.any():
            return False
        raise MixedZeros("a batched value equals a number at some of its "
                         "points only")

    def __eq__(self, other):
        ne = self.__ne__(other)
        return ne if ne is NotImplemented else not ne


def pointwise(f, x):
    """f(x); for a Batch x, the Batch of f at each of its points."""
    if isinstance(x, Batch):
        return Batch.of([f(v) for v in x.points()])
    return f(x)


def as_coeff(x):
    """x as a jet coefficient: a Batch as it is, a number as complex."""
    return x if isinstance(x, Batch) else complex(x)


def _lead_power(c0, alpha):
    """c0 ** alpha for a scalar c0, real when c0 is real and positive."""
    lead = complex(c0)
    if lead.imag == 0 and lead.real > 0:
        return lead.real ** alpha
    return cmath.exp(alpha * cmath.log(lead))


class Jet:
    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs=None):
        self.nvars = nvars
        self.order = order
        self.coeffs = {}
        for e, c in (coeffs or {}).items():
            if c != 0 and sum(e) <= order:
                self.coeffs[tuple(e)] = self.coeffs.get(tuple(e), 0.0) + c

    @staticmethod
    def _trusted(nvars, order, coeffs):
        """A jet from a dict that is already clean: tuple exponents of total
        degree <= order, each once, every value already accumulated onto
        0.0.  Only zero coefficients are dropped."""
        jet = object.__new__(Jet)
        jet.nvars = nvars
        jet.order = order
        jet.coeffs = {e: c for e, c in coeffs.items() if c != 0}
        return jet

    @staticmethod
    def constant(nvars, order, c):
        return Jet._trusted(nvars, order, {(0,) * nvars: 0.0 + complex(c)})

    @staticmethod
    def variable(nvars, order, i, base=0.0):
        e = [0] * nvars
        e[i] = 1
        return Jet(nvars, order, {(0,) * nvars: as_coeff(base), tuple(e): 1.0})

    def __add__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.nvars, self.order, other)
        # stored values are nonzero and have no -0.0 part, so neither has
        # a sum of two of them: adding it onto 0.0 again would change nothing
        t = dict(self.coeffs)
        for e, c in other.coeffs.items():
            t[e] = t.get(e, 0.0) + c
        if other.order > self.order:
            t = {e: c for e, c in t.items() if sum(e) <= self.order}
        return Jet._trusted(self.nvars, self.order, t)

    __radd__ = __add__

    def __neg__(self):
        # onto 0.0: a negated part that was 0.0 is -0.0
        return Jet._trusted(self.nvars, self.order,
                            {e: 0.0 + -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Jet):
            other = Jet.constant(self.nvars, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            # onto 0.0 as the validating constructor does: it clears the
            # sign of a zero part
            return Jet._trusted(self.nvars, self.order,
                                {e: 0.0 + c * other
                                 for e, c in self.coeffs.items()})
        order = self.order
        right = [(e2, sum(e2), c2) for e2, c2 in other.coeffs.items()]
        t = {}
        for e1, c1 in self.coeffs.items():
            room = order - sum(e1)
            for e2, d2, c2 in right:
                if d2 > room:
                    continue
                e = tuple(map(add, e1, e2))
                t[e] = t.get(e, 0.0) + c1 * c2
        return Jet._trusted(self.nvars, order, t)

    __rmul__ = __mul__

    def value(self):
        return self.coeffs.get((0,) * self.nvars, 0.0)

    def _split_lead(self):
        c0 = self.value()
        rest = Jet._trusted(self.nvars, self.order,
                            {e: c for e, c in self.coeffs.items() if sum(e) > 0})
        return c0, rest

    def power_real(self, alpha: float):
        """(c0 + u)^alpha via the binomial series; c0 must be nonzero.
        The coefficients may be Batches (see the module docstring)."""
        c0, u = self._split_lead()
        if c0 == 0:
            raise ZeroDivisionError("jet has vanishing leading term")
        w = u * (1.0 / c0)
        out = Jet.constant(self.nvars, self.order, 1.0)
        term = Jet.constant(self.nvars, self.order, 1.0)
        for k in range(1, self.order + 1):
            term = term * w * ((alpha - k + 1) / k)
            out = out + term
        return out * pointwise(lambda c: _lead_power(c, alpha), c0)

    def log(self):
        c0, u = self._split_lead()
        w = u * (1.0 / c0)
        lead = complex(c0)
        if lead.imag == 0 and lead.real > 0:
            base = math.log(lead.real)
        else:
            base = cmath.log(lead)
        out = Jet.constant(self.nvars, self.order, base)
        term = Jet.constant(self.nvars, self.order, 1.0)
        for k in range(1, self.order + 1):
            term = term * w
            out = out + term * ((-1.0) ** (k + 1) / k)
        return out

    def inverse(self):
        return self.power_real(-1.0)

    def conjugate(self):
        """Jet of the complex-conjugate function (see conjugate_exponent)."""
        return Jet(self.nvars, self.order,
                   {conjugate_exponent(e): c.conjugate()
                    for e, c in self.coeffs.items()})

    def exp(self):
        """e^(c0 + u) = e^c0 (1 + u + u^2/2 + ...) via the power series."""
        c0, u = self._split_lead()
        out = Jet.constant(self.nvars, self.order, 1.0)
        term = Jet.constant(self.nvars, self.order, 1.0)
        for k in range(1, self.order + 1):
            term = term * u * (1.0 / k)
            out = out + term
        return out * cmath.exp(complex(c0))

    def partial(self, exponents):
        """Mixed partial derivative value at the base point."""
        e = tuple(exponents)
        c = self.coeffs.get(e, 0.0)
        scale = 1.0
        for k in e:
            scale *= math.factorial(k)
        return c * scale

    def wirtinger(self, hol=(), anti=()):
        """d_hol dbar_anti at the base point (see wirtinger_exponent)."""
        return self.partial(wirtinger_exponent(self.nvars, hol, anti))

    def subst(self, mapping):
        """Substitute variable i by the jet mapping[i] (zero constant term
        not required, but orders must match)."""
        out = Jet.constant(self.nvars, self.order, 0.0)
        pows = {}
        for i, m in mapping.items():
            p = [Jet.constant(self.nvars, self.order, 1.0)]
            for _ in range(self.order):
                p.append(p[-1] * m)
            pows[i] = p
        for e, c in self.coeffs.items():
            term = Jet.constant(self.nvars, self.order, c)
            for i, k in enumerate(e):
                if k:
                    term = term * pows[i][k]
            out = out + term
        return out

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, nterms={len(self.coeffs)})"
