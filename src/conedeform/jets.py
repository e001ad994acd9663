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
"""

from __future__ import annotations

import cmath
import math
from operator import add


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
        return Jet(nvars, order, {(0,) * nvars: complex(base), tuple(e): 1.0})

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
        """(c0 + u)^alpha via the binomial series; c0 must be nonzero."""
        c0, u = self._split_lead()
        if c0 == 0:
            raise ZeroDivisionError("jet has vanishing leading term")
        w = u * (1.0 / c0)
        out = Jet.constant(self.nvars, self.order, 1.0)
        term = Jet.constant(self.nvars, self.order, 1.0)
        for k in range(1, self.order + 1):
            term = term * w * ((alpha - k + 1) / k)
            out = out + term
        lead = complex(c0)
        if lead.imag == 0 and lead.real > 0:
            lead_pow = lead.real ** alpha
        else:
            lead_pow = cmath.exp(alpha * cmath.log(lead))
        return out * lead_pow

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
