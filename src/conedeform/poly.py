"""Sparse multivariate polynomials with exact coefficients.

Exponent vectors are tuples of nonnegative ints, all of one length; the
coefficient field is Fraction or GaussianRational (ints are coerced to
Fraction).  Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .rational import GaussianRational, power


def _coeff(x):
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"unsupported coefficient type {type(x).__name__}")


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        clean = {}
        for e, c in (terms or {}).items():
            c = _coeff(c)
            if c == 0:
                continue
            e = tuple(int(k) for k in e)
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent vector {e} for {nvars} variables")
            clean[e] = clean.get(e, Fraction(0)) + c
        self.nvars = nvars
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @staticmethod
    def _raw(nvars, terms):
        """Trusted constructor: exponents are already tuples of nvars
        nonnegative ints and coefficients Fraction or GaussianRational;
        only the zero coefficients are dropped."""
        p = object.__new__(Polynomial)
        p.nvars = nvars
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(nvars):
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars, c):
        return Polynomial(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars, i):
        e = [0] * nvars
        e[i] = 1
        return Polynomial(nvars, {tuple(e): 1})

    @staticmethod
    def monomial(nvars, exponents):
        return Polynomial(nvars, {tuple(exponents): 1})

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, d=None):
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def homogeneous_part(self, d):
        return Polynomial(self.nvars,
                          {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_parts(self):
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {d: Polynomial(self.nvars, t) for d, t in sorted(out.items())}

    # -- arithmetic ----------------------------------------------------------
    def _as_poly(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other):
        o = self._as_poly(other)
        t = dict(self.terms)
        for e, c in o.terms.items():
            s = t.get(e)
            t[e] = c if s is None else s + c
        return Polynomial._raw(self.nvars, t)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.nvars,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __rsub__(self, other):
        return self._as_poly(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _coeff(other)
            return Polynomial._raw(self.nvars,
                                   {e: k * c for e, k in self.terms.items()})
        o = self._as_poly(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e)
                t[e] = c1 * c2 if s is None else s + c1 * c2
        return Polynomial._raw(self.nvars, t)

    __rmul__ = __mul__

    def __truediv__(self, c):
        c = _coeff(c)
        return Polynomial(self.nvars, {e: k / c for e, k in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, Polynomial.constant(self.nvars, 1))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            # the constant polynomial other, without building it
            if not other:
                return not self.terms
            return (len(self.terms) == 1
                    and self.terms.get((0,) * self.nvars) == other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus / evaluation ------------------------------------------------
    def derivative(self, i):
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            t[tuple(e2)] = c * e[i]
        return Polynomial(self.nvars, t)

    def evaluate(self, values):
        """Evaluate at a point; works for exact and float/complex inputs."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            total = total + term
        return total

    def substitute(self, substitutions):
        """Replace variable i by the Polynomial substitutions[i], from a
        list or a dict with a key for every variable."""
        subs = [substitutions[i] for i in range(self.nvars)]
        out = Polynomial.zero(self.nvars)
        for e, c in self.terms.items():
            term = Polynomial.constant(self.nvars, c)
            for i, k in enumerate(e):
                if k:
                    term = term * subs[i] ** k
            out = out + term
        return out

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), Fraction(0))

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # -- printing --------------------------------------------------------------
    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.terms!r})"


def degrevlex_key(e):
    """Sort key: graded reverse lexicographic, largest monomial first."""
    return (-sum(e), tuple(reversed(e)))


def monomials_of_degree(nvars, d):
    """All exponent vectors of total degree d, in degrevlex order."""
    if d < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(key=degrevlex_key)
    return out


def format_poly(p: Polynomial, names=None) -> str:
    """Render in the input-file grammar, e.g. ``z1^3+1/2*z1*z2-z3^2``."""
    if p.is_zero():
        return "0"
    if names is None:
        names = [f"z{i + 1}" for i in range(p.nvars)]
    items = sorted(p.terms.items(), key=lambda ec: degrevlex_key(ec[0]))
    chunks = []
    for e, c in items:
        mono = "*".join(
            names[i] if k == 1 else f"{names[i]}^{k}"
            for i, k in enumerate(e) if k > 0
        )
        neg = False
        if isinstance(c, GaussianRational):
            body = str(c)
        else:
            neg = c < 0
            body = str(abs(c))
        if not mono:
            text = body
        elif body == "1":
            text = mono
        else:
            text = f"{body}*{mono}"
        if not chunks:
            chunks.append(("-" if neg else "") + text)
        else:
            chunks.append(("-" if neg else "+") + text)
    return "".join(chunks)
