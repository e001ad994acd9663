"""Laurent polynomials in one variable and truncated series in a normal
variable with Laurent coefficients.

Coefficients are duck-typed: exact scalars (Fraction, GaussianRational) or
parameter polynomials (Polynomial over GaussianRational) both work, since
all operations reduce to +, -, *, scalar division and == 0.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import power


def _inv_coeff(c):
    """1/c for an invertible scalar; constant parameter polynomials allowed."""
    if isinstance(c, int):
        return Fraction(1, c)
    from .poly import Polynomial
    if isinstance(c, Polynomial):
        if c.degree() > 0:
            raise ValueError("cannot invert a nonconstant parameter coefficient")
        return Polynomial.constant(c.nvars, 1) / c.constant_term()
    return 1 / c


class LaurentPoly:
    """Finite-support map exponent -> coefficient, exponents in Z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def monomial(e, c=1):
        if isinstance(c, int):
            c = Fraction(c)
        return LaurentPoly({e: c})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, e):
        return self.coeffs.get(e, 0)

    def support(self):
        return sorted(self.coeffs)

    def is_monomial(self):
        return len(self.coeffs) == 1

    def monomial_data(self):
        """(exponent, coefficient) of a single-term Laurent polynomial."""
        if not self.is_monomial():
            raise ValueError("not a monomial")
        [(e, c)] = self.coeffs.items()
        return e, c

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        t = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = t.get(e)
            t[e] = c if s is None else s + c
        return LaurentPoly(t)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            t = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    s = t.get(e)
                    t[e] = c1 * c2 if s is None else s + c1 * c2
            return LaurentPoly(t)
        return LaurentPoly({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, LaurentPoly.monomial(0))

    def shift(self, k):
        """Multiply by z^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def map_coeffs(self, fn):
        return LaurentPoly({e: fn(c) for e, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, z):
        total = 0
        for e, c in self.coeffs.items():
            total = total + c * z ** e if e >= 0 else total + c * (1 / z) ** (-e)
        return total

    def to_string(self, coeff_str=str):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs, reverse=True):
            body = coeff_str(self.coeffs[e])
            if e == 0:
                bits.append(body)
                continue
            mono = "z" if e == 1 else f"z^{e}"
            if any(s in body[1:] for s in "+-"):
                bits.append(f"({body})*{mono}")
            elif body == "1":
                bits.append(mono)
            elif body == "-1":
                bits.append(f"-{mono}")
            else:
                bits.append(f"{body}*{mono}")
        out = bits[0]
        for t in bits[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


class YSeries:
    """Power series sum_a c_a(z) y^a truncated at y^order, c_a Laurent."""

    __slots__ = ("order", "coeffs", "_taylor")

    def __init__(self, order, coeffs=None):
        self.order = order
        cs = list(coeffs or [])
        cs += [LaurentPoly.zero()] * (order + 1 - len(cs))
        self.coeffs = cs[: order + 1]
        self._taylor = None

    @staticmethod
    def zero(order):
        return YSeries(order)

    @staticmethod
    def const(order, L: LaurentPoly):
        return YSeries(order, [L])

    @staticmethod
    def identity_z(order):
        return YSeries(order, [LaurentPoly.monomial(1)])

    @staticmethod
    def identity_y(order):
        return YSeries(order, [LaurentPoly.zero(), LaurentPoly.monomial(0)])

    def __add__(self, other):
        return YSeries(self.order,
                       [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return YSeries(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, YSeries):
            out = [LaurentPoly.zero() for _ in range(self.order + 1)]
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    if i + j > self.order:
                        break
                    if b.is_zero():
                        continue
                    out[i + j] = out[i + j] + a * b
            return YSeries(self.order, out)
        return YSeries(self.order, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, YSeries.const(self.order, LaurentPoly.monomial(0)))

    def y_valuation(self):
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return self.order + 1

    def inverse(self):
        """Series inverse; the y^0 coefficient must be a Laurent monomial."""
        lead = self.coeffs[0]
        e, c = lead.monomial_data()
        inv_lead = LaurentPoly({-e: _inv_coeff(c)})
        w = self * inv_lead - YSeries.const(self.order, LaurentPoly.monomial(0))
        out = YSeries.zero(self.order)
        term = YSeries.const(self.order, LaurentPoly.monomial(0))
        for _ in range(self.order + 1):
            out = out + term
            term = term * (-w)
            if term.y_valuation() > self.order:
                break
        return out * inv_lead

    def _taylor_data(self):
        """(e, c_power, delta_powers) for this series written as
        c z^e + delta with delta = O(y): c_power(k) is c^k for any int k,
        and delta_powers[j] is delta^j for 1 <= j <= order.  Formed once per
        series and shared by every composition with it; 1/c is formed only
        when a negative power is asked for."""
        if self._taylor is None:
            e, c = self.coeffs[0].monomial_data()
            cpow = {1: c}

            def c_power(k):
                if k not in cpow:
                    if k == -1:
                        cpow[k] = _inv_coeff(c)
                    else:
                        step = 1 if k > 0 else -1
                        cpow[k] = c_power(k - step) * c_power(step)
                return cpow[k]
            delta = YSeries(self.order,
                            [LaurentPoly.zero()] + self.coeffs[1:])
            powers = [None, delta]
            for _ in range(2, self.order + 1):
                powers.append(powers[-1] * delta)
            self._taylor = (e, c_power, powers)
        return self._taylor

    def compose_laurent(self, L: LaurentPoly):
        """Evaluate a Laurent polynomial at this series by a Taylor shift.

        The series must be c z^e + delta with delta = O(y), and c must be
        invertible when L has a negative exponent.  Then
        L(c z^e + delta) = sum_j T_j delta^j, where T_j = L^(j)(c z^e) / j!
        = sum_n a_n C(n, j) c^(n - j) z^(e (n - j)) has no series product in
        it, and C(n, j) = (-1)^j C(j - n - 1, j) for n < 0 (Brent and Kung,
        J. ACM 25 (1978)).  The powers of delta come from _taylor_data."""
        K = self.order
        if L.is_zero():
            return YSeries.zero(K)
        e, c_power, powers = self._taylor_data()
        taylor = [{} for _ in range(K + 1)]
        for n, a in L.coeffs.items():
            b = 1                                   # C(n, j)
            for j in range(K + 1):
                if j:
                    b = b * (n - j + 1) // j
                    if not b:
                        break
                term = a if j == n else a * (c_power(n - j) * b)
                t, x = taylor[j], e * (n - j)
                s = t.get(x)
                t[x] = term if s is None else s + term
        out = [LaurentPoly(taylor[0])]
        for deg in range(1, K + 1):
            t = {}
            for j in range(1, deg + 1):
                for x1, c1 in taylor[j].items():
                    for x2, c2 in powers[j].coeffs[deg].coeffs.items():
                        x, term = x1 + x2, c1 * c2
                        s = t.get(x)
                        t[x] = term if s is None else s + term
            out.append(LaurentPoly(t))
        return YSeries(K, out)

    def substitute(self, z_series: "YSeries", y_series: "YSeries"):
        """Evaluate sum c_a(z) y^a at (z_series, y_series)."""
        out = YSeries.zero(self.order)
        ypow = YSeries.const(self.order, LaurentPoly.monomial(0))
        for a, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + z_series.compose_laurent(c) * ypow
            if a < self.order:
                ypow = ypow * y_series
        return out

    def map_coeffs(self, fn):
        return YSeries(self.order, [c.map_coeffs(fn) for c in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, YSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"YSeries(order={self.order}, coeffs={self.coeffs!r})"


def invert_chart_map(p: LaurentPoly, q: LaurentPoly, k: int, order: int):
    """Inverse of (z, y) -> (z + p(z) y^k, y + q(z) y^(k+1)) as series.

    Returns (Z, Y), series in the new chart variables, exact through the
    truncation order.  p and q must have nonnegative support (coordinate
    changes are analytic on the chart).
    """
    if any(e < 0 for e in p.coeffs) or any(e < 0 for e in q.coeffs):
        raise ValueError("coordinate changes must be polynomial on the chart")
    zh = YSeries.identity_z(order)
    yh = YSeries.identity_y(order)
    Z, Y = zh, yh
    for _ in range(order + 1):
        Zn = zh - Z.compose_laurent(p) * (Y ** k)
        Yn = yh - Z.compose_laurent(q) * (Y ** (k + 1))
        if Zn == Z and Yn == Y:
            break
        Z, Y = Zn, Yn
    return Z, Y
