"""Two-chart Cech obstruction calculus on P^1.

A neighborhood of a curve in a surface is described by its transition on
the standard two-chart cover: with chart-1 coordinates (z, y), y cutting
the curve,

    y2 = c1(z) y + c2(z) y^2 + ...        c1 = gamma * z^(-d), d = deg N,
    z2 = phi0(z) + phi1(z) y + ...        phi0 = gamma0 / z.

Obstruction classes live in H^1 of twisted line bundles on P^1, computed
on this cover: a cochain is a Laurent polynomial f(z), the coboundaries
for twist m are a(z) + z^m b(1/z), so the class of f is its coefficient
vector over the forbidden exponent window (m, 0).

Normalization kills the offending series coefficients order by order with
chart-polynomial coordinate changes.  The kernels of those solves carry
the lifting parameters; they are tracked symbolically as polynomials over
Q(i) in up to PARAM_BUDGET parameters, and vanishing loci of later
obstructions are solved exactly (affine systems, univariate quadratics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .laurent import LaurentPoly, YSeries, _inv_coeff, invert_chart_map
from .poly import Polynomial
from .rational import GaussianRational, gaussian_sqrt
from .reports import Refusal

PARAM_BUDGET = 8
PARAM_NAMES = [f"a{i + 1}" for i in range(PARAM_BUDGET)]


class NotNormalizedError(Refusal, RuntimeError):
    pass


class TruncationExhaustedError(Refusal, RuntimeError):
    pass


class ParameterBudgetExhaustedError(Refusal, RuntimeError):
    """The lifting families need more than PARAM_BUDGET parameters."""


# ---------------------------------------------------------------------------
# windows and classes


@dataclass(frozen=True)
class CoboundaryWindow:
    """Exponent window of H^1(P^1, O(m)) on the two-chart cover.

    Coboundaries are a(z) + z^m b(1/z); the exponents in (m, 0) are not
    reachable, and dim H^1 = max(0, -m-1).
    """

    twist: int

    @property
    def forbidden_exponents(self):
        if self.twist >= -1:
            return []
        return list(range(-1, self.twist, -1))

    def dimension(self):
        return max(0, -self.twist - 1)


def h1_class(f: LaurentPoly, window: CoboundaryWindow):
    """Class of f in the twisted two-chart H^1: coefficients over the
    forbidden window, ordered -1, -2, ..., m+1."""
    return [f.coefficient(e) for e in window.forbidden_exponents]


# ---------------------------------------------------------------------------
# transitions


def _is_param_poly(c):
    return isinstance(c, Polynomial)


def _base_value(c) -> GaussianRational:
    """Q(i) value of a coefficient (plain or parameter-poly) with every
    lifting parameter at 0."""
    if _is_param_poly(c):
        c = c.constant_term()
    return GaussianRational.coerce(c)


def _const_of(c):
    """Scalar value of a constant coefficient (plain or parameter-poly)."""
    if _is_param_poly(c) and c.degree() > 0:
        raise ValueError("coefficient depends on lifting parameters")
    return _base_value(c)


class TruncatedTransition:
    """Two-chart transition germ, truncated at a fixed order in y."""

    def __init__(self, series_y: YSeries, series_z: YSeries):
        if series_y.order != series_z.order:
            raise ValueError("series orders differ")
        if not series_y.coeffs[0].is_zero():
            raise ValueError("transition must preserve the curve (c0 = 0)")
        if not series_y.coeffs[1].is_monomial():
            raise ValueError("c1 must be a unit Laurent monomial")
        if not series_z.coeffs[0].is_monomial():
            raise ValueError("phi0 must be a unit Laurent monomial")
        e0, _ = series_z.coeffs[0].monomial_data()
        if e0 != -1:
            raise ValueError("base transition must be phi0 = gamma0/z")
        self.series_y = series_y
        self.series_z = series_z

    @property
    def order(self):
        return self.series_y.order

    def c(self, a):
        return self.series_y.coeffs[a]

    def phi(self, a):
        return self.series_z.coeffs[a]

    @property
    def normal_degree(self):
        e, _ = self.c(1).monomial_data()
        return -e

    @property
    def gamma(self):
        return _const_of(self.c(1).monomial_data()[1])

    @property
    def gamma0(self):
        return _const_of(self.phi(0).monomial_data()[1])

    def map_coeffs(self, fn):
        return TruncatedTransition(self.series_y.map_coeffs(fn),
                                   self.series_z.map_coeffs(fn))

    def __eq__(self, other):
        return (isinstance(other, TruncatedTransition)
                and self.series_y == other.series_y
                and self.series_z == other.series_z)

    def __repr__(self):
        return (f"TruncatedTransition(order={self.order}, "
                f"d={self.normal_degree})")


def _lift_coeff(c):
    if _is_param_poly(c):
        if c.nvars != PARAM_BUDGET:
            raise ValueError("parameter polynomials must use the shared budget")
        return c
    return Polynomial.constant(PARAM_BUDGET, GaussianRational.coerce(c))


def lift_params(t: TruncatedTransition) -> TruncatedTransition:
    return t.map_coeffs(_lift_coeff)


def unlift_params(t: TruncatedTransition) -> TruncatedTransition:
    """Strip constant parameter polynomials back to Q(i) scalars."""
    return t.map_coeffs(_const_of)


def _poly_str(p) -> str:
    from .poly import format_poly
    if _is_param_poly(p):
        return format_poly(p, names=PARAM_NAMES)
    return str(p)


# ---------------------------------------------------------------------------
# obstruction extraction


@dataclass
class ObstructionClass:
    kind: str                    # "splitting" | "comfortable"
    order: int
    window: CoboundaryWindow
    vector: list                 # coefficients over the forbidden window

    def vanishes(self):
        return all(c == 0 for c in self.vector)


def _check_normalized(t, k, need_comfortable_through):
    for a in range(1, k):
        if not t.phi(a).is_zero():
            raise NotNormalizedError(
                f"base series has a nonzero order-{a} term")
    for a in range(2, need_comfortable_through + 2):
        if a <= t.order and not t.c(a).is_zero():
            raise NotNormalizedError(
                f"normal series has a nonzero order-{a} term")


def splitting_obstruction(t: TruncatedTransition, k: int) -> ObstructionClass:
    """Obstruction to k-splitting: the class of the order-k base term.

    Requires the base series clean through order k-1.  The window is the
    twist of Theta_P1 (x) N^(-k); the representative is normalized to the
    chart-1 frame [y^k] d/dz via d/dz2 = -(z^2/gamma0) d/dz.
    """
    if k < 1:
        raise ValueError("order must be positive")
    if k > t.order:
        raise TruncationExhaustedError(
            f"series truncated at order {t.order}, cannot see order {k}")
    _check_normalized(t, k, 0)
    window = CoboundaryWindow(2 - k * t.normal_degree)
    return ObstructionClass("splitting", k, window,
                            h1_class(_base_cochain(t, k), window))


def comfortable_obstruction(t: TruncatedTransition, k: int) -> ObstructionClass:
    """Obstruction to k-comfortable embedding: class of the order-(k+1)
    normal term, relative to the lifting the transition is adapted to.

    Requires the base series clean through order k and the normal series
    clean through order k.  The window is the twist of N^(-k)."""
    if k < 1:
        raise ValueError("order must be positive")
    if k + 1 > t.order:
        raise TruncationExhaustedError(
            f"series truncated at order {t.order}, cannot see order {k + 1}")
    _check_normalized(t, k + 1, k - 1)
    window = CoboundaryWindow(-k * t.normal_degree)
    return ObstructionClass("comfortable", k, window,
                            h1_class(-_normal_cochain(t, k), window))


def _base_cochain(t, k):
    """-(z^2/gamma0) phi_k: the order-k base term in the chart-1 frame."""
    return -(t.phi(k).shift(2) * (GaussianRational(1) / t.gamma0))


def _normal_cochain(t, k):
    """c_(k+1)/c_1: the order-(k+1) normal term relative to the linear one."""
    return t.c(k + 1).shift(t.normal_degree) * (GaussianRational(1) / t.gamma)


# ---------------------------------------------------------------------------
# coordinate-change solves


def _split_coboundary(f: LaurentPoly, m, scale):
    """Split f = a(z) + z^m b(gamma0/z) into chart polynomials (a, b).

    The coefficient of z^(m-j) in f gives b_j after multiplication by
    scale(j); the forbidden window (m, 0) of f must already vanish."""
    a = {}
    b = {}
    for e, c in f.coeffs.items():
        if e >= 0:
            a[e] = c
        elif e <= m:
            b[m - e] = c * scale(m - e)
        else:
            raise ValueError("forbidden window not cleared before solving")
    return LaurentPoly(a), LaurentPoly(b)


def _solve_z_step(t, k, f: LaurentPoly):
    """Chart polynomials (p, u) with phi_k killed; f = -(z^2/gamma0) phi_k.

    The coboundary equation is p(z) + (gamma^k/gamma0) z^m u(gamma0/z) = f
    with m = 2 - k*d."""
    g0, gk = t.gamma0, t.gamma ** k
    return _split_coboundary(f, 2 - k * t.normal_degree,
                             lambda j: g0 ** (1 - j) / gk)


def _solve_y_step(t, k, g: LaurentPoly):
    """Chart polynomials (q, v) with c_{k+1} killed; g = c_{k+1}/c1.

    The equation is q(z) - gamma^k z^m v(gamma0/z) = g with m = -k*d."""
    g0, gk = t.gamma0, t.gamma ** k
    return _split_coboundary(g, -k * t.normal_degree,
                             lambda j: GaussianRational(-1) / (gk * g0 ** j))


def _kernel_basis_z(t, k):
    """Kernel of the order-k base solve: pairs (p, u) leaving phi_k = 0.

    Nontrivial only when m = 2 - k*d >= 0; dimension m + 1 matches
    H^0(Theta_P1 (x) N^(-k))."""
    d = t.normal_degree
    m = 2 - k * d
    if m < 0:
        return []
    g0, gk = t.gamma0, t.gamma ** k
    out = []
    for e in range(m + 1):
        coeff = -(g0 ** (1 - m + e)) / gk
        out.append((LaurentPoly.monomial(e, GaussianRational(1)),
                    LaurentPoly.monomial(m - e, coeff)))
    return out


def _change_charts(t, p, q, u, v, k) -> TruncatedTransition:
    """New transition after the chart-1 change z1 -> z1 + p(z1) y1^k,
    y1 -> y1 + q(z1) y1^(k+1), then the chart-2 change z2 -> z2 + u(z2) y2^k
    followed by y2 -> y2 + v(z2) y2^(k+1)."""
    Z, Y = invert_chart_map(p, q, k, t.order)
    y2 = t.series_y.substitute(Z, Y)
    z2 = t.series_z.substitute(Z, Y)
    if not u.is_zero():
        z2 = z2 + z2.compose_laurent(u) * (y2 ** k)
    if not v.is_zero():
        y2 = y2 + z2.compose_laurent(v) * (y2 ** (k + 1))
    return TruncatedTransition(y2, z2)


def apply_z_step(t: TruncatedTransition, p: LaurentPoly, u: LaurentPoly,
                 k: int) -> TruncatedTransition:
    """New transition after z1 -> z1 + p(z1) y1^k and z2 -> z2 + u(z2) y2^k."""
    zero = LaurentPoly.zero()
    return _change_charts(t, p, zero, u, zero, k)


def apply_y_step(t: TruncatedTransition, q: LaurentPoly, v: LaurentPoly,
                 k: int) -> TruncatedTransition:
    """New transition after y1 -> y1 + q(z1) y1^(k+1), y2 -> y2 + v(z2) y2^(k+1)."""
    zero = LaurentPoly.zero()
    return _change_charts(t, zero, q, zero, v, k)


def invert_transition(t: TruncatedTransition) -> TruncatedTransition:
    """The chart-swapped germ: (z1, y1) as series in (z2, y2).

    Solved by fixed-point iteration from the leading terms z1 = gamma0/z2,
    y1 = y2/c1(z1); exact through the truncation order.  Composing back
    (substituting the inverse into the original series) returns the
    identity pair, which is the two-chart form of the cocycle identity."""
    K = t.order
    # leading inverses; phi0 = gamma0/z is its own inverse
    Z = YSeries(K, [t.phi(0)])
    e1, c1coef = t.c(1).monomial_data()
    Y = YSeries(K, [LaurentPoly.zero(),
                    LaurentPoly.monomial(-e1, _inv_coeff(c1coef))])
    # the series without their orders below 2 (normal) and 1 (base)
    y_tail = YSeries(K, [LaurentPoly.zero()] * 2 + t.series_y.coeffs[2:])
    z_tail = YSeries(K, [LaurentPoly.zero()] + t.series_z.coeffs[1:])
    for _ in range(K + 1):
        # y1 = (y2 - sum_{a>=2} c_a(z1) y1^a) / c1(z1)
        c1_at = Z.compose_laurent(t.c(1))
        Yn = (YSeries.identity_y(K) - y_tail.substitute(Z, Y)) \
            * c1_at.inverse()
        # z1 = gamma0 / (z2 - sum_{a>=1} phi_a(z1) y1^a)
        base = YSeries.identity_z(K) - z_tail.substitute(Z, Yn)
        Zn = base.inverse() * t.phi(0).shift(1)
        if Zn == Z and Yn == Y:
            Z, Y = Zn, Yn
            break
        Z, Y = Zn, Yn
    return TruncatedTransition(Y, Z)


def _base_step(t: TruncatedTransition, k: int, next_param: int):
    """Kill phi_k, whose class must vanish, and adjoin the order-k lifting
    family as parameters next_param, next_param + 1, ...

    Returns (new transition, parameter indices used)."""
    p, u = _solve_z_step(t, k, _base_cochain(t, k))
    params = []
    for i, (pk, uk) in enumerate(_kernel_basis_z(t, k)):
        idx = next_param + i
        if idx >= PARAM_BUDGET:
            raise ParameterBudgetExhaustedError(
                f"lifting-parameter budget exhausted: the order-{k} family "
                f"needs parameter {idx + 1} of {PARAM_BUDGET}")
        a = Polynomial.variable(PARAM_BUDGET, idx)
        p = p + pk * a
        u = u + uk * a
        params.append(idx)
    t = apply_z_step(t, p, u, k)
    assert t.phi(k).is_zero(), "base step failed to normalize"
    return t, params


def with_lifting_family(t: TruncatedTransition, k: int, first_param: int = 0):
    """Adjoin the symbolic order-k lifting family to a transition whose
    order-k splitting obstruction vanishes identically.

    Returns (family transition, parameter indices used)."""
    lifted = lift_params(t)
    if not splitting_obstruction(lifted, k).vanishes():
        raise NotNormalizedError("order-k splitting obstruction is nonzero")
    return _base_step(lifted, k, first_param)


# ---------------------------------------------------------------------------
# vanishing loci over the parameter ring


@dataclass
class Locus:
    kind: str                    # all | points | affine | empty | unknown
    points: list = field(default_factory=list)     # for kind == points
    substitution: dict = field(default_factory=dict)  # for kind == affine
    description: str = ""


def _univariate_roots(p: Polynomial, var: int):
    """Q(i)-roots of a parameter polynomial of degree <= 2 in one variable."""
    deg = p.degree()
    dp = p.derivative(var)
    c0, c1 = _base_value(p), _base_value(dp)
    c2 = _base_value(dp.derivative(var)) / 2
    if deg <= 0:
        return None if c0 != 0 else "all"
    if c2 == 0:
        return [(-c0) / c1]
    disc = c1 * c1 - 4 * c2 * c0
    root = gaussian_sqrt(disc)
    if root is None:
        return []
    r1 = (-c1 + root) / (2 * c2)
    r2 = (-c1 - root) / (2 * c2)
    return [r1] if r1 == r2 else [r1, r2]


def vanishing_locus(vector, active) -> Locus:
    """Common zero locus of parameter polynomials over the active params.

    Handles: identically zero, affine systems (exactly), and univariate
    systems of degree <= 2 (exact Q(i) roots).  A system nonlinear in
    several parameters is not solved: when the natural chain (every
    active parameter 0) lies on its locus, that one point is returned as
    kind 'points' ("partially enumerated"), else the kind is 'unknown',
    which the caller treats as nonvanishing.  On either branch the walk
    skips the rest of the locus, so the m(X,D) it reports is only a
    lower bound."""
    polys = [p for p in map(_lift_coeff, vector) if not p.is_zero()]
    if not polys:
        return Locus("all", description="identically zero")
    used = sorted(active)
    if all(p.degree() <= 1 for p in polys):
        # one elimination of the augmented system [coefficients | -constant]
        aug = [[_base_value(p.derivative(i)) for i in used] + [-_base_value(p)]
               for p in polys]
        ech, pivots = linalg.row_echelon(aug)
        if len(used) in pivots:
            return Locus("empty", description="no common zero")
        if len(pivots) == len(used):
            # isolated point
            point = {used[pv]: row[len(used)] for row, pv in zip(ech, pivots)}
            return Locus("points", points=[point],
                         description=_point_str(point))
        # affine subspace: express pivot params through the free ones
        sub = {}
        for row, pv in zip(ech, pivots):
            expr = Polynomial.constant(PARAM_BUDGET, row[len(used)])
            for j in range(len(used)):
                if j != pv and row[j] != 0:
                    expr = expr - Polynomial.variable(PARAM_BUDGET, used[j]) * row[j]
            sub[used[pv]] = expr
        desc = ", ".join(f"{PARAM_NAMES[i]} = {_poly_str(e)}"
                         for i, e in sorted(sub.items()))
        return Locus("affine", substitution=sub, description=desc)
    vars_in_play = set()
    for p in polys:
        for e in p.terms:
            for i, k in enumerate(e):
                if k:
                    vars_in_play.add(i)
    if len(vars_in_play) == 1 and all(p.degree() <= 2 for p in polys):
        var = vars_in_play.pop()
        roots = None
        for p in polys:
            r = _univariate_roots(p, var)
            if r == "all":
                continue
            if r is None:
                return Locus("empty", description="no common zero")
            rset = r if roots is None else [x for x in roots if any(x == y for y in r)]
            roots = rset
        if not roots:
            return Locus("empty", description="no Q(i) zero")
        pts = [{var: r} for r in roots]
        return Locus("points", points=pts,
                     description=" or ".join(_point_str(p) for p in pts))
    # nonlinear in several parameters: no exact solve; fall back to the
    # natural chain (all parameters zero) when it lies on the locus
    pt = {i: GaussianRational(0) for i in used}
    full = _param_substitution(pt)
    if all(p.substitute(full).is_zero() for p in polys):
        return Locus("points", points=[pt],
                     description="natural chain (all parameters 0); "
                                 "nonlinear locus only partially enumerated")
    return Locus("unknown",
                 description="vanishing locus not solvable exactly "
                             "(nonlinear in several parameters)")


def _point_str(point: dict) -> str:
    return ", ".join(f"{PARAM_NAMES[i]} = {v}" for i, v in sorted(point.items()))


def _param_substitution(sub: dict):
    """Polynomial.substitute list: parameter i -> sub[i], the rest kept."""
    full = [Polynomial.variable(PARAM_BUDGET, i) for i in range(PARAM_BUDGET)]
    for i, val in sub.items():
        full[i] = _lift_coeff(val)
    return full


def _substitute_state(t: TruncatedTransition, sub: dict) -> TruncatedTransition:
    full = _param_substitution(sub)
    return t.map_coeffs(lambda c: c.substitute(full))


# ---------------------------------------------------------------------------
# the normalization driver


@dataclass
class LedgerEntry:
    order: int
    kind: str
    chain: str
    window: int
    class_vector: list
    locus: Locus

    def nonzero_at_base(self):
        return any(_base_value(c) != 0 for c in self.class_vector)


@dataclass
class ObstructionLedger:
    entries: list = field(default_factory=list)
    families: dict = field(default_factory=dict)   # order -> param count
    notes: list = field(default_factory=list)

    def add(self, entry):
        self.entries.append(entry)

    def nontrivial(self):
        return [e for e in self.entries if e.nonzero_at_base()]

    def by_order(self, order, kind):
        return [e for e in self.entries if e.order == order and e.kind == kind]


@dataclass
class NormalizeResult:
    transition: TruncatedTransition
    ledger: ObstructionLedger
    m_comfortable: int           # m(X, D)
    m_linearizable: int
    truncation_limited: bool
    verdict: str
    best_chain: str


def _branches(locus):
    """(substitution, description) per branch of a vanishing locus; none
    for an empty or unknown locus."""
    if locus.kind == "all":
        return [({}, "")]
    if locus.kind == "affine":
        return [(locus.substitution, locus.description)]
    if locus.kind == "points":
        return [(pt, _point_str(pt)) for pt in locus.points]
    return []


class _Walker:
    """Depth-first walk of the obstruction tree.

    At each order k the vanishing locus of the base class g_k is solved
    over the active lifting parameters; every branch of it takes the base
    step and opens the order-k lifting family.  With comfortable=True the
    normal class h_k follows on each branch, its branches take the normal
    step and the walk goes on to order k + 1; the deepest chain gives
    m(X, D) and notes flag loci that cannot be solved exactly.  With
    comfortable=False the walk is the splitting-only tower: entries of kind
    "splitting-tower", no record and no notes.

    base_steps memoizes _base_step by (k, next_param) and then the state,
    matched by ==; the walkers of one tree share it, so the tower does not
    repeat a base step that the chain took on the same state."""

    def __init__(self, target_order, ledger, comfortable, base_steps):
        self.target = target_order
        self.ledger = ledger
        self.comfortable = comfortable
        self.base_steps = base_steps
        self.best_m = 1
        self.best_lin = 0
        self.best_state = None
        self.best_chain = ""

    def record(self, m, lin, state, chain):
        if m > self.best_m or (m == self.best_m and self.best_state is None):
            self.best_m = m
            self.best_state = state
            self.best_chain = chain
        self.best_lin = max(self.best_lin, lin)

    def _enter(self, obs, state, active, chain, lin):
        """Ledger entry of one class; its branches as (state, active, chain).

        A comfortable walk records (order, lin) where no branch goes on."""
        locus = vanishing_locus(obs.vector, active)
        kind = obs.kind if self.comfortable else "splitting-tower"
        self.ledger.add(LedgerEntry(obs.order, kind, chain, obs.window.twist,
                                    obs.vector, locus))
        branches = _branches(locus)
        if self.comfortable:
            if locus.kind == "unknown":
                self.ledger.notes.append(
                    f"order {obs.order}: {obs.kind} locus not solvable "
                    "exactly; treating as nonvanishing")
            if not branches:
                self.record(obs.order, lin, state, chain)
        return [(_substitute_state(state, sub) if sub else state,
                 [i for i in active if i not in sub],
                 chain + (f" [{desc}]" if desc else ""))
                for sub, desc in branches]

    def _base_step(self, state, k, next_param):
        seen = self.base_steps.setdefault((k, next_param), [])
        for old, step in seen:
            if old == state:
                return step
        step = _base_step(state, k, next_param)
        seen.append((state, step))
        return step

    def walk(self, state, active, next_param, k, chain):
        if k > self.target:
            if self.comfortable:
                self.record(self.target + 1, self.target, state, chain)
            return
        obs = splitting_obstruction(state, k)
        for st, act, ch in self._enter(obs, state, active, chain, k - 1):
            st, params = self._base_step(st, k, next_param)
            if params:
                self.ledger.families.setdefault(k, len(params))
            act = act + params
            np_ = next_param + len(params)
            if not self.comfortable:
                self.walk(st, act, np_, k + 1, ch)
                continue
            h = comfortable_obstruction(st, k)
            for st2, act2, ch2 in self._enter(h, st, act, ch, k):
                q, v = _solve_y_step(st2, k, _normal_cochain(st2, k))
                st2 = apply_y_step(st2, q, v, k)
                assert st2.c(k + 1).is_zero(), "normal step failed to normalize"
                self.record(k + 1, k, st2, ch2)
                self.walk(st2, act2, np_, k + 1, ch2)


def splitting_tower(t: TruncatedTransition, target_order: int,
                    ledger: ObstructionLedger, base_steps: dict):
    """Base-series-only normalization: the obstruction-tree walk without
    the normal steps.  Adds the relative splitting obstructions g_k and
    their vanishing loci over the lifting families to the ledger as
    "splitting-tower" entries, without requiring comfortable structure.
    base_steps is the _Walker memo of the chain walk on the same germ."""
    _Walker(target_order, ledger, False, base_steps).walk(
        lift_params(t), [], 0, 1, "tower")


def normalize(t: TruncatedTransition, target_order: int) -> NormalizeResult:
    """Order-by-order normalization of a transition germ.

    Produces the maximal comfortable-embedding order m(X, D) reachable
    within the truncation, the maximal linearizable order, the per-order
    obstruction ledger and the transition written in the best chain's
    coordinates (free lifting parameters pinned to 0).  One walker builds
    both kinds of ledger entries: the interleaved "splitting" and
    "comfortable" chains, then the "splitting-tower" (splitting_tower).
    """
    if target_order < 1:
        raise ValueError("target order must be >= 1")
    if target_order > t.order - 1:
        raise TruncationExhaustedError(
            f"target order {target_order} needs series data beyond the "
            f"truncation order {t.order}")
    ledger = ObstructionLedger()
    base_steps = {}
    walker = _Walker(target_order, ledger, True, base_steps)
    walker.walk(lift_params(t), [], 0, 1, "chain")
    splitting_tower(t, target_order, ledger, base_steps)

    m = walker.best_m
    lin = walker.best_lin
    truncated = False
    if m > target_order:
        m = target_order
        truncated = True
        ledger.notes.append(
            f"no obstruction found through order {target_order}; "
            "m(X,D) is truncation-limited")
    best = walker.best_state if walker.best_state is not None else lift_params(t)
    best = _substitute_state(best, {i: GaussianRational(0)
                                    for i in range(PARAM_BUDGET)})
    normalized = unlift_params(best)
    if truncated:
        verdict = (f"{lin}-linearizable; no obstruction within the "
                   f"truncation order")
    else:
        verdict = f"{lin}-linearizable but not {lin + 1}-linearizable"
    return NormalizeResult(normalized, ledger, m, lin, truncated, verdict,
                           walker.best_chain)


def weight_from_order(m_XD: int, dim_D: int | None = None):
    """Deformation weight predicted by the comfortable-embedding order.

    Returns (weight, notes); the identity is proven for ambient dimension
    at least 3, so dim_D = 1 attaches a hypothesis note."""
    if m_XD < 1:
        raise ValueError("embedding order must be >= 1")
    notes = []
    if dim_D == 1:
        notes.append("hypothesis note: weight = embedding order is proven "
                     "for dim D >= 2; for curves it is expected but not "
                     "established")
    return -m_XD, notes


# ---------------------------------------------------------------------------
# stock transitions


def p1p1_diagonal(order: int = 4) -> TruncatedTransition:
    """Diagonal P^1 in P^1 x P^1: y2 = -y1/(z1(z1-y1)), z2 = 1/z1."""
    one = GaussianRational(1)
    ys = YSeries(order, [LaurentPoly.zero()] +
                 [LaurentPoly.monomial(-(a + 1), -one) for a in range(1, order + 1)])
    zs = YSeries(order, [LaurentPoly.monomial(-1, one)])
    return TruncatedTransition(ys, zs)


def p2_conic(order: int = 4) -> TruncatedTransition:
    """Conic in P^2: y2 = y1/(z1^2-y1)^2, z2 = z1/(z1^2-y1)."""
    ys = YSeries(order, [LaurentPoly.zero()] +
                 [LaurentPoly.monomial(-(2 * a + 2), GaussianRational(a))
                  for a in range(1, order + 1)])
    zs = YSeries(order, [LaurentPoly.monomial(-(2 * a + 1), GaussianRational(1))
                         for a in range(0, order + 1)])
    return TruncatedTransition(ys, zs)


def linear_transition(c, d: int, order: int = 4) -> TruncatedTransition:
    """Product-type germ y2 = c z^(-d) y1, z2 = 1/z1 (no obstructions)."""
    ys = YSeries(order, [LaurentPoly.zero(),
                         LaurentPoly.monomial(-d, GaussianRational.coerce(c))])
    zs = YSeries(order, [LaurentPoly.monomial(-1, GaussianRational(1))])
    return TruncatedTransition(ys, zs)

