"""Calabi-ansatz cone metrics and their finite-difference verification.

The Kaehler potential on the punctured total space of the negative line
bundle is Phi = h^delta with h = a(z, zbar)/|xi|^2; a is the fiberwise
norm factor of the Hermitian metric and omega_D = i ddbar log a is the
base metric.  Index 0 is the fiber direction xi, indices 1..dimD the base
directions.

Everything analytic is computed through jet arithmetic at a point; the
independent checks differentiate the evaluated metric field (exact jets at
each stencil point) by the central differences of conedeform.fd,
Richardson-extrapolated unless richardson=False, and compare against the
closed formulas:

    g_ij = delta a^delta |xi|^(-2 delta) delta_ij
    g_00 = delta^2 a^delta |xi|^(-2(delta+1))
    Gamma^j_i0 = -(delta/xi) delta_ij,   Gamma^0_00 = -(delta+1)/xi
    Ric(omega_0) = (-n delta + mu) pi^* omega_D   (omega_D Einstein, mu)
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import fd
from .fd import mixed_wirtinger as fd_mixed_wirtinger
from .jets import (Batch, Jet, as_coeff, conjugate_exponent, pointwise,
                   wirtinger_exponent)
from .poly import Polynomial
from .reports import Refusal


class NotNormalizedChart(Refusal, ValueError):
    pass


# ---------------------------------------------------------------------------
# potentials


class Potential:
    """Fiberwise potential a as an exact polynomial in (z_1..z_n, zbar_1..zbar_n).

    Real-valuedness requires the coefficient of (p, q) to equal the
    conjugate of the coefficient of (q, p).  The coefficients must be
    rational (Fraction), so that is plain symmetry; both are validated."""

    def __init__(self, dimD: int, poly: Polynomial):
        if poly.nvars != 2 * dimD:
            raise ValueError("potential must use 2*dimD variables")
        self.dimD = dimD
        self.poly = poly
        for e, c in poly.terms.items():
            if not isinstance(c, Fraction):
                raise ValueError("potential coefficients must be rational")
            if poly.terms.get(conjugate_exponent(e), None) != c:
                raise ValueError("potential is not real-valued "
                                 "(coefficients not mirror-symmetric)")
        self._walks = {}

    @staticmethod
    def from_terms(dimD, terms):
        return Potential(dimD, Polynomial(2 * dimD, terms))

    def value(self, z):
        vals = list(z) + [complex(v).conjugate() for v in z]
        return complex(self.poly.evaluate(vals))

    def _walk(self, order):
        """[(e, d^e a, 1/e!)] for every exponent e of total degree <= order,
        in the order of an iterative differentiation; built once per order,
        since it does not depend on the point."""
        if order not in self._walks:
            walk = []
            zero = wirtinger_exponent(2 * self.dimD)
            frontier = [(zero, self.poly)]
            seen = {zero}
            while frontier:
                e, p = frontier.pop()
                scale = 1.0
                for k in e:
                    scale /= math.factorial(k)
                walk.append((e, p, scale))
                if sum(e) >= order:
                    continue
                for i in range(len(e)):
                    e2 = list(e)
                    e2[i] += 1
                    e2 = tuple(e2)
                    if e2 not in seen:
                        seen.add(e2)
                        frontier.append((e2, p.derivative(i)))
            self._walks[order] = walk
        return self._walks[order]

    def jet(self, z, order=4) -> Jet:
        """Taylor jet of a at z in the 2*dimD shift variables (dz, dzbar);
        the coordinates may be Batches (see conedeform.jets)."""
        vals = list(map(as_coeff, z)) + [as_coeff(v).conjugate() for v in z]
        out = {}
        for e, p, scale in self._walk(order):
            coeff = as_coeff(p.evaluate(vals))
            if coeff != 0:
                out[e] = coeff * scale
        return Jet(2 * self.dimD, order, out)


def fubini_study_potential(dimD: int = 1) -> Potential:
    """a = 1 + sum |z_i|^2; the flat model on the cone over (P^n, O(1))."""
    terms = {wirtinger_exponent(2 * dimD): 1}
    for i in range(dimD):
        terms[wirtinger_exponent(2 * dimD, (i,), (i,))] = 1
    return Potential.from_terms(dimD, terms)


class JetPotential:
    """Potential known only through its jet at the origin."""

    def __init__(self, dimD, jet: Jet):
        self.dimD = dimD
        self._jet = jet

    def jet(self, z, order=4):
        """The stored jet re-expanded at z, truncated at `order` (at most
        the stored order)."""
        if order > self._jet.order:
            raise ValueError(f"potential known only to order "
                             f"{self._jet.order}, order {order} requested")
        jet = self._jet
        if any(v != 0 for v in z):
            # re-expand the stored polynomial jet at the displaced point
            n = self.dimD
            mapping = {}
            for i in range(n):
                mapping[i] = Jet.variable(2 * n, jet.order, i, base=z[i])
                mapping[n + i] = mapping[i].conjugate()
            jet = jet.subst(mapping)
        return Jet(jet.nvars, order, jet.coeffs)


# ---------------------------------------------------------------------------
# charts and closed-form data


@dataclass
class ConeChart:
    delta: Fraction
    dimD: int
    z: tuple
    xi: complex
    potential: object            # Potential or JetPotential

    def __post_init__(self):
        self.delta = Fraction(self.delta)
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.xi == 0:
            raise ValueError("the fiber coordinate must not vanish")
        self.z = tuple(complex(v) for v in self.z)
        self.xi = complex(self.xi)
        if not all(np.isfinite(v) for v in (self.xi, *self.z)):
            raise ValueError("the chart coordinates xi and z must be finite")


@dataclass
class TensorType:
    p_h: int = 0
    p_v: int = 0
    q_h: int = 0
    q_v: int = 0

    def __post_init__(self):
        if min(self.p_h, self.p_v, self.q_h, self.q_v) < 0:
            raise ValueError("slot counts must be nonnegative")


@dataclass
class MetricAtPoint:
    g: np.ndarray                # (n+1, n+1) Hermitian, index 0 = fiber
    christoffels: np.ndarray     # Gamma[k, i, j], symmetric in (i, j)
    r: float                     # cone radius h^(delta/2)
    frame_norms: dict            # {"dz": |dz^i|, "dxi": |dxi|}


def calabi_exponent(mu, dimD: int) -> Fraction:
    """Ricci-flat exponent delta = mu/(dimD + 1) for -K_D = mu N_D."""
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError("mu must be positive")
    return mu / (dimD + 1)


def tian_yau_exponent(alpha, n: int) -> Fraction:
    """delta = (alpha - 1)/n in the Fano setting -K_X = alpha D."""
    alpha = Fraction(alpha)
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return (alpha - 1) / n


JET_TOL = 1e-12
# Order of the a-jets of random and normalized charts.
CHART_ORDER = 4


def check_normalized(chart: ConeChart):
    """Validate the normalized-chart jet conditions at the chart point.

    Requires a > 0, vanishing first z-derivatives and (2,0)-Hessian of a,
    a_(i jbar) = a * delta_ij, and vanishing (2,1)-jets (flat omega_D
    derivatives).  Raises NotNormalizedChart past JET_TOL."""
    n = chart.dimD
    jt = chart.potential.jet(chart.z, 3)
    a0 = jt.value().real
    if not a0 > 0:
        raise NotNormalizedChart("potential must be positive")
    scale = max(a0, 1.0)

    def bad(name, value):
        raise NotNormalizedChart(f"{name} = {value:.3e} exceeds {JET_TOL}")

    for i in range(n):
        v = jt.wirtinger((i,))
        if abs(v) > JET_TOL * scale:
            bad(f"d_z{i + 1} a", abs(v))
        for j in range(i, n):
            v = jt.wirtinger((i, j))
            if abs(v) > JET_TOL * scale:
                bad(f"d2_z{i + 1}z{j + 1} a", abs(v))
        for j in range(n):
            v = jt.wirtinger((i,), (j,))
            want = a0 if i == j else 0.0
            if abs(v - want) > JET_TOL * scale:
                bad(f"a_{i + 1}{j + 1}bar - a*I", abs(v - want))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = jt.wirtinger((i, j), (k,))
                if abs(v) > JET_TOL * scale:
                    bad("(2,1) jet of a", abs(v))
    return a0


def metric_at(chart: ConeChart) -> MetricAtPoint:
    """Closed-formula metric data at a normalized chart point."""
    a0 = check_normalized(chart)
    n = chart.dimD
    d = float(chart.delta)
    xi = chart.xi
    axi = abs(xi)
    g = np.zeros((n + 1, n + 1), dtype=complex)
    g[0, 0] = d * d * a0 ** d * axi ** (-2 * (d + 1))
    for i in range(1, n + 1):
        g[i, i] = d * a0 ** d * axi ** (-2 * d)
    gamma = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    gamma[0, 0, 0] = -(d + 1) / xi
    for j in range(1, n + 1):
        gamma[j, j, 0] = -d / xi
        gamma[j, 0, j] = -d / xi
    r = a0 ** (d / 2) * axi ** (-d)
    frame = {
        "dz": d ** (-0.5) * a0 ** (-d / 2) * axi ** d,
        "dxi": (1 / d) * a0 ** (-d / 2) * axi ** (d + 1),
    }
    return MetricAtPoint(g, gamma, r, frame)


# ---------------------------------------------------------------------------
# field evaluation (for FD oracles)


def _slot(K, n):
    """Position of coordinate K (0 = fiber xi, 1..n = base z_K) in the point
    (z_1..z_n, xi); it is also the holomorphic jet variable of K, whose
    antiholomorphic variable is n + 1 + _slot(K, n)."""
    return n if K == 0 else K - 1


def _ddbar(jet: Jet, n, points=None) -> np.ndarray:
    """The matrix d_I dbar_J of a jet in (dz, dxi, dzbar, dxibar); of a jet
    batched over `points` points, one matrix per point."""
    slots = [_slot(K, n) for K in range(n + 1)]
    entries = [[jet.wirtinger((I,), (J,)) for J in slots] for I in slots]
    if points is None:
        return np.array(entries, dtype=complex)
    g = np.empty((points, n + 1, n + 1), dtype=complex)
    for I, row in enumerate(entries):
        for J, v in enumerate(row):
            g.real[:, I, J] = v.real
            g.imag[:, I, J] = v.imag
    return g


def _lifted_jets(chart: ConeChart, z, xi, order):
    """(A, t): the a-jet at z and t = |xi|^2, as jets in
    (dz, dxi, dzbar, dxibar)."""
    n = chart.dimD
    nv = 2 * n + 2
    lifted = {tuple(e[:n]) + (0,) + tuple(e[n:]) + (0,): c
              for e, c in chart.potential.jet(z, order).coeffs.items()}
    xi = as_coeff(xi)
    fiber = (_slot(0, n),)
    # t = |xi|^2 expanded around |xi0|^2:  xibar0*dxi + xi0*dxibar + dxi*dxibar
    t = Jet(nv, order, {
        wirtinger_exponent(nv): pointwise(lambda x: abs(x) ** 2, xi),
        wirtinger_exponent(nv, fiber): xi.conjugate(),
        wirtinger_exponent(nv, (), fiber): xi,
        wirtinger_exponent(nv, fiber, fiber): 1.0,
    })
    return Jet(nv, order, lifted), t


def _phi_jet(chart: ConeChart, z, xi, order=4) -> Jet:
    """Jet of Phi = a^delta (xi xibar)^(-delta) in (dz, dxi, dzbar, dxibar)."""
    A, t = _lifted_jets(chart, z, xi, order)
    d = float(chart.delta)
    return A.power_real(d) * t.power_real(-d)


def metric_field(chart: ConeChart):
    """Map (z, xi) -> full metric matrix from the potential (exact jets)."""
    n = chart.dimD

    def g_at(z, xi):
        return _ddbar(_phi_jet(chart, z, xi, order=2), n)

    return g_at


def _metric_values(chart: ConeChart, points) -> np.ndarray:
    """metric_field(chart) at each point (z_1..z_n, xi) of points, bitwise,
    stacked, from one jet batched over all of them.  Raises MixedZeros
    where the points do not share one pattern of zero jet coefficients."""
    n = chart.dimD
    coords = [Batch.of(c) for c in zip(*points)]
    with np.errstate(all="ignore"):      # CPython's floats do not warn
        return _ddbar(_phi_jet(chart, coords[:n], coords[n], order=2), n,
                      len(points))


def scaling_exponent(t: TensorType, delta) -> Fraction:
    """Exponent e with |Phi|_cone / |Phi|_smooth ~ |xi|^e."""
    d = Fraction(delta)
    return (d * t.p_h + (d + 1) * t.p_v - d * t.q_h - (d + 1) * t.q_v)


# Weight of the fiber term in the comparison metric.
COMPARISON_EPS = 0.1


def comparison_metric_field(chart: ConeChart):
    """Smooth comparison metric pi^* omega_D + eps i ddbar (|xi|^2 / a),
    eps = COMPARISON_EPS."""
    n = chart.dimD

    def g_at(z, xi):
        A, t = _lifted_jets(chart, z, xi, 2)
        return _ddbar(A.log() + A.inverse() * t * COMPARISON_EPS, n)

    return g_at


def tensor_norm(T: np.ndarray, g: np.ndarray) -> float:
    """Norm of a (1,1) tensor T^I_J dw^J (x) d/dw^I under a Hermitian g."""
    ginv = np.linalg.inv(g)
    val = np.einsum("ij,kl,ik,jl->", T, T.conj(), g, ginv.conj())
    return float(abs(val)) ** 0.5


def basis_tensor(kind: str, n: int) -> np.ndarray:
    """Unit-slot (1,1) tensors: 'vh' = dxi (x) d/dz1, 'hv' = dz1 (x) d/dxi,
    'vv' = dxi (x) d/dxi, 'hh' = dz1 (x) d/dz1 (index 0 = fiber).  The one
    entry is T[q_h, p_h] of TENSOR_TYPES[kind]: a horizontal slot is index
    1, a vertical one index 0."""
    if kind not in TENSOR_TYPES:
        raise ValueError(kind)
    t = TENSOR_TYPES[kind]
    T = np.zeros((n + 1, n + 1), dtype=complex)
    T[t.q_h, t.p_h] = 1.0
    return T


TENSOR_TYPES = {
    "vh": TensorType(p_v=1, q_h=1),
    "hv": TensorType(p_h=1, q_v=1),
    "vv": TensorType(p_v=1, q_v=1),
    "hh": TensorType(p_h=1, q_h=1),
}


def empirical_scaling_slope(chart_proto: ConeChart, kind: str,
                            k_range=range(1, 9)) -> float:
    """log-log slope of |T|_cone/|T|_smooth over xi = 2^-k.

    Raises ValueError when k_range has fewer than two distinct k, the
    least a slope needs, and when a norm ratio is not finite and
    positive, as happens once the powers of |xi| leave the float range."""
    ks = list(k_range)
    if len(set(ks)) < 2:
        raise ValueError(f"a scaling slope needs at least two distinct k, "
                         f"got {ks}")
    gfun = metric_field(chart_proto)
    gtil = comparison_metric_field(chart_proto)
    T = basis_tensor(kind, chart_proto.dimD)
    xs, ys = [], []
    for k in ks:
        xi = 2.0 ** (-k)
        g = gfun(chart_proto.z, xi)
        gt = gtil(chart_proto.z, xi)
        ratio = tensor_norm(T, g) / tensor_norm(T, gt)
        if not 0 < ratio < math.inf:
            raise ValueError(f"the {kind} norm ratio at xi = 2^-{k} is "
                             f"{ratio}, not finite and positive")
        xs.append(math.log(xi))
        ys.append(math.log(ratio))
    return _slope(xs, ys)


def _slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


# ---------------------------------------------------------------------------
# finite differences


def _moved(f, coords, *slots):
    """(w, v, ...) -> f(z, xi) at the point coords = (z_1..z_n, xi) with
    coordinate slots[0] moved by w, slots[1] by v, ..."""
    n = len(coords) - 1

    def fs(*steps):
        ws = list(coords)
        for K, w in zip(slots, steps):
            ws[_slot(K, n)] += w
        return f(ws[:n], ws[n])

    return fs


def _fd_jacobian(gfun, coords, h, richardson):
    """FD Jacobian dg[K, I, J] = d_K g_IJ of the metric field gfun."""
    return np.array([fd.wirtinger(_moved(gfun, coords, K), 0.0, h,
                                  richardson)[0]
                     for K in range(len(coords))])


def _fd_ddbar(f, coords, h, richardson):
    """FD matrix of d_K dbar_L f (K, L = 0..n) at coords."""
    m = len(coords)
    return np.array([[fd_mixed_wirtinger(_moved(f, coords, K, L), 0.0, 0.0, h,
                                         richardson)
                      for L in range(m)] for K in range(m)])


def christoffels_fd(chart: ConeChart, h=1e-5) -> np.ndarray:
    """FD Christoffels of the metric field, Richardson-extrapolated:
    Gamma^k_ij = g^(k lbar) d_i g_(j lbar)."""
    gfun = metric_field(chart)
    coords = list(chart.z) + [chart.xi]
    ginv = np.linalg.inv(gfun(chart.z, chart.xi))
    dg = _fd_jacobian(gfun, coords, h, True)
    return np.einsum("lk,ijl->kij", ginv, dg)


@dataclass
class CurvatureReport:
    max_riemann: float | None
    ricci_defect: float | None
    grid_points: int
    converged: bool = True
    notes: list = field(default_factory=list)


# Roundoff model of the curvature stencils: a (Richardson-extrapolated)
# second difference of f at step h loses about ROUNDOFF_C * eps * |f| / h^2.
ROUNDOFF_C = 64


def curvature_check(potential: Potential, delta, mu, *, grid=None, h=1e-3,
                    richardson=True, full_riemann=False,
                    diagnose_convergence=False) -> CurvatureReport:
    """FD verification of Ric(omega_0) = (-n delta + mu) pi^* omega_D.

    The metric field is exact (jets); the derivatives entering curvature
    are finite differences, so the check is independent of the closed
    formulas.  With full_riemann=True the whole FD curvature tensor
    R_(i jbar k lbar) = -dd g + g^(-1) dg dg is reported (flat test).

    At each grid point the metric field is evaluated once per distinct
    stencil point, in one batch.  A first pass of the stencils with a
    field that returns the identity lists the points.  One jet batched
    over them (conedeform.jets.Batch) gives every g, bitwise what a scalar
    evaluation gives, and one stacked det every f (det g, or g_00 at a
    degenerate base).  The stencils then read g and log f from a memo
    keyed on the exact coordinates.  Where the batch raises MixedZeros
    (the points do not share one zero pattern of jet coefficients, as at
    z = 0) or another ArithmeticError, the grid point evaluates the
    scalar field point by point instead, with the same values.

    h is the FD step of every stencil.  The error of a second difference
    is truncation ~ h^p plus roundoff ~ eps |f| / h^2; the default 1e-3
    (about eps^(1/6), scaled for the Riemann stencil) keeps the
    Fubini-Study defects at a few 1e-9, where at h = 1e-4 roundoff alone
    gives ~5e-7.  richardson=True extrapolates every difference from
    steps h and h/2 (truncation order p = 4 instead of 2).

    At a grid point where the base metric is degenerate, the checked field
    is the mixed-derivative matrix M of log g_00 (pluriharmonicity, target
    0) instead of the Ricci form Ric of log det g.

    diagnose_convergence=True evaluates the checked field a second time at
    step 4h at every grid point, degenerate or not.  The truncation error
    at h is estimated as max |M(h) - M(4h)| / (4^p - 1), M the Ricci form
    or the log g_00 matrix, and compared with
    max(1e-9, ROUNDOFF_C * eps * max(1, |log f|) / h^2), the roundoff
    floor of the stencil (f = det g, or g_00).  converged=False, with a
    "convergence not reached" note, means the estimate exceeds that floor:
    the step is too coarse for the FD estimate to have settled.
    converged=True means it has settled to within its truncation and
    roundoff error; it says nothing about the identity itself.  A
    step-independent Ricci defect, such as one from a wrong mu, shows in
    ricci_defect only.  An empty grid raises ValueError."""
    n = potential.dimD
    d = float(Fraction(delta))
    mu = float(Fraction(mu))
    if grid is None:
        grid = [((0.05 + 0.1j,) * n, 0.9 + 0.2j),
                ((-0.15 + 0.02j,) * n, 1.1 - 0.3j),
                ((0.1 - 0.08j,) * n, 0.75)]
    if len(grid) == 0:
        raise ValueError("curvature_check needs at least one grid point")
    chart = ConeChart(Fraction(delta), n, (0,) * n, 1.0, potential)
    field_at = metric_field(chart)
    identity = np.eye(n + 1, dtype=complex)
    max_riem = 0.0
    max_defect = 0.0
    converged = True
    notes = []
    for z0, xi0 in grid:
        coords = list(map(complex, z0)) + [complex(xi0)]

        # base Hessian of log a (exact), for the target Ricci
        a_jet = potential.jet(z0, 2)
        a0 = a_jet.value().real
        loga_hess = np.array([[a_jet.wirtinger((i,), (j,)) for j in range(n)]
                              for i in range(n)], dtype=complex) / a0
        for i in range(n):
            for j in range(n):
                loga_hess[i, j] -= (a_jet.wirtinger((i,)) *
                                    a_jet.wirtinger((), (j,))) / a0 ** 2

        degenerate_base = np.max(np.abs(loga_hess)) < 1e-14

        target = np.zeros((n + 1, n + 1), dtype=complex)
        if not degenerate_base:
            target[1:, 1:] = (mu - (n + 1) * d) * loga_hess

        def f_of(g):
            """det g of a metric matrix or a stack of them; g_00 at a
            degenerate base, where only the fiber block is nondegenerate
            and log g_00 must be pluriharmonic in every direction."""
            return g[..., 0, 0] if degenerate_base else np.linalg.det(g)

        def stencils(read):
            """(fine, coarse, log f, Riemann) from read(z, xi) = (g, log f);
            the last three are None where not asked for."""
            def gfun(z, xi):
                return read(z, xi)[0]

            def logf(z, xi):
                return read(z, xi)[1]

            if degenerate_base:
                def field(hstep):
                    return _fd_ddbar(logf, coords, hstep, richardson)
            else:
                def field(hstep):
                    # the Ricci form -dd log det g
                    ric = np.zeros((n + 1, n + 1), dtype=complex)
                    for K in range(n + 1):
                        for L in range(n + 1):
                            if K == L:
                                # d^2/dw dwbar = Laplacian / 4
                                f1 = _moved(logf, coords, K)
                                fx = fd.second(f1, 0.0, hstep, richardson)
                                fy = fd.second(lambda t: f1(1j * t), 0.0,
                                               hstep, richardson)
                                ric[K, L] = -(fx + fy) / 4
                            else:
                                ric[K, L] = -fd_mixed_wirtinger(
                                    _moved(logf, coords, K, L), 0.0, 0.0,
                                    hstep, richardson)
                    return ric

            fine = field(h)
            coarse = logf0 = riem = None
            if diagnose_convergence:
                coarse = field(4 * h)
                logf0 = logf(coords[:n], coords[n])
            if full_riemann and not degenerate_base:
                ginv = np.linalg.inv(gfun(z0, xi0))
                dg = _fd_jacobian(gfun, coords, h, richardson)
                ddg = _fd_ddbar(gfun, coords, h, richardson)
                # R_ijkl = -d_k dbar_l g_ij
                #          + g^(q pbar) d_k g_iq conj(d_l g_jp)
                riem = -ddg.transpose(2, 3, 0, 1) + \
                    np.einsum("qp,kiq,ljp->ijkl", ginv, dg, dg.conj())
            return fine, coarse, logf0, riem

        # the points the stencils read, in the order they first read them
        points = {}
        stencils(lambda z, xi: points.setdefault((*z, xi), (identity, 0j)))
        points = list(points)
        try:
            g = _metric_values(chart, points)
            # a stacked det is bitwise the det of each matrix
            values = dict(zip(points, zip(g, map(cmath.log,
                                                 f_of(g).tolist()))))
        except ArithmeticError:
            values = {}

        def read(z, xi):
            key = (*z, xi)
            if key not in values:
                g = field_at(z, xi)
                values[key] = (g, cmath.log(f_of(g)))
            return values[key]

        fine, coarse_field, logf0, riem = stencils(read)
        if degenerate_base:
            notes.append("base metric degenerate; checked pluriharmonicity "
                         "of log g_00")
        defect = float(np.max(np.abs(fine - target)))
        max_defect = max(max_defect, defect)
        if diagnose_convergence:
            order = 4 if richardson else 2
            truncation = float(np.max(np.abs(fine - coarse_field))) / \
                (4 ** order - 1)
            roundoff = ROUNDOFF_C * np.finfo(float).eps * \
                max(1.0, abs(logf0)) / h ** 2
            floor = max(1e-9, roundoff)
            if not truncation <= floor:      # a NaN estimate fails too
                converged = False
                coarse = float(np.max(np.abs(coarse_field - target)))
                notes.append(
                    f"convergence not reached at step {h:g}: defect "
                    f"{defect:.3e} vs {coarse:.3e} at step {4 * h:g}, "
                    f"truncation estimate {truncation:.3e} above the "
                    f"error floor {floor:.3e}; refine the step or the grid")
        if riem is not None:
            max_riem = max(max_riem, np.abs(riem).max())
    return CurvatureReport(max_riem if full_riemann else None,
                           max_defect, len(grid), converged, notes)


# ---------------------------------------------------------------------------
# normalized-chart generation and the normalizing helper


def random_normalized_chart(rng, dimD=1) -> ConeChart:
    """Random chart satisfying the normalization jet conditions exactly."""
    n = dimD
    nv = 2 * n
    a0 = 0.5 + 2.0 * rng.random()
    coeffs = {wirtinger_exponent(nv): complex(a0)}
    for i in range(n):
        coeffs[wirtinger_exponent(nv, (i,), (i,))] = complex(a0)
    # free jets: (3,0), (4,0), (2,2), (3,1) plus conjugates
    def rnd():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def add(e_h, e_a, c):
        e = wirtinger_exponent(nv, e_h, e_a)
        scale = 1.0
        for k in e:
            scale /= math.factorial(k)
        coeffs[e] = coeffs.get(e, 0.0) + c * scale
        mirror = conjugate_exponent(e)
        coeffs[mirror] = coeffs.get(mirror, 0.0) + c.conjugate() * scale
    idx = list(range(n))
    for i in idx:
        for j in idx:
            for k in idx:
                add((i, j, k), (), rnd())            # (3,0) + (0,3)
                for l in idx:
                    add((i, j, k), (l,), rnd())      # (3,1) + (1,3)
                    add((i, j), (k, l), 0.5 * rnd())  # (2,2), symmetrized below
    # re-symmetrize the (2,2) block for real-valuedness
    sym = {e: 0.5 * (c + coeffs.get(conjugate_exponent(e), 0.0).conjugate())
           for e, c in coeffs.items()}
    jet = Jet(nv, CHART_ORDER, sym)
    xi = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.8, 0.8))
    delta = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
    return ConeChart(delta, n, (0.0,) * n, xi, JetPotential(n, jet))


@dataclass
class FrameChange:
    gauge_linear: np.ndarray     # coefficients c_i of the fiber gauge
    gauge_quadratic: np.ndarray  # c_ij
    base_linear: np.ndarray      # B with z = B z'
    base_quadratic: np.ndarray   # Q[i, j, k] with z_i += Q_ijk z'_j z'_k / 2


def normalize_chart(chart: ConeChart):
    """Bring an arbitrary chart to normalized form at its point.

    Kills d a and the (2,0) Hessian by a holomorphic fiber gauge, makes
    the (1,1) Hessian equal a * I by a linear base change, and kills the
    (2,1) jets by a quadratic base change (Kaehler normal coordinates for
    omega_D).  Returns (normalized chart, FrameChange)."""
    n = chart.dimD
    nv = 2 * n
    order = CHART_ORDER
    jet = chart.potential.jet(chart.z, order)
    a0 = jet.value().real
    if a0 <= 0:
        raise NotNormalizedChart("potential must be positive")
    logj = jet.log()

    c1 = np.array([logj.wirtinger((i,)) for i in range(n)])
    c2 = np.array([[logj.wirtinger((i, j)) for j in range(n)]
                   for i in range(n)])
    # gauge: log a' = log a - 2 Re(phi), phi = sum c1 z + 1/2 sum c2 z z
    phi_terms = {}
    for i in range(n):
        phi_terms[wirtinger_exponent(nv, (i,))] = c1[i]
        for j in range(n):
            e = wirtinger_exponent(nv, (i, j))
            phi_terms[e] = phi_terms.get(e, 0.0) + 0.5 * c2[i, j]
    phi = Jet(nv, order, phi_terms)
    logj = logj - phi - phi.conjugate()
    # linear base change: H = ddbar log a -> a0 * I
    H = np.array([[logj.wirtinger((i,), (j,)) for j in range(n)]
                  for i in range(n)])
    w, U = np.linalg.eigh(H)
    if np.any(w <= 0):
        raise NotNormalizedChart("base form i ddbar log a is not positive")
    B = U @ np.diag(1.0 / np.sqrt(w))
    mapping = {}
    for i in range(n):
        mapping[i] = Jet(nv, order, {wirtinger_exponent(nv, (j,)): B[i, j]
                                     for j in range(n)})
        mapping[n + i] = mapping[i].conjugate()
    logj = logj.subst(mapping)
    # quadratic base change killing the (2,1) jets: z_i += 1/2 Q_ijk z_j z_k;
    # after the linear step, ddbar log a = I and Gamma_ij^k = Q[i, j, k]
    Q = np.array([[[logj.wirtinger((i, j), (k,)) for k in range(n)]
                   for j in range(n)] for i in range(n)], dtype=complex)
    mapping2 = {}
    for i in range(n):
        terms = {wirtinger_exponent(nv, (i,)): 1.0}
        for j in range(n):
            for k in range(n):
                e = wirtinger_exponent(nv, (j, k))
                terms[e] = terms.get(e, 0.0) - 0.5 * Q[j, k, i]
        mapping2[i] = Jet(nv, order, terms)
        mapping2[n + i] = mapping2[i].conjugate()
    logj = logj.subst(mapping2)
    # rescale so a(0) stays the original value
    newo = logj + Jet.constant(nv, order, math.log(a0) - logj.value().real)
    out = ConeChart(chart.delta, n, (0.0,) * n, chart.xi,
                    JetPotential(n, newo.exp()))
    return out, FrameChange(c1, c2, B, Q)
