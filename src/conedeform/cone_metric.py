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
from .jets import Jet
from .poly import Polynomial


class NotNormalizedChart(ValueError):
    pass


# ---------------------------------------------------------------------------
# potentials


class Potential:
    """Fiberwise potential a as an exact polynomial in (z_1..z_n, zbar_1..zbar_n).

    Real-valuedness requires the coefficient of (p, q) to equal the
    conjugate of the coefficient of (q, p); with rational coefficients
    that is plain symmetry, which is validated."""

    def __init__(self, dimD: int, poly: Polynomial):
        if poly.nvars != 2 * dimD:
            raise ValueError("potential must use 2*dimD variables")
        self.dimD = dimD
        self.poly = poly
        for e, c in poly.terms.items():
            mirror = tuple(e[dimD:] + e[:dimD])
            if poly.terms.get(mirror, None) != c:
                raise ValueError("potential is not real-valued "
                                 "(coefficients not mirror-symmetric)")

    @staticmethod
    def from_terms(dimD, terms):
        return Potential(dimD, Polynomial(2 * dimD, terms))

    def value(self, z):
        vals = list(z) + [complex(v).conjugate() for v in z]
        return complex(self.poly.evaluate(vals))

    def jet(self, z, order=4) -> Jet:
        """Taylor jet of a at z in the 2*dimD shift variables (dz, dzbar)."""
        n = self.dimD
        vals = list(map(complex, z)) + [complex(v).conjugate() for v in z]
        out = {}
        work = {(0,) * (2 * n): self.poly}
        # iterative differentiation, collecting coefficients /(p! q!)
        frontier = [((0,) * (2 * n), self.poly)]
        seen = {(0,) * (2 * n)}
        while frontier:
            e, p = frontier.pop()
            coeff = complex(p.evaluate(vals))
            if coeff != 0:
                scale = 1.0
                for k in e:
                    scale /= math.factorial(k)
                out[e] = coeff * scale
            if sum(e) >= order:
                continue
            for i in range(2 * n):
                e2 = list(e)
                e2[i] += 1
                e2 = tuple(e2)
                if e2 not in seen:
                    seen.add(e2)
                    frontier.append((e2, p.derivative(i)))
        return Jet(2 * n, order, out)


def round_potential(dimD: int, terms) -> Potential:
    """a = c + sum |z_i|^2 style helper; terms maps (p, q) -> coeff."""
    return Potential.from_terms(dimD, terms)


def fubini_study_potential(dimD: int = 1) -> Potential:
    """a = 1 + sum |z_i|^2; the flat model on the cone over (P^n, O(1))."""
    n = dimD
    terms = {(0,) * (2 * n): 1}
    for i in range(n):
        e = [0] * (2 * n)
        e[i] = 1
        e[n + i] = 1
        terms[tuple(e)] = 1
    return Potential.from_terms(n, terms)


class JetPotential:
    """Potential known only through its jet at one anchor point."""

    def __init__(self, dimD, jet: Jet, anchor=None):
        self.dimD = dimD
        self._jet = jet
        self.anchor = tuple(anchor or (0.0,) * dimD)

    def jet(self, z, order=4):
        if tuple(map(complex, z)) != tuple(map(complex, self.anchor)):
            # re-expand the stored polynomial jet at the displaced point
            n = self.dimD
            shift = [complex(a) - complex(b) for a, b in zip(z, self.anchor)]
            mapping = {}
            for i in range(n):
                mapping[i] = Jet.variable(2 * n, self._jet.order, i, base=shift[i])
                mapping[n + i] = Jet.variable(2 * n, self._jet.order, n + i,
                                              base=shift[i].conjugate())
            return self._jet.subst(mapping)
        return self._jet

    def value(self, z):
        return self.jet(z).value()


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


def _chart_jet(chart: ConeChart, order=4) -> Jet:
    return chart.potential.jet(chart.z, order)


def check_normalized(chart: ConeChart, tol=JET_TOL):
    """Validate the normalized-chart jet conditions at the chart point.

    Requires a > 0, vanishing first z-derivatives and (2,0)-Hessian of a,
    a_(i jbar) = a * delta_ij, and vanishing (2,1)-jets (flat omega_D
    derivatives).  Raises NotNormalizedChart past the tolerance."""
    n = chart.dimD
    jt = _chart_jet(chart, 3)
    a0 = jt.value().real
    if not a0 > 0:
        raise NotNormalizedChart("potential must be positive")
    scale = max(a0, 1.0)

    def bad(name, value):
        raise NotNormalizedChart(f"{name} = {value:.3e} exceeds {tol}")

    for i in range(n):
        e = [0] * (2 * n)
        e[i] = 1
        v = jt.partial(e)
        if abs(v) > tol * scale:
            bad(f"d_z{i + 1} a", abs(v))
        for j in range(i, n):
            e2 = [0] * (2 * n)
            e2[i] += 1
            e2[j] += 1
            v = jt.partial(e2)
            if abs(v) > tol * scale:
                bad(f"d2_z{i + 1}z{j + 1} a", abs(v))
        for j in range(n):
            e3 = [0] * (2 * n)
            e3[i] = 1
            e3[n + j] = 1
            v = jt.partial(e3)
            want = a0 if i == j else 0.0
            if abs(v - want) > tol * scale:
                bad(f"a_{i + 1}{j + 1}bar - a*I", abs(v - want))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = [0] * (2 * n)
                e[i] += 1
                e[j] += 1
                e[n + k] += 1
                v = jt.partial(e)
                if abs(v) > tol * scale:
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


def _exponent(n, hol=(), anti=()):
    """Jet exponent of d_hol dbar_anti in (dz, dxi, dzbar, dxibar)."""
    e = [0] * (2 * n + 2)
    for K in hol:
        e[_slot(K, n)] += 1
    for L in anti:
        e[n + 1 + _slot(L, n)] += 1
    return e


def _ddbar(jet: Jet, n) -> np.ndarray:
    """The matrix d_I dbar_J of a jet in (dz, dxi, dzbar, dxibar)."""
    g = np.zeros((n + 1, n + 1), dtype=complex)
    for I in range(n + 1):
        for J in range(n + 1):
            g[I, J] = jet.partial(_exponent(n, (I,), (J,)))
    return g


def _lifted_jets(chart: ConeChart, z, xi, order):
    """(A, t): the a-jet at z and t = |xi|^2, as jets in
    (dz, dxi, dzbar, dxibar)."""
    n = chart.dimD
    nv = 2 * n + 2
    lifted = {tuple(e[:n]) + (0,) + tuple(e[n:]) + (0,): c
              for e, c in chart.potential.jet(z, order).coeffs.items()}
    xi = complex(xi)
    # t = |xi|^2 expanded around |xi0|^2:  xibar0*dxi + xi0*dxibar + dxi*dxibar
    t = Jet(nv, order, {
        (0,) * nv: abs(xi) ** 2,
        tuple(_exponent(n, (0,))): xi.conjugate(),
        tuple(_exponent(n, (), (0,))): xi,
        tuple(_exponent(n, (0,), (0,))): 1.0,
    })
    return Jet(nv, order, lifted), t


def _phi_jet(chart: ConeChart, z, xi, order=4) -> Jet:
    """Jet of Phi = a^delta (xi xibar)^(-delta) in (dz, dzbar, dxi, dxibar)."""
    A, t = _lifted_jets(chart, z, xi, order)
    d = float(chart.delta)
    return A.power_real(d) * t.power_real(-d)


def metric_field(chart: ConeChart):
    """Map (z, xi) -> full metric matrix from the potential (exact jets)."""
    n = chart.dimD

    def g_at(z, xi):
        return _ddbar(_phi_jet(chart, z, xi, order=2), n)

    return g_at


def metric_derivatives(chart: ConeChart, z, xi):
    """(g, dg, ddg): exact first/second holomorphic-antiholomorphic
    derivatives of the metric components at (z, xi); dg[K,I,J] = d_K g_IJ,
    ddg[K,L,I,J] = d_K dbar_L g_IJ."""
    n = chart.dimD
    jet = _phi_jet(chart, z, xi, order=4)
    dg = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    ddg = np.zeros((n + 1, n + 1, n + 1, n + 1), dtype=complex)
    for I in range(n + 1):
        for J in range(n + 1):
            for K in range(n + 1):
                dg[K, I, J] = jet.partial(_exponent(n, (I, K), (J,)))
                for L in range(n + 1):
                    ddg[K, L, I, J] = jet.partial(_exponent(n, (I, K), (J, L)))
    return _ddbar(jet, n), dg, ddg


def scaling_exponent(t: TensorType, delta) -> Fraction:
    """Exponent e with |Phi|_cone / |Phi|_smooth ~ |xi|^e."""
    d = Fraction(delta)
    return (d * t.p_h + (d + 1) * t.p_v - d * t.q_h - (d + 1) * t.q_v)


def comparison_metric_field(chart: ConeChart, eps=Fraction(1, 10)):
    """Smooth comparison metric pi^* omega_D + eps i ddbar (|xi|^2 / a)."""
    n = chart.dimD
    e = float(eps)

    def g_at(z, xi):
        A, t = _lifted_jets(chart, z, xi, 2)
        return _ddbar(A.log() + A.inverse() * t * e, n)

    return g_at


def tensor_norm(T: np.ndarray, g: np.ndarray) -> float:
    """Norm of a (1,1) tensor T^I_J dw^J (x) d/dw^I under a Hermitian g."""
    ginv = np.linalg.inv(g)
    val = np.einsum("ij,kl,ik,jl->", T, T.conj(), g, ginv.conj())
    return float(abs(val)) ** 0.5


def basis_tensor(kind: str, n: int) -> np.ndarray:
    """Unit-slot (1,1) tensors: 'vh' = dxi (x) d/dz1, 'hv' = dz1 (x) d/dxi,
    'vv' = dxi (x) d/dxi, 'hh' = dz1 (x) d/dz1 (index 0 = fiber)."""
    T = np.zeros((n + 1, n + 1), dtype=complex)
    if kind == "vh":                 # vertical covariant, horizontal contravariant
        T[1, 0] = 1.0
    elif kind == "hv":
        T[0, 1] = 1.0
    elif kind == "vv":
        T[0, 0] = 1.0
    elif kind == "hh":
        T[1, 1] = 1.0
    else:
        raise ValueError(kind)
    return T


TENSOR_TYPES = {
    "vh": TensorType(p_v=1, q_h=1),
    "hv": TensorType(p_h=1, q_v=1),
    "vv": TensorType(p_v=1, q_v=1),
    "hh": TensorType(p_h=1, q_h=1),
}


def empirical_scaling_slope(chart_proto: ConeChart, kind: str,
                            k_range=range(1, 9)) -> float:
    """log-log slope of |T|_cone/|T|_smooth over xi = 2^-k."""
    gfun = metric_field(chart_proto)
    gtil = comparison_metric_field(chart_proto)
    T = basis_tensor(kind, chart_proto.dimD)
    xs, ys = [], []
    for k in k_range:
        xi = 2.0 ** (-k)
        g = gfun(chart_proto.z, xi)
        gt = gtil(chart_proto.z, xi)
        ratio = tensor_norm(T, g) / tensor_norm(T, gt)
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


def christoffels_fd(chart: ConeChart, h=1e-5, richardson=True) -> np.ndarray:
    """FD Christoffels of the metric field: Gamma^k_ij = g^(k lbar) d_i g_(j lbar)."""
    gfun = metric_field(chart)
    coords = list(chart.z) + [chart.xi]
    ginv = np.linalg.inv(gfun(chart.z, chart.xi))
    dg = _fd_jacobian(gfun, coords, h, richardson)
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
    roundoff error; it says nothing about the identity itself.  A step-independent Ricci defect,
    such as one from a wrong mu, shows in ricci_defect only."""
    n = potential.dimD
    d = float(Fraction(delta))
    mu = float(Fraction(mu))
    if grid is None:
        grid = [((0.05 + 0.1j,) * n, 0.9 + 0.2j),
                ((-0.15 + 0.02j,) * n, 1.1 - 0.3j),
                ((0.1 - 0.08j,) * n, 0.75)]
    chart = ConeChart(Fraction(delta), n, (0,) * n, 1.0, potential)
    gfun = metric_field(chart)
    max_riem = 0.0
    max_defect = 0.0
    converged = True
    notes = []
    for z0, xi0 in grid:
        coords = list(map(complex, z0)) + [complex(xi0)]

        # base Hessian of log a (exact), for the target Ricci
        a_jet = potential.jet(z0, 2)
        base_hess = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                e = [0] * (2 * n)
                e[i] += 1
                e[n + j] += 1
                base_hess[i, j] = a_jet.partial(e)
        a0 = a_jet.value().real
        loga_hess = base_hess / a0
        for i in range(n):
            for j in range(n):
                e1 = [0] * (2 * n)
                e1[i] = 1
                e2 = [0] * (2 * n)
                e2[n + j] = 1
                loga_hess[i, j] -= (a_jet.partial(e1) * a_jet.partial(e2)) / a0 ** 2

        degenerate_base = np.max(np.abs(loga_hess)) < 1e-14

        target = np.zeros((n + 1, n + 1), dtype=complex)
        if degenerate_base:
            # only the fiber block is nondegenerate; log g_00 must be
            # pluriharmonic in every direction
            def logf(z, xi):
                return cmath.log(gfun(z, xi)[0, 0])

            def field(hstep):
                out = np.zeros((n + 1, n + 1), dtype=complex)
                for K in range(n + 1):
                    for L in range(n + 1):
                        out[K, L] = fd_mixed_wirtinger(
                            _moved(logf, coords, K, L), 0.0, 0.0, hstep,
                            richardson)
                return out
            notes.append("base metric degenerate; checked pluriharmonicity "
                         "of log g_00")
        else:
            def logf(z, xi):
                return cmath.log(np.linalg.det(gfun(z, xi)))

            target[1:, 1:] = (mu - (n + 1) * d) * loga_hess

            def field(hstep):
                # the Ricci form -dd log det g
                ric = np.zeros((n + 1, n + 1), dtype=complex)
                for K in range(n + 1):
                    for L in range(n + 1):
                        if K == L:
                            # d^2/dw dwbar = Laplacian / 4
                            f1 = _moved(logf, coords, K)
                            fx = fd.second(f1, 0.0, hstep, richardson)
                            fy = fd.second(lambda t: f1(1j * t), 0.0, hstep,
                                           richardson)
                            ric[K, L] = -(fx + fy) / 4
                        else:
                            ric[K, L] = -fd_mixed_wirtinger(
                                _moved(logf, coords, K, L), 0.0, 0.0, hstep,
                                richardson)
                return ric

        fine = field(h)
        defect = float(np.max(np.abs(fine - target)))
        max_defect = max(max_defect, defect)
        if diagnose_convergence:
            coarse_field = field(4 * h)
            order = 4 if richardson else 2
            truncation = float(np.max(np.abs(fine - coarse_field))) / \
                (4 ** order - 1)
            roundoff = ROUNDOFF_C * np.finfo(float).eps * \
                max(1.0, abs(logf(coords[:n], coords[n]))) / h ** 2
            floor = max(1e-9, roundoff)
            if not truncation <= floor:      # a NaN estimate fails too
                converged = False
                coarse = float(np.max(np.abs(coarse_field - target)))
                notes.append(
                    f"convergence not reached at step {h:g}: defect "
                    f"{defect:.3e} vs {coarse:.3e} at step {4 * h:g}, "
                    f"truncation estimate {truncation:.3e} above the "
                    f"error floor {floor:.3e}; refine the step or the grid")
        if degenerate_base:
            continue

        if full_riemann:
            ginv = np.linalg.inv(metric_derivatives(chart, z0, xi0)[0])
            dg = _fd_jacobian(gfun, coords, h, richardson)
            ddg = np.array([[fd_mixed_wirtinger(_moved(gfun, coords, K, L),
                                                0.0, 0.0, h, richardson)
                             for L in range(n + 1)] for K in range(n + 1)])
            # R_ijkl = -d_k dbar_l g_ij + g^(q pbar) d_k g_iq conj(d_l g_jp)
            riem = -ddg.transpose(2, 3, 0, 1) + \
                np.einsum("qp,kiq,ljp->ijkl", ginv, dg, dg.conj())
            max_riem = max(max_riem, np.abs(riem).max())
    return CurvatureReport(max_riem if full_riemann else None,
                           max_defect, len(grid), converged, notes)


# ---------------------------------------------------------------------------
# normalized-chart generation and the normalizing helper


def random_normalized_chart(rng, dimD=1, order=4) -> ConeChart:
    """Random chart satisfying the normalization jet conditions exactly."""
    n = dimD
    nv = 2 * n
    a0 = 0.5 + 2.0 * rng.random()
    coeffs = {(0,) * nv: complex(a0)}
    for i in range(n):
        e = [0] * nv
        e[i] += 1
        e[n + i] += 1
        coeffs[tuple(e)] = complex(a0)
    # free jets: (3,0), (4,0), (2,2), (3,1) plus conjugates
    def rnd():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def add(e_h, e_a, c):
        e = [0] * nv
        for i in e_h:
            e[i] += 1
        for j in e_a:
            e[n + j] += 1
        ph, qh = tuple(e[:n]), tuple(e[n:])
        scale = 1.0
        for k in e:
            scale /= math.factorial(k)
        coeffs[tuple(e)] = coeffs.get(tuple(e), 0.0) + c * scale
        mirror = qh + ph
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
    sym = {}
    for e, c in coeffs.items():
        mirror = tuple(e[n:]) + tuple(e[:n])
        sym[e] = 0.5 * (c + coeffs.get(mirror, 0.0).conjugate())
    jet = Jet(nv, order, sym)
    xi = complex(rng.uniform(0.6, 1.6), rng.uniform(-0.8, 0.8))
    delta = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
    return ConeChart(delta, n, (0.0,) * n, xi, JetPotential(n, jet))


@dataclass
class FrameChange:
    gauge_linear: np.ndarray     # coefficients c_i of the fiber gauge
    gauge_quadratic: np.ndarray  # c_ij
    base_linear: np.ndarray      # B with z = B z'
    base_quadratic: np.ndarray   # Q[i, j, k] with z_i += Q_ijk z'_j z'_k / 2


def normalize_chart(chart: ConeChart, order=4):
    """Bring an arbitrary chart to normalized form at its point.

    Kills d a and the (2,0) Hessian by a holomorphic fiber gauge, makes
    the (1,1) Hessian equal a * I by a linear base change, and kills the
    (2,1) jets by a quadratic base change (Kaehler normal coordinates for
    omega_D).  Returns (normalized chart, FrameChange)."""
    n = chart.dimD
    nv = 2 * n
    jet = chart.potential.jet(chart.z, order)
    a0 = jet.value().real
    if a0 <= 0:
        raise NotNormalizedChart("potential must be positive")
    logj = jet.log()

    def P(e_h, e_a):
        e = [0] * nv
        for i in e_h:
            e[i] += 1
        for j in e_a:
            e[n + j] += 1
        return logj.partial(e)

    c1 = np.array([P((i,), ()) for i in range(n)])
    c2 = np.array([[P((i, j), ()) for j in range(n)] for i in range(n)])
    # gauge: log a' = log a - 2 Re(phi), phi = sum c1 z + 1/2 sum c2 z z
    phi_terms = {}
    for i in range(n):
        e = [0] * nv
        e[i] = 1
        phi_terms[tuple(e)] = c1[i]
        for j in range(n):
            e2 = [0] * nv
            e2[i] += 1
            e2[j] += 1
            phi_terms[tuple(e2)] = phi_terms.get(tuple(e2), 0.0) + 0.5 * c2[i, j]
    phi = Jet(nv, order, phi_terms)
    phibar = Jet(nv, order, {tuple(e[n:]) + tuple(e[:n]): c.conjugate()
                             for e, c in phi.coeffs.items()})
    logj = logj - phi - phibar
    # linear base change: H = ddbar log a -> a0 * I
    H = np.array([[logj.partial(tuple((1 if k == i else 0) for k in range(n))
                                + tuple((1 if k == j else 0) for k in range(n)))
                   for j in range(n)] for i in range(n)])
    w, U = np.linalg.eigh(H)
    if np.any(w <= 0):
        raise NotNormalizedChart("base form i ddbar log a is not positive")
    B = U @ np.diag(1.0 / np.sqrt(w))
    mapping = {}
    for i in range(n):
        zi = Jet.constant(nv, order, 0.0)
        for j in range(n):
            zi = zi + Jet.variable(nv, order, j) * B[i, j]
        mapping[i] = zi
        zib = Jet.constant(nv, order, 0.0)
        for j in range(n):
            zib = zib + Jet.variable(nv, order, n + j) * B[i, j].conjugate()
        mapping[n + i] = zib
    logj = logj.subst(mapping)
    # quadratic base change killing the (2,1) jets: z_i += 1/2 Q_ijk z_j z_k
    T21 = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = [0] * nv
                e[i] += 1
                e[j] += 1
                e[n + k] += 1
                T21[i, j, k] = logj.partial(e)
    # after the linear step, ddbar log a = I; Gamma_ij^k = T21[i,j,k]
    Q = T21
    mapping2 = {}
    for i in range(n):
        zi = Jet.variable(nv, order, i)
        zib = Jet.variable(nv, order, n + i)
        for j in range(n):
            for k in range(n):
                zi = zi + Jet.variable(nv, order, j) * Jet.variable(nv, order, k) \
                    * (-0.5 * Q[j, k, i])
                zib = zib + Jet.variable(nv, order, n + j) * \
                    Jet.variable(nv, order, n + k) * (-0.5 * Q[j, k, i].conjugate())
        mapping2[i] = zi
        mapping2[n + i] = zib
    logj = logj.subst(mapping2)
    # rescale so a(0) stays the original value
    newo = logj + Jet.constant(nv, order, math.log(a0) - logj.value().real)
    a_new = _exp_jet(newo)
    out = ConeChart(chart.delta, n, (0.0,) * n, chart.xi,
                    JetPotential(n, a_new))
    return out, FrameChange(c1, c2, B, Q)


def _exp_jet(j: Jet) -> Jet:
    c0, u = j._split_lead()
    out = Jet.constant(j.nvars, j.order, 1.0)
    term = Jet.constant(j.nvars, j.order, 1.0)
    for k in range(1, j.order + 1):
        term = term * u * (1.0 / k)
        out = out + term
    return out * cmath.exp(complex(c0))
