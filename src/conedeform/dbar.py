"""Cauchy transform, weighted Hoelder norms, and the Beltrami iteration
on an annularly graded punctured disk.

Convention (frozen by the T(1) = conj(zeta) calibration):

    Tf(zeta) = (1/pi) int_{0<|tau|<R} f(tau)/(zeta - tau) dA(tau),

so that dbar(Tf) = f; the modified transform is Ttilde f = Tf - Tf(0).

The default quadrature is exact in the angle (Fourier modes integrate
against the kernel in closed form) and Gauss-Legendre in the radius per
ring, with the radial split at |zeta| handling the singularity; per mode n

    Tf = sum_{n<=0} 2 zeta^(n-1) int_0^rho g_n(r) r^(1-n) dr
       - sum_{n>=1} 2 zeta^(n-1) int_rho^R g_n(r) r^(1-n) dr,

organized so only ratio powers <= 1 ever appear.

There is one transform path.  The mode coefficients coeff[u, n], with
Tf = sum_n coeff[u, n] e^(i (n-1) phi), depend on the target only through
its radius, so they are computed once per distinct radius |zeta|: whole
rings enter through target-independent ring integrals, and the ring that
holds the radius is split there by a Gauss sub-rule on the interpolated
g_n, each part on the half of the modes it keeps.  Grid nodes synthesize
the values, and d/dzeta from the same coefficients, by inverse FFT;
arbitrary points synthesize by a phase sum per point.  Tf(0) needs only
the ring integrals.  A plain polar-midpoint rule with the exact (vanishing)
singular-cell integral is kept as the 'midpoint' scheme for the O(mesh^2)
refinement check.

The checks differentiate transform values by the central differences of
conedeform.fd, unextrapolated, at steps scaled by the radius or the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fd


class QuadratureDivergence(ValueError):
    pass


class PreconditionFailure(RuntimeError):
    pass


class ContractionFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# grids and fields


class DiskGrid:
    """Geometric annuli A(s, 2s), s = R 2^-k for k = 1..rings, each carrying
    `radial` nodes and `angular` equispaced angles.  With puncture=False a
    center piece [0, R 2^-rings) is appended (full-disk quadrature)."""

    def __init__(self, R, rings, angular, radial=8, puncture=True,
                 scheme="gauss"):
        if angular % 2:
            raise ValueError("angular count must be even")
        self.R = float(R)
        self.rings = int(rings)
        self.angular = int(angular)
        self.radial = int(radial)
        self.puncture = bool(puncture)
        self.scheme = scheme
        bounds = [(self.R * 2.0 ** (-k), self.R * 2.0 ** (-k + 1))
                  for k in range(1, self.rings + 1)]
        if not puncture:
            bounds.append((0.0, self.R * 2.0 ** (-self.rings)))
        self.bounds = bounds
        if scheme == "gauss":
            x, w = np.polynomial.legendre.leggauss(self.radial)
            self.radii = np.empty((len(bounds), self.radial))
            self.rweights = np.empty_like(self.radii)
            for k, (lo, hi) in enumerate(bounds):
                self.radii[k] = lo + (hi - lo) * (x + 1) / 2
                self.rweights[k] = w * (hi - lo) / 2
            self.thetas = 2 * np.pi * np.arange(self.angular) / self.angular
        elif scheme == "midpoint":
            self.radii = np.empty((len(bounds), self.radial))
            self.rweights = np.empty_like(self.radii)
            for k, (lo, hi) in enumerate(bounds):
                edges = np.linspace(lo, hi, self.radial + 1)
                self.radii[k] = (edges[:-1] + edges[1:]) / 2
                self.rweights[k] = np.diff(edges)
            self.thetas = 2 * np.pi * (np.arange(self.angular) + 0.5) / self.angular
        else:
            raise ValueError(scheme)
        self._plan = None

    @property
    def nrings(self):
        return len(self.bounds)

    @property
    def inner_radius(self):
        return self.R * 2.0 ** (-self.rings)

    def nodes(self):
        """Complex node array of shape (nrings, radial, angular)."""
        r = self.radii[:, :, None]
        th = self.thetas[None, None, :]
        return r * np.exp(1j * th)

    def shape(self):
        return (self.nrings, self.radial, self.angular)


@dataclass
class DiskField:
    grid: DiskGrid
    values: np.ndarray
    eta: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape():
            raise ValueError("value array does not match the grid")

    @staticmethod
    def from_function(grid, fn, eta=0.0):
        return DiskField(grid, fn(grid.nodes()), eta)

    def restricted(self, rings):
        """Field on the outermost `rings` annuli (same R)."""
        sub = DiskGrid(self.grid.R, rings, self.grid.angular,
                       self.grid.radial, puncture=True, scheme=self.grid.scheme)
        return DiskField(sub, self.values[:rings].copy(), self.eta)

    def measured_decay(self):
        """Log-log slope of the per-ring sup against the ring scale."""
        sups = np.max(np.abs(self.values), axis=(1, 2))
        s = np.array([lo for lo, _ in self.grid.bounds])
        keep = sups > 0
        if keep.sum() < 2:
            return None
        return _regress(np.log(s[keep]), np.log(sups[keep]))


def _regress(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if len(x) < 2:
        return None
    mx, my = x.mean(), y.mean()
    return float(((x - mx) * (y - my)).sum() / ((x - mx) ** 2).sum())


# ---------------------------------------------------------------------------
# angular-exact transform machinery (gauss scheme)

_BLOCK = 2048   # targets per vectorized block: bounds the temporaries


def _modes(grid, V):
    """FFT mode coefficients g_n(r_i), shape (K, n_r, M)."""
    return np.fft.fft(V, axis=-1) / grid.angular


class _Plan:
    """Static geometry tables for the angular-exact transform on a grid."""

    def __init__(self, grid: DiskGrid):
        M = grid.angular
        self.n = np.fft.fftfreq(M, 1.0 / M).astype(int)
        self.absn = np.abs(self.n)
        # modes kept by the inner (n <= 0) and outer (n >= 1) radial parts
        self.neg = np.flatnonzero(self.n <= 0)
        self.pos = np.flatnonzero(self.n >= 1)
        self.expo = np.where(self.n >= 1, self.n - 1, 0)
        self.sub_x, self.sub_w = np.polynomial.legendre.leggauss(
            grid.radial + 6)
        self.lo = np.array([lo for lo, _ in grid.bounds])
        self.hi = np.array([hi for _, hi in grid.bounds])
        # barycentric weights of the ring radial nodes
        self.bary = []
        for k in range(grid.nrings):
            r = grid.radii[k]
            w = np.ones(grid.radial)
            for i in range(grid.radial):
                for j in range(grid.radial):
                    if i != j:
                        w[i] /= (r[i] - r[j])
            self.bary.append(w)


def _bary_interp(r_nodes, bary_w, targets):
    """Barycentric interpolation weights from nodes to targets (batched)."""
    T = np.asarray(targets, dtype=float)[..., None]
    diff = T - r_nodes
    small = np.abs(diff) < 1e-14 * np.maximum(np.abs(T), 1e-300)
    safe = np.where(small, 1.0, diff)
    terms = bary_w / safe
    E = terms / terms.sum(axis=-1, keepdims=True)
    hit = small.any(axis=-1)
    if np.any(hit):
        E = np.where(hit[..., None], small.astype(float), E)
    return E


def _plan(grid) -> _Plan:
    if grid._plan is None:
        grid._plan = _Plan(grid)
    return grid._plan


def _ring_integrals(grid, plan, G):
    """Target-independent per-ring mode integrals, each of shape (K, M).

    J_in[k, n]  = int_ring g_n r (r/hi)^|n| dr          (modes n <= 0)
    J_out[k, n] = int_ring g_n (lo/r)^(n-1) dr          (modes n >= 1)
    """
    r = grid.radii[..., None]
    w = grid.rweights[..., None]
    fold_in = w * r * (r / plan.hi[:, None, None]) ** plan.absn * (plan.n <= 0)
    fold_out = w * (plan.lo[:, None, None] / r) ** plan.expo * (plan.n >= 1)
    return (np.einsum("kim,kim->km", G, fold_in),
            np.einsum("kim,kim->km", G, fold_out))


def _value_at_zero(grid, G):
    """Tf(0): only the n = 1 outer ring integrals contribute."""
    plan = _plan(grid)
    _, J_out = _ring_integrals(grid, plan, G)
    return -2.0 * J_out[:, plan.n == 1].sum()


def _radial_coefficients(grid, G, rho):
    """coeff[u, n] with Tf(rho_u e^(i phi)) = sum_n coeff[u, n] e^(i(n-1)phi),
    for distinct radii rho_u > 0.

    Rings wholly inside or outside rho_u enter through the ring integrals,
    accumulated ring to ring (ratio powers <= 1 only); the ring holding
    rho_u is split there by a Gauss sub-rule."""
    plan = _plan(grid)
    K, M = grid.nrings, grid.angular
    J_in, J_out = _ring_integrals(grid, plan, G)
    # C_in[k] = sum_{j >= k} (hi_j/hi_k)^|n| J_in[j]
    # C_out[k] = sum_{j < k} (lo_{k-1}/lo_j)^(n-1) J_out[j]
    hi = np.append(plan.hi, 0.0)
    lo = np.insert(plan.lo, 0, np.inf)
    C_in = np.zeros((K + 1, M), dtype=complex)
    C_out = np.zeros((K + 1, M), dtype=complex)
    for k in range(K - 1, -1, -1):
        C_in[k] = J_in[k] + (hi[k + 1] / hi[k]) ** plan.absn * C_in[k + 1]
    for k in range(K):
        C_out[k + 1] = J_out[k] + (lo[k + 1] / lo[k]) ** plan.expo * C_out[k]
    a = np.count_nonzero(plan.lo >= rho[:, None], axis=1)  # rings < a: outside
    b = np.count_nonzero(plan.hi > rho[:, None], axis=1)   # rings >= b: inside
    coeff = 2.0 * ((hi[b] / rho)[:, None] ** plan.absn * C_in[b] / rho[:, None]
                   - (rho / lo[a])[:, None] ** plan.expo * C_out[a])
    own = np.flatnonzero(b > a)
    for k in np.unique(a[own]):
        idx = own[a[own] == k]
        for s in range(0, len(idx), _BLOCK):
            blk = idx[s:s + _BLOCK]
            coeff[blk] += _split_ring(grid, plan, G[k], k, rho[blk, None])
    return coeff


def _split_ring(grid, plan, Gk, k, rho):
    """2 (P_in - P_out) for radii rho (column) strictly inside ring k, each
    part on the modes it keeps:

    P_in  = (1/rho) int_lo^rho g_n r (r/rho)^|n| dr     (n <= 0)
    P_out = int_rho^hi g_n (rho/r)^(n-1) dr             (n >= 1)
    """
    lo, hi = grid.bounds[k]
    x, w = plan.sub_x, plan.sub_w
    r1 = lo + (rho - lo) * (x + 1) / 2
    w1 = (rho - lo) * w / 2
    r2 = rho + (hi - rho) * (x + 1) / 2
    w2 = (hi - rho) * w / 2
    neg, pos = plan.neg, plan.pos
    out = np.empty((len(rho), grid.angular), dtype=complex)
    fold1 = (w1 * r1)[..., None] * (r1 / rho)[..., None] ** plan.absn[neg]
    out[:, neg] = _sub_rule(grid, plan, k, Gk[:, neg], r1, fold1) / rho
    fold2 = w2[..., None] * (rho / r2)[..., None] ** plan.expo[pos]
    out[:, pos] = -_sub_rule(grid, plan, k, Gk[:, pos], r2, fold2)
    return 2.0 * out


def _sub_rule(grid, plan, k, Gk, r, fold):
    """sum_s fold[u, s, n] g_n(r[u, s]), g interpolated from ring k's nodes."""
    E = _bary_interp(grid.radii[k], plan.bary[k], r).reshape(-1, grid.radial)
    g = (E @ np.ascontiguousarray(Gk).view(float)).view(complex)
    g = g.reshape(fold.shape)
    return np.einsum("usm,usm->um", g, fold)


def _node_transform(grid, V, modified, derivative=False):
    """Tf or Ttilde f at the grid nodes (inverse FFT of the per-radius
    coefficients), and d/dzeta of it from the same coefficients."""
    plan = _plan(grid)
    G = _modes(grid, V)
    coeff = _radial_coefficients(grid, G, grid.radii.ravel())
    coeff = coeff.reshape(grid.shape())
    M = grid.angular
    out = M * np.fft.ifft(coeff, axis=-1) * np.exp(-1j * grid.thetas)
    if modified:
        out = out - _value_at_zero(grid, G)
    if not derivative:
        return out, None
    # d/dzeta: sum_n 2 (n-1) zeta^(n-2) (I_in | -I_out) + e^(-2 i phi) f
    e2 = np.exp(-2j * grid.thetas)
    dcoef = coeff * (plan.n - 1) / grid.radii[..., None]
    return out, M * np.fft.ifft(dcoef, axis=-1) * e2 + e2 * V


# ---------------------------------------------------------------------------
# public transform API


def _check_integrable(f: DiskField):
    if f.eta <= -1:
        raise QuadratureDivergence(
            f"declared decay eta = {f.eta} makes the transform divergent")


def cauchy_transform(f: DiskField) -> DiskField:
    """Solid Cauchy transform at the grid nodes."""
    _check_integrable(f)
    if f.grid.scheme == "midpoint":
        return _midpoint_transform(f, modified=False)
    out, _ = _node_transform(f.grid, f.values, modified=False)
    return DiskField(f.grid, out, min(f.eta + 1, 1.0))


def modified_transform(f: DiskField) -> DiskField:
    """Ttilde f = Tf - Tf(0); vanishes at the puncture exactly."""
    _check_integrable(f)
    if f.grid.scheme == "midpoint":
        return _midpoint_transform(f, modified=True)
    out, _ = _node_transform(f.grid, f.values, modified=True)
    return DiskField(f.grid, out, min(f.eta + 1, 1.0))


def transform_with_derivative(f: DiskField):
    """(Ttilde f, d/dzeta Ttilde f) values at the grid nodes."""
    _check_integrable(f)
    return _node_transform(f.grid, f.values, modified=True, derivative=True)


def transform_at(f: DiskField, pts, modified=True):
    """Ttilde f (default) or Tf at arbitrary points: the coefficients at each
    distinct |pts|, then a phase sum per point."""
    _check_integrable(f)
    grid = f.grid
    pts = np.asarray(pts, dtype=complex).ravel()
    rho = np.abs(pts)
    if np.any(rho == 0):
        raise ValueError("evaluation at the puncture is not defined; use "
                         "the modified transform value 0 instead")
    G = _modes(grid, f.values)
    radii, inv = np.unique(rho, return_inverse=True)
    coeff = _radial_coefficients(grid, G, radii)
    phi = np.angle(pts)
    k = _plan(grid).n - 1
    vals = np.empty(len(pts), dtype=complex)
    for s in range(0, len(pts), _BLOCK):
        sl = slice(s, s + _BLOCK)
        phase = np.exp(1j * np.outer(phi[sl], k))
        vals[sl] = np.einsum("pm,pm->p", coeff[inv[sl]], phase)
    if modified:
        vals -= _value_at_zero(grid, G)
    return vals


def _midpoint_transform(f: DiskField, modified: bool) -> DiskField:
    """Polar midpoint rule; the singular cell is replaced by the exact
    integral over the equal-area disk centered at the node, which is 0."""
    grid = f.grid
    nodes = grid.nodes().ravel()
    r = grid.radii[:, :, None] * np.ones_like(grid.thetas)[None, None, :]
    w = (grid.rweights[:, :, None] * np.ones_like(grid.thetas)[None, None, :]
         * (2 * np.pi / grid.angular)) * grid.radii[:, :, None]
    w = w.ravel()
    src = f.values.ravel()
    out = np.empty_like(src)
    chunk = 512
    for i0 in range(0, len(nodes), chunk):
        tgt = nodes[i0:i0 + chunk, None]
        diff = tgt - nodes[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = np.where(diff == 0, 0.0, 1.0 / np.where(diff == 0, 1.0, diff))
        out[i0:i0 + chunk] = (ker * (w * src)[None, :]).sum(axis=1) / np.pi
    vals = out.reshape(grid.shape())
    if modified:
        t0 = (-(w * src / nodes).sum()) / np.pi
        vals = vals - t0
    return DiskField(grid, vals, min(f.eta + 1, 1.0))


# ---------------------------------------------------------------------------
# weighted Hoelder norms


@dataclass
class HolderParams:
    alpha: float
    nu: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")


def _ring_derivatives(grid, V):
    """Wirtinger derivatives (d/dzeta, d/dzbar) per ring via the radial
    differentiation matrix on the GL nodes and the spectral angular
    derivative."""
    K, n_r, M = grid.shape()
    plan = _plan(grid)
    n = plan.n
    dz = np.empty_like(V)
    dzb = np.empty_like(V)
    for k in range(K):
        r = grid.radii[k]
        D = _diff_matrix(r, plan.bary[k])
        dr = np.einsum("ab,...bm->...am", D, V[..., k, :, :])
        Gh = np.fft.fft(V[..., k, :, :], axis=-1)
        dth = np.fft.ifft(1j * n * Gh, axis=-1)
        th = grid.thetas
        eith = np.exp(1j * th)
        rr = r[:, None]
        dz[..., k, :, :] = 0.5 * (dr - 1j * dth / rr) / eith
        dzb[..., k, :, :] = 0.5 * (dr + 1j * dth / rr) * eith
    return dz, dzb


def _diff_matrix(r, bary):
    n = len(r)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = bary[j] / bary[i] / (r[i] - r[j])
        D[i, i] = -D[i].sum()
    return D


@dataclass
class NormReport:
    total: float
    sup_part: float
    deriv_part: float
    holder_part: float
    deriv_holder_part: float
    per_ring: list


def weighted_norms(f: DiskField, p: HolderParams, rings=None) -> NormReport:
    """Scaling-weighted C^{1,alpha}_nu norm via per-annulus seminorms.

    [w]_{1,alpha,s} = sup|w| + s sup|Dw| + s^a Hol_a(w) + s^(1+a) Hol_a(Dw)
    on A(s,2s); the norm is sup_s s^(-nu) [w]_{1,alpha,s}.  Pairs for the
    Hoelder quotients stay within one annulus (comparable radii only)."""
    grid = f.grid
    K = rings if rings is not None else grid.rings
    V = f.values
    dz, dzb = _ring_derivatives(grid, V)
    nodes = grid.nodes()
    alpha, nu = p.alpha, p.nu
    per_ring = []
    parts = np.zeros(4)
    total = 0.0
    for k in range(K):
        s = grid.bounds[k][0]
        w = V[k].ravel()
        d1 = np.maximum(np.abs(dz[k]), np.abs(dzb[k])).ravel()
        sup = float(np.abs(w).max())
        supd = float(d1.max())
        hol, holz, holzb = _holder_sups(
            nodes[k].ravel(), (w, dz[k].ravel(), dzb[k].ravel()), alpha)
        hold = max(holz, holzb)
        bracket = sup + s * supd + s ** alpha * hol + s ** (1 + alpha) * hold
        weight = s ** (-nu)
        per_ring.append({"s": s, "sup": sup, "dsup": supd, "holder": hol,
                         "dholder": hold, "weighted": weight * bracket})
        parts = np.maximum(parts, weight * np.array(
            [sup, s * supd, s ** alpha * hol, s ** (1 + alpha) * hold]))
        total = max(total, weight * bracket)
    return NormReport(total, *parts, per_ring)


def _holder_sups(pts, fields, alpha):
    """Exact max over point pairs of |v_i - v_j| / |p_i - p_j|^alpha for each
    field v, coincident points skipped.  |p_i - p_j|^alpha is computed once
    per block of rows against the columns j >= the block start (the upper
    triangle) and shared by the fields, so memory is O(len(pts))."""
    rows = 64
    sups = [0.0] * len(fields)
    for i0 in range(0, len(pts), rows):
        dp = np.abs(pts[i0:i0 + rows, None] - pts[None, i0:])
        dpa = dp ** alpha
        live = dp > 0
        for j, v in enumerate(fields):
            dv = np.abs(v[i0:i0 + rows, None] - v[None, i0:])
            q = np.divide(dv, dpa, out=np.zeros_like(dv), where=live)
            sups[j] = float(np.maximum(sups[j], q.max()))
    return sups


def weighted_sup(f: DiskField, weight_exp: float) -> float:
    """sup over nodes of |zeta|^(-weight_exp) |f|."""
    r = f.grid.radii[:, :, None]
    return float((np.abs(f.values) / r ** weight_exp).max())


def weighted_bound_ratio(f: DiskField, nu: float) -> float:
    """Measured constant in ||rho^-nu Ttilde f|| <= C ||rho^(1-nu) f||."""
    tf = modified_transform(f)
    num = weighted_sup(tf, nu)
    den = weighted_sup(f, nu - 1)
    return num / den


# ---------------------------------------------------------------------------
# Beltrami fixed point


@dataclass
class PerturbationModel:
    a: object                    # callable on complex arrays
    eta: float
    smallness: float

    @staticmethod
    def constant(c):
        c = complex(c)
        return PerturbationModel(lambda z: np.full_like(z, c, dtype=complex),
                                 0.0, abs(c))

    @staticmethod
    def power(c, eta):
        c = complex(c)

        def a(z):
            z = np.asarray(z, dtype=complex)
            az = np.abs(z)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = c * np.conj(z) / az * az ** eta
            return np.where(az == 0, 0.0, out)

        return PerturbationModel(a, float(eta), abs(c))

    def validate_on(self, grid):
        z = grid.nodes()
        bound = self.smallness * np.abs(z) ** self.eta
        if np.any(np.abs(self.a(z)) > bound * (1 + 1e-9) + 1e-300):
            raise ValueError("|a| exceeds smallness * |zeta|^eta on the grid")


@dataclass
class BeltramiSolution:
    z_field: DiskField           # the correction zfrak (z = zeta + zfrak)
    iterations: int
    increments: list
    residual: float
    norm: float
    grid: DiskGrid
    g_final: DiskField

    def z_at(self, pts):
        return np.asarray(pts, dtype=complex) + transform_at(self.g_final, pts)


CONTRACTION_THRESHOLD = 0.25


def solve_beltrami(model: PerturbationModel, p: HolderParams, R, tol=1e-10,
                   max_iter=40, rings=8, angular=64, radial=10,
                   extra_rings=8, verify=True) -> BeltramiSolution:
    """Fixed-point iteration for dz/dzbar + a(z) dzbar/dzbar = 0, z = zeta + zfrak,

        zfrak_{m+1} = Ttilde( -a(zeta + zfrak_m) (1 + conj(d zfrak_m)) ),

    in the scaling-weighted C^{1,alpha}_{nu+1} norm on the declared rings.
    The source quadrature grid extends `extra_rings` deeper.  The hole below
    it is not negligible against tol: it shifts the solution by about
    4^-extra_rings relative to its size on the innermost declared ring
    (1.5e-5 at the default 8; for a constant model c the shift is
    |c| rho_h^2 / |zeta|, rho_h the hole radius), so the iteration converges
    to the truncated problem.  Refuses to iterate when the probed ||J[0]||
    exceeds the contraction threshold 1/4."""
    if model.eta > 0 and not p.nu < model.eta:
        raise ValueError("the weight nu must lie strictly below eta")
    grid = DiskGrid(R, rings + extra_rings, angular, radial, puncture=True)
    decl = DiskGrid(R, rings, angular, radial)
    pw = HolderParams(p.alpha, p.nu + 1)
    model.validate_on(grid)
    zeta = grid.nodes()
    a0 = model.a(zeta)
    g = DiskField(grid, -a0, model.eta)
    z0, _ = transform_with_derivative(g)
    # threshold check on the weighted sup of J[0]; the full Hoelder norm is
    # reported by contraction_study
    j0_field = DiskField(decl, z0[:rings], model.eta + 1)
    j0_sup = weighted_sup(j0_field, p.nu + 1)
    if j0_sup > CONTRACTION_THRESHOLD:
        raise PreconditionFailure(
            f"weighted sup of J[0] = {j0_sup:.3g} exceeds the contraction "
            f"threshold {CONTRACTION_THRESHOLD}; reduce R or the perturbation")
    zf = np.zeros_like(a0)
    dzf = np.zeros_like(a0)
    increments = []
    prev_inc = None
    bad = 0
    it = 0
    for it in range(1, max_iter + 1):
        gv = -model.a(zeta + zf) * (1.0 + np.conj(dzf))
        g = DiskField(grid, gv, model.eta)
        zf_new, dzf_new = transform_with_derivative(g)
        inc_field = DiskField(decl, (zf_new - zf)[:rings], model.eta + 1)
        inc = weighted_norms(inc_field, pw).total
        increments.append(inc)
        zf, dzf = zf_new, dzf_new
        if inc < tol:
            break
        if prev_inc is not None and inc >= prev_inc:
            bad += 1
            if bad >= 2:
                raise ContractionFailure(
                    f"increments stopped decreasing (ratio "
                    f"{inc / prev_inc:.3f} at iteration {it})")
        else:
            bad = 0
        prev_inc = inc
    g_final = DiskField(grid, -model.a(zeta + zf) * (1.0 + np.conj(dzf)),
                        model.eta)
    sol_field = DiskField(decl, zf[:rings], model.eta + 1)
    norm = weighted_norms(sol_field, pw).total
    residual = float("nan")
    if verify:
        residual = beltrami_residual(model, g_final, R, rings, angular, radial)
    return BeltramiSolution(sol_field, it, increments, residual, norm,
                            grid, g_final)


def beltrami_residual(model, g_final: DiskField, R, rings, angular, radial,
                      fd_scale=5e-3):
    """sup |dbar z + a(z) conj(dz)| on an independent, finer grid, with
    central-difference Wirtinger derivatives at steps fd_scale * |zeta|."""
    vgrid = DiskGrid(R * 0.98, rings, 2 * angular, radial + 2, puncture=True)
    pts = vgrid.nodes().ravel()
    center = {}

    def zfrak(stencil):
        # zfrak at the nodes comes from the same transform call
        vals = transform_at(g_final, np.concatenate([pts, stencil]))
        center["zfrak"] = vals[:pts.size]
        return vals[pts.size:]

    dz, dzb = fd.wirtinger(zfrak, pts, fd_scale * np.abs(pts),
                           richardson=False)
    z = pts + center["zfrak"]
    res = dzb + model.a(z) * (1.0 + np.conj(dz))
    return float(np.abs(res).max())


@dataclass
class ContractionRow:
    R: float
    j0_norm: float
    lipschitz: float


@dataclass
class ContractionStudy:
    rows: list
    j0_slope: float | None
    lipschitz_slope: float | None


def contraction_study(model: PerturbationModel, p: HolderParams, R_list,
                      probes=3, rings=8, angular=64, radial=10,
                      seed=0) -> ContractionStudy:
    """Probes ||J[0]|| and a Lipschitz-constant estimate of the Beltrami
    map across radii; the log-log slopes verify the R^(eta-nu) and R^eta
    contraction scalings."""
    rng = np.random.default_rng(seed)
    rows = []
    for R in R_list:
        grid = DiskGrid(R, rings, angular, radial, puncture=True)
        zeta = grid.nodes()
        pnorm = HolderParams(p.alpha, p.nu + 1)

        def J(zf, dzf):
            gv = -model.a(zeta + zf) * (1.0 + np.conj(dzf))
            return transform_with_derivative(DiskField(grid, gv, model.eta))

        z0, d0 = J(np.zeros_like(zeta), np.zeros_like(zeta))
        j0 = weighted_norms(DiskField(grid, z0, model.eta + 1), pnorm).total
        lip = 0.0
        for _ in range(probes):
            u = _random_probe(grid, rng)
            z1, d1 = transform_with_derivative(DiskField(grid, u, 0.0))
            scale = 0.5 / max(weighted_norms(DiskField(grid, z1, 0.0),
                                             pnorm).total, 1e-30)
            z1, d1 = z1 * scale, d1 * scale
            u2 = _random_probe(grid, rng)
            z2, d2 = transform_with_derivative(DiskField(grid, u2, 0.0))
            scale2 = 0.5 / max(weighted_norms(DiskField(grid, z2, 0.0),
                                              pnorm).total, 1e-30)
            z2, d2 = z2 * scale2, d2 * scale2
            Ja, _ = J(z1, d1)
            Jb, _ = J(z2, d2)
            dn = weighted_norms(DiskField(grid, z1 - z2, 0.0), pnorm).total
            jn = weighted_norms(DiskField(grid, Ja - Jb, 0.0), pnorm).total
            if dn > 0:
                lip = max(lip, jn / dn)
        rows.append(ContractionRow(R, j0, lip))
    j0s = [r.j0_norm for r in rows]
    lips = [r.lipschitz for r in rows]
    Rs = [r.R for r in rows]
    j0_slope = _regress(np.log(Rs), np.log(j0s)) if min(j0s) > 0 else None
    lip_slope = _regress(np.log(Rs), np.log(lips)) if min(lips) > 0 else None
    return ContractionStudy(rows, j0_slope, lip_slope)


def _random_probe(grid, rng):
    """Smooth random field with a few angular modes, O(rho) at the puncture."""
    z = grid.nodes()
    rho = np.abs(z) / grid.R
    out = np.zeros_like(z)
    for m in (-2, -1, 0, 1, 2):
        c = rng.normal() + 1j * rng.normal()
        out += c * rho ** (abs(m) + 1) * np.exp(1j * m * np.angle(z))
    return out


# ---------------------------------------------------------------------------
# two-variable operator identities


@dataclass
class IdentityReport:
    diag_defect: float           # sup |dbar_j Ttilde^j f - f|
    cross_defect: float          # sup |dbar_2 Ttilde^1 f - Ttilde^1 dbar_2 f|
    resolution: int


def dbar_identity_defect(field_fn, R=0.5, level=0, base_rings=5,
                         base_angular=16, base_radial=6, probes=160):
    """sup FD defect of dbar(Ttilde f) = f on the punctured disk.

    The mesh refines jointly with the level (angles double, radial nodes
    and rings grow, halving the truncation hole) and the FD step halves,
    so the defect at the fixed probe points is dominated by the h^2
    truncation of the difference stencil."""
    grid = DiskGrid(R, base_rings + level, base_angular * 2 ** level,
                    base_radial + 2 * level, puncture=True)
    F = DiskField.from_function(grid, field_fn, 0.0)
    # fixed probe cloud, independent of the grid nodes and of the level
    m = np.arange(probes)
    rr = 2 * R * 2.0 ** (-base_rings) + (0.8 * R - 2 * R * 2.0 ** (-base_rings)) \
        * (m + 0.5) / probes
    phis = 2 * np.pi * ((m * 0.6180339887498949) % 1.0)
    pts = rr * np.exp(1j * phis)
    step = 0.2 * 2 * np.pi / grid.angular
    _, dbar = fd.wirtinger(lambda s: transform_at(F, s), pts, step * rr,
                           richardson=False)
    return float(np.abs(dbar - field_fn(pts)).max())


def operator_identities_2var(resolution=32, R=0.8, fields=None,
                             rings1=4, radial1=6, rings2=3,
                             radial2=6) -> IdentityReport:
    """Checks dbar_1 Ttilde^1 f = f, dbar_2 T^2 f = f and the commutation
    dbar_2 Ttilde^1 f = Ttilde^1 dbar_2 f on a 2-variable polydisk grid.

    Fields are callables f(z1, z2); derivatives of transformed fields use
    mesh-scaled central differences (the h^2 truncation dominates), and
    the sup in the punctured variable excludes the innermost ring, which
    abuts the truncation hole."""
    grid1 = DiskGrid(R, rings1, resolution, radial1, puncture=True)
    grid2 = DiskGrid(R, rings2, resolution, radial2, puncture=False)
    if fields is None:
        fields = _default_2var_fields(R)
    z1 = grid1.nodes()
    z2 = grid2.nodes()
    inner2 = z2.ravel()[np.abs(z2.ravel()) <= 0.7 * R]
    z2_probe = inner2[:: max(1, inner2.size // 12)][:12]
    step = 0.25 * 2 * np.pi / resolution
    keep1 = (grid1.nrings - 1) * grid1.radial * grid1.angular
    diag = 0.0
    cross = 0.0
    for f in fields:
        # --- identity in variable 1, on slices z2 = const ------------------
        for w2 in z2_probe:
            F = DiskField(grid1, f(z1, w2), 0.0)
            rr = np.abs(z1).ravel()[:keep1]
            h = np.minimum(step * rr, 0.45 * (R - rr))
            pts = z1.ravel()[:keep1]
            _, dbar = fd.wirtinger(lambda s: transform_at(F, s), pts, h,
                                   richardson=False)
            diag = max(diag, float(np.abs(dbar - f(pts, w2)).max()))
        # --- identity in variable 2, on slices z1 = const ------------------
        z1_probe = z1.ravel()[:: max(1, z1.size // 8)][:8]
        for w1 in z1_probe:
            F2 = DiskField(grid2, f(w1, z2), 0.0)
            rr = np.maximum(np.abs(z2).ravel(), 0.05 * R)
            h = np.minimum(step * rr, 0.45 * (R - np.abs(z2).ravel()))
            pts = z2.ravel()
            _, dbar = fd.wirtinger(
                lambda s: transform_at(F2, s, modified=False), pts, h,
                richardson=False)
            diag = max(diag, float(np.abs(dbar - f(w1, pts)).max()))
        # --- commutation: dbar_2 Ttilde^1 f = Ttilde^1 dbar_2 f ------------
        for w2 in z2_probe:
            h2 = min(step * max(abs(w2), 0.05 * R), 0.45 * (R - abs(w2)))
            _, lhs = fd.wirtinger(
                lambda w: modified_transform(
                    DiskField(grid1, f(z1, w), 0.0)).values,
                w2, h2, richardson=False)
            _, dbar2f = fd.wirtinger(lambda w: f(z1, w), w2, 1e-6,
                                     richardson=False)
            rhs = modified_transform(DiskField(grid1, dbar2f, 0.0)).values
            cross = max(cross, float(np.abs(lhs - rhs).max()))
    return IdentityReport(diag, cross, resolution)


def _default_2var_fields(R):
    bump = lambda z1: np.exp(-np.abs(z1 - 0.45 * R) ** 2 / (0.25 * R) ** 2)
    return [
        lambda z1, z2: np.conj(z1) * z2,
        lambda z1, z2: np.conj(z1) ** 2 + 0.5 * z1 * np.conj(z2),
        lambda z1, z2: bump(z1) * (1.0 + 0.3 * np.conj(z2)),
        lambda z1, z2: np.abs(z1) ** 2 * np.exp(0.6 * np.conj(z2)),
        lambda z1, z2: np.conj(z1) * np.exp(0.4 * np.abs(z2) ** 2) +
        0.2 * np.conj(z2),
    ]
